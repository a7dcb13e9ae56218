"""Reproducible bit-error-rate experiments against the analytic bounds.

Sweeps are parameterized by the composite s = eta N_S M / N_Z with eta
back-solved at fixed N_S, N_Z, M.  The trial engine is counter-based, after
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): a hash
of (master_seed, point_index, trial_index) gives each trial's true symbol and
uniforms, so counts do not depend on how trials are split into blocks;
aggregation is by error counts.  The engine, `count_errors`, knows no
receiver: it applies an array-form rule decide(i, u) to numpy blocks, hashing
each block in place and computing only the uniform rows the rule reads.  Its
rules are the per-point receiver rules of `receivers.point_decider` and the
phase-hopped eavesdropper of `analytics.eve_random_phase_ber` (bit from the
hash, Box-Muller noise from u[0] and u[1], hop from u[2]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import (
    classical_ep_lower_bound,
    pa_ep_upper_bound,
    sfg_ep_upper_bound,
)
from .link import Alphabet, AlphabetKind, ChannelParams, Symbol
from .receivers import (
    DRAWS,
    ReceiverKind,
    ReceiverSpec,
    UnsupportedAlphabetError,
    point_decider,
    uniforms,
)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: two-sided 95% normal quantile used for Wilson intervals
WILSON_Z = 1.959963984540054


def _mix64(z):
    """SplitMix64 finalizer on a Python int."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_M1, _M2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """_mix64 over a uint64 array, in place; uint64 wraps, so no masking."""
    tmp = np.empty_like(z)
    for shift, mul in ((30, _M1), (27, _M2)):
        z ^= np.right_shift(z, shift, out=tmp)
        z *= mul
    z ^= np.right_shift(z, 31, out=tmp)
    return z


def _counter_hash(master_seed: int, point_index: int, trial_index):
    """64-bit hash of the (master, point, trial) counter triple; trial_index
    may be a uint64 array, giving one hash per trial.  The array path hashes
    the (master, point) prefix once on Python ints and the trial word in
    place on a copy."""
    h = 0x243F6A8885A308D3
    array = isinstance(trial_index, np.ndarray)
    for w in (master_seed, point_index) if array else (master_seed, point_index, trial_index):
        h = _mix64(h ^ _mix64((w + _GAMMA) & _MASK64))
        h = (h * 0xD1342543DE82EF95 + 1) & _MASK64
    if not array:
        return _mix64(h)
    z = _mix64_inplace(trial_index + np.uint64(_GAMMA))
    z ^= np.uint64(h)
    _mix64_inplace(z)
    z *= np.uint64(0xD1342543DE82EF95)
    z += np.uint64(1)
    return _mix64_inplace(z)


def derive_trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Collision-free 128-bit stream seed for one (point, trial) pair.

    Counter-mode mixing: the three inputs are hashed to a 64-bit counter state
    which is expanded through the finalizer with distinct salts into the two
    words of the seed.  Identical inputs give identical seeds; distinct pairs
    give distinct streams.  Nothing in the package calls it: every trial draws
    from the counter hash itself.  It stays for the bench's seed-hashing metric.
    """
    if point_index < 0 or trial_index < 0:
        raise ValueError("indices must be >= 0")
    h = _counter_hash(master_seed, point_index, trial_index)
    return (_mix64(h ^ 0x2545F4914F6CDD1D) << 64) | _mix64(h ^ 0x9E3779B97F4A7C15)


@dataclass(frozen=True)
class ExperimentConfig:
    """One BER experiment: receiver, alphabet kind, channel scales, and sweep."""

    alphabet_kind: AlphabetKind
    receiver: ReceiverSpec
    N_S: float
    N_Z: float
    M: int
    sweep: tuple[float, ...]
    trials_per_point: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "sweep", tuple(float(s) for s in self.sweep))
        for name, value in (("N_S", self.N_S), ("N_Z", self.N_Z)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.M < 1:
            raise ValueError(f"M must be >= 1, got {self.M}")
        if self.trials_per_point < 1000:
            raise ValueError(f"need at least 1000 trials per point, got {self.trials_per_point}")
        if len(self.sweep) == 0:
            raise ValueError("sweep must not be empty")
        if any(s < 0 for s in self.sweep):
            raise ValueError("sweep values must be >= 0")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep must be strictly increasing")
        if self.receiver.kind is ReceiverKind.PA and self.alphabet_kind is AlphabetKind.QPSK:
            raise UnsupportedAlphabetError("PA receiver does not support QPSK")
        if self.alphabet_kind is AlphabetKind.CUSTOM:
            raise UnsupportedAlphabetError("experiments need a PAM, BPSK, or QPSK alphabet")
        if self.receiver.kind is ReceiverKind.SFG:
            self.receiver.sfg_cycles(self.N_Z)  # rejects a tap outside its window
        eta_max = self.eta_for(max(self.sweep))
        if eta_max > 1.0:
            raise ValueError(
                f"sweep point s = {max(self.sweep):g} back-solves to eta = {eta_max:g} > 1"
            )

    def eta_for(self, s: float) -> float:
        """Back-solved round-trip transmissivity for a sweep point."""
        return s * self.N_Z / (self.N_S * self.M)


@dataclass(frozen=True)
class BerCurvePoint:
    s: float
    empirical_ber: float
    wilson_ci_low: float
    wilson_ci_high: float
    analytic_bound: float
    trials: int
    errors: int


@dataclass(frozen=True)
class BerCurve:
    points: tuple[BerCurvePoint, ...]


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson 95% score interval; well behaved at zero observed errors."""
    if trials < 1 or errors < 0 or errors > trials:
        raise ValueError("need 0 <= errors <= trials with trials >= 1")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    lo = 0.0 if errors == 0 else max(0.0, center - half)
    hi = 1.0 if errors == trials else min(1.0, center + half)
    return lo, hi


def _nominal_symbols(kind: AlphabetKind, eta: float) -> tuple[Symbol, ...]:
    """Constellation for a sweep point; degenerate (all-zero) when eta == 0."""
    amp = math.sqrt(eta)
    if kind is AlphabetKind.PAM:
        return (Symbol(0.0, 0.0), Symbol(amp, 0.0))
    if kind is AlphabetKind.BPSK:
        return (Symbol(amp, 0.0), Symbol(amp, math.pi))
    if kind is AlphabetKind.QPSK:
        return tuple(Symbol(amp, k * math.pi / 2.0) for k in range(4))
    raise UnsupportedAlphabetError(f"unsupported alphabet kind {kind}")


def analytic_bound_value(
    receiver_kind: ReceiverKind,
    alphabet_kind: AlphabetKind,
    eta: float,
    N_S: float,
    M: int,
    N_Z: float,
) -> float:
    """Matching bound for a sweep point; closed degenerate values at eta == 0."""
    nsym = 4 if alphabet_kind is AlphabetKind.QPSK else 2
    if eta <= 0.0:
        return 1.0 / (2.0 * nsym) if receiver_kind is ReceiverKind.HETERODYNE else 1.0
    a = Alphabet(_nominal_symbols(alphabet_kind, eta), alphabet_kind)
    if receiver_kind is ReceiverKind.HETERODYNE:
        return classical_ep_lower_bound(a, N_S, M, N_Z).value
    if receiver_kind is ReceiverKind.PA:
        return pa_ep_upper_bound(a, N_S, M, N_Z).value
    return sfg_ep_upper_bound(a, N_S, M, N_Z).value


_SYMBOL_SALT = np.uint64(0xD1342543DE82EF95)
#: trials per block: amortizes numpy's per-call cost, while the DRAWS + 1 word
#: rows and their scratch (1.5 MB) stay in a core's L2 cache
_BLOCK = 1 << 14
#: a trial's uniforms are the SplitMix64 sequence started at its hash h:
#: draw k is _mix64(h + (k + 1) * _GAMMA)
_DRAW_STEPS = np.array([[(k * _GAMMA) & _MASK64] for k in range(1, DRAWS + 1)], dtype=np.uint64)


def _count_point_errors(cfg: ExperimentConfig, point_index: int, start: int, count: int) -> int:
    """Symbol errors of one sweep point's receiver rule over trials [start, start+count)."""
    eta = cfg.eta_for(cfg.sweep[point_index])
    symbols = _nominal_symbols(cfg.alphabet_kind, eta)
    cp = ChannelParams(eta=eta, phi=0.0, N_Z=cfg.N_Z, M=cfg.M, N_S=cfg.N_S)
    decide = point_decider(cp, cfg.alphabet_kind, symbols, cfg.receiver)
    return count_errors(decide, len(symbols), cfg.master_seed, point_index, start, count)


def count_errors(decide, n_symbols: int, master_seed: int, point_index: int, start: int, count: int) -> int:
    """Errors of the array-form rule `decide(i, u)` over trials [start, start+count).

    Trial t's counter hash h gives its true symbol, _mix64(h ^ _SYMBOL_SALT)
    masked to the n_symbols (2 or 4) indices, and its uniforms, draw k being
    _mix64(h + (k + 1) _GAMMA), so any partition of the trial range
    reproduces the same counts.  The rule is applied to blocks of _BLOCK
    trials and reads only its first `decide.draws` rows of uniforms, so only
    those are computed; draw k depends on h and k alone, so the values it
    reads are those of the full DRAWS rows.
    """
    steps = _DRAW_STEPS[: decide.draws]
    mask = np.uint64(n_symbols - 1)
    stop = start + count
    errors = 0
    for lo in range(start, stop, _BLOCK):
        trials = np.arange(lo, min(lo + _BLOCK, stop), dtype=np.uint64)
        h = _counter_hash(master_seed, point_index, trials)
        words = np.empty((len(steps) + 1, len(h)), dtype=np.uint64)
        np.bitwise_xor(h, _SYMBOL_SALT, out=words[0])
        np.add(h, steps, out=words[1:])
        _mix64_inplace(words)
        i = (words[0] & mask).astype(np.intp)
        errors += int(np.count_nonzero(decide(i, uniforms(words[1:])) != i))
    return errors


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """Run all sweep points; the empirical curve with bounds attached, fixed by master_seed."""
    points = []
    for p, s in enumerate(cfg.sweep):
        errors = _count_point_errors(cfg, p, 0, cfg.trials_per_point)
        trials = cfg.trials_per_point
        lo, hi = wilson_interval(errors, trials)
        bound = analytic_bound_value(
            cfg.receiver.kind, cfg.alphabet_kind, cfg.eta_for(s), cfg.N_S, cfg.M, cfg.N_Z
        )
        points.append(
            BerCurvePoint(
                s=s,
                empirical_ber=errors / trials,
                wilson_ci_low=lo,
                wilson_ci_high=hi,
                analytic_bound=bound,
                trials=trials,
                errors=errors,
            )
        )
    return BerCurve(points=tuple(points))


def fit_error_exponent(curve: BerCurve, s_min: float) -> float:
    """Least-squares slope of -ln(BER) against s over points with s >= s_min.

    Zero-error points are skipped; at least three usable points are required.
    """
    xs, ys = [], []
    for pt in curve.points:
        if pt.s >= s_min and pt.empirical_ber > 0.0:
            xs.append(pt.s)
            ys.append(-math.log(pt.empirical_ber))
    if len(xs) < 3:
        raise ValueError(
            f"need at least 3 nonzero points with s >= {s_min:g}, have {len(xs)}"
        )
    slope = np.polyfit(np.asarray(xs), np.asarray(ys), 1)[0]
    return float(slope)
