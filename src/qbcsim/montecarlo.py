"""Reproducible bit-error-rate experiments against the analytic bounds.

Sweeps are parameterized by the composite s = eta N_S M / N_Z with eta
back-solved at fixed N_S, N_Z, M.  Every trial owns an independent RNG stream
derived from (master_seed, point_index, trial_index) by counter-mode mixing,
so results are bit-identical for any execution order or degree of parallelism;
aggregation is by error counts.  The trial loop knows no receiver: once per
sweep point it takes the decision rule from `receivers.point_decider` and
applies it to each trial's true symbol and stream.  The number of worker
processes is capped by the QBC_THREADS environment variable (default 1).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analytics import (
    classical_ep_lower_bound,
    pa_ep_upper_bound,
    sfg_ep_upper_bound,
)
from .link import Alphabet, AlphabetKind, ChannelParams, Symbol
from .receivers import ReceiverKind, ReceiverSpec, UnsupportedAlphabetError, point_decider

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

#: two-sided 95% normal quantile used for Wilson intervals
WILSON_Z = 1.959963984540054


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _counter_hash(master_seed: int, point_index: int, trial_index: int) -> int:
    """64-bit hash of the (master, point, trial) counter triple."""
    h = 0x243F6A8885A308D3
    for w in (master_seed, point_index, trial_index):
        h = _mix64(h ^ _mix64((w + _GAMMA) & _MASK64))
        h = (h * 0xD1342543DE82EF95 + 1) & _MASK64
    return _mix64(h)


def derive_trial_seed(master_seed: int, point_index: int, trial_index: int) -> int:
    """Collision-free 128-bit stream seed for one (point, trial) pair.

    Counter-mode mixing: the three inputs are hashed to a 64-bit counter state
    which is expanded through the finalizer with distinct salts into the two
    words of the seed.  Identical inputs give identical seeds; distinct pairs
    give distinct streams.
    """
    if point_index < 0 or trial_index < 0:
        raise ValueError("indices must be >= 0")
    h = _counter_hash(master_seed, point_index, trial_index)
    return (_mix64(h ^ 0x2545F4914F6CDD1D) << 64) | _mix64(h ^ 0x9E3779B97F4A7C15)


def _trial_generator_factory():
    """Returns (generator, reseed) where reseed(h) repositions the stream.

    `h` is the 64-bit counter hash of one trial; the PCG64 state and stream
    increment are expanded from it exactly as derive_trial_seed does.
    """
    bg = np.random.PCG64(0)
    gen = np.random.Generator(bg)
    outer = bg.state
    inner = {"state": 0, "inc": 1}
    outer["state"] = inner
    outer["has_uint32"] = 0
    outer["uinteger"] = 0

    def reseed(h: int) -> np.random.Generator:
        inner["state"] = (_mix64(h ^ 0x2545F4914F6CDD1D) << 64) | _mix64(
            h ^ 0x9E3779B97F4A7C15
        )
        inner["inc"] = (
            (_mix64(h ^ 0xA5A5A5A5A5A5A5A5) << 64) | _mix64(h ^ 0x5A5A5A5A5A5A5A5A)
        ) | 1
        bg.state = outer
        return gen

    return gen, reseed


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
        eta_max = self.eta_for(max(self.sweep))
        if eta_max > 1.0 + 1e-12:
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


_SYMBOL_SALT = 0xD1342543DE82EF95


def _count_point_errors(
    cfg: ExperimentConfig, point_index: int, start: int, count: int
) -> int:
    """Symbol errors over trials [start, start+count) of one sweep point.

    Each trial's randomness is a pure function of (master_seed, point_index,
    trial_index): the true symbol comes from one hash word and the receiver
    noise from the PCG64 stream positioned by the rest, so any partition of
    the trial range reproduces the same counts.  The decision itself is the
    receiver's per-point rule from `receivers.point_decider`.
    """
    eta = cfg.eta_for(cfg.sweep[point_index])
    symbols = _nominal_symbols(cfg.alphabet_kind, eta)
    cp = ChannelParams(eta=eta, phi=0.0, N_Z=cfg.N_Z, M=cfg.M, N_S=cfg.N_S)
    decide = point_decider(cp, cfg.alphabet_kind, symbols, cfg.receiver)
    mask = len(symbols) - 1  # 2 or 4 symbols
    _, reseed = _trial_generator_factory()
    mix, chash, ms = _mix64, _counter_hash, cfg.master_seed
    errors = 0
    for t in range(start, start + count):
        h = chash(ms, point_index, t)
        i = mix(h ^ _SYMBOL_SALT) & mask
        errors += decide(i, reseed(h)) != i
    return errors


def _point_tasks(cfg: ExperimentConfig, workers: int):
    chunk = max(1, math.ceil(cfg.trials_per_point / (4 * workers)))
    for point_index in range(len(cfg.sweep)):
        start = 0
        while start < cfg.trials_per_point:
            count = min(chunk, cfg.trials_per_point - start)
            yield point_index, start, count
            start += count


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """Run all sweep points and return the empirical curve with bounds attached.

    Deterministic for a fixed master_seed regardless of execution order or the
    QBC_THREADS worker count.
    """
    workers = max(1, int(os.environ.get("QBC_THREADS", "1")))
    errors_per_point = [0] * len(cfg.sweep)
    if workers == 1:
        for p in range(len(cfg.sweep)):
            errors_per_point[p] = _count_point_errors(cfg, p, 0, cfg.trials_per_point)
    else:
        tasks = list(_point_tasks(cfg, workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                _count_point_errors,
                [cfg] * len(tasks),
                [t[0] for t in tasks],
                [t[1] for t in tasks],
                [t[2] for t in tasks],
            )
            for (p, _, _), err in zip(tasks, results):
                errors_per_point[p] += err

    points = []
    for p, s in enumerate(cfg.sweep):
        errors = errors_per_point[p]
        trials = cfg.trials_per_point
        ber = errors / trials
        lo, hi = wilson_interval(errors, trials)
        bound = analytic_bound_value(
            cfg.receiver.kind, cfg.alphabet_kind, cfg.eta_for(s), cfg.N_S, cfg.M, cfg.N_Z
        )
        points.append(
            BerCurvePoint(
                s=s,
                empirical_ber=ber,
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
