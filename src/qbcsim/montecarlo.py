"""Reproducible bit-error-rate experiments against the analytic bounds.

Sweeps are parameterized by the composite s = eta N_S M / N_Z with eta
back-solved at fixed N_S, N_Z, M.  The trial engine is counter-based, after
Salmon et al., "Parallel random numbers: as easy as 1, 2, 3" (SC'11): a hash
of (master_seed, point_index, trial_index) gives each trial's true symbol and
uniforms, so counts do not depend on how trials are split into blocks;
aggregation is by error counts.  The engine, `count_errors`, knows no
receiver: it applies array-form rules decide(i, u, z) to numpy blocks
(the contract is in `receivers.point_decider`'s docstring), hashing each
block in place.  It alone makes the rows the rules read: only the uniform
rows they declare (`uniforms`) and, once per block group of points, only
the Box-Muller normal rows they declare (`normals`).  Its rules are the
per-point `point_decider` rules each `ExperimentConfig` keeps and the
phase-hopped eavesdropper of `eve_random_phase_ber`, whose run lives in
this module (bit from the hash, noise from z[0], hop from u[2]).
`run_experiments` passes all the points of every experiment that shares a
master seed, alphabet size and trial count to one call, and that call
hashes each distinct point index once for all of them: each of its rules
reads the same read-only symbol, uniform and normal columns.

Blocks are sized in 64-bit words, not trials: at most _BLOCK = 2^14 words
(128 KiB) of hash and uniform rows, so 2^14 // (draws + 1) trials.  Larger
arrays, and the temporaries of their size, exceed glibc's mmap threshold and
page-fault on every allocation.  Whole points share a block when they fit
(1000-trial points go 2 to a block for the 5-draw SFG-QPSK rule, 5 for the
2-draw ones and 8 for the zero-photon test), the trial-only hash step is
computed once for all of them, and their hash rows are finished together in
one array of at most _BLOCK words (a group's normal rows: at most 10922).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analytics import (
    classical_ep_lower_bound,
    pa_ep_upper_bound,
    sfg_ep_upper_bound,
)
from .link import Alphabet, AlphabetKind, ChannelParams, nominal_alphabet
from .receivers import ReceiverKind, ReceiverSpec, envelope_sd, point_decider

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


def _prefix_hash(*words: int) -> int:
    """Counter-hash state after absorbing `words` (Python ints), before the
    final mix: each word w gives h = _mix64(h ^ _mix64(w + _GAMMA)) C + 1."""
    h = 0x243F6A8885A308D3
    for w in words:
        h = _mix64(h ^ _mix64((w + _GAMMA) & _MASK64))
        h = (h * 0xD1342543DE82EF95 + 1) & _MASK64
    return h


def _finish_hash(z: np.ndarray) -> np.ndarray:
    """The last absorb step and final mix, in place, on z = prefix ^ _mix64(trial + _GAMMA)."""
    _mix64_inplace(z)
    z *= np.uint64(0xD1342543DE82EF95)
    z += np.uint64(1)
    return _mix64_inplace(z)


def _counter_hash(master_seed: int, point_index: int, trial_index):
    """64-bit hash of the (master, point, trial) counter triple; trial_index
    may be a uint64 array, giving one hash per trial.  The array path hashes
    the (master, point) prefix once on Python ints and the trial word in
    place on a copy."""
    if not isinstance(trial_index, np.ndarray):
        return _mix64(_prefix_hash(master_seed, point_index, trial_index))
    z = _mix64_inplace(trial_index + np.uint64(_GAMMA))
    z ^= np.uint64(_prefix_hash(master_seed, point_index))
    return _finish_hash(z)


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
    #: each sweep point's receiver rule and analytic bound, built once by __post_init__
    rules: tuple = field(init=False, repr=False, compare=False)
    bounds: tuple[float, ...] = field(init=False, repr=False, compare=False)

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
        if not all(math.isfinite(s) and s >= 0 for s in self.sweep):
            raise ValueError("sweep values must be finite and >= 0")
        if any(b <= a for a, b in zip(self.sweep, self.sweep[1:])):
            raise ValueError("sweep must be strictly increasing")
        eta_max = self.eta_for(max(self.sweep))
        if eta_max > 1.0:
            raise ValueError(
                f"sweep point s = {max(self.sweep):g} back-solves to eta = {eta_max:g} > 1"
            )
        # building each point's rule and bound is the check (unsupported pair, moment overflow)
        rules, bounds = [], []
        for s in self.sweep:
            eta = self.eta_for(s)
            cp = ChannelParams(eta=eta, phi=0.0, N_Z=self.N_Z, M=self.M, N_S=self.N_S)
            a = nominal_alphabet(self.alphabet_kind, eta)
            rules.append(point_decider(cp, a, self.receiver))
            bounds.append(analytic_bound_value(self.receiver.kind, a, self.N_S, self.M, self.N_Z))
        object.__setattr__(self, "rules", tuple(rules))
        object.__setattr__(self, "bounds", tuple(bounds))

    @property
    def n_symbols(self) -> int:
        """Alphabet size, 2 or 4: the symbol indices the engine draws."""
        return 4 if self.alphabet_kind is AlphabetKind.QPSK else 2

    def eta_for(self, s: float) -> float:
        """Back-solved round-trip transmissivity for a sweep point."""
        return s * self.N_Z / (self.N_S * self.M)


class BerCurvePoint(NamedTuple):
    s: float
    empirical_ber: float
    wilson_ci_low: float
    wilson_ci_high: float
    analytic_bound: float
    trials: int
    errors: int


class BerCurve(NamedTuple):
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


def analytic_bound_value(
    receiver_kind: ReceiverKind,
    a: Alphabet,
    N_S: float,
    M: int,
    N_Z: float,
) -> float:
    """Matching bound for a sweep point's alphabet; at eta == 0 it is the bound at d^2 = 0."""
    if receiver_kind is ReceiverKind.HETERODYNE:
        return classical_ep_lower_bound(a, N_S, M, N_Z).value
    if receiver_kind is ReceiverKind.PA:
        return pa_ep_upper_bound(a, N_S, M, N_Z).value
    return sfg_ep_upper_bound(a, N_S, M, N_Z).value


_SYMBOL_SALT = np.uint64(0xD1342543DE82EF95)
#: uint64 words per block, hash row and uniform rows together: 128 KiB,
#: glibc's default mmap threshold (see the module docstring)
_BLOCK = 1 << 14


def _block_trials(draws: int) -> int:
    """Trials per block for rules reading `draws` uniform rows: with the hash
    row that is draws + 1 words per trial, within the _BLOCK word budget."""
    return _BLOCK // (draws + 1)


def uniforms(words) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from uint64 words: the top 52 bits,
    centred in their cell, so logs stay finite and floor(n u) < n.  The
    52-bit words convert exactly, and faster, as int64."""
    top = (np.asarray(words, dtype=np.uint64) >> 12).view(np.int64)
    u = top.astype(np.float64)
    u += 0.5
    u *= 2.0**-52
    return u


def normals(u, rows: int) -> np.ndarray:
    """The first `rows` (1 or 2) of the Box-Muller normal rows r cos theta,
    r sin theta, with r = sqrt(-2 ln u[0]) and theta = 2 pi u[1]:
    independent, unit variance, one column per trial."""
    r = np.log(u[0])
    r *= -2.0
    np.sqrt(r, out=r)
    theta = u[1] * (2.0 * math.pi)
    z = np.empty((rows, r.shape[-1]))
    for row, trig in zip(z, (np.cos, np.sin)):
        trig(theta, out=row)
        row *= r
    return z


def count_errors(rules, n_symbols: int, master_seed: int, start: int, count: int) -> list[int]:
    """Errors of each (point_index, decide) rule over trials [start, start+count).

    Each rule keeps the contract of `receivers.point_decider` and is called
    as decide(i, u, z).  Trial t of point p has counter hash h: its true
    symbol is _mix64(h ^ _SYMBOL_SALT) masked to the n_symbols (2 or 4)
    indices, and its draw k is _mix64(h + (k + 1) _GAMMA), so neither the
    blocks nor the grouping of points moves a count.  Only the uniform rows
    the rules read (the most `decide.draws`) are computed; draw k depends on
    h and k alone, so they hold the same values however many rows exist.
    The normal rows are made once per block group of points, with the most
    `decide.normals` any rule of the call declares (0 rows, and no Box-Muller
    work, when none declares any).  Several rules may share a point index:
    each distinct point's hash row, symbol word, uniform and normal rows are
    finished once, and every rule at that point reads the same columns.
    Those arrays are read-only, so a rule that writes into its inputs raises
    ValueError instead of moving another rule's count.  Distinct points
    share blocks of `_block_trials(draws)` trials as the module docstring
    says, each reading its own contiguous columns.  No rule runs across
    points: a sweep-wide rule needs 2-D fancy indexing, which costs more
    than the per-point calls it saves.
    """
    draws = max(decide.draws for _, decide in rules)
    steps = np.array([[k * _GAMMA & _MASK64] for k in range(1, draws + 1)], dtype=np.uint64)
    mask = np.uint64(n_symbols - 1)
    readers = {}  # point index -> its (rule position, decide) pairs, in first-seen order
    for r, (p, decide) in enumerate(rules):
        readers.setdefault(p, []).append((r, decide))
    points = list(readers)
    normal_rows = max(decide.normals for _, decide in rules)
    prefixes = np.array([[_prefix_hash(master_seed, p)] for p in points], dtype=np.uint64)
    per_block = _block_trials(draws)
    stop = start + count
    errors = [0] * len(rules)
    for lo in range(start, stop, per_block):
        trials = np.arange(lo, min(lo + per_block, stop), dtype=np.uint64)
        trials += np.uint64(_GAMMA)
        mixed = _mix64_inplace(trials)
        n = len(mixed)
        group = per_block // n
        # whole groups of hash rows, as many as fit the _BLOCK word budget,
        # are finished in one array
        rows = group * (_BLOCK // (group * n))
        for c in range(0, len(points), rows):
            hashes = _finish_hash(mixed ^ prefixes[c : c + rows])
            for g in range(c, min(c + rows, len(points)), group):
                hg = hashes[g - c : g - c + group].reshape(-1)
                words = np.empty((draws + 1, len(hg)), dtype=np.uint64)
                np.add(hg, steps, out=words[1:])
                h = np.bitwise_xor(hg, _SYMBOL_SALT, out=words[0])
                _mix64_inplace(words)
                i = (h & mask).astype(np.intp)
                u = uniforms(words[1:])
                z = normals(u, normal_rows) if normal_rows else np.empty((0, len(hg)))
                i.flags.writeable = u.flags.writeable = z.flags.writeable = False
                for j in range(g, min(g + group, len(points))):
                    cols = slice((j - g) * n, (j - g + 1) * n)
                    ic, uc, zc = i[cols], u[:, cols], z[:, cols]
                    for r, decide in readers[points[j]]:
                        errors[r] += int(np.count_nonzero(decide(ic, uc, zc) != ic))
    return errors


def eve_random_phase_ber(
    eta: float,
    N_S: float,
    M: int,
    N_Z: float,
    trials: int,
    rng: np.random.Generator,
    phase_dist: str = "uniform",
) -> float:
    """Monte Carlo BER of a heterodyne eavesdropper against phase-hopped BPSK.

    Each codeword carries a phase offset theta unknown to the eavesdropper:
    "uniform" draws theta from [0, 2pi), "binary" from {0, pi}, and "none"
    fixes theta = 0 as the no-defense control.  The eavesdropper run lives
    here, next to `count_errors`, its only engine: its trials are the one
    rule (point 0) of a `count_errors` call seeded by one raw word of `rng`,
    in blocks of 4096 trials at its 3 draws:
    the bit comes from the hash, the M-fold averaged envelope noise
    (per-quadrature deviation `receivers.envelope_sd`) from the normal row
    z[0], the hop from u[2]; the decision is the real part's sign.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if phase_dist not in ("uniform", "binary", "none"):
        raise ValueError(f"unknown phase_dist {phase_dist!r}")
    cp = ChannelParams(eta, 0.0, N_Z, M, N_S)
    if not N_S > 0:
        raise ValueError(f"N_S must be > 0, got {N_S}")
    amp, sd = math.sqrt(eta), envelope_sd(cp)
    if not math.isfinite(sd):
        raise ValueError(f"envelope variance overflows: N_S M = {N_S * M:g} is too small")
    hop = {"uniform": 2.0 * math.pi, "binary": math.pi, "none": 0.0}[phase_dist]

    def decide(i: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        w = np.floor(2.0 * u[2]) if phase_dist == "binary" else u[2]
        x = amp * np.cos(math.pi * i + hop * w) + sd * z[0]
        return (x < 0.0).astype(np.intp)  # nearest of +-sqrt(eta)

    decide.draws, decide.normals = 3, 1
    master = int(rng.bit_generator.random_raw())
    return count_errors([(0, decide)], 2, master, 0, trials)[0] / trials


def _curve(cfg: ExperimentConfig, counts: list[int]) -> BerCurve:
    """The curve of `cfg` from its per-point error counts and kept bounds."""
    points = []
    for s, bound, errors in zip(cfg.sweep, cfg.bounds, counts):
        trials = cfg.trials_per_point
        lo, hi = wilson_interval(errors, trials)
        points.append(BerCurvePoint(s=s, empirical_ber=errors / trials, wilson_ci_low=lo,
                                    wilson_ci_high=hi, analytic_bound=bound, trials=trials,
                                    errors=errors))
    return BerCurve(points=tuple(points))


def run_experiments(cfgs) -> list[BerCurve]:
    """Each config's curve, as `run_experiment` gives it alone.  Configs that
    share (master_seed, alphabet size, trials_per_point) draw the same trial
    stream, so their points go to one `count_errors` call."""
    groups = {}
    for k, cfg in enumerate(cfgs):
        key = (cfg.master_seed, cfg.n_symbols, cfg.trials_per_point)
        groups.setdefault(key, []).append((k, list(enumerate(cfg.rules))))
    counts = [None] * len(cfgs)
    for (seed, n_symbols, trials), members in groups.items():
        flat = iter(count_errors([r for _, rs in members for r in rs], n_symbols, seed, 0, trials))
        for k, rules in members:
            counts[k] = [next(flat) for _ in rules]
    return [_curve(cfg, errors) for cfg, errors in zip(cfgs, counts)]


def run_experiment(cfg: ExperimentConfig) -> BerCurve:
    """Run all sweep points; the empirical curve with bounds attached, fixed by master_seed."""
    return run_experiments([cfg])[0]


def fit_error_exponent(curve: BerCurve, s_min: float) -> float:
    """Least-squares slope of -ln(BER) against s over points with s >= s_min,
    in closed form: sum (x - mean x)(y - mean y) / sum (x - mean x)^2.

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
    return statistics.linear_regression(xs, ys).slope
