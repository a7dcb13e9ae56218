"""Decision procedures for the heterodyne, parametric-amplifier, and SFG receivers.

The heterodyne receiver averages complex envelope samples and picks the nearest
constellation point.  The PA receiver picks the nearest expected value of the
phase-sensitive cross-correlation statistic O = a_I a_R + a_I^dag a_R^dag
averaged over the M mode pairs.  The SFG receiver is simulated at the
photon-bookkeeping level: the return-idler correlation is converted cycle by
cycle into a coherent amplitude read out by photon counting, after a two-mode
squeeze nulls one hypothesis.

Each decision rule exists once, shared by the scalar deciders and by
`point_decider`, the per-point rule the Monte Carlo harness runs: nearest point
(ties to the lowest index), the zero-photon test's no-click probability, and
the sequential phase test over a row of click rates.  `point_decider` takes a
bare symbol tuple, so the all-zero constellation of eta = 0 needs no special
case: every distance ties and no photon ever arrives.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .gaussian import (
    mean_photon_number,
    phase_sensitive_correlation,
)
from .link import Alphabet, AlphabetKind, ChannelParams, Symbol, apply_channel


class UnsupportedAlphabetError(ValueError):
    """Raised when a receiver cannot operate on the requested alphabet."""


class ReceiverKind(enum.Enum):
    HETERODYNE = "heterodyne"
    PA = "pa"
    SFG = "sfg"


@dataclass(frozen=True)
class ReceiverSpec:
    """Receiver selection plus tunables.

    Unset tunables are filled from the channel parameters by `resolved`:
    pa_epsilon_sq defaults to sqrt(N_S)/N_Z (the geometric mean of its validity
    window N_S/N_Z << eps^2 << 1/N_Z) and sfg_tau defaults to 0.01/N_Z.
    """

    kind: ReceiverKind
    pa_epsilon_sq: float | None = None
    sfg_tau: float | None = None
    sfg_capture_eps: float = 1e-3
    include_thermal_residual: bool = False

    def resolved(self, cp: ChannelParams) -> "ReceiverSpec":
        """Fill defaults from the channel and validate the tunable windows."""
        spec = self
        if spec.kind is ReceiverKind.PA and spec.pa_epsilon_sq is None:
            spec = replace(spec, pa_epsilon_sq=math.sqrt(cp.N_S) / cp.N_Z if cp.N_S > 0 else 0.5 / cp.N_Z)
        if spec.kind is ReceiverKind.SFG and spec.sfg_tau is None:
            spec = replace(spec, sfg_tau=0.01 / cp.N_Z)
        if spec.kind is ReceiverKind.PA:
            eps2 = spec.pa_epsilon_sq
            if not (cp.N_S / cp.N_Z < eps2 < 1.0 / cp.N_Z):
                raise ValueError(
                    f"pa_epsilon_sq = {eps2:g} outside validity window "
                    f"({cp.N_S / cp.N_Z:g}, {1.0 / cp.N_Z:g})"
                )
        if spec.kind is ReceiverKind.SFG:
            if spec.sfg_tau * cp.N_Z > 0.1:
                raise ValueError(
                    f"sfg_tau * N_Z = {spec.sfg_tau * cp.N_Z:g} exceeds 0.1"
                )
            if not 0.0 < spec.sfg_capture_eps < 1.0:
                raise ValueError("sfg_capture_eps must lie in (0, 1)")
        return spec


# ---------------------------------------------------------------------------
# heterodyne receiver
# ---------------------------------------------------------------------------


def heterodyne_envelope(samples, N_S: float) -> complex:
    """Normalized envelope estimate: (sum of samples) / (M sqrt(N_S)).

    With samples drawn from the received mode, the mean of the result is
    sqrt(eta) e^{-i phi}.
    """
    if N_S <= 0:
        raise ValueError(f"N_S must be positive, got {N_S}")
    samples = np.asarray(samples)
    if samples.size == 0:
        raise ValueError("need at least one sample")
    return complex(np.sum(samples) / (samples.size * math.sqrt(N_S)))


def _nearest_index(x, points) -> int:
    """Index of the point nearest to x (real or complex); ties go to the lowest index."""
    best, best_d = 0, abs(x - points[0])
    for k in range(1, len(points)):
        d = abs(x - points[k])
        if d < best_d:
            best, best_d = k, d
    return best


def heterodyne_decide(envelope: complex, a: Alphabet) -> Symbol:
    """Nearest constellation point; ties resolve to the lowest symbol index."""
    return a.symbols[_nearest_index(envelope, [s.complex_point() for s in a.symbols])]


# ---------------------------------------------------------------------------
# parametric-amplifier receiver
# ---------------------------------------------------------------------------


def pa_statistic_moments(
    cp: ChannelParams, symbol: Symbol, exact_variance: bool = False
) -> tuple[float, float]:
    """Per-copy mean and variance of the cross-correlation statistic.

    The statistic is O = a_I a_R + a_I^dag a_R^dag, whose mean under a symbol
    (sqrt(eta), phase) is 2 sqrt(eta N_S (N_S+1)) cos(phase + cp.phi): both the
    correlation and its conjugate contribute, which is what makes the measured
    displacement twice the single-sided correlation.  The default variance is
    the bright-background approximation N_Z; exact_variance computes the full
    Gaussian fourth-moment expression from the joint state.
    """
    flags = cp.validity_warnings()
    if flags:
        warnings.warn(
            "PA statistic approximations assume "
            + "; ".join(flags),
            stacklevel=2,
        )
    mean = _pa_mean(symbol, cp)
    if not exact_variance:
        return mean, cp.N_Z
    state = apply_channel(cp, symbol)
    c = phase_sensitive_correlation(state, 0, 1)
    n_r = mean_photon_number(state, 0)
    n_i = mean_photon_number(state, 1)
    # Wick expansion of <O^2> - <O>^2 for a zero-mean Gaussian state
    var = 2.0 * (c * c).real + (n_i + 1.0) * (n_r + 1.0) + n_i * n_r
    return mean, var


def pa_sample(
    cp: ChannelParams, symbol: Symbol, M: int, rng: np.random.Generator
) -> float:
    """One realization of the M-copy averaged statistic, Normal(mean, var/M)."""
    if M < 100:
        raise ValueError(f"central-limit sampling needs M >= 100, got {M}")
    mean, var = pa_statistic_moments(cp, symbol)
    return float(rng.normal(mean, math.sqrt(var / M)))


def _pa_mean(symbol: Symbol, cp: ChannelParams) -> float:
    return 2.0 * math.sqrt(symbol.eta * cp.N_S * (cp.N_S + 1.0)) * math.cos(symbol.phase + cp.phi)


def pa_decision_grid(a: Alphabet, cp: ChannelParams) -> list[float]:
    """Expected statistic value for each symbol of an aligned alphabet."""
    return [_pa_mean(s, cp) for s in a.symbols]


def _require_pa_alphabet(kind: AlphabetKind, n_symbols: int) -> None:
    if kind is AlphabetKind.QPSK or n_symbols != 2:
        raise UnsupportedAlphabetError(
            "PA receiver supports only two-symbol aligned alphabets (PAM, BPSK)"
        )


def pa_decide(statistic: float, a: Alphabet, cp: ChannelParams) -> Symbol:
    """Nearest symbol along the statistic's real axis; PAM and BPSK only.

    QPSK is rejected: the statistic projects onto one axis, so orthogonal-phase
    symbols are indistinguishable and the receiver offers no gain there.
    """
    _require_pa_alphabet(a.kind, len(a))
    return a.symbols[_nearest_index(statistic, pa_decision_grid(a, cp))]


# ---------------------------------------------------------------------------
# SFG receiver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SfgBookkeeping:
    """Per-cycle photon bookkeeping of the SFG feed-forward loop.

    C0_sq is the per-hypothesis squared correlation entering the cycle
    recursion; cycles holds (n_b, n_E) for k = 1..K; total is the captured
    sum of n_b + n_E over those cycles.
    """

    C0_sq: float
    cycles: tuple[tuple[float, float], ...]
    K: int
    total: float


def _cycle_ratio(cp: ChannelParams, spec: ReceiverSpec) -> float:
    """Per-cycle amplitude ratio x = 1 - tau (1 + N_Z) of a resolved spec."""
    x = 1.0 - spec.sfg_tau * (1.0 + cp.N_Z)
    if x <= 0.0:
        raise ValueError(
            f"tau (1 + N_Z) = {spec.sfg_tau * (1.0 + cp.N_Z):g} must be < 1"
        )
    return x


def sfg_cycle_count(cp: ChannelParams, spec: ReceiverSpec) -> int:
    """Minimal K capturing a 1 - eps fraction of the infinite cycle series."""
    spec = spec.resolved(cp)
    x = _cycle_ratio(cp, spec)
    return max(1, math.ceil(math.log(spec.sfg_capture_eps) / (2.0 * math.log(x))))


def sfg_bookkeeping(
    cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec
) -> SfgBookkeeping:
    """Cycle-by-cycle photon counts for a hypothesis pair at squared distance d^2.

    The per-hypothesis correlation magnitude entering the recursion is
    C0_sq = d^2 N_S (N_S + 1) / 4, and cycle k carries
    n_b = n_E = tau M C0_sq [1 - tau (1 + N_Z)]^{2k}.  The physical photon
    count rate of the nulled-hypothesis test is four times `total`, because
    nulling one hypothesis doubles the surviving coherent amplitude (see
    sfg_count_rate).
    """
    if symbol_distance_sq < 0:
        raise ValueError("squared distance must be >= 0")
    spec = spec.resolved(cp)
    x = _cycle_ratio(cp, spec)
    C0_sq = symbol_distance_sq * cp.N_S * (cp.N_S + 1.0) / 4.0
    K = sfg_cycle_count(cp, spec)
    base = spec.sfg_tau * cp.M * C0_sq
    cycles = []
    total = 0.0
    for k in range(1, K + 1):
        n_b = base * x ** (2 * k)
        cycles.append((n_b, n_b))
        total += 2.0 * n_b
    return SfgBookkeeping(C0_sq=C0_sq, cycles=tuple(cycles), K=K, total=total)


def sfg_infinite_total(
    cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec
) -> float:
    """Closed form of the infinite cycle series, 2 tau M C0_sq x^2 / (1 - x^2)."""
    spec = spec.resolved(cp)
    x = _cycle_ratio(cp, spec)
    C0_sq = symbol_distance_sq * cp.N_S * (cp.N_S + 1.0) / 4.0
    return 2.0 * spec.sfg_tau * cp.M * C0_sq * x * x / (1.0 - x * x)


@functools.lru_cache(maxsize=4096)
def _count_rate_cached(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec) -> float:
    return 4.0 * sfg_bookkeeping(cp, symbol_distance_sq, spec).total


def sfg_count_rate(
    cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec
) -> float:
    """Poisson rate of the photon counter when the true and nulled hypotheses
    sit at squared constellation distance d^2.

    The nulling squeeze displaces the correlation of the tested hypothesis to
    zero, so the surviving amplitude is the full pairwise difference: its
    squared magnitude is 4 C0_sq, i.e. four times the per-hypothesis total.
    """
    return _count_rate_cached(cp, symbol_distance_sq, spec.resolved(cp))


def sfg_nulling_params(symbol: Symbol, cp: ChannelParams) -> tuple[float, float]:
    """Two-mode squeeze (G, theta) that zeroes <a_R a_I> for the given hypothesis.

    Solved from the post-channel moments: with c = <a_R a_I> and
    n = n_R + n_I + 1, the gain satisfies G(G-1) = |c|^2 / (n^2 - 4|c|^2) and
    the phase is arg(c) + pi.  Because G sits on the float grid just above 1,
    the returned gain is snapped to the representable neighbor minimizing the
    analytic residual; the reachable null is limited to roughly
    eps * n^2 / (4 |c|) in double precision.
    """
    state = apply_channel(cp, symbol)
    c = phase_sensitive_correlation(state, 0, 1)
    cmag = abs(c)
    if cmag == 0.0:
        return 1.0, 0.0
    n = mean_photon_number(state, 0) + mean_photon_number(state, 1) + 1.0
    v = cmag * cmag / (n * n - 4.0 * cmag * cmag)
    w = 2.0 * v / (1.0 + math.sqrt(1.0 + 4.0 * v))  # G - 1, cancellation-free
    theta = (cmath.phase(c) + math.pi) % (2.0 * math.pi)

    def residual(G: float) -> float:
        wg = G - 1.0  # exact for G in [1, 2)
        return abs((G + wg) * cmag - math.sqrt(G * wg) * n)

    G0 = 1.0 + w
    candidates = {G0, math.nextafter(G0, 0.0), math.nextafter(G0, 2.0)}
    G = min(candidates, key=residual)
    return G, theta


def _pairwise_distance_sq(a: Symbol, b: Symbol) -> float:
    return abs(a.complex_point() - b.complex_point()) ** 2


@functools.lru_cache(maxsize=1024)
def _residual_context(
    cp: ChannelParams, true_symbol: Symbol, spec: ReceiverSpec
) -> tuple[float, int]:
    state = apply_channel(cp, true_symbol)
    n_r = mean_photon_number(state, 0)
    n_i = mean_photon_number(state, 1)
    return n_i * spec.sfg_tau * n_r, sfg_cycle_count(cp, spec)


def sfg_no_click_probability(
    cp: ChannelParams, true_symbol: Symbol, null_symbol: Symbol, spec: ReceiverSpec
) -> float:
    """Probability that the zero-photon test counts nothing over the K cycles.

    exp(-sfg_count_rate) at the true-to-nulled distance, times (1 + nbar)^-K
    with include_thermal_residual, where nbar = n_I (tau n_R) is the
    Bose-Einstein floor under each cycle's converted mode (dropped by default:
    it is bounded by tau N_S N_Z << 1 per cycle).
    """
    spec = spec.resolved(cp)
    p = math.exp(-sfg_count_rate(cp, _pairwise_distance_sq(true_symbol, null_symbol), spec))
    if spec.include_thermal_residual:
        nbar, K = _residual_context(cp, true_symbol, spec)
        p *= (1.0 + nbar) ** -K
    return p


def _null_index(kind: AlphabetKind, symbols: tuple[Symbol, ...]) -> int:
    if len(symbols) != 2:
        raise UnsupportedAlphabetError("zero-photon test needs a two-symbol alphabet")
    if kind is AlphabetKind.BPSK:
        return max(range(2), key=lambda k: symbols[k].phase)
    return min(range(2), key=lambda k: symbols[k].amplitude)


def sfg_null_symbol(a: Alphabet) -> Symbol:
    """Hypothesis whose correlation the squeeze nulls before counting.

    For PAM the lower-amplitude symbol is nulled; for BPSK the phase-pi symbol.
    """
    return a.symbols[_null_index(a.kind, a.symbols)]


def sfg_decide_zero_photon(
    cp: ChannelParams,
    a: Alphabet,
    true_symbol: Symbol,
    spec: ReceiverSpec,
    rng: np.random.Generator,
) -> Symbol:
    """Zero-photon test for two-symbol alphabets.

    Nulls one hypothesis, counts all converted photons over the K cycles, and
    declares the nulled hypothesis iff the count is zero: one uniform draw
    against sfg_no_click_probability.
    """
    null = _null_index(a.kind, a.symbols)
    p_no_click = sfg_no_click_probability(cp, true_symbol, a.symbols[null], spec)
    return a.symbols[null if rng.random() < p_no_click else 1 - null]


def sequential_click_test(rates, modes_budget: int, rng: np.random.Generator) -> int:
    """Advance-on-click schedule over hypotheses with given per-mode-pair rates.

    Tests hypotheses in the order given; the current one is discarded as soon
    as one photon arrives (geometric waiting time over mode pairs), consuming
    the pairs spent waiting.  Returns the index (into `rates`) of the
    hypothesis holding when the budget runs out, or the last discarded one if
    every hypothesis clicked.
    """
    declared = len(rates) - 1
    modes_left = modes_budget
    for j, r in enumerate(rates):
        if r <= 0.0:
            return j  # no photon ever arrives; hypothesis survives the budget
        p_click = -math.expm1(-r) if r < 30.0 else 1.0
        pairs_to_click = int(rng.geometric(p_click))
        if pairs_to_click > modes_left:
            return j  # survived the remaining budget without a click
        modes_left -= pairs_to_click
        declared = j
    return declared


def _click_rates(
    cp: ChannelParams, symbols: tuple[Symbol, ...], true_symbol: Symbol, spec: ReceiverSpec
) -> list[float]:
    """Per-mode-pair click rate with each hypothesis nulled (zero for the truth)."""
    return [
        sfg_count_rate(cp, _pairwise_distance_sq(true_symbol, hyp), spec) / cp.M
        for hyp in symbols
    ]


def _sequential_phase_test(rates: list[float], M: int, rng: np.random.Generator) -> int:
    """Enter the cyclic hypothesis order at a uniform offset, then run
    sequential_click_test; returns the declared index into `rates`."""
    n = len(rates)
    offset = int(rng.integers(n))
    visit = [(offset + step) % n for step in range(n)]
    return visit[sequential_click_test([rates[k] for k in visit], M, rng)]


def sfg_decide_qpsk(
    cp: ChannelParams,
    a: Alphabet,
    true_symbol: Symbol,
    spec: ReceiverSpec,
    rng: np.random.Generator,
) -> Symbol:
    """Sequential test over the four phase hypotheses.

    Hypotheses are visited in the fixed cyclic order of the alphabet, entered
    at a uniformly random offset (the constellation is rotationally symmetric,
    which keeps the error rate identical for every true symbol).  The currently
    nulled hypothesis is discarded as soon as one photon arrives; whichever
    hypothesis survives when the M pairs are exhausted is declared.  If every
    hypothesis is discarded, the last-discarded one is declared.
    """
    if a.kind is not AlphabetKind.QPSK or len(a) != 4:
        raise UnsupportedAlphabetError("sequential phase test needs a QPSK alphabet")
    rates = _click_rates(cp, a.symbols, true_symbol, spec)
    return a.symbols[_sequential_phase_test(rates, cp.M, rng)]


def point_decider(
    cp: ChannelParams, kind: AlphabetKind, symbols: tuple[Symbol, ...], spec: ReceiverSpec
) -> Callable[[int, np.random.Generator], int]:
    """The receiver's rule at one operating point: decide(true_index, rng) -> index.

    Everything that depends only on the point is computed here once; each call
    then draws the decision statistic for the true symbol from its exact law
    and applies the rule the scalar decider applies.  The heterodyne envelope
    is the M-sample average, complex Gaussian with per-quadrature variance
    ((1 - eta) N_Z + 1) / (2 M N_S); the PA statistic is Normal(mean, N_Z / M).
    """
    spec = spec.resolved(cp)
    if spec.kind is ReceiverKind.HETERODYNE:
        points = [s.complex_point() for s in symbols]
        sd = math.sqrt(((1.0 - cp.eta) * cp.N_Z + 1.0) / (2.0 * cp.M * cp.N_S))

        def decide(i: int, rng: np.random.Generator) -> int:
            noise = rng.standard_normal(2)
            return _nearest_index(points[i] + sd * complex(noise[0], noise[1]), points)

    elif spec.kind is ReceiverKind.PA:
        _require_pa_alphabet(kind, len(symbols))
        grid = [_pa_mean(s, cp) for s in symbols]
        sd = math.sqrt(cp.N_Z / cp.M)

        def decide(i: int, rng: np.random.Generator) -> int:
            return _nearest_index(grid[i] + sd * rng.standard_normal(), grid)

    elif kind is AlphabetKind.QPSK:
        rows = [_click_rates(cp, symbols, s, spec) for s in symbols]

        def decide(i: int, rng: np.random.Generator) -> int:
            return _sequential_phase_test(rows[i], cp.M, rng)

    else:
        null = _null_index(kind, symbols)
        p_no_click = [sfg_no_click_probability(cp, s, symbols[null], spec) for s in symbols]

        def decide(i: int, rng: np.random.Generator) -> int:
            return null if rng.random() < p_no_click[i] else 1 - null

    return decide
