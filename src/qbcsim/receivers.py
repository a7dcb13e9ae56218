"""Decision procedures for the heterodyne, parametric-amplifier, and SFG receivers.

The heterodyne receiver averages complex envelope samples and picks the nearest
constellation point.  The PA receiver picks the nearest expected value of the
phase-sensitive cross-correlation statistic O = a_I a_R + a_I^dag a_R^dag
averaged over the M mode pairs.  The SFG receiver is simulated at the
photon-bookkeeping level: the return-idler correlation is converted cycle by
cycle into a coherent amplitude read out by photon counting, after a two-mode
squeeze nulls one hypothesis.

Each decision rule exists once, in `point_decider`: the array-form rule
decide(true_index[n], u[DRAWS, n]) -> index[n] that the Monte Carlo harness
runs on blocks of trials.  A rule reads only its first `decide.draws` rows
of u, so the harness computes only those; the rows it reads hold the same
values either way.  Nearest point (ties to the lowest index) is shared with
`heterodyne_decide` and `pa_decide`.  `point_decider` takes a bare symbol
tuple, so the all-zero constellation of eta = 0 needs no special case:
every distance ties and no photon ever arrives.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass

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
    """Receiver selection plus the SFG tunables, checked when built.

    sfg_tau must be None (use the default tap 0.01/N_Z) or finite and > 0, and
    sfg_capture_eps must lie in (0, 1).  The checks that need the background
    N_Z are made by `sfg_cycles`: tau N_Z <= 0.1, tau (1 + N_Z) < 1, and a
    cycle count K that is a finite number.
    """

    kind: ReceiverKind
    sfg_tau: float | None = None
    sfg_capture_eps: float = 1e-3
    include_thermal_residual: bool = False

    def __post_init__(self):
        if self.sfg_tau is not None and not (math.isfinite(self.sfg_tau) and self.sfg_tau > 0):
            raise ValueError(f"sfg_tau must be finite and > 0, got {self.sfg_tau!r}")
        if not 0.0 < self.sfg_capture_eps < 1.0:
            raise ValueError(f"sfg_capture_eps must lie in (0, 1), got {self.sfg_capture_eps!r}")

    def sfg_cycles(self, N_Z: float) -> tuple[float, float, int]:
        """The SFG loop at background N_Z: the tap tau, ln x of the per-cycle
        amplitude ratio x = 1 - tau (1 + N_Z), and the least cycle count K
        capturing a 1 - eps fraction of the infinite series (x^2K <= eps)."""
        tau = 0.01 / N_Z if self.sfg_tau is None else self.sfg_tau
        if not (tau * N_Z <= 0.1 and tau * (1.0 + N_Z) < 1.0):
            raise ValueError(f"sfg_tau = {tau:g} at N_Z = {N_Z:g} breaks "
                             "tau N_Z <= 0.1 or tau (1 + N_Z) < 1")
        log_x = math.log1p(-tau * (1.0 + N_Z))
        K = math.log(self.sfg_capture_eps) / (2.0 * log_x)
        if not math.isfinite(K):
            raise ValueError(f"sfg_tau = {tau:g} needs more than 1e308 cycles")
        return tau, log_x, max(1, math.ceil(K))


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


def _nearest_index(x, points):
    """Index of the point nearest to x (real or complex, scalar or array of
    trials): a running first minimum with a strict <, so ties go to the
    lowest index.  The index moves by arithmetic, not by masked writes."""
    x = np.asarray(x)
    best = np.abs(x - points[0])
    index = np.zeros(best.shape, dtype=np.intp)
    for k in range(1, len(points)):
        d = np.abs(x - points[k])
        closer = d < best
        index += closer * (k - index)
        best = np.minimum(best, d)
    return index


def heterodyne_decide(envelope: complex, a: Alphabet) -> Symbol:
    """Nearest constellation point; ties resolve to the lowest symbol index."""
    return a.symbols[int(_nearest_index(envelope, [s.complex_point() for s in a.symbols]))]


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
    return a.symbols[int(_nearest_index(statistic, pa_decision_grid(a, cp)))]


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


def _c0_sq(cp: ChannelParams, symbol_distance_sq: float) -> float:
    if symbol_distance_sq < 0:
        raise ValueError("squared distance must be >= 0")
    return symbol_distance_sq * cp.N_S * (cp.N_S + 1.0) / 4.0


def _cycle_sum(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec, infinite=False) -> float:
    """Sum of n_b + n_E over the K cycles (over all of them if `infinite`),
    2 tau M C0_sq x^2 (1 - x^2K) / (1 - x^2).  With 1 - x^2K = -expm1(2K ln x)
    and 1 - x^2 = tau (1 + N_Z) (1 + x), whose tau cancels, it costs the same
    and stays accurate for any tau and K."""
    _, log_x, K = spec.sfg_cycles(cp.N_Z)
    x = math.exp(log_x)
    captured = 1.0 if infinite else -math.expm1(2.0 * K * log_x)
    return 2.0 * cp.M * _c0_sq(cp, symbol_distance_sq) * x * x * captured / ((1.0 + cp.N_Z) * (1.0 + x))


def sfg_bookkeeping(
    cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec
) -> SfgBookkeeping:
    """Cycle-by-cycle photon counts for a hypothesis pair at squared distance d^2.

    The per-hypothesis correlation magnitude entering the recursion is
    C0_sq = d^2 N_S (N_S + 1) / 4, and cycle k carries
    n_b = n_E = tau M C0_sq [1 - tau (1 + N_Z)]^{2k}.  The physical photon
    count rate of the nulled-hypothesis test is four times `total`, because
    nulling one hypothesis doubles the surviving coherent amplitude (see
    sfg_count_rate).  Only this listing walks the K cycles; the rate does not.
    """
    C0_sq = _c0_sq(cp, symbol_distance_sq)
    tau, log_x, K = spec.sfg_cycles(cp.N_Z)
    n_b = [tau * cp.M * C0_sq * math.exp(2 * k * log_x) for k in range(1, K + 1)]
    return SfgBookkeeping(C0_sq, tuple((n, n) for n in n_b), K, _cycle_sum(cp, symbol_distance_sq, spec))


def sfg_infinite_total(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec) -> float:
    """Closed form of the infinite cycle series, 2 tau M C0_sq x^2 / (1 - x^2)."""
    return _cycle_sum(cp, symbol_distance_sq, spec, infinite=True)


def sfg_count_rate(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec) -> float:
    """Poisson rate of the photon counter when the true and nulled hypotheses
    sit at squared constellation distance d^2.

    The nulling squeeze displaces the correlation of the tested hypothesis to
    zero, so the surviving amplitude is the full pairwise difference: its
    squared magnitude is 4 C0_sq, i.e. four times the per-hypothesis total.
    """
    return 4.0 * _cycle_sum(cp, symbol_distance_sq, spec)


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


def _residual_context(
    cp: ChannelParams, true_symbol: Symbol, spec: ReceiverSpec
) -> tuple[float, int]:
    state = apply_channel(cp, true_symbol)
    tau, _, K = spec.sfg_cycles(cp.N_Z)
    return mean_photon_number(state, 1) * tau * mean_photon_number(state, 0), K  # n_I tau n_R


def sfg_no_click_probability(
    cp: ChannelParams, true_symbol: Symbol, null_symbol: Symbol, spec: ReceiverSpec
) -> float:
    """Probability that the zero-photon test counts nothing over the K cycles.

    exp(-sfg_count_rate) at the true-to-nulled distance, times (1 + nbar)^-K
    with include_thermal_residual, where nbar = n_I (tau n_R) is the
    Bose-Einstein floor under each cycle's converted mode (dropped by default:
    it is bounded by tau N_S N_Z << 1 per cycle).
    """
    p = math.exp(-sfg_count_rate(cp, _pairwise_distance_sq(true_symbol, null_symbol), spec))
    if spec.include_thermal_residual:
        nbar, K = _residual_context(cp, true_symbol, spec)
        p *= math.exp(-K * math.log1p(nbar))
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


def sequential_click_test(rates, modes_budget: int, u) -> np.ndarray:
    """Advance-on-click schedule over hypotheses with given per-mode-pair rates.

    Row j of `rates` (a scalar, or one rate per trial) and of the uniforms `u`
    (one per trial) belong to the j-th hypothesis tested.  The current one is
    discarded as soon as one photon arrives, consuming the mode pairs spent
    waiting: floor(-ln u / r) + 1 pairs, geometric with click probability
    1 - e^-r, and never for r = 0.  Returns per trial the index of the
    hypothesis holding when the budget runs out, or the last one if every
    hypothesis clicked.
    """
    rates = np.reshape(rates, (len(rates), -1))
    with np.errstate(divide="ignore", over="ignore"):  # r = 0: infinite wait
        spent = np.cumsum(np.floor(-np.log(u[: len(rates)]) / rates) + 1.0, axis=0)
    survived = spent > modes_budget
    return np.where(survived.any(axis=0), survived.argmax(axis=0), len(rates) - 1)


#: uniforms per trial that a point rule may read: the QPSK test's entry offset
#: and one wait per hypothesis.  Each rule declares as `decide.draws` how many
#: of these rows it reads (Box-Muller 2, the zero-photon test 1); the rows it
#: reads hold the same values whether or not the later ones exist.
DRAWS = 5


def uniforms(words) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from uint64 words: the top 52 bits,
    centred in their cell, so logs stay finite and floor(n u) < n.  The
    52-bit words convert exactly, and faster, as int64."""
    top = (np.asarray(words, dtype=np.uint64) >> 12).view(np.int64)
    return (top.astype(np.float64) + 0.5) * 2.0**-52


def _box_muller(u) -> tuple[np.ndarray, np.ndarray]:
    """Radius sqrt(-2 ln u[0]) and angle 2 pi u[1] of a complex normal with
    unit variance per quadrature, as in r e^{i theta}."""
    return np.sqrt(-2.0 * np.log(u[0])), 2.0 * math.pi * u[1]


@functools.lru_cache(maxsize=256)
def point_decider(
    cp: ChannelParams, kind: AlphabetKind, symbols: tuple[Symbol, ...], spec: ReceiverSpec
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The receiver's rule at one operating point: decide(true_index[n], u[DRAWS, n]) -> index[n].

    Everything that depends only on the point is computed here once; each
    call then draws every trial's decision statistic for its true symbol
    from the exact law, using that trial's column of uniforms, and applies
    the rule.  The heterodyne envelope is the M-sample average, complex
    Gaussian with per-quadrature variance ((1 - eta) N_Z + 1) / (2 M N_S);
    the PA statistic is Normal(mean, N_Z / M), the real part of the same
    Box-Muller draw.  The zero-photon test (two symbols) nulls
    `sfg_null_symbol` and declares it iff u[0] < sfg_no_click_probability.
    The QPSK test enters the cyclic hypothesis order at offset floor(4 u[0]),
    which keeps the error rate the same for every true symbol, and waits on
    u[1:] (see `sequential_click_test`).

    The rule is cached because building it costs more than looking it up:
    per point at N_Z = 100, built vs looked up with equal fresh arguments,
    SFG-QPSK 68-75 vs 5 us, SFG-BPSK 14 vs 4 us, heterodyne QPSK 6 vs 5 us,
    PA-BPSK 5 vs 4 us (2 cores, Python 3.11.7, numpy 2.4.6).  A process that
    runs the same sweep point again hits it, as a loop of in-process
    `simulate` calls does.

    The rule carries `decide.draws`, the number of leading rows of u it
    reads: 2 (heterodyne, PA), 1 (zero-photon test) or DRAWS (QPSK test).
    u may have just those rows; the result is the same as with all DRAWS.
    """
    if spec.kind is ReceiverKind.HETERODYNE:
        points = np.array([s.complex_point() for s in symbols])
        sd = math.sqrt(((1.0 - cp.eta) * cp.N_Z + 1.0) / (2.0 * cp.M * cp.N_S))

        def decide(i: np.ndarray, u: np.ndarray) -> np.ndarray:
            r, theta = _box_muller(u)
            x = points[i]
            x.real += sd * (r * np.cos(theta))
            x.imag += sd * (r * np.sin(theta))
            return _nearest_index(x, points)

        decide.draws = 2

    elif spec.kind is ReceiverKind.PA:
        _require_pa_alphabet(kind, len(symbols))
        grid = np.array([_pa_mean(s, cp) for s in symbols])
        sd = math.sqrt(cp.N_Z / cp.M)

        def decide(i: np.ndarray, u: np.ndarray) -> np.ndarray:
            r, theta = _box_muller(u)
            return _nearest_index(grid[i] + sd * (r * np.cos(theta)), grid)

        decide.draws = 2

    elif kind is AlphabetKind.QPSK:
        n = len(symbols)
        # rows[t, h]: click rate per mode pair for true symbol t with h nulled
        rows = np.array([
            [sfg_count_rate(cp, _pairwise_distance_sq(t, h), spec) / cp.M for h in symbols]
            for t in symbols
        ])
        steps = np.arange(n)[:, None]

        def decide(i: np.ndarray, u: np.ndarray) -> np.ndarray:
            visit = (np.floor(n * u[0]).astype(np.intp) + steps) % n
            declared = sequential_click_test(rows[i, visit], cp.M, u[1:])
            return np.take_along_axis(visit, declared[None], axis=0)[0]

        decide.draws = DRAWS

    else:
        null = _null_index(kind, symbols)
        p_no_click = np.array([sfg_no_click_probability(cp, s, symbols[null], spec) for s in symbols])

        def decide(i: np.ndarray, u: np.ndarray) -> np.ndarray:
            return np.where(u[0] < p_no_click[i], null, 1 - null)

        decide.draws = 1

    return decide
