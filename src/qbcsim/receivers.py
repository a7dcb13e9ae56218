"""Decision procedures for the heterodyne, parametric-amplifier, and SFG receivers.

The heterodyne receiver averages complex envelope samples and picks the nearest
constellation point.  The PA receiver picks the nearest expected value of the
phase-sensitive cross-correlation statistic O = a_I a_R + a_I^dag a_R^dag
averaged over the M mode pairs.  The SFG receiver is simulated at the
photon-bookkeeping level: the return-idler correlation is converted cycle by
cycle into a coherent amplitude read out by photon counting, after a two-mode
squeeze nulls one hypothesis.

Each decision rule exists once, in `point_decider`: the array-form rule
decide(i, u, z), the only decision path, which the Monte Carlo harness runs
on blocks of trials and the tests check; its docstring states the rule's
contract.  The harness (`montecarlo.count_errors`) alone makes the uniform
and normal rows the rules read.  The all-zero constellation of eta = 0
needs no special case: every distance ties (ties go to the lowest index)
and no photon ever arrives.
"""

from __future__ import annotations

import cmath
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .link import (Alphabet, AlphabetKind, ChannelParams, Symbol, UnsupportedAlphabetError,
                   return_idler_moments)


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


def envelope_sd(cp: ChannelParams) -> float:
    """Per-quadrature standard deviation of the M-sample averaged envelope,
    sqrt(((1 - eta) N_Z + 1) / (2 M N_S)); inf when the variance overflows.
    The probe is coherent (`apply_channel_classical`): noise (1 - eta) N_Z, not n_R."""
    return math.sqrt(((1.0 - cp.eta) * cp.N_Z + 1.0) / (2.0 * cp.M * cp.N_S))


def _nearest_index(x, points):
    """Index of the point nearest to x (real or complex, scalar or array of
    trials) among two or more points: a running first minimum with a strict
    <, so ties go to the lowest index.  The first comparison sets the index,
    later ones move it by arithmetic, not by masked writes, and the running
    minimum is kept only while another comparison follows."""
    x = np.asarray(x)
    best = np.abs(x - points[0])
    d = np.abs(x - points[1])
    index = (d < best).astype(np.intp)
    for k in range(2, len(points)):
        best = np.minimum(best, d)
        d = np.abs(x - points[k])
        closer = d < best
        index += closer * (k - index)
    return index


# ---------------------------------------------------------------------------
# parametric-amplifier receiver
# ---------------------------------------------------------------------------


def pa_decision_grid(a: Alphabet, cp: ChannelParams) -> list[float]:
    """Expected statistic value 2 Re c for each symbol of an aligned two-symbol alphabet."""
    if a.kind is AlphabetKind.QPSK or len(a) != 2:
        raise UnsupportedAlphabetError(
            f"PA receiver supports only two-symbol aligned alphabets (PAM, BPSK), not {a.kind.name}"
        )
    return [2.0 * return_idler_moments(cp, s)[2].real for s in a.symbols]


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


def _cycle_sum(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec) -> float:
    """Sum of n_b + n_E over the K cycles of spec.sfg_cycles(N_Z),
    2 tau M C0_sq x^2 (1 - x^2K) / (1 - x^2).
    With 1 - x^2K = -expm1(2K ln x) and 1 - x^2 = tau (1 + N_Z) (1 + x), whose
    tau cancels, it costs the same and stays accurate for any tau and K."""
    _, log_x, K = spec.sfg_cycles(cp.N_Z)
    x = math.exp(log_x)
    captured = -math.expm1(2.0 * K * log_x)
    return 2.0 * cp.M * _c0_sq(cp, symbol_distance_sq) * x * x * captured / ((1.0 + cp.N_Z) * (1.0 + x))


#: most cycles `sfg_bookkeeping` lists (the default tap lists about 341 at N_Z = 100)
MAX_LISTED_CYCLES = 10**5


def sfg_bookkeeping(
    cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec
) -> SfgBookkeeping:
    """Cycle-by-cycle photon counts for a hypothesis pair at squared distance d^2.

    The per-hypothesis correlation magnitude entering the recursion is
    C0_sq = d^2 N_S (N_S + 1) / 4, and cycle k carries
    n_b = n_E = tau M C0_sq [1 - tau (1 + N_Z)]^{2k}.  The physical photon
    count rate of the nulled-hypothesis test is four times `total`, because
    nulling one hypothesis doubles the surviving coherent amplitude (see
    sfg_count_rate).  Only this listing walks the K <= MAX_LISTED_CYCLES cycles.
    """
    C0_sq = _c0_sq(cp, symbol_distance_sq)
    tau, log_x, K = spec.sfg_cycles(cp.N_Z)
    if K > MAX_LISTED_CYCLES:
        raise ValueError(f"K = {K} cycles is too many to list; sfg_count_rate is the closed form")
    n_b = [tau * cp.M * C0_sq * math.exp(2 * k * log_x) for k in range(1, K + 1)]
    return SfgBookkeeping(C0_sq, tuple((n, n) for n in n_b), K, _cycle_sum(cp, symbol_distance_sq, spec))


def sfg_count_rate(cp: ChannelParams, symbol_distance_sq: float, spec: ReceiverSpec) -> float:
    """Poisson rate of the photon counter when the true and nulled hypotheses
    sit at squared constellation distance d^2.

    The nulling squeeze displaces the correlation of the tested hypothesis to
    zero, so the surviving amplitude is the full pairwise difference: its
    squared magnitude is 4 C0_sq, i.e. four times the per-hypothesis total.
    The rate is linear in d^2, which the QPSK table of `point_decider` uses.

    C0_sq = d^2 N_S (N_S + 1) / 4 is leading order in N_S.  In units of
    d^2 N_S M / N_Z, at N_Z = 100 and the default tap, the rate is 1.0716,
    0.9839 and 0.9751 at N_S = 0.1, 0.01 and 0.001 (eta does not enter).
    The BPSK quantum Chernoff exponent caps every receiver; at eta = 1e-3 it
    is 0.586, 0.821 and 0.932 in the same units (Pirandola & Lloyd's Gaussian
    formula, evaluated outside this package), so the model exceeds it.
    """
    return 4.0 * _cycle_sum(cp, symbol_distance_sq, spec)


def sfg_nulling_params(symbol: Symbol, cp: ChannelParams) -> tuple[float, float]:
    """Two-mode squeeze (G, theta) that zeroes <a_R a_I> for the given hypothesis.

    Solved from `return_idler_moments`: with c = <a_R a_I> and
    n = n_R + n_I + 1, the gain satisfies G(G-1) = |c|^2 / (n^2 - 4|c|^2) and
    the phase is arg(c) + pi.  Because G sits on the float grid just above 1,
    the returned gain is snapped to the representable neighbor minimizing the
    analytic residual; the reachable null is limited to roughly
    eps * n^2 / (4 |c|) in double precision.
    """
    n_r, n_i, c = return_idler_moments(cp, symbol)
    cmag = abs(c)
    if cmag == 0.0:
        return 1.0, 0.0
    n = n_r + n_i + 1.0
    v = cmag * cmag / (n * n - 4.0 * cmag * cmag)
    w = 2.0 * v / (1.0 + math.sqrt(1.0 + 4.0 * v))  # G - 1, cancellation-free
    theta = (cmath.phase(c) + math.pi) % (2.0 * math.pi)

    def residual(G: float) -> float:
        wg = G - 1.0  # exact for G in [1, 2)
        return abs((G + wg) * cmag - math.sqrt(G * wg) * n)

    G0 = 1.0 + w
    candidates = {G0, max(1.0, math.nextafter(G0, 0.0)), math.nextafter(G0, 2.0)}
    G = min(candidates, key=residual)
    return G, theta


def sfg_no_click_probability(
    cp: ChannelParams, true_symbol: Symbol, null_symbol: Symbol, spec: ReceiverSpec
) -> float:
    """Probability that the zero-photon test counts nothing over the K cycles.

    exp(-sfg_count_rate) at the true-to-nulled distance, times (1 + nbar)^-K
    with include_thermal_residual, where nbar = n_I (tau n_R) is the
    Bose-Einstein floor under each cycle's converted mode, both moments of
    `return_idler_moments` for the true symbol.  It is dropped by default,
    but it is small only per cycle: over the K cycles
    K nbar ~ N_S n_R ln(1/eps) / (2 (1 + N_Z)) for any tau, 0.034 at
    N_S = 0.01, N_Z = 100 and eps = 1e-3.  With it the nulled hypothesis is
    rejected with probability 1 - e^(-K nbar), so SFG-BPSK has an error floor
    of 1/2 (1 - e^(-K nbar)), about 1.7 % there.
    """
    d2 = abs(true_symbol.complex_point() - null_symbol.complex_point()) ** 2
    p = math.exp(-sfg_count_rate(cp, d2, spec))
    if spec.include_thermal_residual:
        n_r, n_i, _ = return_idler_moments(cp, true_symbol)
        tau, _, K = spec.sfg_cycles(cp.N_Z)
        p *= math.exp(-K * math.log1p(n_i * tau * n_r))
    return p


def sfg_null_symbol(a: Alphabet) -> Symbol:
    """Hypothesis whose correlation the squeeze nulls before counting.

    For PAM the lower-amplitude symbol is nulled; for BPSK the phase-pi symbol.
    Ties go to the first symbol.
    """
    if len(a) != 2:
        raise UnsupportedAlphabetError("zero-photon test needs a two-symbol alphabet")
    if a.kind is AlphabetKind.BPSK:
        return max(a.symbols, key=lambda s: s.phase)
    return min(a.symbols, key=lambda s: s.amplitude)


def sequential_click_test(rates, modes_budget: int, u) -> np.ndarray:
    """Advance-on-click schedule over hypotheses with given per-mode-pair rates.

    Row j of `rates` (a scalar, or one rate per trial) and of the uniforms `u`
    (one per trial) belong to the j-th hypothesis tested.  The current one is
    discarded as soon as one photon arrives, consuming the mode pairs spent
    waiting: floor(-ln u / r) + 1 pairs, geometric with click probability
    1 - e^-r, and never for r = 0.  Returns per trial the index of the
    hypothesis holding when the budget runs out, or the last one if every
    hypothesis clicked.  The running total of the waits never decreases, so
    that index is the number of running totals within the budget.
    """
    rates = np.reshape(rates, (len(rates), -1))
    n = len(rates)
    with np.errstate(divide="ignore", over="ignore"):  # r = 0: infinite wait
        spent = np.log(u[:n])
        np.negative(spent, out=spent)
        spent /= rates
    np.floor(spent, out=spent)
    spent += 1.0
    for j in range(1, n):
        spent[j] += spent[j - 1]
    held = (spent <= modes_budget).sum(axis=0)
    return np.minimum(held, n - 1, out=held)


def point_decider(
    cp: ChannelParams, a: Alphabet, spec: ReceiverSpec
) -> Callable[[np.ndarray, np.ndarray, np.ndarray | None], np.ndarray]:
    """The receiver's rule at one operating point: decide(i, u, z) -> index[n].

    The receiver's only decision path, run by the Monte Carlo harness and
    checked by the tests.  Every trial rule, these and the eavesdropper's of
    `montecarlo.eve_random_phase_ber`, keeps one contract.  i[n] holds the
    trials' true symbol indices, and the rule returns each trial's declared
    index without writing into its inputs.  The rule declares `decide.draws`,
    the leading rows of uniforms u it reads (`montecarlo.uniforms`), and
    `decide.normals`, the leading rows of z it reads: the Box-Muller normal
    rows r cos theta, r sin theta of u[0] and u[1] (`montecarlo.normals`),
    so a normal reader declares at least 2 draws.  z is None where no rule
    at the point declares normals.  u and z may hold more rows than a rule
    declares: the rows it reads hold the same values either way.

    Everything that depends only on the point is computed here once; each
    call then draws every trial's decision statistic for its true symbol
    from its law, using that trial's columns, and applies the rule.
    The heterodyne envelope is the M-sample average, complex Gaussian with
    per-quadrature deviation `envelope_sd`: draws 2, normals 2.  The PA
    statistic is Normal(mean, N_Z / M) (bright-background per-copy variance
    N_Z), from z[0]: draws 2, normals 1.
    The zero-photon test (two symbols) nulls `sfg_null_symbol` and declares
    it iff u[0] < sfg_no_click_probability: draws 1, normals 0.  The QPSK
    test enters the cyclic hypothesis order at offset v = floor(4 u[0]),
    which keeps the error rate the same for every true symbol, and waits on
    u[1:] (see `sequential_click_test`): draws 1 + 4, normals 0.  Its rates
    come from the entry-offset table R[j, t, v] = rows[t, (v + j) % 4], the
    rate of the j-th hypothesis tested for true symbol t: a trial reads
    column R[:, t, v] and declares (v + held) % 4, held being the index the
    click test returns.

    Building a rule costs 2-25 us per point at N_Z = 100, the most for the
    SFG-QPSK table (2 cores, Python 3.11.7, numpy 2.4.6), so each
    `ExperimentConfig` builds a point's rule once and its runs reuse it.  Every
    channel quantity a rule needs (the PA grid, the thermal residual) is read
    from the closed-form `return_idler_moments`.
    """
    if spec.kind is ReceiverKind.HETERODYNE:
        points = np.array([s.complex_point() for s in a.symbols])
        sd = envelope_sd(cp)

        def decide(i: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
            x = points[i]
            x.real += sd * z[0]
            x.imag += sd * z[1]
            return _nearest_index(x, points)

        decide.draws, decide.normals = 2, 2

    elif spec.kind is ReceiverKind.PA:
        grid = np.array(pa_decision_grid(a, cp))
        sd = math.sqrt(cp.N_Z / cp.M)

        def decide(i: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
            x = sd * z[0]
            x += grid[i]
            return _nearest_index(x, grid)

        decide.draws, decide.normals = 2, 1

    elif a.kind is AlphabetKind.QPSK:
        points = np.array([s.complex_point() for s in a.symbols])
        n = len(a)
        # rows[t, h]: click rate per mode pair for true symbol t with h nulled
        rows = sfg_count_rate(cp, 1.0, spec) / cp.M * np.abs(points[:, None] - points) ** 2
        offsets = np.arange(n)
        # table[j, n t + v] = rows[t, (v + j) % n], the entry-offset table R
        table = rows[:, (offsets + offsets[:, None]) % n].transpose(1, 0, 2).reshape(n, n * n)

        def decide(i: np.ndarray, u: np.ndarray, z: np.ndarray | None) -> np.ndarray:
            v = (n * u[0]).astype(np.intp)  # u > 0, so the cast floors
            held = sequential_click_test(np.take(table, n * i + v, axis=1), cp.M, u[1:])
            held += v
            return np.remainder(held, n, out=held)

        decide.draws, decide.normals = 1 + n, 0

    else:
        null_symbol = sfg_null_symbol(a)
        null = int(a.symbols[1] is null_symbol)  # by identity: at eta = 0 the PAM symbols are equal
        p_no_click = np.array([sfg_no_click_probability(cp, s, null_symbol, spec) for s in a.symbols])

        def decide(i: np.ndarray, u: np.ndarray, z: np.ndarray | None) -> np.ndarray:
            return np.where(u[0] < p_no_click[i], null, 1 - null)

        decide.draws, decide.normals = 1, 0

    return decide
