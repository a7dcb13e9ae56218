"""Receiver decision procedures: heterodyne, PA, and SFG."""

import math
import time

import numpy as np
import pytest

from qbcsim.gaussian import mean_photon_number, phase_sensitive_correlation
from qbcsim.link import (
    AlphabetKind,
    ChannelParams,
    Symbol,
    apply_channel,
    apply_channel_classical,
    make_alphabet_bpsk,
    make_alphabet_pam,
    make_alphabet_qpsk,
    nominal_alphabet,
    return_idler_moments,
)
from qbcsim import receivers
from qbcsim.gaussian import apply_two_mode_squeeze, heterodyne_samples
from qbcsim.montecarlo import normals, uniforms, wilson_interval
from qbcsim.receivers import (
    ReceiverKind,
    ReceiverSpec,
    UnsupportedAlphabetError,
    _nearest_index,
    envelope_sd,
    pa_decision_grid,
    point_decider,
    sequential_click_test,
    sfg_bookkeeping,
    sfg_count_rate,
    sfg_no_click_probability,
    sfg_null_symbol,
    sfg_nulling_params,
)

#: uniform rows the SFG-QPSK rule reads, the most of any rule: its entry
#: offset and one wait per hypothesis
QPSK_DRAWS = 5


def _cp(eta=0.01, phi=0.0, N_Z=100.0, M=10_000, N_S=0.01):
    return ChannelParams(eta=eta, phi=phi, N_Z=N_Z, M=M, N_S=N_S)


# ---------------------------------------------------------------------------
# heterodyne
# ---------------------------------------------------------------------------


def _points(a):
    return np.array([s.complex_point() for s in a.symbols])


def test_envelope_monte_carlo_mean():
    """The mean of M literal heterodyne samples, over sqrt(N_S), sits at the
    symbol's point within the deviation `envelope_sd` gives the rule."""
    eta, N_S, N_Z = 0.01, 0.01, 1.0
    M = 10**5
    cp = _cp(eta=eta, N_Z=N_Z, N_S=N_S, M=M)
    state = apply_channel_classical(cp, Symbol(math.sqrt(eta), 0.0))
    rng = np.random.default_rng(314)
    env = heterodyne_samples(state, 0, M, rng).mean() / math.sqrt(N_S)
    se = math.sqrt(((1 - eta) * N_Z + 1.0) / (2.0 * M * N_S))
    assert envelope_sd(cp) == pytest.approx(se, rel=1e-12)
    assert abs(env.real - math.sqrt(eta)) < 4 * se
    assert abs(env.imag) < 4 * se


def test_decide_exact_point():
    points = _points(make_alphabet_qpsk(0.25))
    for k, point in enumerate(points):
        assert _nearest_index(point, points) == k


def test_nearest_index_matches_argmin_reference():
    """The running minimum picks what argmin over all distances picks, the
    first minimum on ties, for complex and real statistics."""
    rng = np.random.default_rng(21)
    qpsk = np.array([s.complex_point() for s in make_alphabet_qpsk(0.2).symbols])
    x = 0.5 * (rng.normal(size=3000) + 1j * rng.normal(size=3000))
    x[:8] = [0.0, *qpsk[:3], 0.5 * (qpsk[0] + qpsk[1]), 0.5 * (qpsk[1] + qpsk[2]), 1.0, -1.0j]
    cases = [(x, qpsk), (x, np.zeros(4, dtype=complex)), (x.real, np.array([-0.3, 0.3])),
             (np.array([0.0, 0.3, -0.3, 1e-300]), np.array([-0.3, 0.3]))]
    for stat, points in cases:
        reference = np.argmin(np.abs(stat[:, None] - points), axis=1)
        assert np.array_equal(_nearest_index(stat, points), reference)


def test_decide_qpsk_nearest_neighbor():
    eta = 0.09
    a = make_alphabet_qpsk(eta)
    env = math.sqrt(eta) * np.exp(-1j * math.pi / 2) * 1.05
    assert _nearest_index(env, _points(a)) == 1


def test_decide_rotation_invariance():
    a = make_alphabet_qpsk(0.2)
    rng = np.random.default_rng(8)
    from qbcsim.link import Alphabet, AlphabetKind

    for _ in range(50):
        env = complex(rng.normal(), rng.normal()) * 0.3
        shift = rng.uniform(0, 2 * math.pi)
        rotated = Alphabet(
            tuple(Symbol(s.amplitude, s.phase + shift) for s in a.symbols),
            AlphabetKind.QPSK,
        )
        picked = a.symbols[_nearest_index(env, _points(a))]
        picked_rot = rotated.symbols[_nearest_index(env * np.exp(-1j * shift), _points(rotated))]
        assert picked_rot.phase == pytest.approx((picked.phase + shift) % (2 * math.pi))


# ---------------------------------------------------------------------------
# PA receiver
# ---------------------------------------------------------------------------


def _pa_mean(cp, symbol):
    """Per-copy mean 2 Re c of the PA statistic O = a_I a_R + a_I^dag a_R^dag."""
    return 2.0 * return_idler_moments(cp, symbol)[2].real


def _pa_rule_copy_variance(cp):
    """Per-copy variance M sd^2 of the statistic the BPSK PA rule draws, read
    off its decisions: at u[1] = 1/2 its normal row is -r with r =
    sqrt(-2 ln u[0]), the draw is g - sd r, so symbol 0 flips to 1 once
    r > g / sd.  Bisection on u[0] finds that flip."""
    a = make_alphabet_bpsk(cp.eta)
    decide = point_decider(cp, a, ReceiverSpec(kind=ReceiverKind.PA))
    g = pa_decision_grid(a, cp)[0]
    flips, holds = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (flips + holds)
        u = np.array([[mid], [0.5]])
        if decide(np.zeros(1, dtype=np.intp), u, normals(u, decide.normals))[0]:
            flips = mid
        else:
            holds = mid
    return cp.M * (g / math.sqrt(-2.0 * math.log(holds))) ** 2


def test_pa_mean_zero_at_quarter_phase():
    mean = _pa_mean(_cp(), Symbol(0.1, math.pi / 2))
    assert mean == pytest.approx(0.0, abs=1e-15)


def test_pa_moments_values():
    # amplitude 0.1 -> eta 0.01; the statistic carries both the correlation and
    # its conjugate, so the displacement is twice the one-sided correlation
    cp = _cp()
    mean = pa_decision_grid(make_alphabet_bpsk(0.01), cp)[0]
    var = _pa_rule_copy_variance(cp)
    assert mean == pytest.approx(2.0 * math.sqrt(1.01e-4), rel=1e-12)
    assert var == pytest.approx(100.0)


def test_pa_mean_dark_symbol():
    mean = _pa_mean(_cp(), Symbol(0.0, 0.0))
    assert mean == 0.0


def test_pa_mean_is_even_in_phase():
    cp = _cp()
    for phi in (0.3, 1.2, 2.9):
        m_plus = _pa_mean(cp, Symbol(0.1, phi))
        m_minus = _pa_mean(cp, Symbol(0.1, -phi))
        assert m_plus == pytest.approx(m_minus, rel=1e-12)


def test_pa_rule_variance_close_to_wick():
    """The rule's bright-background per-copy variance N_Z lies within 5 % of
    the Wick expansion of <O^2> - <O>^2 for the zero-mean Gaussian state the
    engine's channel leaves, 2 Re(c^2) + (n_I + 1)(n_R + 1) + n_I n_R."""
    cp = _cp(eta=0.01, N_Z=100.0, N_S=0.01)
    for sym in make_alphabet_bpsk(cp.eta).symbols:
        state = apply_channel(cp, sym)
        c = phase_sensitive_correlation(state, 0, 1)
        n_r = mean_photon_number(state, 0)
        n_i = mean_photon_number(state, 1)
        wick = 2 * (c * c).real + (n_i + 1) * (n_r + 1) + n_i * n_r
        assert _pa_rule_copy_variance(cp) == pytest.approx(wick, rel=0.05)


def test_pa_decide_bpsk_threshold():
    cp = _cp()
    grid = pa_decision_grid(make_alphabet_bpsk(0.01), cp)
    assert _nearest_index(0.3, grid) == 0
    assert _nearest_index(-0.3, grid) == 1


def test_pa_decide_ook_midpoint_tie():
    cp = _cp()
    a = make_alphabet_pam(0.0, 0.01)
    mid = 0.5 * 2.0 * math.sqrt(0.01 * cp.N_S * (cp.N_S + 1))
    assert _nearest_index(mid, pa_decision_grid(a, cp)) == 0


# ---------------------------------------------------------------------------
# SFG bookkeeping
# ---------------------------------------------------------------------------


def _sfg_spec(**kw):
    return ReceiverSpec(kind=ReceiverKind.SFG, **kw)


def _infinite_total(cp, d2, spec):
    """The whole cycle series in its tap-free closed form,
    2 M C0^2 x^2 / ((1 + N_Z)(1 + x)), with x = 1 - tau (1 + N_Z) taken
    through log1p so that it stays exact at tau = 1e-300."""
    tau = spec.sfg_cycles(cp.N_Z)[0]
    x = math.exp(math.log1p(-tau * (1.0 + cp.N_Z)))
    c0_sq = d2 * cp.N_S * (cp.N_S + 1.0) / 4.0
    return 2.0 * cp.M * c0_sq * x * x / ((1.0 + cp.N_Z) * (1.0 + x))


def test_bookkeeping_matches_brute_force_series():
    cp = _cp()
    spec = _sfg_spec()
    d2 = 4 * cp.eta
    bk = sfg_bookkeeping(cp, d2, spec)
    tau = 0.01 / cp.N_Z
    x = 1.0 - tau * (1.0 + cp.N_Z)
    c0 = d2 * cp.N_S * (cp.N_S + 1) / 4.0
    brute = sum(2.0 * tau * cp.M * c0 * x ** (2 * k) for k in range(1, bk.K + 1))
    closed = 2.0 * tau * cp.M * c0 * x * x * (1 - x ** (2 * bk.K)) / (1 - x * x)
    assert bk.total == pytest.approx(brute, rel=1e-12)
    assert bk.total == pytest.approx(closed, rel=1e-9)
    assert bk.C0_sq == pytest.approx(c0, rel=1e-14)


def test_bookkeeping_captures_series_within_eps():
    cp = _cp()
    spec = _sfg_spec(sfg_capture_eps=1e-3)
    d2 = 4 * cp.eta
    bk = sfg_bookkeeping(cp, d2, spec)
    infinite = _infinite_total(cp, d2, spec)
    assert bk.total <= infinite
    assert bk.total >= (1 - 1e-3) * infinite


def test_bookkeeping_small_tau_limit():
    cp = _cp()
    for tau_nz in (0.01, 0.003):
        spec = _sfg_spec(sfg_tau=tau_nz / cp.N_Z)
        d2 = 4 * cp.eta
        total_inf = _infinite_total(cp, d2, spec)
        limit = cp.M * (d2 * cp.N_S * (cp.N_S + 1) / 4.0) / (1.0 + cp.N_Z)
        assert total_inf == pytest.approx(limit, rel=0.02)


def test_bookkeeping_limit_identity_pins_normalization():
    # 4 x (small-tau limit of the series) == d^2 N_S (N_S+1) M / (1 + N_Z), exactly
    cp = _cp()
    d2 = 4 * cp.eta
    c0 = d2 * cp.N_S * (cp.N_S + 1) / 4.0
    lhs = 4.0 * (cp.M * c0 / (1.0 + cp.N_Z))
    rhs = d2 * cp.N_S * (cp.N_S + 1) * cp.M / (1.0 + cp.N_Z)
    assert lhs == rhs


def test_bookkeeping_zero_correlation():
    bk = sfg_bookkeeping(_cp(), 0.0, _sfg_spec())
    assert bk.total == 0.0
    assert all(nb == 0.0 and ne == 0.0 for nb, ne in bk.cycles)


def test_bookkeeping_cycles_strictly_decreasing():
    bk = sfg_bookkeeping(_cp(), 0.04, _sfg_spec())
    n_b = [c[0] for c in bk.cycles]
    assert all(b > 0 for b in n_b)
    assert all(a > b for a, b in zip(n_b, n_b[1:]))
    assert all(nb == ne for nb, ne in bk.cycles)


def test_cycle_count_monotonicity():
    cp = _cp()
    # nonincreasing in the capture tolerance
    k_loose = _sfg_spec(sfg_capture_eps=1e-2).sfg_cycles(cp.N_Z)[2]
    k_tight = _sfg_spec(sfg_capture_eps=1e-4).sfg_cycles(cp.N_Z)[2]
    assert k_loose <= k_tight
    # nondecreasing in N_Z under the default tau = 0.01 / N_Z rule
    ks = [_sfg_spec().sfg_cycles(nz)[2] for nz in (30.0, 100.0, 300.0, 1000.0)]
    assert all(a <= b for a, b in zip(ks, ks[1:]))


def test_bookkeeping_rejects_overdamped_tap():
    with pytest.raises(ValueError):
        sfg_bookkeeping(_cp(N_Z=5.0), 0.01, _sfg_spec(sfg_tau=0.25))


def test_count_rate_rejects_a_negative_distance():
    with pytest.raises(ValueError, match="squared distance must be >= 0"):
        sfg_count_rate(_cp(), -1.0, _sfg_spec())


def test_bookkeeping_refuses_to_list_billions_of_cycles():
    """tau = 1e-11 needs K ~ 3.4e9 cycles and tau = 1e-300 about 3.4e298;
    the listing refuses at once and points to the closed-form rate."""
    cp = _cp()
    for tau in (1e-11, 1e-300):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="sfg_count_rate"):
            sfg_bookkeeping(cp, 4 * cp.eta, _sfg_spec(sfg_tau=tau))
        assert time.perf_counter() - start < 1.0


def test_count_rate_is_four_times_total():
    cp = _cp()
    spec = _sfg_spec()
    d2 = 4 * cp.eta
    assert sfg_count_rate(cp, d2, spec) == pytest.approx(
        4.0 * sfg_bookkeeping(cp, d2, spec).total, rel=1e-14
    )


@pytest.mark.parametrize("N_S,coefficient", [(0.1, 1.0716), (0.01, 0.9839), (0.001, 0.9751)])
def test_count_rate_is_leading_order_in_signal_brightness(N_S, coefficient):
    """The rate in units of d^2 N_S M / N_Z at N_Z = 100: C0_sq = d^2 N_S (N_S + 1) / 4
    keeps only the leading order in N_S, so the coefficient grows with N_S."""
    cp = _cp(eta=1e-3, M=1_000_000, N_S=N_S)
    d2 = 4 * cp.eta
    rate = sfg_count_rate(cp, d2, _sfg_spec())
    assert rate / (d2 * N_S * cp.M / cp.N_Z) == pytest.approx(coefficient, rel=1e-3)


# ---------------------------------------------------------------------------
# SFG nulling
# ---------------------------------------------------------------------------


def test_nulling_dark_symbol_is_identity():
    assert sfg_nulling_params(Symbol(0.0, 0.0), _cp()) == (1.0, 0.0)


def test_nulling_zeroes_the_correlation():
    cp = _cp()
    sym = Symbol(0.1, math.pi)
    G, theta = sfg_nulling_params(sym, cp)
    state = apply_channel(cp, sym)
    nulled = apply_two_mode_squeeze(state, 0, 1, G, theta)
    assert abs(phase_sensitive_correlation(nulled, 0, 1)) <= 1e-10


def test_nulling_doubles_opposite_hypothesis():
    cp = _cp()
    null_sym = Symbol(0.1, math.pi)
    true_sym = Symbol(0.1, 0.0)
    G, theta = sfg_nulling_params(null_sym, cp)
    state = apply_channel(cp, true_sym)
    displaced = apply_two_mode_squeeze(state, 0, 1, G, theta)
    c = phase_sensitive_correlation(displaced, 0, 1)
    expect = 2.0 * math.sqrt(0.01 * cp.N_S * (cp.N_S + 1))
    assert abs(c) == pytest.approx(expect, rel=1e-6)


def test_nulling_below_the_gain_grid_returns_unit_gain():
    """When G - 1 is below the float grid above 1, the gain is 1, never the
    float below 1, whose sqrt(G - 1) would fail."""
    cp = ChannelParams(eta=1e-12, phi=0.0, N_Z=100.0, M=1000, N_S=0.01)
    G, theta = sfg_nulling_params(Symbol(1e-6, 0.0), cp)
    assert G == 1.0 and theta == pytest.approx(math.pi)


def test_nulling_of_bare_source():
    # lossless channel with no thermal noise reduces to unsqueezing the source
    cp = ChannelParams(eta=1.0, phi=0.0, N_Z=0.0, M=100, N_S=0.25)
    G, theta = sfg_nulling_params(Symbol(1.0, 0.0), cp)
    assert G == pytest.approx(1.25, rel=1e-12)
    assert theta == pytest.approx(math.pi, rel=1e-12)


# ---------------------------------------------------------------------------
# SFG decisions
# ---------------------------------------------------------------------------


def _decisions(cp, a, spec, true_index, rng):
    """The SFG point rule's declared indices for trials with the given true
    indices, trial t reading the t-th run of QPSK_DRAWS raw words from `rng`."""
    i = np.asarray(true_index)
    u = uniforms(rng.bit_generator.random_raw((len(i), QPSK_DRAWS)).T)
    return point_decider(cp, a, spec)(i, u, np.empty((0, len(i))))


def test_zero_photon_null_hypothesis_always_correct():
    cp = _cp()
    a = make_alphabet_bpsk(cp.eta)
    null = a.symbols.index(sfg_null_symbol(a))
    rng = np.random.default_rng(77)
    assert np.all(_decisions(cp, a, _sfg_spec(), np.full(2000, null), rng) == null)


def test_zero_photon_null_symbol_choice():
    assert sfg_null_symbol(make_alphabet_bpsk(0.01)).phase == pytest.approx(math.pi)
    assert sfg_null_symbol(make_alphabet_pam(0.0, 0.01)).amplitude == 0.0


def test_zero_photon_error_rate_matches_poisson():
    cp = _cp(M=1_000_000)  # s = eta N_S M / N_Z = 1
    a = make_alphabet_bpsk(cp.eta)
    spec = _sfg_spec()
    lam = sfg_count_rate(cp, 4 * cp.eta, spec)
    rng = np.random.default_rng(2025)
    n = 200_000
    other = 0  # the symbol that is not nulled
    errors = np.count_nonzero(_decisions(cp, a, spec, np.full(n, other), rng) != other)
    p = math.exp(-lam)
    assert abs(errors / n - p) < 3 * math.sqrt(p * (1 - p) / n)
    # lam evaluates near 4 s at s = 1 (the factor-4-enhanced exponent)
    assert lam == pytest.approx(4.0, rel=0.03)


def test_zero_photon_thermal_residual_option():
    cp = _cp(M=100_000)
    a = make_alphabet_bpsk(cp.eta)
    spec = _sfg_spec(include_thermal_residual=True)
    null = sfg_null_symbol(a)
    k = a.symbols.index(null)
    rng = np.random.default_rng(11)
    n = 20_000
    errors = np.count_nonzero(_decisions(cp, a, spec, np.full(n, k), rng) != k)
    # background clicks now cause false rejections of the nulled hypothesis
    assert errors > 0
    n_r, n_i, _ = return_idler_moments(cp, null)
    tau, _, K = spec.sfg_cycles(cp.N_Z)
    nbar = n_i * tau * n_r
    p_expect = 1.0 - (1.0 / (1.0 + nbar)) ** K
    assert errors / n == pytest.approx(p_expect, rel=0.2)


@pytest.mark.parametrize("kind", [AlphabetKind.PAM, AlphabetKind.BPSK])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("eta", [0.0, 0.02])
def test_zero_photon_threshold_is_no_click_probability(kind, residual, eta):
    """The rule declares the null iff u[0] < p for p bit-identical to
    sfg_no_click_probability: it does at the float just below p, not at p."""
    cp = _cp(eta=eta, M=100_000)
    a = nominal_alphabet(kind, eta)
    spec = _sfg_spec(include_thermal_residual=residual)
    null_symbol = sfg_null_symbol(a)
    null = a.symbols.index(null_symbol)
    decide = point_decider(cp, a, spec)
    for k, s in enumerate(a.symbols):
        p = sfg_no_click_probability(cp, s, null_symbol, spec)
        u = np.array([[math.nextafter(p, 0.0), p]])
        declared = decide(np.array([k, k]), u, np.empty((0, 2)))
        assert declared.tolist() == [null, 1 - null], (k, p)


def test_zero_photon_rejects_qpsk():
    with pytest.raises(UnsupportedAlphabetError):
        sfg_null_symbol(make_alphabet_qpsk(0.01))


def test_qpsk_decide_correct_at_high_snr():
    cp = _cp(eta=0.08, M=1_000_000)  # s = 8: adjacent rates ~ 16
    a = make_alphabet_qpsk(cp.eta)
    true = np.arange(2000) % 4
    errors = np.count_nonzero(_decisions(cp, a, _sfg_spec(), true, np.random.default_rng(4)) != true)
    assert errors == 0


def test_qpsk_decide_symmetric_across_symbols():
    cp = _cp(eta=0.1, M=100_000)  # s = 1
    a = make_alphabet_qpsk(cp.eta)
    spec = _sfg_spec()
    rng = np.random.default_rng(31)
    n_each = 25_000
    rates = []
    for k in range(len(a)):
        errs = np.count_nonzero(_decisions(cp, a, spec, np.full(n_each, k), rng) != k)
        rates.append(errs / n_each)
    pooled = float(np.mean(rates))
    se = math.sqrt(pooled * (1 - pooled) / n_each)
    for r in rates:
        assert abs(r - pooled) < 4 * se


def test_qpsk_decide_respects_analytic_envelope():
    cp = _cp(eta=0.04, M=1_000_000)  # s = 4
    a = make_alphabet_qpsk(cp.eta)
    n = 10_000
    true = np.arange(n) % 4
    errors = np.count_nonzero(_decisions(cp, a, _sfg_spec(), true, np.random.default_rng(9)) != true)
    s = cp.eta * cp.N_S * cp.M / cp.N_Z
    bound = 4.0 * math.exp(-s)
    assert errors / n <= bound * 1.1


def _sfg_rates(cp, a, spec, monkeypatch):
    """What an SFG rule counts on: -ln of each symbol's no-click probability
    for PAM and BPSK, and for QPSK the entry-offset table of rates per mode
    pair, caught as the click test reads it (one trial per true symbol t and
    entry offset v, so column n t + v)."""
    if a.kind is not AlphabetKind.QPSK:
        null = sfg_null_symbol(a)
        return np.array([-math.log(sfg_no_click_probability(cp, s, null, spec)) for s in a.symbols])
    seen = []
    monkeypatch.setattr(receivers, "sequential_click_test",
                        lambda rates, budget, u: seen.append(rates) or np.zeros(rates.shape[1], np.intp))
    n = len(a)
    i, v = np.divmod(np.arange(n * n), n)
    u = np.full((QPSK_DRAWS, n * n), 0.5)
    u[0] = (v + 0.5) / n
    point_decider(cp, a, spec)(i, u, np.empty((0, n * n)))
    return seen[0]


@pytest.mark.parametrize("kind,surviving", [(AlphabetKind.PAM, 1), (AlphabetKind.BPSK, 1),
                                            (AlphabetKind.QPSK, 4 * 12)])
def test_sfg_rates_follow_the_channel_moments(kind, surviving, monkeypatch):
    """The SFG rules read the channel only through `return_idler_moments`:
    scaling its correlation c by sqrt(kappa), and editing nothing else,
    scales the non-null symbol's -ln p_no_click and every nonzero SFG-QPSK
    table entry (each of the 12 pairs t != h sits in 4 entries) by kappa,
    and a nulled hypothesis still never clicks."""
    kappa = 0.37
    cp = _cp(eta=3e-3, M=1_000_000)
    a = nominal_alphabet(kind, cp.eta)
    nominal = _sfg_rates(cp, a, _sfg_spec(), monkeypatch)

    def faded_moments(cp, symbol):
        n_r, n_i, c = return_idler_moments(cp, symbol)
        return n_r, n_i, math.sqrt(kappa) * c

    monkeypatch.setattr(receivers, "return_idler_moments", faded_moments)
    faded = _sfg_rates(cp, a, _sfg_spec(), monkeypatch)
    clicks = nominal != 0
    assert np.count_nonzero(clicks) == surviving
    assert np.all(faded[~clicks] == 0)
    assert np.all(np.abs(faded[clicks] - kappa * nominal[clicks]) <= 1e-15 * kappa * nominal[clicks])


_DECLARED_DRAWS = [
    (ReceiverKind.HETERODYNE, "bpsk", False, 2),
    (ReceiverKind.HETERODYNE, "qpsk", False, 2),
    (ReceiverKind.PA, "bpsk", False, 2),
    (ReceiverKind.PA, "pam", False, 2),
    *[(ReceiverKind.SFG, alphabet, residual, 1)
      for alphabet in ("pam", "bpsk") for residual in (False, True)],
    (ReceiverKind.SFG, "qpsk", False, QPSK_DRAWS),
]
#: normal rows each receiver's rule reads
_NORMAL_ROWS = {ReceiverKind.HETERODYNE: 2, ReceiverKind.PA: 1, ReceiverKind.SFG: 0}


@pytest.mark.parametrize("kind,alphabet,residual,draws", _DECLARED_DRAWS)
def test_point_rule_reads_only_declared_rows(kind, alphabet, residual, draws):
    """A rule declares how many leading rows of uniforms and of normals it
    reads; the Monte Carlo engine computes only those.  Overwriting the later
    rows of either with NaN, or leaving them out, must not change a single
    decision, and a rule that declares no normals runs on 0 normal rows."""
    cp = _cp(eta=0.02, M=100_000)
    a = {"pam": make_alphabet_pam(0.0, cp.eta), "bpsk": make_alphabet_bpsk(cp.eta),
         "qpsk": make_alphabet_qpsk(cp.eta)}[alphabet]
    spec = ReceiverSpec(kind=kind, include_thermal_residual=residual)
    decide = point_decider(cp, a, spec)
    normal_rows = _NORMAL_ROWS[kind]
    assert (decide.draws, decide.normals) == (draws, normal_rows)
    rng = np.random.default_rng([draws, len(a), residual])
    n = 4000
    i = rng.integers(len(a), size=n)
    u = uniforms(rng.bit_generator.random_raw((QPSK_DRAWS, n)))
    z = normals(u, 2)
    full = decide(i, u.copy(), z.copy())
    assert 0 < np.count_nonzero(full != i) < n  # both outcomes are common
    poisoned_u, poisoned_z = u.copy(), z.copy()
    poisoned_u[draws:] = poisoned_z[normal_rows:] = np.nan
    assert np.array_equal(decide(i, poisoned_u, poisoned_z), full)
    assert np.array_equal(decide(i, u[:draws].copy(), z[:normal_rows].copy()), full)


def test_sequential_click_test_survival_law():
    """With rates [r, 0] and budget M, the first hypothesis survives (index 0)
    exactly when its geometric wait exceeds M: probability e^{-rM}."""
    r, M, n = 2.5e-6, 400_000, 200_000
    rng = np.random.default_rng(8)
    declared = sequential_click_test([r, 0.0], M, uniforms(rng.bit_generator.random_raw((2, n))))
    assert set(np.unique(declared)) <= {0, 1}
    kept = int(np.count_nonzero(declared == 0))
    lo, hi = wilson_interval(kept, n, z=4.0)
    assert lo <= math.exp(-r * M) <= hi, (kept / n, math.exp(-r * M))


def _first_survivor(rates, M, u):
    """sequential_click_test as first written: the first hypothesis whose
    cumulative wait exceeds the budget, else the last."""
    rates = np.reshape(rates, (len(rates), -1))
    with np.errstate(divide="ignore", over="ignore"):
        spent = np.cumsum(np.floor(-np.log(u[: len(rates)]) / rates) + 1.0, axis=0)
    survived = spent > M
    return np.where(survived.any(0), survived.argmax(0), len(rates) - 1)


def test_sequential_click_test_matches_first_survivor_reference():
    """Counting running totals within the budget gives the first survivor,
    for per-trial rates with zeros, a trial where every hypothesis clicks
    (the last index) and a 1-D list of rates shared by all trials."""
    rng = np.random.default_rng(31)
    M, n = 10_000, 5000
    u = uniforms(rng.bit_generator.random_raw((QPSK_DRAWS, n)))
    rates = rng.exponential(1.0 / M, size=(4, n))
    rates[rng.random((4, n)) < 0.3] = 0.0
    rates[:, 0] = 1.0  # every hypothesis clicks within a few mode pairs
    got = sequential_click_test(rates, M, u[1:])
    assert got[0] == 3
    assert np.array_equal(got, _first_survivor(rates, M, u[1:]))
    assert len(np.unique(got)) == 4
    for listed in ([2.0 / M, 0.0], [3.0 / M, 1.0 / M, 0.5 / M]):
        got = sequential_click_test(listed, M, u[1:])
        assert np.array_equal(got, _first_survivor(listed, M, u[1:]))
        assert len(np.unique(got)) == len(listed)


# ---------------------------------------------------------------------------
# ReceiverSpec validation
# ---------------------------------------------------------------------------


def test_receiver_spec_checks_tunables_when_built():
    for tau in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError):
            ReceiverSpec(kind=ReceiverKind.SFG, sfg_tau=tau)
    for eps in (0.0, 1.0, 2.0, math.nan):
        with pytest.raises(ValueError):
            ReceiverSpec(kind=ReceiverKind.SFG, sfg_capture_eps=eps)


@pytest.mark.parametrize("kind", [ReceiverKind.HETERODYNE, ReceiverKind.PA])
@pytest.mark.parametrize("name,value", [
    ("sfg_tau", 1e-5), ("sfg_capture_eps", 0.01), ("include_thermal_residual", True),
])
def test_sfg_tunables_are_rejected_on_other_receivers(kind, name, value):
    """No heterodyne or PA rule reads an SFG tunable, so a spec that sets one
    off its default is refused by name instead of running as the plain
    receiver.  The defaults, passed explicitly, are accepted."""
    with pytest.raises(ValueError, match=f"^{name} applies only to the sfg receiver"):
        ReceiverSpec(kind=kind, **{name: value})
    ReceiverSpec(kind=kind, sfg_tau=None, sfg_capture_eps=1e-3, include_thermal_residual=False)


def test_count_rate_at_tiny_tau_is_closed_form():
    """tau = 1e-11 asks for K ~ 3.4e9 cycles and tau = 1e-300 for 3.4e298: the
    rate returns at once and holds all but eps of the infinite series.  The
    thermal floor (1 + nbar)^-K, whose K nbar does not depend on a small tau,
    is the same at both."""
    cp = _cp()
    d2 = 4 * cp.eta
    null = sfg_null_symbol(make_alphabet_bpsk(cp.eta))
    floors = []
    for tau in (1e-11, 1e-300):
        spec = _sfg_spec(sfg_tau=tau, include_thermal_residual=True)
        start = time.perf_counter()
        rate = sfg_count_rate(cp, d2, spec)
        assert time.perf_counter() - start < 1.0
        assert spec.sfg_cycles(cp.N_Z)[2] > 3e9
        infinite = 4.0 * _infinite_total(cp, d2, spec)
        assert (1.0 - spec.sfg_capture_eps) * infinite <= rate <= infinite
        floors.append(sfg_no_click_probability(cp, null, null, spec))
    assert floors[0] < 0.99
    assert floors[1] == pytest.approx(floors[0], rel=1e-6)


def test_sfg_tau_window_enforced():
    cp = _cp()
    with pytest.raises(ValueError):
        ReceiverSpec(kind=ReceiverKind.SFG, sfg_tau=0.2 / cp.N_Z * 10).sfg_cycles(cp.N_Z)
    tau, _, _ = ReceiverSpec(kind=ReceiverKind.SFG).sfg_cycles(cp.N_Z)
    assert tau == pytest.approx(0.01 / cp.N_Z)
