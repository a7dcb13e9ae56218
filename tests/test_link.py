"""Link model: alphabets, link budget, channel application."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from qbcsim.gaussian import (
    apply_beam_splitter,
    coherent,
    mean_photon_number,
    partial_trace,
    phase_sensitive_correlation,
    symplectic_eigenvalues,
    tensor,
    thermal,
    tmss,
)
from qbcsim.link import (
    C_LIGHT,
    TWO_PI,
    Alphabet,
    AlphabetKind,
    ChannelParams,
    LinkBudget,
    Symbol,
    apply_channel,
    apply_channel_classical,
    channel_phase,
    make_alphabet_bpsk,
    make_alphabet_pam,
    make_alphabet_qpsk,
    min_squared_distance,
    mode_pairs,
    return_idler_moments,
    rtt_from_link_budget,
    thermal_occupancy,
)
from qbcsim.receivers import sfg_null_symbol


def test_pam_ook():
    a = make_alphabet_pam(0.0, 0.25)
    assert a.kind is AlphabetKind.PAM
    assert a.symbols[0].amplitude == 0.0
    assert a.symbols[1].amplitude == 0.5
    assert all(s.phase == 0.0 for s in a.symbols)


def test_pam_amplitudes():
    a = make_alphabet_pam(0.25, 1.0)
    assert a.symbols[0].amplitude == pytest.approx(0.5)
    assert a.symbols[1].amplitude == pytest.approx(1.0)


def test_pam_rejects_degenerate():
    with pytest.raises(ValueError):
        make_alphabet_pam(0.3, 0.3)
    with pytest.raises(ValueError):
        make_alphabet_pam(-0.1, 0.5)


def test_bpsk_amplitudes():
    a = make_alphabet_bpsk(0.04)
    assert all(s.amplitude == pytest.approx(0.2) for s in a.symbols)
    assert [s.phase for s in a.symbols] == [0.0, math.pi]


def test_qpsk_symbol_count_and_phases():
    a = make_alphabet_qpsk(0.3)
    assert len(a) == 4
    assert sorted(s.phase for s in a.symbols) == pytest.approx(
        [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
    )


def test_qpsk_rejects_zero_eta():
    with pytest.raises(ValueError):
        make_alphabet_qpsk(0.0)


def test_min_squared_distance_pam():
    eta1, eta2 = 0.09, 0.64
    a = make_alphabet_pam(eta1, eta2)
    assert min_squared_distance(a) == pytest.approx(
        (math.sqrt(eta2) - math.sqrt(eta1)) ** 2, rel=1e-14
    )


def test_min_squared_distance_bpsk():
    eta = 0.17
    assert min_squared_distance(make_alphabet_bpsk(eta)) == pytest.approx(4 * eta, rel=1e-12)


def test_min_squared_distance_qpsk():
    eta = 0.17
    assert min_squared_distance(make_alphabet_qpsk(eta)) == pytest.approx(2 * eta, rel=1e-12)


def test_min_squared_distance_invariant_under_global_rotation():
    eta = 0.2
    base = make_alphabet_qpsk(eta)
    for shift in (0.3, 1.1, 4.0):
        from qbcsim.link import Alphabet

        rotated = Alphabet(
            tuple(Symbol(s.amplitude, s.phase + shift) for s in base.symbols),
            AlphabetKind.QPSK,
        )
        assert min_squared_distance(rotated) == pytest.approx(
            min_squared_distance(base), rel=1e-12
        )


def _example_budget(**overrides):
    values = dict(
        G_t=100.0,
        G_r=100.0,
        omega=2 * math.pi * 1e9,
        R_t=10.0,
        R_r=10.0,
        sigma_Q=0.01,
        T=290.0,
        W=1e6,
        T_s=1e-3,
    )
    values.update(overrides)
    return LinkBudget(**values)


def test_rtt_inverse_square_in_distance():
    base = rtt_from_link_budget(_example_budget())
    doubled = rtt_from_link_budget(_example_budget(R_t=20.0))
    assert doubled == pytest.approx(base / 4.0, rel=1e-12)


def test_rtt_inverse_square_in_frequency():
    base = rtt_from_link_budget(_example_budget())
    doubled = rtt_from_link_budget(_example_budget(omega=4 * math.pi * 1e9))
    assert doubled == pytest.approx(base / 4.0, rel=1e-12)


def test_rtt_frozen_value():
    """eta against a 50-digit evaluation of the printed formula at the example
    budget and at 915 MHz between dipoles 1 m apart, and against the radar
    equation G_t G_r lambda^2 sigma_Q / ((4 pi)^3 R_t^2 R_r^2) in floats, with
    lambda = c / f."""
    dipoles = dict(G_t=1.64, G_r=1.64, omega=2 * math.pi * 915e6, R_t=1.0, R_r=1.0)
    for overrides, frozen in (({}, 4.5290989990698180e-07), (dipoles, 1.4549809988829982e-06)):
        lb = _example_budget(**overrides)
        eta = rtt_from_link_budget(lb)
        assert eta == pytest.approx(frozen, rel=1e-12)
        wavelength = C_LIGHT / (lb.omega / (2 * math.pi))
        radar = lb.G_t * lb.G_r * wavelength**2 * lb.sigma_Q / ((4 * math.pi) ** 3 * lb.R_t**2 * lb.R_r**2)
        assert eta == pytest.approx(radar, rel=1e-14)


#: the least value that rounds past the largest double: it plus half its ulp
_PAST_FLOAT_MAX = Fraction(2**1024 - 2**970)


def _assert_exact_rtt(lb: LinkBudget) -> None:
    """eta is the printed formula in exact rational arithmetic on the double
    inputs, correctly rounded: no neighbouring double, subnormals included,
    is nearer the exact value.  ValueError is raised only above the float
    range, and there always."""
    exact = (Fraction(lb.G_r) * Fraction(lb.G_t) * Fraction(C_LIGHT) ** 2 * Fraction(lb.sigma_Q)
             / (16 * Fraction(math.pi) * Fraction(lb.omega) ** 2 * Fraction(lb.R_t) ** 2
                * Fraction(lb.R_r) ** 2))
    if exact >= _PAST_FLOAT_MAX:
        with pytest.raises(ValueError, match=r"float range \(inf\)"):
            rtt_from_link_budget(lb)
        return
    eta = rtt_from_link_budget(lb)
    error = abs(Fraction(eta) - exact)
    for neighbour in (math.nextafter(eta, -math.inf), math.nextafter(eta, math.inf)):
        assert math.isinf(neighbour) or abs(Fraction(neighbour) - exact) >= error, (lb, eta, neighbour)


@pytest.mark.parametrize(
    "overrides",
    [
        dict(omega=2 * math.pi * 1e160),
        dict(omega=2 * math.pi * 1e160, R_t=1.0),
        dict(G_t=1e145, G_r=1e145, omega=2 * math.pi * 7.1e152, R_t=1.0, R_r=1.0, sigma_Q=1.0),
        dict(G_t=1e150, G_r=1e300, omega=2 * math.pi * 1e300, R_t=1.0, R_r=1.0, sigma_Q=1.0),
        dict(G_t=1e100, G_r=1e100, R_t=1e150, R_r=1e10),
        dict(G_t=1e-200, G_r=1e-200, R_t=1e-200),
        dict(G_t=1e-160, G_r=1e-160, omega=2 * math.pi, R_t=1e-10, R_r=1e-10, sigma_Q=1.0),
    ],
    ids=["subnormal-eta", "denominator-overflows", "denominator-overflows-eta-9e-3",
         "both-overflow", "huge-gain-and-radius", "both-underflow", "subnormal-partial-product"],
)
def test_rtt_is_exact_past_the_float_range(overrides):
    """A numerator or denominator that leaves the float range, or a partial
    product that rounds to a subnormal, does not make eta 0, inf, nan or
    inexact while the true eta is a double."""
    _assert_exact_rtt(_example_budget(**overrides))


def test_rtt_is_exact_over_a_wide_log_grid():
    """Seeded inputs spread log-uniformly over 1e-300..1e300, so that many
    pass through a numerator or denominator outside the float range and
    many give an eta outside it."""
    rng = random.Random(20180411)
    names = ("G_t", "G_r", "omega", "R_t", "R_r", "sigma_Q")
    for _ in range(400):
        _assert_exact_rtt(_example_budget(**{n: 10 ** rng.uniform(-300, 300) for n in names}))


def test_rtt_is_correctly_rounded_over_ordinary_budgets():
    """Seeded budgets spread log-uniformly over G 1..1e3, f 1e8..1e11 Hz,
    R 0.1..1e3 m and sigma_Q 1e-4..10 m^2."""
    rng = random.Random(915)
    for _ in range(2000):
        _assert_exact_rtt(_example_budget(
            G_t=10 ** rng.uniform(0, 3), G_r=10 ** rng.uniform(0, 3),
            omega=2 * math.pi * 10 ** rng.uniform(8, 11),
            R_t=10 ** rng.uniform(-1, 3), R_r=10 ** rng.uniform(-1, 3),
            sigma_Q=10 ** rng.uniform(-4, 1),
        ))


@pytest.mark.parametrize(
    "overrides, scale",
    [
        (dict(omega=2 * math.pi * 1e155, R_t=1e-5, R_r=1e-5), 1e-268),
        (dict(omega=2 * math.pi * 1e160, R_t=1e-200), 1e100),
    ],
    ids=["small", "exceeds-1"],
)
def test_rtt_is_exact_when_only_omega_squared_leaves_the_float_range(overrides, scale):
    """omega^2 overflows but omega R_t R_r does not: eta is the frozen value
    scaled by the change in (omega R_t R_r)^-2, not 0."""
    assert rtt_from_link_budget(_example_budget(**overrides)) == pytest.approx(
        4.5290989990698180e-07 * scale, rel=1e-12
    )


def test_rtt_scales_linearly_in_cross_section():
    base = rtt_from_link_budget(_example_budget())
    scaled = rtt_from_link_budget(_example_budget(sigma_Q=0.01 * 7.5))
    assert scaled == pytest.approx(base * 7.5, rel=1e-14)


def test_thermal_occupancy_1ghz_290k():
    # frozen from a 50-digit Planck-formula evaluation
    n_z = thermal_occupancy(2 * math.pi * 1e9, 290.0)
    assert n_z == pytest.approx(6042.1195632583535, rel=1e-10)


def test_thermal_occupancy_vanishes_at_low_temperature():
    assert thermal_occupancy(2 * math.pi * 1e12, 0.001) < 1e-12


def test_thermal_occupancy_ln2_point():
    from qbcsim.link import HBAR, K_BOLTZMANN

    omega = math.log(2.0) * K_BOLTZMANN * 300.0 / HBAR
    assert thermal_occupancy(omega, 300.0) == pytest.approx(1.0, rel=1e-12)


def test_thermal_occupancy_series_branch_is_continuous():
    from qbcsim.link import HBAR, K_BOLTZMANN

    T = 290.0
    for x in (0.9999e-6, 1.0001e-6):
        omega = x * K_BOLTZMANN * T / HBAR
        exact = 1.0 / math.expm1(x)
        assert thermal_occupancy(omega, T) == pytest.approx(exact, rel=1e-9)


def test_mode_pairs():
    assert mode_pairs(1e6, 1e-3) == 1000
    assert mode_pairs(1e7, 1e-5) == 100
    with pytest.raises(ValueError):
        mode_pairs(100.0, 1e-3)


def test_mode_pairs_rejects_a_product_past_the_float_range():
    """Finite W and T_s whose product overflows raise ValueError, as every
    other link-budget function does, not math.floor's OverflowError."""
    with pytest.raises(ValueError, match=r"^W \* T_s leaves the float range \(inf\)$"):
        mode_pairs(1e300, 1e300)


def test_channel_phase_zero_distance():
    assert channel_phase(0.0, 1.23, 2 * math.pi * 1e9) == pytest.approx(1.23)
    assert channel_phase(0.0, math.pi, 1.0) == pytest.approx(math.pi)


def test_channel_phase_conventions_differ():
    omega = 2 * math.pi * 1e9
    r = 7.5
    default = channel_phase(r, 0.0, omega)
    strict = channel_phase(r, 0.0, omega, strict=True)
    assert default != pytest.approx(strict)
    # they agree exactly when omega = 2 pi rad/s
    assert channel_phase(r, 0.4, 2 * math.pi) == pytest.approx(
        channel_phase(r, 0.4, 2 * math.pi, strict=True)
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: thermal_occupancy(math.nan, 290.0),
        lambda: thermal_occupancy(math.inf, 290.0),
        lambda: thermal_occupancy(1e9, math.inf),
        lambda: thermal_occupancy(1e9, math.nan),
        lambda: channel_phase(math.nan, 0.0, 1e9),
        lambda: channel_phase(math.inf, 0.0, 1e9),
        lambda: channel_phase(1.0, math.inf, 1e9),
        lambda: channel_phase(1.0, 0.0, math.nan),
        lambda: channel_phase(1.0, 0.0, math.nan, strict=True),
    ],
    ids=["omega-nan", "omega-inf", "T-inf", "T-nan", "R-nan", "R-inf", "tag-inf", "omega-nan-phase",
         "omega-nan-strict"],
)
def test_link_physics_rejects_non_finite_input(call):
    with pytest.raises(ValueError, match="finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: rtt_from_link_budget(_example_budget(omega=2 * math.pi * 1e-150)),
        lambda: rtt_from_link_budget(_example_budget(R_t=1e-200)),
        lambda: rtt_from_link_budget(_example_budget(G_t=1e300, G_r=1e300)),
        lambda: thermal_occupancy(1e-300, 1e300),
        lambda: thermal_occupancy(1e-10, 1e300),
        lambda: channel_phase(1e308, 0.0, 1e308),
        lambda: channel_phase(1e308, 0.0, 1.0, strict=True),
    ],
    ids=["rtt-low-omega", "rtt-tiny-R_t", "rtt-huge-gain", "occupancy-x-underflows",
         "occupancy-1/x-overflows", "phase-overflows", "phase-overflows-strict"],
)
def test_link_physics_rejects_a_result_outside_the_float_range(call):
    """Finite, positive inputs whose result leaves the float range raise
    ValueError, not ZeroDivisionError, and return neither inf nor nan."""
    with pytest.raises(ValueError, match="float range"):
        call()


def test_apply_channel_dark_symbol():
    cp = ChannelParams(eta=0.04, phi=0.0, N_Z=40.0, M=100, N_S=0.03)
    out = apply_channel(cp, Symbol(0.0, 0.0))
    assert np.allclose(out.cov[0:2, 0:2], thermal(40.0).cov, atol=1e-12)
    assert np.allclose(out.cov[2:4, 2:4], thermal(0.03).cov, atol=1e-12)
    assert abs(phase_sensitive_correlation(out, 0, 1)) < 1e-14


def test_apply_channel_lossless_is_rotated_source():
    cp = ChannelParams(eta=1.0, phi=0.4, N_Z=0.0, M=100, N_S=0.2)
    out = apply_channel(cp, Symbol(1.0, 0.0))
    assert np.allclose(symplectic_eigenvalues(out), 0.5, atol=1e-10)
    assert mean_photon_number(out, 0) == pytest.approx(0.2, rel=1e-10)
    c = phase_sensitive_correlation(out, 0, 1)
    assert abs(c) == pytest.approx(math.sqrt(0.2 * 1.2), rel=1e-12)


def test_apply_channel_correlation_magnitude():
    cp = ChannelParams(eta=1.0, phi=0.0, N_Z=100.0, M=100, N_S=0.01)
    out = apply_channel(cp, Symbol(0.1, 0.0))  # amplitude 0.1 -> eta 0.01
    c = phase_sensitive_correlation(out, 0, 1)
    # eta N_S (N_S + 1) with eta = N_S = 0.01
    assert abs(c) ** 2 == pytest.approx(1.01e-4, rel=1e-10)


def _engine_channel(cp, symbol):
    """The channel built on the Gaussian engine, independent of the closed form:
    tmss(N_S) (x) thermal(N_Z), a beam splitter on signal and environment,
    and the lost port traced out."""
    state = tensor(tmss(cp.N_S), thermal(cp.N_Z))  # modes: S=0, I=1, Z=2
    state = apply_beam_splitter(state, 0, 2, symbol.eta, symbol.phase + cp.phi)
    return partial_trace(state, [0, 1])


def _engine_channel_classical(cp, symbol):
    state = tensor(coherent(math.sqrt(cp.N_S)), thermal(cp.N_Z))  # modes: S=0, Z=1
    state = apply_beam_splitter(state, 0, 1, symbol.eta, symbol.phase + cp.phi)
    return partial_trace(state, [0])


def _channel_points():
    """Random points (eta in [0, 1], N_Z <= 1e3, N_S <= 2, any phase) plus the
    edges eta in {0, 1}, N_Z = 0 and N_S = 0."""
    rng = np.random.default_rng(2718)
    points = []
    for k in range(400):
        eta = (0.0, 1.0, rng.uniform(0, 1), rng.uniform(0, 1))[k % 4]
        N_Z = 0.0 if k % 5 == 0 else rng.uniform(0, 1e3)
        N_S = 0.0 if k % 7 == 0 else rng.uniform(0, 2)
        cp = ChannelParams(eta=1.0, phi=rng.uniform(0, 2 * math.pi), N_Z=N_Z, M=100, N_S=N_S)
        points.append((cp, Symbol(math.sqrt(eta), rng.uniform(0, 2 * math.pi))))
    return points


def test_apply_channel_moment_identities_randomized():
    """The closed form against the engine: n_R and n_I within 1e-15 of the
    covariance entry n + 1/2 they set (the engine rounds there), c within
    1e-15 relative and exactly 0 where the engine's is, and the covariance,
    and the coherent probe's mean, within 1e-15 of max(1, largest entry)."""
    for cp, sym in _channel_points():
        ref = _engine_channel(cp, sym)
        n_r, n_i, c = return_idler_moments(cp, sym)
        for n, mode in ((n_r, 0), (n_i, 1)):
            expect = mean_photon_number(ref, mode)
            assert abs(n - expect) <= 1e-15 * (expect + 0.5), (cp, sym, mode)
        c_ref = phase_sensitive_correlation(ref, 0, 1)
        assert abs(c - c_ref) <= 1e-15 * abs(c_ref), (cp, sym)
        for state, engine in ((apply_channel(cp, sym), ref),
                              (apply_channel_classical(cp, sym), _engine_channel_classical(cp, sym))):
            for got, expect in ((state.mean, engine.mean), (state.cov, engine.cov)):
                scale = max(1.0, float(np.max(np.abs(expect))))
                assert np.max(np.abs(got - expect)) <= 1e-15 * scale, (cp, sym)


def test_return_idler_moments_reject_an_overflow():
    cp = ChannelParams(eta=1.0, phi=0.0, N_Z=100.0, M=1, N_S=1e308)
    with pytest.raises(ValueError, match="float range"):
        return_idler_moments(cp, Symbol(0.5, 0.0))
    assert return_idler_moments(cp, Symbol(0.0, 0.0))[:2] == (100.0, 1e308)


def test_states_near_the_float_max_keep_a_finite_covariance():
    """A state symmetrizes its covariance as 0.5 cov + 0.5 cov^T, which stays
    finite for every finite entry where cov + cov^T overflows: a thermal
    state of 1e308 photons and the channel at eta = 0, N_Z = 1e308."""
    assert thermal(1e308).cov[0, 0] == 1e308
    cp = ChannelParams(eta=0.0, phi=0.0, N_Z=1e308, M=1, N_S=0.01)
    out = apply_channel(cp, Symbol(0.0, 0.0))
    assert np.isfinite(out.cov).all()
    assert out.cov[0, 0] == out.cov[1, 1] == 1e308


def test_apply_channel_classical_dark_symbol():
    cp = ChannelParams(eta=0.5, phi=0.0, N_Z=12.0, M=100, N_S=0.4)
    out = apply_channel_classical(cp, Symbol(0.0, 0.0))
    assert np.allclose(out.cov, thermal(12.0).cov, atol=1e-12)


def test_apply_channel_classical_moments():
    eta, phi, N_S, N_Z = 0.3, 1.1, 0.6, 8.0
    cp = ChannelParams(eta=1.0, phi=phi, N_Z=N_Z, M=100, N_S=N_S)
    out = apply_channel_classical(cp, Symbol(math.sqrt(eta), 0.0))
    assert mean_photon_number(out, 0) == pytest.approx(
        eta * N_S + (1 - eta) * N_Z, rel=1e-12
    )
    expect = math.sqrt(2 * eta * N_S) * np.array([math.cos(phi), -math.sin(phi)])
    assert np.allclose(out.mean, expect, atol=1e-12)


def test_symbol_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        Symbol(1.2, 0.0)
    with pytest.raises(ValueError):
        Symbol(-0.1, 0.0)


@pytest.mark.parametrize("phase", [-1e-17, -5e-324])
def test_symbol_phase_below_two_pi(phase):
    """A tiny negative phase, whose remainder rounds up to 2 pi, becomes 0,
    so BPSK's zero-photon test nulls the phase-pi symbol, not this one."""
    assert phase % TWO_PI == TWO_PI
    a = Alphabet((Symbol(0.5, phase), Symbol(0.5, math.pi)), AlphabetKind.BPSK)
    assert a.symbols[0].phase == 0.0
    assert sfg_null_symbol(a) is a.symbols[1]


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["N_Z", "N_S", "phi"])
def test_channel_params_reject_non_finite(field, value):
    """A non-finite channel value is refused where the point is built, and so
    is a non-finite symbol phase, rather than reaching a receiver rule."""
    good = dict(eta=0.01, phi=0.0, N_Z=100.0, M=10, N_S=0.01)
    ChannelParams(**good)
    with pytest.raises(ValueError, match="finite"):
        ChannelParams(**{**good, field: value})
    with pytest.raises(ValueError, match="finite"):
        Symbol(0.1, value)


@pytest.mark.parametrize("call, message", [
    (lambda: Alphabet((), AlphabetKind.BPSK), "alphabet must contain at least one symbol"),
    (lambda: make_alphabet_bpsk(0.0), "need 0 < eta <= 1, got 0.0"),
    (lambda: min_squared_distance(Alphabet((Symbol(1.0, 0.0),), AlphabetKind.BPSK)),
     "need at least two symbols"),
    (lambda: mode_pairs(0.0, 1.0), "W and T_s must be positive"),
    (lambda: channel_phase(-1.0, 0.0, 1e9), "distance must be >= 0, got -1.0"),
], ids=["empty-alphabet", "zero-eta-bpsk", "one-symbol-distance", "zero-bandwidth", "negative-distance"])
def test_documented_rejections(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
