"""Link model: alphabets, link budget, channel application."""

import math

import numpy as np
import pytest

from qbcsim.gaussian import (
    mean_photon_number,
    phase_sensitive_correlation,
    symplectic_eigenvalues,
    thermal,
)
from qbcsim.link import (
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
    rtt_from_link_budget,
    thermal_occupancy,
)


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
            AlphabetKind.CUSTOM,
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
    # frozen from a 50-digit evaluation of the printed formula
    assert rtt_from_link_budget(_example_budget()) == pytest.approx(
        4.5290989990698180e-07, rel=1e-12
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


def test_apply_channel_moment_identities_randomized():
    rng = np.random.default_rng(2718)
    for _ in range(100):
        cp = ChannelParams(
            eta=1.0,
            phi=rng.uniform(0, 2 * math.pi),
            N_Z=rng.uniform(0, 200),
            M=100,
            N_S=rng.uniform(0, 0.5),
        )
        sym = Symbol(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        out = apply_channel(cp, sym)
        eta = sym.eta
        n_r = mean_photon_number(out, 0)
        assert n_r == pytest.approx(
            eta * cp.N_S + (1 - eta) * cp.N_Z, rel=1e-10, abs=1e-10
        )
        assert mean_photon_number(out, 1) == pytest.approx(cp.N_S, rel=1e-10, abs=1e-12)
        c = phase_sensitive_correlation(out, 0, 1)
        expect = (
            math.sqrt(eta)
            * np.exp(-1j * (sym.phase + cp.phi))
            * math.sqrt(cp.N_S * (cp.N_S + 1))
        )
        assert abs(c - expect) < 1e-10


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


def test_validity_flags():
    ok = ChannelParams(eta=0.01, phi=0.0, N_Z=100.0, M=10, N_S=0.01)
    assert not ok.validity_warnings()
    flagged = ChannelParams(eta=0.5, phi=0.0, N_Z=2.0, M=10, N_S=0.5)
    flags = flagged.validity_warnings()
    assert len(flags) == 3


def test_symbol_rejects_bad_amplitude():
    with pytest.raises(ValueError):
        Symbol(1.2, 0.0)
    with pytest.raises(ValueError):
        Symbol(-0.1, 0.0)
