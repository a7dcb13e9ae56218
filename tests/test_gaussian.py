"""Gaussian engine: construction, transforms, moments, sampling."""

import math

import numpy as np
import pytest

from qbcsim.gaussian import (
    GaussianState,
    apply_beam_splitter,
    apply_two_mode_squeeze,
    assert_physical,
    coherent,
    heterodyne_samples,
    mean_photon_number,
    partial_trace,
    phase_sensitive_correlation,
    symplectic_eigenvalues,
    symplectic_form,
    tensor,
    thermal,
    tmss,
    vacuum,
)


def test_vacuum_single_mode():
    st = vacuum(1)
    assert np.allclose(st.mean, 0.0)
    assert np.allclose(st.cov, np.diag([0.5, 0.5]))


def test_vacuum_two_modes():
    st = vacuum(2)
    assert np.allclose(st.cov, 0.5 * np.eye(4))


def test_vacuum_symplectic_eigenvalues():
    nu = symplectic_eigenvalues(vacuum(3))
    assert np.allclose(nu, 0.5, atol=1e-12)


def test_vacuum_rejects_zero_modes():
    with pytest.raises(ValueError):
        vacuum(0)


def test_coherent_zero_is_vacuum():
    st = coherent(0)
    assert np.allclose(st.mean, vacuum(1).mean)
    assert np.allclose(st.cov, vacuum(1).cov)


def test_coherent_amplitude_and_photon_number():
    st = coherent(math.sqrt(0.04))
    # sqrt(2) * sqrt(0.04), frozen from high-precision evaluation
    assert st.mean[0] == pytest.approx(0.28284271247461901, rel=1e-14)
    assert st.mean[1] == pytest.approx(0.0, abs=1e-15)
    assert mean_photon_number(st, 0) == pytest.approx(0.04, rel=1e-12)


def test_coherent_imaginary_amplitude():
    st = coherent(1j)
    assert st.mean[0] == pytest.approx(0.0, abs=1e-15)
    assert st.mean[1] == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_thermal_zero_is_vacuum():
    assert np.allclose(thermal(0).cov, vacuum(1).cov)


def test_thermal_covariance():
    st = thermal(6040)
    assert np.allclose(st.cov, np.diag([6040.5, 6040.5]))


def test_thermal_occupancy_readback():
    assert mean_photon_number(thermal(2.5), 0) == pytest.approx(2.5, rel=1e-12)


def test_thermal_rejects_negative():
    with pytest.raises(ValueError):
        thermal(-0.1)


def test_tmss_zero_is_vacuum():
    assert np.allclose(tmss(0).cov, vacuum(2).cov)


def test_tmss_cross_correlation():
    c = phase_sensitive_correlation(tmss(0.01), 0, 1)
    # sqrt(0.01 * 1.01), frozen from high-precision evaluation
    assert c.real == pytest.approx(0.10049875621120890, rel=1e-13)
    assert c.imag == pytest.approx(0.0, abs=1e-15)


def test_tmss_is_pure():
    nu = symplectic_eigenvalues(tmss(5.0))
    assert np.allclose(nu, 0.5, atol=1e-9)


def test_tmss_occupancies():
    st = tmss(0.37)
    assert mean_photon_number(st, 0) == pytest.approx(0.37, rel=1e-12)
    assert mean_photon_number(st, 1) == pytest.approx(0.37, rel=1e-12)


def test_beam_splitter_full_transmission_keeps_occupancies():
    st = tensor(coherent(0.8), thermal(2.0))
    out = apply_beam_splitter(st, 0, 1, eta=1.0, phi=0.0)
    assert mean_photon_number(out, 0) == pytest.approx(mean_photon_number(st, 0), abs=1e-12)
    assert mean_photon_number(out, 1) == pytest.approx(mean_photon_number(st, 1), abs=1e-12)


def test_beam_splitter_full_reflection_swaps_occupancies():
    st = tensor(coherent(0.8), thermal(2.0))
    out = apply_beam_splitter(st, 0, 1, eta=0.0, phi=0.3)
    assert mean_photon_number(out, 0) == pytest.approx(mean_photon_number(st, 1), abs=1e-12)
    assert mean_photon_number(out, 1) == pytest.approx(mean_photon_number(st, 0), abs=1e-12)


def test_beam_splitter_splits_energy():
    st = tensor(coherent(1.0), vacuum(1))
    out = apply_beam_splitter(st, 0, 1, eta=0.25, phi=0.0)
    assert mean_photon_number(out, 0) == pytest.approx(0.25, abs=1e-12)
    assert mean_photon_number(out, 1) == pytest.approx(0.75, abs=1e-12)


def test_beam_splitter_rejects_bad_args():
    st = vacuum(2)
    with pytest.raises(ValueError):
        apply_beam_splitter(st, 0, 0, 0.5, 0.0)
    with pytest.raises(ValueError):
        apply_beam_splitter(st, 0, 1, 1.5, 0.0)


def test_two_mode_squeeze_identity_at_unit_gain():
    st = tmss(0.2)
    out = apply_two_mode_squeeze(st, 0, 1, G=1.0, theta=0.4)
    assert np.allclose(out.cov, st.cov, atol=1e-14)
    assert np.allclose(out.mean, st.mean, atol=1e-14)


def test_two_mode_squeeze_vacuum_gain():
    G = 1.0 + 0.3**2
    out = apply_two_mode_squeeze(vacuum(2), 0, 1, G=G, theta=0.0)
    assert mean_photon_number(out, 0) == pytest.approx(G - 1.0, rel=1e-12)
    assert mean_photon_number(out, 1) == pytest.approx(G - 1.0, rel=1e-12)


def test_two_mode_squeeze_rejects_low_gain():
    with pytest.raises(ValueError):
        apply_two_mode_squeeze(vacuum(2), 0, 1, G=0.99, theta=0.0)


def test_two_mode_squeeze_can_null_tmss():
    # undoing the source squeeze: G = N_S + 1, theta = pi for the real-positive
    # correlation of the bare source
    N_S = 0.15
    st = tmss(N_S)
    out = apply_two_mode_squeeze(st, 0, 1, G=N_S + 1.0, theta=math.pi)
    c = phase_sensitive_correlation(out, 0, 1)
    assert abs(c) < 1e-12
    assert mean_photon_number(out, 0) == pytest.approx(0.0, abs=1e-12)


def test_partial_trace_of_tmss_is_thermal():
    st = partial_trace(tmss(0.4), [0])
    assert np.allclose(st.cov, thermal(0.4).cov, atol=1e-12)


def test_partial_trace_of_vacuum():
    st = partial_trace(vacuum(3), [0, 2])
    assert st.n_modes == 2
    assert np.allclose(st.cov, 0.5 * np.eye(4))


def test_partial_trace_keep_all_is_identity():
    st = tmss(0.3)
    out = partial_trace(st, [0, 1])
    assert np.allclose(out.cov, st.cov)
    assert np.allclose(out.mean, st.mean)


def test_partial_trace_rejects_empty():
    with pytest.raises(ValueError):
        partial_trace(vacuum(2), [])


def test_mean_photon_number_channel_output():
    # eta = 0.01, N_S = 0.01, N_Z = 100 mixed on the channel beam splitter
    st = tensor(tmss(0.01), thermal(100.0))
    out = apply_beam_splitter(st, 0, 2, eta=0.01, phi=0.0)
    assert mean_photon_number(out, 0) == pytest.approx(99.0001, rel=1e-10)


def test_correlation_of_vacuum_is_zero():
    assert phase_sensitive_correlation(vacuum(2), 0, 1) == 0


def test_correlation_after_channel_scales_and_rotates():
    eta, phi, N_S = 0.04, 0.9, 0.02
    st = tensor(tmss(N_S), thermal(50.0))
    out = apply_beam_splitter(st, 0, 2, eta=eta, phi=phi)
    c = phase_sensitive_correlation(out, 0, 1)
    expect = math.sqrt(eta) * np.exp(-1j * phi) * math.sqrt(N_S * (N_S + 1.0))
    assert abs(c - expect) < 1e-12


def test_heterodyne_sample_received_coherent_mode():
    eta, N_S, phi = 0.09, 0.5, 0.7
    alpha = math.sqrt(eta * N_S) * np.exp(-1j * phi)
    st = coherent(alpha)
    rng = np.random.default_rng(1234)
    n = 10**6
    z = heterodyne_samples(st, 0, n, rng)
    se = math.sqrt(0.5 / n)  # per-quadrature sd is sqrt(1/2) for a coherent state
    assert abs(np.mean(z.real) - math.sqrt(eta * N_S) * math.cos(phi)) < 4 * se
    assert abs(np.mean(z.imag) + math.sqrt(eta * N_S) * math.sin(phi)) < 4 * se


def test_heterodyne_sample_vacuum_statistics():
    rng = np.random.default_rng(99)
    n = 10**5
    z = heterodyne_samples(vacuum(1), 0, n, rng)
    assert abs(np.mean(z.real)) < 4 * math.sqrt(0.5 / n)
    assert np.var(z.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(z.imag) == pytest.approx(0.5, rel=0.05)


def test_heterodyne_sample_thermal_variance():
    N_Z = 30.0
    rng = np.random.default_rng(7)
    n = 10**5
    z = heterodyne_samples(thermal(N_Z), 0, n, rng)
    assert np.var(z.real) == pytest.approx((N_Z + 1.0) / 2.0, rel=0.05)
    assert np.var(z.imag) == pytest.approx((N_Z + 1.0) / 2.0, rel=0.05)


def test_heterodyne_sample_scalar_form():
    rng = np.random.default_rng(0)
    z = heterodyne_samples(coherent(1.0), 0, 1, rng)[0]  # complex128 is a complex
    assert isinstance(z, complex)


# ---------------------------------------------------------------------------
# engine invariants over randomized parameters
# ---------------------------------------------------------------------------


def _random_state(rng):
    """A random physical 2-3 mode state from the constructive ops."""
    base = tensor(tmss(rng.uniform(0.0, 0.5)), thermal(rng.uniform(0.0, 20.0)))
    st = apply_beam_splitter(base, 0, 2, rng.uniform(0.0, 1.0), rng.uniform(0.0, 2 * math.pi))
    if rng.uniform() < 0.5:
        st = apply_two_mode_squeeze(
            st, 0, 1, 1.0 + rng.uniform(0.0, 0.5), rng.uniform(0.0, 2 * math.pi)
        )
    return st


def test_symplectic_matrices_are_symplectic():
    rng = np.random.default_rng(42)
    omega = symplectic_form(2)
    for _ in range(50):
        eta, phi = rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)
        st = vacuum(2)
        # check via the invariance of Omega under the transform of a basis state
        out = apply_beam_splitter(st, 0, 1, eta, phi)
        assert_physical(out)
        G, th = 1.0 + rng.uniform(0, 2), rng.uniform(0, 2 * math.pi)
        out2 = apply_two_mode_squeeze(st, 0, 1, G, th)
        assert_physical(out2)
        # purity of symplectically transformed vacuum is preserved exactly
        assert np.allclose(symplectic_eigenvalues(out), 0.5, atol=1e-10)
        assert np.allclose(symplectic_eigenvalues(out2), 0.5, atol=1e-10)
    assert np.allclose(omega, -omega.T)


def test_uncertainty_bound_preserved_under_transforms():
    rng = np.random.default_rng(3)
    for _ in range(200):
        st = _random_state(rng)
        assert np.min(symplectic_eigenvalues(st)) >= 0.5 - 1e-9


def test_beam_splitter_conserves_photons():
    rng = np.random.default_rng(11)
    for _ in range(200):
        st = tensor(thermal(rng.uniform(0, 10)), coherent(rng.uniform(0, 2)))
        before = mean_photon_number(st, 0) + mean_photon_number(st, 1)
        out = apply_beam_splitter(st, 0, 1, rng.uniform(0, 1), rng.uniform(0, 2 * math.pi))
        after = mean_photon_number(out, 0) + mean_photon_number(out, 1)
        assert after == pytest.approx(before, rel=1e-10, abs=1e-12)


def test_phase_conjugate_beam_splitters_cancel():
    rng = np.random.default_rng(5)
    for _ in range(50):
        st = _random_state(rng)
        st2 = partial_trace(st, [0, 1])
        phi = rng.uniform(0, 2 * math.pi)
        out = apply_beam_splitter(st2, 0, 1, 1.0, phi)
        out = apply_beam_splitter(out, 0, 1, 1.0, -phi)
        assert np.allclose(out.cov, st2.cov, atol=1e-12)
        assert np.allclose(out.mean, st2.mean, atol=1e-12)


def test_tmss_purity_product():
    for N_S in (0.0, 0.01, 0.5, 3.0):
        nu = symplectic_eigenvalues(tmss(N_S))
        assert np.prod(nu) == pytest.approx(0.25, abs=1e-10)


def test_heterodyne_empirical_moments_match_analytic():
    # correlated-quadrature state to exercise the joint sampling path
    st = apply_two_mode_squeeze(vacuum(2), 0, 1, 1.4, 0.6)
    st = partial_trace(st, [0])
    rng = np.random.default_rng(2024)
    n = 10**5
    z = heterodyne_samples(st, 0, n, rng)
    i = 0
    vx, vp = st.cov[i, i], st.cov[i + 1, i + 1]
    target_vr = (vx + 0.5) / 2.0
    target_vi = (vp + 0.5) / 2.0
    # 4 standard errors of a variance estimate: se ~ v sqrt(2/n)
    assert abs(np.var(z.real) - target_vr) < 4 * target_vr * math.sqrt(2.0 / n)
    assert abs(np.var(z.imag) - target_vi) < 4 * target_vi * math.sqrt(2.0 / n)
    assert abs(np.mean(z.real)) < 4 * math.sqrt(target_vr / n)


def test_state_validation_rejects_asymmetric_cov():
    with pytest.raises(ValueError):
        GaussianState(1, np.zeros(2), np.array([[0.5, 0.1], [0.3, 0.5]]))
