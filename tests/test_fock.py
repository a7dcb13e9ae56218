"""Number-basis bridge and discrimination oracles."""

import cmath
import math

import numpy as np
import pytest

from qbcsim.fock import (
    FockOperator,
    _ladder,
    _unitary_from_antihermitian,
    chernoff_exponent_oracle,
    gaussian_to_fock,
    helstrom_oracle,
)
from qbcsim.gaussian import (
    GaussianState,
    apply_beam_splitter,
    apply_two_mode_squeeze,
    coherent,
    mean_photon_number,
    partial_trace,
    phase_sensitive_correlation,
    thermal,
    tmss,
    vacuum,
)
from qbcsim.link import ChannelParams, Symbol, apply_channel


def test_vacuum_projector():
    rho = gaussian_to_fock(vacuum(1), 10)
    expect = np.zeros((11, 11))
    expect[0, 0] = 1.0
    assert np.allclose(rho.matrix, expect, atol=1e-14)
    assert rho.trace_deficit == pytest.approx(0.0, abs=1e-14)


def test_thermal_number_distribution():
    N = 0.8
    rho = gaussian_to_fock(thermal(N), 25)
    n = np.arange(26)
    expect = N**n / (N + 1) ** (n + 1)
    assert np.allclose(np.diag(rho.matrix).real, expect, atol=1e-14)
    assert np.allclose(rho.matrix - np.diag(np.diag(rho.matrix)), 0.0, atol=1e-14)


def test_coherent_amplitudes():
    alpha = 0.6
    rho = gaussian_to_fock(coherent(alpha), 22)
    amps = np.array(
        [math.exp(-(alpha**2) / 2) * alpha**k / math.sqrt(math.factorial(k)) for k in range(23)]
    )
    assert np.allclose(rho.matrix, np.outer(amps, amps), atol=1e-12)


def test_tmss_is_pure_with_schmidt_marginal():
    N_S = 0.3
    dim = 25
    rho = gaussian_to_fock(tmss(N_S), dim - 1)
    m = rho.matrix
    assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-10)
    reduced = np.einsum("ikjk->ij", m.reshape(dim, dim, dim, dim))
    ev = np.linalg.eigvalsh(reduced)
    assert ev[-1] == pytest.approx(1.0 / (N_S + 1.0), rel=1e-10)
    # number-basis amplitudes follow sqrt(N^n / (N+1)^{n+1}); compare away from
    # the cutoff, where truncating the squeeze generator is immaterial
    diag_pairs = np.array([m[i * dim + i, i * dim + i].real for i in range(15)])
    expect = np.array([N_S**n / (N_S + 1) ** (n + 1) for n in range(15)])
    assert np.allclose(diag_pairs, expect, atol=1e-12)


def test_trace_deficit_decreases_with_cutoff():
    st = thermal(1.2)
    deficits = [gaussian_to_fock(st, n).trace_deficit for n in (5, 10, 20, 30)]
    assert all(a > b for a, b in zip(deficits, deficits[1:]))
    assert all(d >= 0 for d in deficits)


def test_pipeline_state_moments_match_engine():
    rng = np.random.default_rng(12)
    for _ in range(5):
        cp = ChannelParams(
            eta=float(rng.uniform(0.01, 0.3)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            N_Z=float(rng.uniform(0.1, 1.0)),
            M=100,
            N_S=float(rng.uniform(0.05, 0.3)),
        )
        sym = Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi)))
        st = apply_channel(cp, sym)
        if rng.uniform() < 0.5:
            st = apply_two_mode_squeeze(
                st, 0, 1, 1.0 + float(rng.uniform(0, 0.3)), float(rng.uniform(0, 2 * math.pi))
            )
        rho = gaussian_to_fock(st, 24)
        dim = 25
        a = _ladder(dim)
        eye = np.eye(dim)
        a0, a1 = np.kron(a, eye), np.kron(eye, a)
        m = rho.matrix
        assert np.trace(a0.conj().T @ a0 @ m).real == pytest.approx(
            mean_photon_number(st, 0), abs=2e-4
        )
        assert np.trace(a1.conj().T @ a1 @ m).real == pytest.approx(
            mean_photon_number(st, 1), abs=2e-4
        )
        c_fock = complex(np.trace(a0 @ a1 @ m))
        c_eng = phase_sensitive_correlation(st, 0, 1)
        assert abs(c_fock - c_eng) < 2e-4


@pytest.mark.parametrize("mean", [(0.0, 0.0), (0.2, -0.1)])
def test_squeezed_single_mode_moments_match_engine(mean):
    # one output of a beam splitter fed by both arms of a TMSS is a squeezed
    # thermal state, so the conversion takes its squeezing branch
    st = partial_trace(apply_beam_splitter(tmss(0.3), 0, 1, 0.5, 0.7), [0])
    st = GaussianState(1, np.array(mean), st.cov)
    m = gaussian_to_fock(st, 30).matrix
    a = _ladder(31)
    (mx, mp), V = st.mean, st.cov
    a_eng = complex(mx, mp) / math.sqrt(2.0)
    a2_eng = 0.5 * (V[0, 0] + mx * mx - V[1, 1] - mp * mp) + 1j * (V[0, 1] + mx * mp)
    assert abs(V[0, 0] - V[1, 1]) + abs(V[0, 1]) > 0.05  # squeezed
    assert abs(np.trace(a.conj().T @ a @ m) - mean_photon_number(st, 0)) < 1e-8
    assert abs(np.trace(a @ m) - a_eng) < 1e-8
    assert abs(np.trace(a @ a @ m) - a2_eng) < 1e-8


def test_rejects_three_modes_and_big_cutoff():
    with pytest.raises(ValueError):
        gaussian_to_fock(vacuum(3), 5)
    with pytest.raises(ValueError):
        gaussian_to_fock(vacuum(1), 80)


def test_rejects_displaced_two_mode():
    st = tmss(0.1)
    displaced = GaussianState(2, np.array([0.5, 0.0, 0.0, 0.0]), st.cov)
    with pytest.raises(ValueError):
        gaussian_to_fock(displaced, 8)


def test_helstrom_identical_states():
    rho = gaussian_to_fock(thermal(0.4), 15)
    assert helstrom_oracle(rho, rho) == pytest.approx(0.5, abs=1e-12)


def test_helstrom_orthogonal_pure_states():
    dim = 12
    m0 = np.zeros((dim, dim), dtype=complex)
    m0[0, 0] = 1.0
    m1 = np.zeros((dim, dim), dtype=complex)
    m1[1, 1] = 1.0
    r0 = FockOperator(1, dim, m0, 0.0)
    r1 = FockOperator(1, dim, m1, 0.0)
    assert helstrom_oracle(r0, r1) == pytest.approx(0.0, abs=1e-12)


def test_chernoff_identical_states():
    # cutoff chosen so the truncation deficit sits below the tolerance
    rho = gaussian_to_fock(thermal(0.4), 24)
    assert chernoff_exponent_oracle(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_chernoff_coherent_pair():
    r0 = gaussian_to_fock(coherent(0.0), 24)
    r1 = gaussian_to_fock(coherent(0.5), 24)
    assert chernoff_exponent_oracle(r0, r1) == pytest.approx(0.25, abs=1e-6)


def test_chernoff_minimum_at_an_end():
    """Coherent |alpha> against thermal n: Tr(rho_c^s rho_th^(1-s)) is
    <alpha|rho_th^(1-s)|alpha>, least at s = 0, where it is the Q function
    exp(-|alpha|^2 / (1 + n)) / (1 + n); in the other order, least at s = 1."""
    alpha, n = 0.5, 0.3
    c, t = gaussian_to_fock(coherent(alpha), 24), gaussian_to_fock(thermal(n), 24)
    expect = math.log(1.0 + n) + alpha**2 / (1.0 + n)
    assert chernoff_exponent_oracle(c, t) == pytest.approx(expect, abs=1e-12)
    assert chernoff_exponent_oracle(t, c) == pytest.approx(expect, abs=1e-12)


def _dense_overlap(m0, m1):
    """s -> Tr(rho0^s rho1^(1-s)) on an array of s, from eigensolves of the full
    matrices with the oracles' support floor (0^s = 0, s = 0 included)."""
    (lam0, v0), (lam1, v1) = np.linalg.eigh(m0), np.linalg.eigh(m1)
    w = np.abs(v0.conj().T @ v1) ** 2

    def powers(lam, t):
        keep = lam > 1e-14 * lam.max()
        return np.where(keep[:, None], np.where(keep, lam, 1.0)[:, None] ** t, 0.0)

    return lambda s: np.sum(powers(lam0, s) * (w @ powers(lam1, 1.0 - s)), axis=0)


def test_chernoff_search_against_dense_grid():
    """On pipeline pairs the exponent is at least that of the best of 401
    evenly spaced s.  The overlap is convex, so its minimum lies between that
    point's neighbours; a second 401-point grid there pins it to 1e-8."""
    rng = np.random.default_rng(401)
    grid = np.linspace(0.0, 1.0, 401)
    for _ in range(10):
        cp = ChannelParams(
            eta=float(rng.uniform(0.0, 0.3)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            N_Z=float(rng.uniform(0.05, 1.0)),
            M=100,
            N_S=float(rng.uniform(0.01, 0.3)),
        )
        s0 = Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi)))
        s1 = Symbol(math.sqrt(float(rng.uniform(0.0, 0.3))), float(rng.uniform(0, 2 * math.pi)))
        r0 = gaussian_to_fock(apply_channel(cp, s0), 14)
        r1 = gaussian_to_fock(apply_channel(cp, s1), 14)
        f = _dense_overlap(r0.matrix, r1.matrix)
        coarse = f(grid)
        i = int(np.argmin(coarse))
        fine = f(np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, 400)], 401))
        xi = chernoff_exponent_oracle(r0, r1)
        assert xi >= -math.log(coarse.min()) - 1e-12
        assert xi == pytest.approx(-math.log(min(coarse.min(), fine.min())), abs=1e-8)


def test_chernoff_symmetry():
    cp = ChannelParams(eta=0.05, phi=0.0, N_Z=1.0, M=100, N_S=0.01)
    r0 = gaussian_to_fock(apply_channel(cp, Symbol(0.0, 0.0)), 16)
    r1 = gaussian_to_fock(apply_channel(cp, Symbol(math.sqrt(cp.eta), 0.0)), 16)
    a = chernoff_exponent_oracle(r0, r1)
    b = chernoff_exponent_oracle(r1, r0)
    assert a == pytest.approx(b, abs=1e-8)


def test_ook_discrimination_pair_consistency():
    # the on/off hypothesis pair at desk scale: Helstrom vs single-copy Chernoff
    cp = ChannelParams(eta=0.05, phi=0.0, N_Z=1.0, M=100, N_S=0.01)
    r0 = gaussian_to_fock(apply_channel(cp, Symbol(0.0, 0.0)), 30)
    r1 = gaussian_to_fock(apply_channel(cp, Symbol(math.sqrt(cp.eta), 0.0)), 30)
    xi = chernoff_exponent_oracle(r0, r1)
    ph = helstrom_oracle(r0, r1)
    assert xi > 0
    assert ph <= 0.5 * math.exp(-xi) + 1e-9


def test_random_pipeline_pairs_helstrom_chernoff_consistency():
    rng = np.random.default_rng(2718)
    for _ in range(10):
        cp = ChannelParams(
            eta=float(rng.uniform(0.0, 0.3)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            N_Z=float(rng.uniform(0.05, 1.0)),
            M=100,
            N_S=float(rng.uniform(0.01, 0.3)),
        )
        s0 = Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi)))
        s1 = Symbol(math.sqrt(float(rng.uniform(0.0, 0.3))), float(rng.uniform(0, 2 * math.pi)))
        r0 = gaussian_to_fock(apply_channel(cp, s0), 18)
        r1 = gaussian_to_fock(apply_channel(cp, s1), 18)
        xi = chernoff_exponent_oracle(r0, r1)
        ph = helstrom_oracle(r0, r1)
        assert ph <= 0.5 * math.exp(-xi) + 1e-9


def test_non_hermitian_input_rejected():
    """The Hermiticity check compares each entry with the conjugate of its
    transpose, whichever triangle holds the defect."""
    dim = 6
    m = np.diag(np.full(dim, 1.0 / dim)).astype(complex)
    FockOperator(1, dim, m, 0.0)
    for i, j, v in ((0, 3, 1e-3), (4, 1, 1e-3j), (2, 2, 1e-3j)):
        bad = m.copy()
        bad[i, j] += v
        with pytest.raises(ValueError, match="Hermitian"):
            FockOperator(1, dim, bad, 0.0)
    ok = m.copy()
    ok[0, 3], ok[3, 0] = 1e-3 + 2e-3j, 1e-3 - 2e-3j
    FockOperator(1, dim, ok, 0.0)


def test_non_psd_input_rejected():
    dim = 6
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.5
    m[1, 1] = -0.5
    bad = FockOperator(1, dim, m, 0.0)
    good = gaussian_to_fock(vacuum(1), dim - 1)
    with pytest.raises(ValueError):
        helstrom_oracle(bad, good)
    with pytest.raises(ValueError):
        chernoff_exponent_oracle(bad, good)


def _random_pipeline_state(rng):
    """A channel output, half the time followed by a receiver's two-mode squeeze."""
    cp = ChannelParams(
        eta=float(rng.uniform(0.01, 0.3)),
        phi=float(rng.uniform(0, 2 * math.pi)),
        N_Z=float(rng.uniform(0.1, 1.0)),
        M=100,
        N_S=float(rng.uniform(0.05, 0.3)),
    )
    st = apply_channel(cp, Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi))))
    if rng.uniform() < 0.5:
        st = apply_two_mode_squeeze(
            st, 0, 1, 1.0 + float(rng.uniform(0, 0.3)), float(rng.uniform(0, 2 * math.pi))
        )
    return st


def _kron_reference(state, dim):
    """Dense conversion: a thermal product, the full two-mode squeeze generator
    r (a0^dag a1^dag - a0 a1) on the kron basis, then the mode-0 phase of <a0 a1>."""
    a_val = mean_photon_number(state, 0) + 0.5
    b_val = mean_photon_number(state, 1) + 0.5
    c = phase_sensitive_correlation(state, 0, 1)
    sigma = math.sqrt((a_val + b_val) ** 2 - 4.0 * abs(c) ** 2)
    r = 0.5 * math.atanh(2.0 * abs(c) / (a_val + b_val))
    n = np.arange(dim)
    nbars = (max(0.5 * (sigma + a_val - b_val) - 0.5, 0.0), max(0.5 * (sigma - a_val + b_val) - 0.5, 0.0))
    d0, d1 = (nbar**n / (nbar + 1.0) ** (n + 1) for nbar in nbars)
    a, eye = _ladder(dim), np.eye(dim)
    a0, a1 = np.kron(a, eye), np.kron(eye, a)
    U = _unitary_from_antihermitian(r * (a0.conj().T @ a1.conj().T - a0 @ a1))
    rho = U @ np.diag(np.kron(d0, d1)) @ U.conj().T
    phases = np.exp(1j * cmath.phase(c) * np.kron(n, np.ones(dim)))
    return (phases[:, None] * rho) * phases.conj()


def test_sector_conversion_matches_dense_generator():
    """Built sector by sector, the matrix equals the dense-generator one and is
    exactly zero between sectors of different n0 - n1."""
    rng = np.random.default_rng(1717)
    for n_max in (6, 9, 12, 12, 12):
        st = _random_pipeline_state(rng)
        dim = n_max + 1
        m = gaussian_to_fock(st, n_max).matrix
        assert np.max(np.abs(m - _kron_reference(st, dim))) <= 1e-12
        n0, n1 = np.divmod(np.arange(dim * dim), dim)
        assert np.all(m[(n0 - n1)[:, None] != (n0 - n1)[None, :]] == 0.0)


def _dense_oracles(m0, m1):
    """Helstrom error and Chernoff exponent from eigensolves of the full
    matrices, with the oracles' support floor.  f(s) = Tr(rho0^s rho1^(1-s))
    is convex in s, so a golden-section search on [0, 1] finds its minimum."""
    helstrom = 0.5 * (1.0 - 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(m0 - m1)))))
    (lam0, v0), (lam1, v1) = np.linalg.eigh(m0), np.linalg.eigh(m1)
    lam0, lam1 = (np.where(lam > 1e-14 * lam.max(), lam, 0.0) for lam in (lam0, lam1))
    w = np.abs(v0.conj().T @ v1) ** 2

    def f(s):
        return float(lam0**s @ w @ lam1 ** (1.0 - s))

    lo, hi, g = 0.0, 1.0, (math.sqrt(5.0) - 1.0) / 2.0
    while hi - lo > 1e-12:
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        if f(x1) <= f(x2):
            hi = x2
        else:
            lo = x1
    return helstrom, -math.log(f(0.5 * (lo + hi)))


def _oracle_pairs():
    rng = np.random.default_rng(3141)
    n_max = 11
    pairs = [
        (gaussian_to_fock(_random_pipeline_state(rng), n_max),
         gaussian_to_fock(_random_pipeline_state(rng), n_max))
        for _ in range(4)
    ]
    # a diagonal operator (every basis state its own block) against a sector-block one
    cp = ChannelParams(eta=0.2, phi=0.4, N_Z=0.5, M=100, N_S=0.2)
    thermal_pair = gaussian_to_fock(apply_channel(cp, Symbol(0.0, 0.0)), n_max)
    pairs.append((thermal_pair, gaussian_to_fock(apply_channel(cp, Symbol(0.3, 1.0)), n_max)))
    # a dense operator that links every sector of the other one
    coh = gaussian_to_fock(coherent(0.4 - 0.3j), n_max).matrix
    pairs.append((FockOperator(2, n_max + 1, np.kron(coh, coh), 0.0), pairs[0][1]))
    # the same on one mode: dense coherent against diagonal thermal
    pairs.append((gaussian_to_fock(thermal(0.5), 20), gaussian_to_fock(coherent(0.7), 20)))
    return pairs + [(r1, r0) for r0, r1 in pairs]


def test_oracles_equal_dense_spectra():
    for r0, r1 in _oracle_pairs():
        helstrom, xi = _dense_oracles(r0.matrix, r1.matrix)
        assert helstrom_oracle(r0, r1) == pytest.approx(helstrom, abs=1e-10)
        assert chernoff_exponent_oracle(r0, r1) == pytest.approx(xi, abs=1e-10)
