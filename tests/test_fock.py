"""Number-basis bridge and discrimination oracles."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from qbcsim import fock
from qbcsim.fock import (
    FockOperator,
    _blocks,
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
    tensor,
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


@pytest.mark.parametrize("state", [
    GaussianState(2, np.zeros(4), np.diag([1.0, 0.25, 0.5, 0.5])),
    apply_beam_splitter(tensor(thermal(1.0), vacuum(1)), 0, 1, 0.5, 0.0),
], ids=["squeezed-marginal", "beam-splitter-correlation"])
def test_rejects_zero_mean_two_mode_outside_pipeline_class(state):
    """A zero-mean two-mode state whose marginal is phase sensitive, or whose
    modes correlate as a beam splitter makes them, is not a channel state."""
    with pytest.raises(ValueError, match="pipeline class"):
        gaussian_to_fock(state, 8)


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


def _golden_section_exponent(f):
    """Reference search: golden section on [0, 1] down to a bracket of 1e-10,
    with f(0) and f(1) in the minimum; f returns (f, f', f'') and only f is
    read.  It makes 54 evaluations."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    lo, hi, x1, x2 = 0.0, 1.0, 1.0 - invphi, invphi
    f1, f2 = f(x1)[0], f(x2)[0]
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)[0]
    return -math.log(max(min(f(0.0)[0], f(1.0)[0], f1, f2), 1e-300))


def test_newton_search_against_golden_section(monkeypatch):
    """On the first 200 criterion-6 pairs of the oracle benchmark (cutoff 17,
    the draws of seed 5), the Newton search finds the golden-section
    exponent within 1e-12, in a median of at most 10 evaluations of f and
    never more than golden section's 54."""
    curve = fock._overlap_curve
    evaluations = []

    def counted(rho0, rho1):
        f = curve(rho0, rho1)
        evaluations.append(0)

        def g(s):
            evaluations[-1] += 1
            return f(s)

        return g

    monkeypatch.setattr(fock, "_overlap_curve", counted)
    for index in range(200):
        rng = np.random.default_rng([5, index])
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        cp = ChannelParams(eta=u(0.0, 0.3), phi=u(0.0, 2 * math.pi), N_Z=u(0.05, 1.0),
                           M=100, N_S=u(0.01, 0.3))
        s0 = Symbol(math.sqrt(cp.eta), u(0.0, 2 * math.pi))
        s1 = Symbol(math.sqrt(u(0.0, 0.3)), u(0.0, 2 * math.pi))
        f0, f1 = (gaussian_to_fock(apply_channel(cp, s), 17) for s in (s0, s1))
        xi = chernoff_exponent_oracle(f0, f1)
        assert xi == pytest.approx(_golden_section_exponent(curve(f0, f1)), abs=1e-12)
    assert len(evaluations) == 200
    assert np.median(evaluations) <= 10 and max(evaluations) <= 54, evaluations


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
    """A matrix with a negative eigenvalue is refused when it is built, as one
    whole block, on one mode and on two."""
    dim = 6
    m = np.zeros((dim, dim), dtype=complex)
    m[0, 0] = 1.5
    m[1, 1] = -0.5
    with pytest.raises(ValueError, match="positive semidefinite"):
        FockOperator(1, dim, m, 0.0)
    m2 = np.zeros((dim * dim, dim * dim), dtype=complex)
    m2[0, 0], m2[dim + 1, dim + 1] = 1.5, -0.5  # |0,0> and |1,1>, both in sector 0
    with pytest.raises(ValueError, match="positive semidefinite"):
        FockOperator(2, dim, m2, 0.0)


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


@pytest.mark.parametrize("entry", [1e-7, -0.0], ids=["linked-1e-7", "signed-zero"])
def test_a_matrix_built_operator_is_one_whole_block(entry):
    """An operator built from a matrix is one whole block, and so is a pair
    with it, whichever side of the pair it is on.  Here the matrix is a
    pipeline operator with a Hermitian pair of entries, 1e-7 or -0.0, between
    |0,0> and |1,0>, which lie in different sectors of n0 - n1 and carry
    enough weight to keep it PSD.  Against its sector-exact original, a 1e-7
    pair alone sets the trace distance, which a per-sector solve would drop."""
    rho = gaussian_to_fock(_random_pipeline_state(np.random.default_rng(55)), 5)
    m = rho.matrix.copy()
    m[0, rho.dimension] = m[rho.dimension, 0] = entry  # |n0, n1> sits at n0 * dim + n1
    odd = FockOperator(2, rho.dimension, m, 0.0)
    other = gaussian_to_fock(_random_pipeline_state(np.random.default_rng(56)), 5)
    for partner in (rho, other):
        for r0, r1 in ((odd, partner), (partner, odd)):
            assert len(_blocks(r0, r1)[0]) == 1
            helstrom, xi = _dense_oracles(r0.matrix, r1.matrix)
            assert helstrom_oracle(r0, r1) == pytest.approx(helstrom, abs=1e-10)
            assert chernoff_exponent_oracle(r0, r1) == pytest.approx(xi, abs=1e-10)
    assert len(_blocks(rho, other)[0]) == 2 * rho.dimension - 1


def _count_eig_calls(monkeypatch) -> dict:
    """Counts of np.linalg.eigh and eigvalsh calls from now on."""
    calls = {"eigh": 0, "eigvalsh": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


def test_converted_pair_solves_only_the_helstrom_difference(monkeypatch):
    """At cutoff 17 a conversion at a cutoff already used solves nothing and
    hands its spectrum to the operator, so both oracles together, in either
    order, make no eigh and one eigvalsh, of Helstrom's difference, and the
    Chernoff oracle alone solves nothing.  The same pair built from its
    matrices makes one eigh per operator when it is built, and the
    oracles then make only Helstrom's eigvalsh."""
    cp = ChannelParams(eta=0.2, phi=0.4, N_Z=0.5, M=100, N_S=0.2)
    s0, s1 = Symbol(math.sqrt(cp.eta), 1.1), Symbol(0.3, 2.5)
    gaussian_to_fock(apply_channel(cp, s0), 17)
    oracles = [helstrom_oracle, chernoff_exponent_oracle]
    cases = (
        (oracles, {"eigh": 0, "eigvalsh": 1}),
        (oracles[::-1], {"eigh": 0, "eigvalsh": 1}),
        ([chernoff_exponent_oracle], {"eigh": 0, "eigvalsh": 0}),
    )
    for order, expect in cases:
        calls = _count_eig_calls(monkeypatch)
        f0 = gaussian_to_fock(apply_channel(cp, s0), 17)
        f1 = gaussian_to_fock(apply_channel(cp, s1), 17)
        assert calls == {"eigh": 0, "eigvalsh": 0}
        for oracle in order:
            oracle(f0, f1)
        assert calls == expect, ([o.__name__ for o in order], calls)
        monkeypatch.undo()
    for order in (oracles, oracles[::-1]):
        calls = _count_eig_calls(monkeypatch)
        m0, m1 = (FockOperator(2, 18, f.matrix, f.trace_deficit) for f in (f0, f1))
        assert calls == {"eigh": 2, "eigvalsh": 0}
        for oracle in order:
            oracle(m0, m1)
        assert calls == {"eigh": 2, "eigvalsh": 1}, (order[0].__name__, calls)
        monkeypatch.undo()


def test_two_mode_oracles_build_no_dense_matrix():
    """A cutoff-17 pair, converted and put through both oracles, peaks below
    the 324 x 324 complex matrix (1.68 MB) that its dense form would take."""
    cp = ChannelParams(eta=0.2, phi=0.4, N_Z=0.5, M=100, N_S=0.2)
    states = [apply_channel(cp, Symbol(math.sqrt(cp.eta), 1.1)),
              apply_channel(cp, Symbol(0.3, 2.5))]
    gaussian_to_fock(states[0], 17)  # the cutoff's shared tables
    dense_bytes = (18 * 18) ** 2 * 16
    tracemalloc.start()
    try:
        f0, f1 = (gaussian_to_fock(st, 17) for st in states)
        helstrom_oracle(f0, f1)
        chernoff_exponent_oracle(f0, f1)
        peak = tracemalloc.get_traced_memory()[1]
        f0.matrix
        with_matrix = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense_bytes, peak
    assert with_matrix >= dense_bytes  # the measure does see a dense matrix


def _sector_gather(m, dim):
    """The zero-padded stack of the sectors n0 - n1 = k of a dense two-mode
    matrix, each listing its basis states |n0, n1> by ascending n1."""
    stack = np.zeros((2 * dim - 1, dim, dim), dtype=complex)
    for k in range(1 - dim, dim):
        states = [(n1 + k) * dim + n1 for n1 in range(dim) if 0 <= n1 + k < dim]
        stack[k + dim - 1, : len(states), : len(states)] = m[np.ix_(states, states)]
    return stack


def test_two_mode_conversion_stores_the_sector_gather_of_its_matrix():
    """The stored stack is the in-sector gather of `.matrix` bit for bit,
    padded with +0.0, and the trace deficit is 1 - trace(.matrix) exactly."""
    rng = np.random.default_rng(1818)
    cp = ChannelParams(eta=0.2, phi=0.4, N_Z=0.5, M=100, N_S=0.2)
    states = [_random_pipeline_state(rng) for _ in range(6)] + [apply_channel(cp, Symbol(0.0, 0.0))]
    for n_max, st in zip((17, 17, 9, 5, 1, 24, 17), states):
        rho = gaussian_to_fock(st, n_max)
        stack = _blocks(rho, rho)[0]
        expect = _sector_gather(rho.matrix, n_max + 1)
        assert stack.shape == expect.shape
        assert np.array_equal(stack.view(np.uint64), expect.view(np.uint64))
        assert rho.trace_deficit == float(1.0 - np.trace(rho.matrix).real)


@pytest.mark.parametrize("oracle", [helstrom_oracle, chernoff_exponent_oracle])
def test_oracles_reject_operators_of_different_modes_or_cutoffs(oracle):
    """A one-mode 4 x 4 operator and a two-mode 2 x 2 one share a matrix shape
    but not a basis; two two-mode cutoffs share neither."""
    one_mode = gaussian_to_fock(thermal(0.3), 3)
    two_mode = gaussian_to_fock(tmss(0.2), 1)
    assert one_mode.matrix.shape == two_mode.matrix.shape
    cutoffs = gaussian_to_fock(tmss(0.2), 5), gaussian_to_fock(tmss(0.2), 6)
    for r0, r1 in ((one_mode, two_mode), cutoffs):
        for a, b in ((r0, r1), (r1, r0)):
            with pytest.raises(ValueError, match="share a number of modes"):
                oracle(a, b)


def test_operator_owns_its_data():
    """The constructor copies its matrix, so writing to the source afterwards
    moves no oracle value; the matrix, the stack and the kept spectrum, solved
    at construction or handed over by a one- or two-mode conversion, are
    read-only, and its attributes cannot be rebound."""
    dim = 4
    m = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho = FockOperator(1, dim, m, 0.0)
    other = gaussian_to_fock(thermal(0.3), dim - 1)
    before = helstrom_oracle(rho, other), chernoff_exponent_oracle(rho, other)
    m[0, 0] = 5.0
    assert (helstrom_oracle(rho, other), chernoff_exponent_oracle(rho, other)) == before
    pair = gaussian_to_fock(_random_pipeline_state(np.random.default_rng(7)), 5)
    source = pair.matrix.copy()
    copied = FockOperator(2, pair.dimension, source, pair.trace_deficit)
    partner = gaussian_to_fock(_random_pipeline_state(np.random.default_rng(8)), 5)
    before = helstrom_oracle(copied, partner), chernoff_exponent_oracle(copied, partner)
    source[:] = 0.0
    assert (helstrom_oracle(copied, partner), chernoff_exponent_oracle(copied, partner)) == before
    for op in (rho, pair, copied, other, partner):
        arrays = [op.matrix, _blocks(op, op)[0], *op._eigh]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a.ravel()[0] = 1.0
        with pytest.raises(AttributeError):
            op.trace_deficit = 0.5


def _wide_pipeline_states(rng, count):
    """Channel outputs over eta in [0, 1], N_S in [1e-3, 2], N_Z in [0, 3] and
    random phases, half of them followed by a receiver's two-mode squeeze."""
    states = []
    for _ in range(count):
        cp = ChannelParams(
            eta=float(rng.uniform(0.0, 1.0)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            N_Z=float(rng.uniform(0.0, 3.0)),
            M=100,
            N_S=float(rng.uniform(1e-3, 2.0)),
        )
        st = apply_channel(cp, Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi))))
        if rng.uniform() < 0.5:
            st = apply_two_mode_squeeze(
                st, 0, 1, 1.0 + float(rng.uniform(0, 0.5)), float(rng.uniform(0, 2 * math.pi))
            )
        states.append(st)
    return states


def test_kept_spectrum_is_the_eigendecomposition_of_the_stack():
    """Every operator's kept spectrum, handed over by a conversion or solved
    when built from a matrix, is an eigendecomposition of the stored stack:
    sorted, its eigenvalues are eigvalsh's, a conversion's padded slots hold
    exactly 0, every block's vectors are unitary and V diag(lam) V^dag
    rebuilds the block.  Covered: random pipeline states at cutoffs 1-40, a
    zero cross-correlation phase (TMSS, channel phase 0), the unsqueezed
    branch (an absent tag), one-mode thermal, coherent, squeezed and
    squeezed-displaced states, and operators built from a one-mode matrix, a
    two-mode sector matrix and a two-mode matrix linking every sector, each
    one whole block."""
    rng = np.random.default_rng(1919)
    cp = ChannelParams(eta=0.4, phi=0.0, N_Z=0.7, M=100, N_S=0.5)
    squeezed = partial_trace(apply_beam_splitter(tmss(0.3), 0, 1, 0.5, 0.7), [0])
    displaced = GaussianState(1, np.array([0.2, -0.1]), squeezed.cov)
    cases = [(st, int(n)) for st, n in zip(_wide_pipeline_states(rng, 24), rng.integers(1, 41, 24))]
    cases += [(tmss(1.5), 20), (apply_channel(cp, Symbol(0.5, 0.0)), 17), (tmss(0.2), 40),
              (apply_channel(cp, Symbol(0.0, 0.0)), 17), (apply_channel(cp, Symbol(0.0, 0.0)), 1)]
    cases += [(thermal(0.8), 25), (coherent(0.6 - 0.2j), 22), (squeezed, 30), (displaced, 30)]
    operators = [gaussian_to_fock(st, n_max) for st, n_max in cases]
    coh = gaussian_to_fock(coherent(0.4 - 0.3j), 11).matrix
    pipeline = gaussian_to_fock(_random_pipeline_state(rng), 17)
    operators += [FockOperator(1, 31, gaussian_to_fock(displaced, 30).matrix, 0.0),
                  FockOperator(2, 18, pipeline.matrix, pipeline.trace_deficit),
                  FockOperator(2, 12, np.kron(coh, coh), 0.0)]
    assert [len(op._stack) for op in operators[-3:]] == [1, 1, 1]
    for k, rho in enumerate(operators):
        lam, vecs = rho._eigh
        stack = _blocks(rho, rho)[0]
        dim = rho.dimension
        assert lam.shape == stack.shape[:2] and vecs.shape == stack.shape
        for a in (lam, vecs):
            with pytest.raises(ValueError, match="read-only"):
                a.ravel()[0] = 1.0
        if k < len(cases) and rho.n_modes == 2:
            size = dim - np.abs(np.arange(1 - dim, dim))  # states per sector n0 - n1
            padded = np.arange(dim)[None, :] >= size[:, None]
            assert np.all(lam[padded] == 0.0)
        assert np.max(np.abs(np.sort(lam, axis=1) - np.linalg.eigvalsh(stack))) <= 1e-14
        eye = np.eye(stack.shape[1])
        assert np.max(np.abs(vecs @ vecs.conj().transpose(0, 2, 1) - eye)) <= 1e-13
        rebuilt = (vecs * lam[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
        assert np.max(np.abs(rebuilt - stack)) <= 1e-14


def test_operator_rejects_bad_arguments():
    m = np.eye(4, dtype=complex) / 4
    FockOperator(1, 4, m, 0.0)
    FockOperator(2, 2, m, 0.0)
    bad_arguments = ((0, 4, 0.0), (3, 4, 0.0), (1, 0, 0.0), (1, 4, math.nan), (1, 4, math.inf))
    for n_modes, dimension, deficit in bad_arguments:
        with pytest.raises(ValueError):
            FockOperator(n_modes, dimension, m, deficit)
    for bad in (math.nan, math.inf):
        poisoned = m.copy()
        poisoned[1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            FockOperator(1, 4, poisoned, 0.0)
    with pytest.raises(ValueError, match=r"matrix must be 4x4, got \(3, 3\)"):
        FockOperator(1, 4, np.eye(3), 0.0)


def test_unsqueezed_pair_is_exactly_diagonal():
    """The channel output of Symbol(0, 0) has no cross-correlation, so its
    matrix is the thermal product with every off-diagonal entry exactly zero."""
    cp = ChannelParams(eta=0.2, phi=0.4, N_Z=0.5, M=100, N_S=0.2)
    m = gaussian_to_fock(apply_channel(cp, Symbol(0.0, 0.0)), 17).matrix
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0
    assert np.all(np.diag(m).real > 0.0)
