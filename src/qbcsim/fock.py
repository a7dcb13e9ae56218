"""Truncated number-basis bridge and optimal-discrimination oracles.

This is a desk-scale validation tool: Gaussian states produced by the engine
are converted to density matrices in a truncated Fock basis, on which the
one-shot Helstrom error probability and the Chernoff exponent are evaluated by
direct eigendecomposition.  It is intentionally limited to at most two modes
and modest cutoffs; the asymptotic claims of the analytic bounds are checked
elsewhere.

A two-mode state accepted here has phase-insensitive marginals and one
cross-correlation <a0 a1>, so it commutes with n0 - n1, and so does a per-mode
cutoff: its matrix is exactly block-diagonal over the 2 dim - 1 sectors of
fixed n0 - n1, and is built sector by sector.  The oracles solve each connected
component of a pair's joint nonzero pattern alone; the spectra are unchanged.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState, phase_sensitive_correlation

HERMITICITY_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
MAX_CUTOFF = 40


@dataclass(frozen=True)
class FockOperator:
    """Density operator in a truncated number basis.

    dimension is the per-mode cutoff plus one; matrix has shape
    dimension**n_modes square; trace_deficit reports 1 - trace lost to the
    truncation.
    """

    n_modes: int
    dimension: int
    matrix: np.ndarray
    trace_deficit: float

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        d = self.dimension**self.n_modes
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {m.shape}")
        # m^H - m in place: a second dense temporary per state makes the heap
        # trim and re-fault its pages on every conversion
        asym = m.conj().T
        asym -= m
        if np.max(np.abs(asym)) > HERMITICITY_ATOL:
            raise ValueError("density matrix must be Hermitian")
        object.__setattr__(self, "matrix", m)


def _require_psd(ev: np.ndarray) -> np.ndarray:
    if np.min(ev) < EIGENVALUE_FLOOR:
        raise ValueError(f"operator is not positive semidefinite: min eig {np.min(ev)}")
    return ev


def _blocks(rho0: FockOperator, rho1: FockOperator):
    """Yields (indices, rho0 block, rho1 block) for each connected component
    of the joint nonzero pattern; both operators vanish between components."""
    m0, m1 = rho0.matrix, rho1.matrix
    if m0.shape != m1.shape:
        raise ValueError("operators must share a truncation dimension")
    linked = (m0 != 0) | (m1 != 0)
    linked |= linked.T
    label, new = None, np.arange(len(linked))
    while not np.array_equal(new, label):  # each index takes the least label linked to it
        label = new[new]
        new = np.minimum(label, np.where(linked, label, len(label)).min(axis=1))
    order = np.argsort(label, kind="stable")
    for idx in np.split(order, np.flatnonzero(np.diff(label[order])) + 1):
        yield idx, m0[np.ix_(idx, idx)], m1[np.ix_(idx, idx)]


def _ladder(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def _unitary_from_antihermitian(K: np.ndarray) -> np.ndarray:
    """exp(K) for anti-Hermitian K via eigendecomposition of iK."""
    lam, V = np.linalg.eigh(1j * K)
    return (V * np.exp(-1j * lam)) @ V.conj().T


def _thermal_diag(nbar: float, dim: int) -> np.ndarray:
    if nbar <= 0.0:
        d = np.zeros(dim)
        d[0] = 1.0
        return d
    n = np.arange(dim)
    return np.exp(n * math.log(nbar) - (n + 1) * math.log(nbar + 1.0))


def _single_mode_fock(state: GaussianState, dim: int) -> np.ndarray:
    cov = state.cov
    nu = math.sqrt(max(np.linalg.det(cov), 0.25))
    evals, evecs = np.linalg.eigh(cov)
    # squeeze magnitude from the ratio of principal variances
    r = 0.25 * math.log(evals[1] / evals[0]) if evals[0] > 0 else 0.0
    psi = math.atan2(evecs[1, 1], evecs[0, 1])  # orientation of the major axis

    rho = np.diag(_thermal_diag(nu - 0.5, dim)).astype(complex)
    a = _ladder(dim)
    if abs(r) > 1e-14:
        # anti-squeeze x by r, then rotate the major axis up to angle psi
        K = 0.5 * r * (a.conj().T @ a.conj().T - a @ a)
        S = _unitary_from_antihermitian(K)
        rho = S @ rho @ S.conj().T
        phases = np.exp(1j * psi * np.arange(dim))
        rho = (phases[:, None] * rho) * np.conj(phases)[None, :]
    alpha = (state.mean[0] + 1j * state.mean[1]) / math.sqrt(2.0)
    if abs(alpha) > 1e-14:
        K = alpha * a.conj().T - np.conj(alpha) * a
        D = _unitary_from_antihermitian(K)
        rho = D @ rho @ D.conj().T
    return 0.5 * (rho + rho.conj().T)


def _two_mode_fock(state: GaussianState, dim: int) -> np.ndarray:
    if np.max(np.abs(state.mean)) > 1e-10:
        raise ValueError("two-mode conversion supports zero-mean states only")
    cov = state.cov
    A = cov[0:2, 0:2]
    B = cov[2:4, 2:4]
    a_val = 0.5 * (A[0, 0] + A[1, 1])
    b_val = 0.5 * (B[0, 0] + B[1, 1])
    scale = max(1.0, a_val, b_val)
    c = phase_sensitive_correlation(state, 0, 1)
    C_expect = np.array([[c.real, c.imag], [c.imag, -c.real]])
    if (
        np.max(np.abs(A - a_val * np.eye(2))) > 1e-9 * scale
        or np.max(np.abs(B - b_val * np.eye(2))) > 1e-9 * scale
        or np.max(np.abs(cov[0:2, 2:4] - C_expect)) > 1e-9 * scale
    ):
        raise ValueError(
            "two-mode conversion supports phase-insensitive marginals with a "
            "single phase-sensitive cross-correlation (the channel/receiver "
            "pipeline class)"
        )
    cmag = abs(c)
    gamma = cmath.phase(c) if cmag > 0 and abs(cmath.phase(c)) > 1e-14 else 0.0

    # decompose as local phase x two-mode squeeze acting on a thermal product
    sigma = math.sqrt(max((a_val + b_val) ** 2 - 4.0 * cmag * cmag, 1e-30))
    nu1 = 0.5 * (sigma + (a_val - b_val))
    nu2 = 0.5 * (sigma - (a_val - b_val))
    r = 0.5 * math.atanh(min(2.0 * cmag / (a_val + b_val), 1.0 - 1e-16))

    d1 = _thermal_diag(max(nu1 - 0.5, 0.0), dim)
    d2 = _thermal_diag(max(nu2 - 0.5, 0.0), dim)
    n0, n1 = np.divmod(np.arange(dim * dim), dim)
    rho = np.zeros((dim * dim, dim * dim), dtype=complex)
    for k in range(1 - dim, dim):
        # sector n0 - n1 = k by ascending n1; a0^dag a1^dag steps it up by one
        idx = np.flatnonzero(n0 - n1 == k)
        thermal = d1[n0[idx]] * d2[n1[idx]]
        block = np.diag(thermal)
        if r > 1e-14:
            up = r * np.sqrt((n0[idx[:-1]] + 1.0) * (n1[idx[:-1]] + 1.0))
            U = _unitary_from_antihermitian(np.diag(up, -1) - np.diag(up, 1))
            block = (U * thermal) @ U.conj().T
        # restore the cross-correlation phase on mode 0: <a0 a1> -> e^{i gamma} |c|
        phases = np.exp(1j * gamma * n0[idx])
        block = (phases[:, None] * block) * np.conj(phases)
        # symmetrized per sector: the entries between sectors are exact zeros
        rho[np.ix_(idx, idx)] = 0.5 * (block + block.conj().T)
    return rho


def gaussian_to_fock(state: GaussianState, n_max: int) -> FockOperator:
    """Convert a Gaussian state to a truncated number-basis density matrix.

    Supports single-mode states (with displacement and squeezing) and the
    zero-mean two-mode family produced by the channel and receiver pipeline.
    Both conversions return the matrix Hermitian-symmetrized, the two-mode
    one sector by sector.  The reported trace deficit is the probability weight
    beyond the cutoff.
    """
    if state.n_modes > 2:
        raise ValueError("conversion supports at most two modes")
    if n_max < 1 or n_max > MAX_CUTOFF:
        raise ValueError(f"n_max must lie in [1, {MAX_CUTOFF}], got {n_max}")
    dim = n_max + 1
    rho = (_single_mode_fock if state.n_modes == 1 else _two_mode_fock)(state, dim)
    deficit = float(1.0 - np.trace(rho).real)
    return FockOperator(
        n_modes=state.n_modes, dimension=dim, matrix=rho, trace_deficit=deficit
    )


def helstrom_oracle(rho0: FockOperator, rho1: FockOperator) -> float:
    """One-shot optimal error probability for equal priors.

    P = (1 - D)/2 where D is the trace distance, half the sum of the absolute
    eigenvalues of the difference.
    """
    distance = 0.0
    for _, b0, b1 in _blocks(rho0, rho1):
        _require_psd(np.linalg.eigvalsh(b0))
        _require_psd(np.linalg.eigvalsh(b1))
        distance += 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(b0 - b1))))
    return max(0.0, 0.5 * (1.0 - distance))


def _overlap_curve(rho0: FockOperator, rho1: FockOperator):
    """Returns f(s) = Tr(rho0^s rho1^{1-s}) as a cheap callable."""
    n = len(rho0.matrix)
    lam0, lam1, w = np.zeros(n), np.zeros(n), np.zeros((n, n))
    for idx, b0, b1 in _blocks(rho0, rho1):
        (l0, v0), (l1, v1) = np.linalg.eigh(b0), np.linalg.eigh(b1)
        lam0[idx], lam1[idx] = _require_psd(l0), _require_psd(l1)
        w[np.ix_(idx, idx)] = np.abs(v0.conj().T @ v1) ** 2
    floor0 = 1e-14 * max(np.max(lam0), 1e-300)
    floor1 = 1e-14 * max(np.max(lam1), 1e-300)
    lam0 = np.where(lam0 > floor0, lam0, 0.0)
    lam1 = np.where(lam1 > floor1, lam1, 0.0)

    def powers(lam: np.ndarray, s: float) -> np.ndarray:
        out = np.zeros_like(lam)
        nz = lam > 0.0
        out[nz] = np.exp(s * np.log(lam[nz]))
        return out

    def f(s: float) -> float:
        return float(powers(lam0, s) @ w @ powers(lam1, 1.0 - s))

    return f


def chernoff_exponent_oracle(
    rho0: FockOperator, rho1: FockOperator, s_grid: int = 33
) -> float:
    """Chernoff exponent -log min_{0<=s<=1} Tr(rho0^s rho1^{1-s}).

    The overlap is scanned on a uniform grid and refined by golden-section
    search around the best grid point.
    """
    if s_grid < 3:
        raise ValueError("need at least a 3-point grid")
    f = _overlap_curve(rho0, rho1)
    grid = np.linspace(0.0, 1.0, s_grid)
    vals = [f(s) for s in grid]
    i = int(np.argmin(vals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, s_grid - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    best = min(min(vals), f1, f2)
    return -math.log(max(best, 1e-300))
