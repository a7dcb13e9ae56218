"""Truncated number-basis bridge and optimal-discrimination oracles.

This is a desk-scale validation tool: Gaussian states produced by the engine
are converted to density matrices in a truncated Fock basis, on which the
one-shot Helstrom error probability and the Chernoff exponent are evaluated by
direct eigendecomposition.  It is intentionally limited to at most two modes
and modest cutoffs; the asymptotic claims of the analytic bounds are checked
elsewhere.

A `FockOperator` is a spectrum (lam, V), V unitary per block, and the stack
of blocks V diag(lam) V^dag derived from it.  A conversion produces the
spectrum: a Gaussian state is a unitary V acting on a thermal diagonal lam,
and `gaussian_to_fock` forms every stack from (lam, V) in one expression.  An
operator given as a matrix is one whole block, solved once, when it is
built.  Both oracles read the kept spectrum, so a converted pair costs one
`eigvalsh`, of Helstrom's difference.

A two-mode state accepted here has phase-insensitive marginals and one
cross-correlation <a0 a1>, so it commutes with n0 - n1, and so does a per-mode
cutoff: its matrix is exactly block-diagonal over the 2 dim - 1 sectors of
fixed n0 - n1.  Each sector is padded with zeros to dim slots, so the sectors
form one (2 dim - 1, dim, dim) stack, and only `gaussian_to_fock` makes
such a stack: its spectrum comes from one squeeze spectrum per cutoff, its
stack from batched matrix products, and the dim**2 x dim**2 matrix is built
only when `.matrix` is read.  A one-mode operator, or one built from a
matrix, is one whole block; a pair with such an operator is solved as one
whole block.  Padded slots have eigenvalue 0, so the spectra are unchanged.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .gaussian import GaussianState, phase_sensitive_correlation

HERMITICITY_ATOL = 1e-10
EIGENVALUE_FLOOR = -1e-10
MAX_CUTOFF = 40


class _Sectors(NamedTuple):
    """Sector stack of a two-mode cutoff, shared by every operator at it.

    Sector k = n0 - n1 runs over 1 - dim .. dim - 1 and lists its basis states
    by ascending n1 in its first dim - |k| of dim slots.  n0 and n1 are each
    (2 dim - 1, dim) and 0 in padded slots; `dense` holds the flat indices
    into the dim**2 x dim**2 matrix of every in-sector entry and `stacked` the
    matching flat indices into the stack; `padded` marks the stack's padded
    entries; `diagonal` is the (sector, slot) of each basis state n0 dim + n1
    in dense order; `valid` marks the slots that hold a basis state; (lam, V)
    = eigh of i G per sector, G = a0^dag a1^dag - a0 a1, so exp(r G) =
    V e^{-i r lam} V^dag.
    """

    n0: np.ndarray
    n1: np.ndarray
    valid: np.ndarray
    dense: np.ndarray
    stacked: np.ndarray
    padded: np.ndarray
    diagonal: tuple[np.ndarray, np.ndarray]
    lam: np.ndarray
    V: np.ndarray


@lru_cache(maxsize=MAX_CUTOFF)
def _sectors(dim: int) -> _Sectors:
    k = np.arange(1 - dim, dim)[:, None]
    n1 = np.maximum(-k, 0) + np.arange(dim)
    n0 = n1 + k
    valid = (n0 < dim) & (n1 < dim)
    n0, n1 = np.where(valid, n0, 0), np.where(valid, n1, 0)
    # a0^dag a1^dag steps a sector's slot j to j + 1
    up = np.sqrt((n0[:, :-1] + 1.0) * (n1[:, :-1] + 1.0)) * valid[:, 1:]
    j = np.arange(dim - 1)
    iG = np.zeros((len(k), dim, dim), dtype=complex)
    iG[:, j + 1, j], iG[:, j, j + 1] = 1j * up, -1j * up
    lam, V = np.linalg.eigh(iG)
    pair = valid[:, :, None] & valid[:, None, :]
    flat = n0 * dim + n1
    dense = (flat[:, :, None] * dim * dim + flat[:, None, :])[pair]
    d0, d1 = np.divmod(np.arange(dim * dim), dim)
    diagonal = (d0 - d1 + dim - 1, np.minimum(d0, d1))
    sectors = _Sectors(n0, n1, valid, dense, np.flatnonzero(pair), ~pair, diagonal, lam, V)
    for a in (*sectors[:6], *diagonal, lam, V):
        a.setflags(write=False)
    return sectors


def _require_psd(lam: np.ndarray) -> None:
    if np.min(lam) < EIGENVALUE_FLOOR:
        raise ValueError(f"operator is not positive semidefinite: min eig {np.min(lam)}")


def _checked_eigh(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh of a stack of blocks, refusing a spectrum below EIGENVALUE_FLOOR."""
    lam, v = np.linalg.eigh(blocks)
    _require_psd(lam)
    return lam, v


def _require_finite(stack: np.ndarray, trace_deficit: float) -> None:
    if not math.isfinite(trace_deficit):
        raise ValueError(f"trace_deficit must be finite, got {trace_deficit}")
    if not np.isfinite(stack).all():
        raise ValueError("density matrix must be finite")


class FockOperator:
    """Density operator in a truncated number basis.

    dimension is the per-mode cutoff plus one; matrix has shape
    dimension**n_modes square; trace_deficit reports 1 - trace lost to the
    truncation.  The operator owns its data: the constructor copies `matrix`,
    and every array it keeps or hands out is read-only.

    It keeps a stack of blocks and the PSD-checked spectrum of that stack.  A
    given matrix is one whole block, checked to be Hermitian and solved here,
    once.  Only `gaussian_to_fock` makes the (2 dim - 1, dim, dim) sector
    stack of the module docstring, for a two-mode state, and it hands over
    the spectrum it converts and the stack formed from it.  `.matrix` is
    built from a sector stack on first read and kept.
    """

    __slots__ = ("n_modes", "dimension", "trace_deficit", "_stack", "_matrix", "_eigh")

    def __init__(self, n_modes: int, dimension: int, matrix, trace_deficit: float):
        if n_modes not in (1, 2):
            raise ValueError(f"n_modes must be 1 or 2, got {n_modes}")
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        d = dimension**n_modes
        m = np.array(matrix, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"matrix must be {d}x{d}, got {m.shape}")
        stack = m[None]
        _require_finite(stack, trace_deficit)
        asym = stack.conj()
        asym -= stack.transpose(0, 2, 1)
        if np.max(np.abs(asym)) > HERMITICITY_ATOL:
            raise ValueError("density matrix must be Hermitian")
        self._fill(n_modes, dimension, stack, m, trace_deficit, *np.linalg.eigh(stack))

    def _fill(self, n_modes, dimension, stack, matrix, trace_deficit, lam, vecs) -> None:
        """Keeps the stack, its matrix (None to build it on first read) and
        the PSD-checked spectrum stack = vecs diag(lam) vecs^dag, read-only."""
        _require_psd(lam)
        for a in (stack, matrix, lam, vecs):
            if a is not None:
                a.setflags(write=False)
        fields = dict(n_modes=n_modes, dimension=dimension, trace_deficit=float(trace_deficit),
                      _stack=stack, _matrix=matrix, _eigh=(lam, vecs))
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"FockOperator is immutable: cannot set {name}")

    @property
    def matrix(self) -> np.ndarray:
        """The dense dimension**n_modes square matrix, read-only."""
        if self._matrix is None:
            sec = _sectors(self.dimension)
            d = self.dimension**2
            m = np.zeros((d, d), dtype=complex)
            m.ravel()[sec.dense] = self._stack.ravel()[sec.stacked]
            m.setflags(write=False)
            object.__setattr__(self, "_matrix", m)
        return self._matrix


def _blocks(rho0: FockOperator, rho1: FockOperator):
    """Padded (blocks, n, n) stacks of rho0 and rho1, block-diagonal alike.

    Two operators whose stored stacks have as many blocks (two sector stacks,
    or two whole matrices) give those stacks; a sector stack against a whole
    matrix gives one block, both whole matrices.
    """
    if (rho0.n_modes, rho0.dimension) != (rho1.n_modes, rho1.dimension):
        raise ValueError(
            "operators must share a number of modes and a truncation dimension, got "
            f"{rho0.n_modes} x {rho0.dimension} and {rho1.n_modes} x {rho1.dimension}"
        )
    if len(rho0._stack) == len(rho1._stack):
        return rho0._stack, rho1._stack
    return rho0.matrix[None], rho1.matrix[None]


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


def _single_mode_fock(state: GaussianState, dim: int):
    """The spectrum of a one-mode state: the thermal diagonal and the unitary
    D Ph S (displacement, phase rotation, squeeze) that carries it."""
    cov = state.cov
    nu = math.sqrt(max(np.linalg.det(cov), 0.25))
    evals, evecs = np.linalg.eigh(cov)
    # squeeze magnitude from the ratio of principal variances
    r = 0.25 * math.log(evals[1] / evals[0]) if evals[0] > 0 else 0.0
    psi = math.atan2(evecs[1, 1], evecs[0, 1])  # orientation of the major axis

    vecs = np.eye(dim, dtype=complex)
    a = _ladder(dim)
    if abs(r) > 1e-14:
        # anti-squeeze x by r, then rotate the major axis up to angle psi
        S = _unitary_from_antihermitian(0.5 * r * (a.conj().T @ a.conj().T - a @ a))
        vecs = np.exp(1j * psi * np.arange(dim))[:, None] * S
    alpha = (state.mean[0] + 1j * state.mean[1]) / math.sqrt(2.0)
    if abs(alpha) > 1e-14:
        vecs = _unitary_from_antihermitian(alpha * a.conj().T - np.conj(alpha) * a) @ vecs
    return _thermal_diag(nu - 0.5, dim), vecs


def _two_mode_fock(state: GaussianState, dim: int):
    """The sector-stack spectrum of a two-mode pipeline state: the thermal
    product, 0 in padded slots, and per sector the mode-0 phase times the
    squeeze unitary."""
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
    sec = _sectors(dim)
    U = np.eye(dim)  # unsqueezed: each block stays exactly diagonal
    if r > 1e-14:
        U = (sec.V * np.exp(-1j * r * sec.lam)[:, None, :]) @ sec.V.conj().transpose(0, 2, 1)
    # the mode-0 phase restores the cross-correlation: <a0 a1> -> e^{i gamma} |c|
    vecs = np.exp(1j * gamma * sec.n0)[:, :, None] * U
    return np.where(sec.valid, d1[sec.n0] * d2[sec.n1], 0.0), vecs


def gaussian_to_fock(state: GaussianState, n_max: int) -> FockOperator:
    """Convert a Gaussian state to a truncated number-basis density matrix.

    Supports single-mode states (with displacement and squeezing) and the
    zero-mean two-mode family produced by the channel and receiver pipeline.
    Each state is a unitary acting on a thermal diagonal: its conversion gives
    that spectrum (lam, V), the two-mode one per sector of the sector stack,
    and the stack is formed here from it as V diag(lam) V^dag,
    Hermitian-symmetrized, with padded slots zeroed, with no dense matrix.
    The operator keeps the spectrum, so no oracle solves it again.  A
    single-mode state solves its squeeze and displacement generators each
    time; a two-mode state solves nothing, as every sector's squeeze spectrum
    is solved once per cutoff.  The reported trace deficit is the probability
    weight beyond the cutoff; the two-mode one sums the stack's diagonal in
    the dense matrix's order, so it equals 1 - trace(.matrix) exactly.
    """
    if state.n_modes > 2:
        raise ValueError("conversion supports at most two modes")
    if n_max < 1 or n_max > MAX_CUTOFF:
        raise ValueError(f"n_max must lie in [1, {MAX_CUTOFF}], got {n_max}")
    dim = n_max + 1
    if state.n_modes == 1:
        lam, vecs = (a[None] for a in _single_mode_fock(state, dim))
        sector, slot = 0, np.arange(dim)
    else:
        lam, vecs = _two_mode_fock(state, dim)
        sector, slot = _sectors(dim).diagonal
    stack = (vecs * lam[:, None, :]) @ vecs.conj().transpose(0, 2, 1)
    stack += stack.conj().transpose(0, 2, 1)
    stack *= 0.5
    if state.n_modes == 2:
        stack[_sectors(dim).padded] = 0.0
    deficit = float(1.0 - stack[sector, slot, slot].sum().real)
    _require_finite(stack, deficit)
    rho = FockOperator.__new__(FockOperator)
    rho._fill(state.n_modes, dim, stack, stack[0] if state.n_modes == 1 else None, deficit, lam, vecs)
    return rho


def helstrom_oracle(rho0: FockOperator, rho1: FockOperator) -> float:
    """One-shot optimal error probability for equal priors.

    P = (1 - D)/2 where D is the trace distance, half the sum of the absolute
    eigenvalues of the difference.  Each operator's PSD check was made when
    it was built.
    """
    b0, b1 = _blocks(rho0, rho1)
    distance = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(b0 - b1))))
    return max(0.0, 0.5 * (1.0 - distance))


def _overlap_curve(rho0: FockOperator, rho1: FockOperator):
    """Returns s -> (f, f', f'') for f(s) = Tr(rho0^s rho1^{1-s}) as a cheap
    callable.  f is a sum of terms w lam0^s lam1^(1-s), and each derivative
    multiplies a term by ln lam0 - ln lam1.  Eigenvalues at or below 1e-14 of
    their operator's largest are dropped, and so are terms of weight 0: 0^s =
    0 for every s, s = 0 included."""
    b0, b1 = _blocks(rho0, rho1)
    (lam0, v0), (lam1, v1) = (
        rho._eigh if b is rho._stack else _checked_eigh(b) for rho, b in ((rho0, b0), (rho1, b1))
    )
    keep0, keep1 = (lam > 1e-14 * max(np.max(lam), 1e-300) for lam in (lam0, lam1))
    w = np.abs(v0.conj().transpose(0, 2, 1) @ v1) ** 2
    terms = keep0[:, :, None] & keep1[:, None, :] & (w > 0.0)
    block, i, j = np.nonzero(terms)
    w = w[terms]
    log1 = np.log(lam1[block, j])
    gap = np.log(lam0[block, i]) - log1
    gap2 = gap * gap

    def f(s: float) -> tuple[float, float, float]:
        x = np.exp(s * gap + log1)
        x *= w
        return float(np.sum(x)), float(x @ gap), float(x @ gap2)

    return f


def chernoff_exponent_oracle(rho0: FockOperator, rho1: FockOperator) -> float:
    """Chernoff exponent -log min_{0<=s<=1} Tr(rho0^s rho1^{1-s}).

    The overlap f(s) = sum_ij w_ij lam0_i^s lam1_j^(1-s), w_ij >= 0, is a
    positive sum of log-linear terms, hence log-convex, so g = ln f has an
    increasing slope g' = f'/f.  If g'(0) >= 0 the minimum is at s = 0, and if
    g'(1) <= 0 at s = 1.  Otherwise a Newton search on g' (steps -g'/g'',
    g'' = f''/f - g'^2) starts where the chord of g' between the ends crosses
    zero and keeps [lo, hi] around the root by the sign of g' at each point; a
    step that would leave the bracket is replaced by bisecting it.  It stops
    at a step below 1e-12 or a bracket below 1e-10, in about six evaluations
    of f on pipeline pairs.  f(0) and f(1) stay in the minimum taken.
    """
    f = _overlap_curve(rho0, rho1)
    (f_lo, df_lo, _), (f_hi, df_hi, _) = f(0.0), f(1.0)
    best = min(f_lo, f_hi)
    if df_lo < 0.0 < df_hi:
        lo, hi = 0.0, 1.0
        slope_lo, slope_hi = df_lo / f_lo, df_hi / f_hi
        s = slope_lo / (slope_lo - slope_hi)
        while True:
            fs, df, ddf = f(s)
            best = min(best, fs)
            slope = df / fs
            if slope < 0.0:
                lo = s
            elif slope > 0.0:
                hi = s
            else:
                break
            curvature = ddf / fs - slope * slope
            step = -slope / curvature if curvature > 0.0 else math.inf
            if abs(step) < 1e-12 or hi - lo < 1e-10:
                break
            s = s + step if lo < s + step < hi else 0.5 * (lo + hi)
    return -math.log(max(best, 1e-300))
