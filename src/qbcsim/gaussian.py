"""Exact first/second-moment simulation of multimode Gaussian bosonic states.

A state over n modes is carried by its mean vector (length 2n) and covariance
matrix (2n x 2n) of the quadratures, ordered (x1, p1, x2, p2, ...).  Units are
fixed by the convention x = (a + a^dag)/sqrt(2), so the single-mode vacuum has
zero mean and covariance diag(1/2, 1/2).

All operations are pure: they return new states and never mutate their inputs.
Sampling takes an explicit numpy Generator; there is no hidden global RNG.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: Relative tolerance for the covariance symmetry check.
SYMMETRY_RTOL = 1e-12


def symplectic_form(n_modes: int) -> np.ndarray:
    """Standard symplectic form Omega for n modes in (x1,p1,...) ordering."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for j in range(n_modes):
        omega[2 * j, 2 * j + 1] = 1.0
        omega[2 * j + 1, 2 * j] = -1.0
    return omega


class GaussianState(NamedTuple("GaussianState", [("n_modes", int), ("mean", np.ndarray),
                                                  ("cov", np.ndarray)])):
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    Attributes:
        n_modes: number of bosonic modes (>= 1).
        mean: real vector of length 2*n_modes, ordered (x1, p1, x2, p2, ...).
        cov: real symmetric 2n x 2n quadrature covariance matrix.
    """

    __slots__ = ()

    def __new__(cls, n_modes: int, mean, cov):
        if n_modes < 1:
            raise ValueError(f"need at least one mode, got {n_modes}")
        mean = np.asarray(mean, dtype=float).reshape(-1)
        cov = np.asarray(cov, dtype=float)
        d = 2 * n_modes
        if mean.shape != (d,):
            raise ValueError(f"mean must have length {d}, got {mean.shape}")
        if cov.shape != (d, d):
            raise ValueError(f"cov must be {d}x{d}, got {cov.shape}")
        peak = float(np.max(np.abs(cov)))  # NaN or inf if any entry is
        if not (peak < np.inf and np.isfinite(mean).all()):
            raise ValueError("mean and covariance must be finite")
        if np.max(np.abs(cov - cov.T)) > SYMMETRY_RTOL * max(1.0, peak):
            raise ValueError("covariance matrix is not symmetric")
        cov = 0.5 * cov + 0.5 * cov.T  # no overflow near the float max
        return super().__new__(cls, n_modes, mean, cov)

    def check_mode(self, mode: int) -> None:
        if not 0 <= mode < self.n_modes:
            raise ValueError(f"mode {mode} out of range for {self.n_modes} modes")


def vacuum(n: int) -> GaussianState:
    """n-mode vacuum: zero mean, covariance (1/2) * identity."""
    if n < 1:
        raise ValueError(f"need at least one mode, got {n}")
    return GaussianState(n, np.zeros(2 * n), 0.5 * np.eye(2 * n))


def coherent(alpha: complex) -> GaussianState:
    """Single-mode coherent state with amplitude alpha.

    Mean photon number is |alpha|^2; covariance equals the vacuum covariance.
    """
    alpha = complex(alpha)
    mean = np.array([np.sqrt(2.0) * alpha.real, np.sqrt(2.0) * alpha.imag])
    return GaussianState(1, mean, 0.5 * np.eye(2))


def thermal(N: float) -> GaussianState:
    """Single-mode thermal state with mean occupancy N >= 0."""
    if N < 0:
        raise ValueError(f"thermal occupancy must be >= 0, got {N}")
    return GaussianState(1, np.zeros(2), (N + 0.5) * np.eye(2))


def tmss(N_S: float) -> GaussianState:
    """Two-mode squeezed state with per-mode brightness N_S.

    Mode 0 is the signal, mode 1 the idler.  Both marginals are thermal with
    occupancy N_S and the phase-sensitive cross-correlation <a_S a_I> equals
    sqrt(N_S (N_S + 1)); the joint state is pure.
    """
    if N_S < 0:
        raise ValueError(f"source brightness must be >= 0, got {N_S}")
    c = np.sqrt(N_S * (N_S + 1.0))
    d = N_S + 0.5
    cov = np.array(
        [
            [d, 0.0, c, 0.0],
            [0.0, d, 0.0, -c],
            [c, 0.0, d, 0.0],
            [0.0, -c, 0.0, d],
        ]
    )
    return GaussianState(2, np.zeros(4), cov)


def tensor(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product: modes of `a` first, then modes of `b`."""
    n = a.n_modes + b.n_modes
    mean = np.concatenate([a.mean, b.mean])
    cov = np.zeros((2 * n, 2 * n))
    da = 2 * a.n_modes
    cov[:da, :da] = a.cov
    cov[da:, da:] = b.cov
    return GaussianState(n, mean, cov)


def _apply_two_mode(
    state: GaussianState, mode_a: int, mode_b: int, block: np.ndarray, what: str
) -> GaussianState:
    """Apply the 4x4 symplectic `block` of a `what` acting on (mode_a, mode_b)."""
    state.check_mode(mode_a)
    state.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError(f"{what} needs two distinct modes")
    s = np.eye(2 * state.n_modes)
    idx = [2 * mode_a, 2 * mode_a + 1, 2 * mode_b, 2 * mode_b + 1]
    s[np.ix_(idx, idx)] = block
    cov = s @ state.cov @ s.T  # GaussianState symmetrizes the rounding drift
    return GaussianState(state.n_modes, s @ state.mean, cov)


def apply_beam_splitter(
    state: GaussianState, mode_a: int, mode_b: int, eta: float, phi: float
) -> GaussianState:
    """Mix two modes on a beam splitter of transmissivity eta and phase phi.

    Implements a_a <- sqrt(eta) e^{-i phi} a_a + sqrt(1-eta) a_b and
    a_b <- -sqrt(eta) e^{i phi} a_b + sqrt(1-eta) a_a.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {eta}")
    t = np.sqrt(eta)
    r = np.sqrt(1.0 - eta)
    cp, sp = np.cos(phi), np.sin(phi)
    # passive map: coefficient u = alpha + i beta acts as [[alpha, -beta], [beta, alpha]]
    block = np.array(
        [
            [t * cp, t * sp, r, 0.0],
            [-t * sp, t * cp, 0.0, r],
            [r, 0.0, -t * cp, t * sp],
            [0.0, r, -t * sp, -t * cp],
        ]
    )
    return _apply_two_mode(state, mode_a, mode_b, block, "beam splitter")


def apply_two_mode_squeeze(
    state: GaussianState, mode_a: int, mode_b: int, G: float, theta: float = 0.0
) -> GaussianState:
    """Two-mode squeezing with gain G >= 1 and phase theta on the conjugate term.

    Implements a_a <- sqrt(G) a_a + sqrt(G-1) e^{i theta} a_b^dag and the
    symmetric map on mode_b.
    """
    if not 1.0 <= G < np.inf:
        raise ValueError(f"gain must be finite and >= 1, got {G}")
    g = np.sqrt(G)
    h = np.sqrt(G - 1.0)
    ct, st = np.cos(theta), np.sin(theta)
    # conjugate map: coefficient v = alpha + i beta acts as [[alpha, beta], [beta, -alpha]]
    block = np.array(
        [
            [g, 0.0, h * ct, h * st],
            [0.0, g, h * st, -h * ct],
            [h * ct, h * st, g, 0.0],
            [h * st, -h * ct, 0.0, g],
        ]
    )
    return _apply_two_mode(state, mode_a, mode_b, block, "two-mode squeezer")


def partial_trace(state: GaussianState, keep: list[int]) -> GaussianState:
    """Restrict the state to the listed modes, discarding the rest."""
    if len(keep) == 0:
        raise ValueError("must keep at least one mode")
    for m in keep:
        state.check_mode(m)
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate mode indices in keep list")
    idx = []
    for m in keep:
        idx.extend([2 * m, 2 * m + 1])
    idx = np.array(idx)
    return GaussianState(len(keep), state.mean[idx], state.cov[np.ix_(idx, idx)])


def mean_photon_number(state: GaussianState, mode: int) -> float:
    """Occupancy <a^dag a> of one mode: (var_x + var_p + <x>^2 + <p>^2 - 1)/2."""
    state.check_mode(mode)
    i = 2 * mode
    mx, mp = state.mean[i], state.mean[i + 1]
    return 0.5 * (state.cov[i, i] + state.cov[i + 1, i + 1] + mx * mx + mp * mp - 1.0)


def phase_sensitive_correlation(state: GaussianState, mode_a: int, mode_b: int) -> complex:
    """Phase-sensitive cross-correlation <a_a a_b> between two distinct modes."""
    state.check_mode(mode_a)
    state.check_mode(mode_b)
    if mode_a == mode_b:
        raise ValueError("correlation is defined between distinct modes")
    ia, ib = 2 * mode_a, 2 * mode_b
    m = state.mean
    c = state.cov

    def moment(i: int, j: int) -> float:
        return c[i, j] + m[i] * m[j]

    xx = moment(ia, ib)
    pp = moment(ia + 1, ib + 1)
    xp = moment(ia, ib + 1)
    px = moment(ia + 1, ib)
    return 0.5 * ((xx - pp) + 1j * (xp + px))


def symplectic_eigenvalues(state: GaussianState) -> np.ndarray:
    """Symplectic spectrum of the covariance matrix (>= 1/2 for physical states)."""
    omega = symplectic_form(state.n_modes)
    ev = np.linalg.eigvals(omega @ state.cov)
    nu = np.sort(np.abs(ev))
    # eigenvalues come in +-i nu pairs; keep one of each
    return nu[::2].copy()


def _heterodyne_moments(state: GaussianState, mode: int):
    """Mean and covariance of the (x1, p2) outcome pair for one mode."""
    i = 2 * mode
    mx, mp = state.mean[i], state.mean[i + 1]
    vx, vp = state.cov[i, i], state.cov[i + 1, i + 1]
    cxp = state.cov[i, i + 1]
    mean = np.array([mx, mp]) / np.sqrt(2.0)
    cov = np.array([[(vx + 0.5) / 2.0, cxp / 2.0], [cxp / 2.0, (vp + 0.5) / 2.0]])
    return mean, cov


def heterodyne_samples(
    state: GaussianState, mode: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `n` heterodyne outcomes from one mode as a complex array.

    Models a 50:50 split against vacuum: the real part is distributed as x of
    the first output port, the imaginary part as p of the second port.
    """
    state.check_mode(mode)
    mean, cov = _heterodyne_moments(state, mode)
    chol = np.linalg.cholesky(cov)
    z = rng.standard_normal((n, 2)) @ chol.T + mean
    return z[:, 0] + 1j * z[:, 1]
