"""Backscatter link parameterization, modulation alphabets, and channel application.

Physical inputs (antenna gains, geometry, temperature, bandwidth) are reduced
to the effective channel parameters: round-trip transmissivity eta, channel
phase phi, thermal occupancy N_Z, and mode-pair count M.  The channel itself
is a low-reflectivity beam splitter mixing the probe with a thermal mode.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

from .gaussian import GaussianState

C_LIGHT = 299_792_458.0  # m/s
HBAR = 1.054_571_817e-34  # J s
K_BOLTZMANN = 1.380_649e-23  # J/K

TWO_PI = 2.0 * math.pi


class UnsupportedAlphabetError(ValueError):
    """Raised when a receiver, bound or sweep cannot use the requested alphabet."""


class AlphabetKind(enum.Enum):
    PAM = "pam"
    BPSK = "bpsk"
    QPSK = "qpsk"


class Symbol(NamedTuple("Symbol", [("amplitude", float), ("phase", float)])):
    """One modulation symbol: field amplitude sqrt(eta) and phase in [0, 2pi)."""

    __slots__ = ()

    def __new__(cls, amplitude: float, phase: float):
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"symbol amplitude must lie in [0, 1], got {amplitude}")
        if not math.isfinite(phase):
            raise ValueError(f"symbol phase must be finite, got {phase}")
        phase = float(phase) % TWO_PI  # a tiny negative phase rounds up to TWO_PI
        return super().__new__(cls, amplitude, phase if phase < TWO_PI else 0.0)

    @property
    def eta(self) -> float:
        return self.amplitude * self.amplitude

    def complex_point(self) -> complex:
        """Constellation point sqrt(eta) e^{-i phase}."""
        return self.amplitude * complex(math.cos(self.phase), -math.sin(self.phase))


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set with uniform priors; symbols may coincide, as at eta = 0."""

    symbols: tuple[Symbol, ...]
    kind: AlphabetKind

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")

    def __len__(self) -> int:
        return len(self.symbols)


def nominal_alphabet(kind: AlphabetKind, eta: float) -> Alphabet:
    """Constellation of a kind at transmissivity eta; every symbol sits at 0 when eta == 0."""
    amp = math.sqrt(eta)
    if kind is AlphabetKind.PAM:
        return Alphabet((Symbol(0.0, 0.0), Symbol(amp, 0.0)), kind)
    if kind is AlphabetKind.BPSK:
        return Alphabet((Symbol(amp, 0.0), Symbol(amp, math.pi)), kind)
    return Alphabet(tuple(Symbol(amp, k * math.pi / 2.0) for k in range(4)), kind)  # QPSK


def make_alphabet_pam(eta1: float, eta2: float) -> Alphabet:
    """Two-level amplitude modulation {(sqrt(eta1), 0), (sqrt(eta2), 0)}.

    eta1 = 0 gives on-off keying.
    """
    if not 0.0 <= eta1 < eta2 <= 1.0:
        raise ValueError(f"need 0 <= eta1 < eta2 <= 1, got ({eta1}, {eta2})")
    return Alphabet(
        (Symbol(math.sqrt(eta1), 0.0), Symbol(math.sqrt(eta2), 0.0)),
        AlphabetKind.PAM,
    )


def make_alphabet_bpsk(eta: float) -> Alphabet:
    """Binary phase modulation {(sqrt(eta), 0), (sqrt(eta), pi)}."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"need 0 < eta <= 1, got {eta}")
    return nominal_alphabet(AlphabetKind.BPSK, eta)


def make_alphabet_qpsk(eta: float) -> Alphabet:
    """Quadrature phase modulation with phases {0, pi/2, pi, 3pi/2}."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"need 0 < eta <= 1, got {eta}")
    return nominal_alphabet(AlphabetKind.QPSK, eta)


def min_squared_distance(a: Alphabet) -> float:
    """Minimum squared constellation distance over symbol pairs; 0 when two coincide."""
    if len(a) < 2:
        raise ValueError("need at least two symbols")
    points = [s.complex_point() for s in a.symbols]
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, abs(points[i] - points[j]) ** 2)
    return best


class ChannelParams(NamedTuple("ChannelParams", [("eta", float), ("phi", float), ("N_Z", float),
                                                  ("M", int), ("N_S", float)])):
    """Effective channel parameters (eta, phi, N_Z, M) plus source brightness N_S."""

    __slots__ = ()

    def __new__(cls, eta: float, phi: float, N_Z: float, M: int, N_S: float):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"round-trip transmissivity must lie in [0, 1], got {eta}")
        if not math.isfinite(phi):
            raise ValueError(f"channel phase must be finite, got {phi}")
        for name, value in (("thermal occupancy", N_Z), ("source brightness", N_S)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if M < 1:
            raise ValueError(f"mode-pair count must be >= 1, got {M}")
        return super().__new__(cls, eta, phi, N_Z, M, N_S)


class _LinkBudgetFields(NamedTuple):
    G_t: float
    G_r: float
    omega: float  # rad/s
    R_t: float  # m
    R_r: float  # m
    sigma_Q: float  # m^2
    T: float  # K
    W: float  # Hz
    T_s: float  # s
    varphi_tag: float = 0.0  # rad


class LinkBudget(_LinkBudgetFields):
    """Physical link-budget quantities feeding the effective channel parameters."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("G_t", "G_r", "omega", "R_t", "R_r", "sigma_Q", "T", "W", "T_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.varphi_tag):
            raise ValueError(f"varphi_tag must be finite, got {self.varphi_tag}")
        return self


def _finite(value: float, what: str) -> float:
    """value, or ValueError when finite inputs gave a result outside the float range."""
    if not math.isfinite(value):
        raise ValueError(f"{what} leaves the float range ({value!r})")
    return value


def rtt_from_link_budget(lb: LinkBudget) -> float:
    """Round-trip transmissivity G_r G_t c^2 sigma_Q / (16 pi omega^2 R_t^2 R_r^2).

    Since c / omega = lambda / (2 pi), this is the radar equation
    G_t G_r lambda^2 sigma_Q / ((4 pi)^3 R_t^2 R_r^2).  The value is returned
    as computed even when it exceeds 1; callers decide how to report that.
    It is the correctly rounded value of the formula on the double inputs:
    the factors are exact integer ratios, and one int true division rounds
    the quotient, subnormals included.  Raises ValueError when eta is above
    the float range.
    """
    num = den = 1
    for x in (lb.G_r, lb.G_t, C_LIGHT, C_LIGHT, lb.sigma_Q):
        p, q = x.as_integer_ratio()
        num, den = num * p, den * q
    for x in (16.0, math.pi, lb.omega, lb.omega, lb.R_t, lb.R_t, lb.R_r, lb.R_r):
        q, p = x.as_integer_ratio()  # a denominator factor enters inverted
        num, den = num * p, den * q
    try:
        eta = num / den
    except OverflowError:
        eta = math.inf
    return _finite(eta, "round-trip transmissivity")


def thermal_occupancy(omega: float, T: float) -> float:
    """Planck occupancy 1/(e^{hbar omega / k_B T} - 1).

    For hbar*omega/(k_B*T) < 1e-6 the series 1/x - 1/2 + x/12 is used to avoid
    catastrophic cancellation in expm1.  Raises ValueError when the result is
    not finite.
    """
    if not (0 < omega < math.inf and 0 < T < math.inf):
        raise ValueError(f"omega and T must be finite and positive, got {omega!r} and {T!r}")
    x = HBAR * omega / (K_BOLTZMANN * T)
    if x < 1e-6:
        return _finite(1.0 / x - 0.5 + x / 12.0 if x else math.inf, "thermal occupancy")
    if x > 700.0:  # expm1 would overflow; occupancy is e^{-x} to this precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def mode_pairs(W: float, T_s: float) -> int:
    """Number of signal-idler mode pairs per symbol, floor(W * T_s)."""
    if W <= 0 or T_s <= 0:
        raise ValueError("W and T_s must be positive")
    m = math.floor(_finite(W * T_s, "W * T_s"))
    if m < 1:
        raise ValueError(f"W * T_s = {W * T_s:g} gives no usable mode pair")
    return m


def channel_phase(R: float, varphi_tag: float, omega: float, strict: bool = False) -> float:
    """Total channel phase for one-way-summed distance R plus the tag phase.

    The default uses omega * R / c (radians).  Strict mode evaluates the
    dimensionally odd 2 pi R / c form verbatim for comparison; both values are
    reduced modulo 2 pi.  Raises ValueError when the unreduced phase is not
    finite.
    """
    if not all(map(math.isfinite, (R, varphi_tag, omega))):
        raise ValueError(f"R, varphi_tag and omega must be finite, got {R!r}, {varphi_tag!r}, {omega!r}")
    if R < 0:
        raise ValueError(f"distance must be >= 0, got {R}")
    phase = (TWO_PI if strict else omega) * R / C_LIGHT + varphi_tag
    return _finite(phase, "channel phase") % TWO_PI


def return_idler_moments(cp: ChannelParams, symbol: Symbol) -> tuple[float, float, complex]:
    """The channel: (n_R, n_I, c) of the joint return-idler state of a symbol.

    The tag mixes the signal half of tmss(N_S) with thermal(N_Z) on a beam
    splitter of transmissivity eta = amplitude^2 and phase p = symbol.phase +
    cp.phi, and the lost port is discarded.  The zero-mean result is fixed by
    the return occupancy n_R = eta N_S + (1 - eta) N_Z, the idler occupancy
    n_I = N_S and the correlation c = <a_R a_I> = sqrt(eta N_S (N_S + 1))
    e^{-i p}.  Raises ValueError when a moment leaves the float range.
    """
    eta = symbol.eta
    p = symbol.phase + cp.phi
    n_r = _finite(eta * cp.N_S + (1.0 - eta) * cp.N_Z, "return occupancy")
    r = _finite(math.sqrt(eta * cp.N_S * (cp.N_S + 1.0)), "return-idler correlation")
    return n_r, cp.N_S, r * complex(math.cos(p), -math.sin(p))


def apply_channel(cp: ChannelParams, symbol: Symbol) -> GaussianState:
    """The joint (return, idler) state of `return_idler_moments`, return mode first.

    Zero mean, diagonal blocks (n + 1/2) I and cross block
    [[Re c, Im c], [Im c, -Re c]].
    """
    n_r, n_i, c = return_idler_moments(cp, symbol)
    a, b, x, y = n_r + 0.5, n_i + 0.5, c.real, c.imag
    cov = [[a, 0.0, x, y], [0.0, a, y, -x], [x, y, b, 0.0], [y, -x, 0.0, b]]
    return GaussianState(2, [0.0] * 4, cov)


def apply_channel_classical(cp: ChannelParams, symbol: Symbol) -> GaussianState:
    """Coherent-probe counterpart of apply_channel: the return mode of
    coherent(sqrt(N_S)) through the same beam splitter, with mean
    sqrt(2 eta N_S) (cos p, -sin p) and covariance ((1 - eta) N_Z + 1/2) I."""
    eta = symbol.eta
    p = symbol.phase + cp.phi
    m = math.sqrt(2.0) * math.sqrt(eta * cp.N_S)
    v = (1.0 - eta) * cp.N_Z + 0.5
    return GaussianState(1, [m * math.cos(p), -m * math.sin(p)], [[v, 0.0], [0.0, v]])
