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

from .gaussian import (
    GaussianState,
    apply_beam_splitter,
    coherent,
    partial_trace,
    tensor,
    thermal,
    tmss,
)

C_LIGHT = 299_792_458.0  # m/s
HBAR = 1.054_571_817e-34  # J s
K_BOLTZMANN = 1.380_649e-23  # J/K

TWO_PI = 2.0 * math.pi


class AlphabetKind(enum.Enum):
    PAM = "pam"
    BPSK = "bpsk"
    QPSK = "qpsk"
    CUSTOM = "custom"


@dataclass(frozen=True)
class Symbol:
    """One modulation symbol: field amplitude sqrt(eta) and phase in [0, 2pi)."""

    amplitude: float
    phase: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"symbol amplitude must lie in [0, 1], got {self.amplitude}")
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)

    @property
    def eta(self) -> float:
        return self.amplitude * self.amplitude

    def complex_point(self) -> complex:
        """Constellation point sqrt(eta) e^{-i phase}."""
        return self.amplitude * complex(math.cos(self.phase), -math.sin(self.phase))


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set with uniform priors."""

    symbols: tuple[Symbol, ...]
    kind: AlphabetKind = AlphabetKind.CUSTOM

    def __post_init__(self):
        if len(self.symbols) == 0:
            raise ValueError("alphabet must contain at least one symbol")
        points = [s.complex_point() for s in self.symbols]
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                if abs(points[i] - points[j]) == 0.0:
                    raise ValueError("alphabet symbols must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.symbols)


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
    a = math.sqrt(eta)
    return Alphabet((Symbol(a, 0.0), Symbol(a, math.pi)), AlphabetKind.BPSK)


def make_alphabet_qpsk(eta: float) -> Alphabet:
    """Quadrature phase modulation with phases {0, pi/2, pi, 3pi/2}."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"need 0 < eta <= 1, got {eta}")
    a = math.sqrt(eta)
    return Alphabet(
        tuple(Symbol(a, k * math.pi / 2.0) for k in range(4)),
        AlphabetKind.QPSK,
    )


def min_squared_distance(a: Alphabet) -> float:
    """Minimum squared constellation distance over distinct symbol pairs."""
    if len(a) < 2:
        raise ValueError("need at least two symbols")
    points = [s.complex_point() for s in a.symbols]
    best = math.inf
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = min(best, abs(points[i] - points[j]) ** 2)
    return best


@dataclass(frozen=True)
class ChannelParams:
    """Effective channel parameters (eta, phi, N_Z, M) plus source brightness N_S."""

    eta: float
    phi: float
    N_Z: float
    M: int
    N_S: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"round-trip transmissivity must lie in [0, 1], got {self.eta}")
        if self.N_Z < 0:
            raise ValueError(f"thermal occupancy must be >= 0, got {self.N_Z}")
        if self.M < 1:
            raise ValueError(f"mode-pair count must be >= 1, got {self.M}")
        if self.N_S < 0:
            raise ValueError(f"source brightness must be >= 0, got {self.N_S}")

    def validity_warnings(self) -> list[str]:
        """Flags raised outside the asymptotic regime the bounds assume."""
        flags = []
        if self.eta > 0.1:
            flags.append(f"eta = {self.eta:g} exceeds 0.1 (low-reflectivity assumption)")
        if self.N_S > 0.1:
            flags.append(f"N_S = {self.N_S:g} exceeds 0.1 (low-brightness assumption)")
        if self.N_Z < 10.0:
            flags.append(f"N_Z = {self.N_Z:g} below 10 (bright-background assumption)")
        return flags


@dataclass(frozen=True)
class LinkBudget:
    """Physical link-budget quantities feeding the effective channel parameters."""

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

    def __post_init__(self):
        for name in ("G_t", "G_r", "omega", "R_t", "R_r", "sigma_Q", "T", "W", "T_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not math.isfinite(self.varphi_tag):
            raise ValueError(f"varphi_tag must be finite, got {self.varphi_tag}")


def rtt_from_link_budget(lb: LinkBudget) -> float:
    """Round-trip transmissivity G_r G_t c^2 sigma_Q / (16 pi omega^2 R_t^2 R_r^2).

    The value is returned as computed even when it exceeds 1; callers decide
    how to report that.  Note this expression is the one used throughout this
    package and differs from the conventional (4 pi)^3 radar-equation form.
    """
    return (lb.G_r * lb.G_t * C_LIGHT**2 * lb.sigma_Q) / (
        16.0 * math.pi * lb.omega**2 * lb.R_t**2 * lb.R_r**2
    )


def thermal_occupancy(omega: float, T: float) -> float:
    """Planck occupancy 1/(e^{hbar omega / k_B T} - 1).

    For hbar*omega/(k_B*T) < 1e-6 the series 1/x - 1/2 + x/12 is used to avoid
    catastrophic cancellation in expm1.
    """
    if omega <= 0 or T <= 0:
        raise ValueError("omega and T must be positive")
    x = HBAR * omega / (K_BOLTZMANN * T)
    if x < 1e-6:
        return 1.0 / x - 0.5 + x / 12.0
    if x > 700.0:  # expm1 would overflow; occupancy is e^{-x} to this precision
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def mode_pairs(W: float, T_s: float) -> int:
    """Number of signal-idler mode pairs per symbol, floor(W * T_s)."""
    if W <= 0 or T_s <= 0:
        raise ValueError("W and T_s must be positive")
    m = math.floor(W * T_s)
    if m < 1:
        raise ValueError(f"W * T_s = {W * T_s:g} gives no usable mode pair")
    return m


def channel_phase(R: float, varphi_tag: float, omega: float, strict: bool = False) -> float:
    """Total channel phase for one-way-summed distance R plus the tag phase.

    The default uses omega * R / c (radians).  Strict mode evaluates the
    dimensionally odd 2 pi R / c form verbatim for comparison; both values are
    reduced modulo 2 pi.
    """
    if R < 0:
        raise ValueError(f"distance must be >= 0, got {R}")
    if strict:
        return (TWO_PI * R / C_LIGHT + varphi_tag) % TWO_PI
    return (omega * R / C_LIGHT + varphi_tag) % TWO_PI


def apply_channel(cp: ChannelParams, symbol: Symbol) -> GaussianState:
    """Send the signal half of an entangled pair through the tag channel.

    Builds tmss(N_S) (x) thermal(N_Z), mixes signal and environment on a beam
    splitter with transmissivity amplitude^2 and phase symbol.phase + cp.phi,
    and discards the lost port.  Returns the joint (return, idler) state with
    the return mode first.
    """
    eta = symbol.eta
    phi = symbol.phase + cp.phi
    state = tensor(tmss(cp.N_S), thermal(cp.N_Z))  # modes: S=0, I=1, Z=2
    state = apply_beam_splitter(state, 0, 2, eta, phi)
    return partial_trace(state, [0, 1])


def apply_channel_classical(cp: ChannelParams, symbol: Symbol) -> GaussianState:
    """Coherent-probe counterpart of apply_channel; returns the single return mode."""
    eta = symbol.eta
    phi = symbol.phase + cp.phi
    state = tensor(coherent(math.sqrt(cp.N_S)), thermal(cp.N_Z))  # modes: S=0, Z=1
    state = apply_beam_splitter(state, 0, 1, eta, phi)
    return partial_trace(state, [0])
