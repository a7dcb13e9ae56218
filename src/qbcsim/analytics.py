"""Closed-form error-probability bounds, exponent gains, and security calculators.

Bounds are expressed per alphabet through the minimum squared constellation
distance d^2 and the composite signal-to-noise measure N_S M / N_Z.  The
`exponent` field of a bound is the coefficient of d^2 N_S M / N_Z in -ln P,
so receivers are compared by exponent ratios independent of the alphabet.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .link import Alphabet, AlphabetKind, min_squared_distance
from .receivers import UnsupportedAlphabetError


class BoundKind(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class EpBound:
    """A bound on the average symbol error probability.

    value is the bound itself (clamped to [0, 1]); exponent is the coefficient
    of d^2 N_S M / N_Z in -ln P; prefactor multiplies the exponential.
    """

    value: float
    exponent: float
    prefactor: float
    kind: BoundKind

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"bound value must lie in [0, 1], got {self.value}")
        if self.exponent < 0.0:
            raise ValueError(f"exponent must be >= 0, got {self.exponent}")


def erfc_eval(x: float) -> float:
    """Complementary error function (C-library backed, < 1e-12 relative error)."""
    return math.erfc(x)


def classical_ep_lower_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """Heterodyne-receiver lower bound (1 / 2|A|) erfc(sqrt(d^2 N_S M / 4 N_Z))."""
    if N_Z <= 0 or M < 1:
        raise ValueError("need N_Z > 0 and M >= 1")
    d2 = min_squared_distance(a)
    arg = d2 * N_S * M / (4.0 * N_Z)
    value = erfc_eval(math.sqrt(arg)) / (2.0 * len(a))
    return EpBound(value=value, exponent=0.25, prefactor=1.0 / (2.0 * len(a)), kind=BoundKind.LOWER)


def pa_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """PA-receiver upper bound exp(-d^2 N_S M / 2 N_Z) for aligned binary alphabets."""
    if N_Z <= 0 or M < 1:
        raise ValueError("need N_Z > 0 and M >= 1")
    if a.kind is AlphabetKind.QPSK or len(a) != 2:
        raise UnsupportedAlphabetError(
            "PA bound applies only to two-symbol aligned alphabets (PAM, BPSK)"
        )
    d2 = min_squared_distance(a)
    value = math.exp(-d2 * N_S * M / (2.0 * N_Z))
    return EpBound(value=value, exponent=0.5, prefactor=1.0, kind=BoundKind.UPPER)


def sfg_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """SFG-receiver upper bound.

    PAM/BPSK: exp(-d^2 N_S M / N_Z); QPSK: 4 exp(-d^2 N_S M / 2 N_Z), value
    clamped to 1 while the exponent field is left unclamped.
    """
    if N_Z <= 0 or M < 1:
        raise ValueError("need N_Z > 0 and M >= 1")
    d2 = min_squared_distance(a)
    if a.kind in (AlphabetKind.PAM, AlphabetKind.BPSK):
        value = math.exp(-d2 * N_S * M / N_Z)
        return EpBound(value=value, exponent=1.0, prefactor=1.0, kind=BoundKind.UPPER)
    if a.kind is AlphabetKind.QPSK:
        value = min(1.0, 4.0 * math.exp(-d2 * N_S * M / (2.0 * N_Z)))
        return EpBound(value=value, exponent=0.5, prefactor=4.0, kind=BoundKind.UPPER)
    raise UnsupportedAlphabetError("SFG bound is defined for PAM, BPSK, and QPSK only")


def exponent_gain_db(b1: EpBound, b2: EpBound) -> float:
    """Error-exponent gain of b1 over b2 in decibels."""
    if b1.exponent <= 0 or b2.exponent <= 0:
        raise ValueError("exponent gain needs strictly positive exponents")
    return 10.0 * math.log10(b1.exponent / b2.exponent)


# ---------------------------------------------------------------------------
# security calculators
# ---------------------------------------------------------------------------


def eve_exponent_ratio() -> float:
    """Error-exponent ratio of the legitimate SFG link over a classical tap.

    The legitimate receiver holds the idler and reaches exponent coefficient 1;
    an eavesdropper without it is limited to the classical 1/4.
    """
    return 4.0


def power_divider_penalty(fraction_kept: float) -> float:
    """Multiplier on eta (hence on every exponent) from tapping tag power.

    A 50-50 divider (fraction 0.5) halves the exponent, which cancels the
    PA receiver's factor-2 advantage.
    """
    if not 0.0 < fraction_kept <= 1.0:
        raise ValueError(f"fraction_kept must lie in (0, 1], got {fraction_kept}")
    return fraction_kept


def eve_random_phase_ber(
    eta: float,
    N_S: float,
    M: int,
    N_Z: float,
    trials: int,
    rng: np.random.Generator,
    phase_dist: str = "uniform",
) -> float:
    """Monte Carlo BER of a heterodyne eavesdropper against phase-hopped BPSK.

    Each codeword carries a phase offset theta unknown to the eavesdropper:
    "uniform" draws theta from [0, 2pi), "binary" from {0, pi}, and "none"
    fixes theta = 0 as the no-defense control.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if phase_dist not in ("uniform", "binary", "none"):
        raise ValueError(f"unknown phase_dist {phase_dist!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not (math.isfinite(N_S) and N_S > 0):
        raise ValueError(f"N_S must be finite and > 0, got {N_S}")
    if not (math.isfinite(N_Z) and N_Z >= 0):
        raise ValueError(f"N_Z must be finite and >= 0, got {N_Z}")
    if M < 1:
        raise ValueError(f"M must be >= 1, got {M}")
    bits = rng.integers(2, size=trials)
    if phase_dist == "uniform":
        theta = rng.uniform(0.0, 2.0 * math.pi, size=trials)
    elif phase_dist == "binary":
        theta = math.pi * rng.integers(2, size=trials)
    else:
        theta = np.zeros(trials)
    amp = math.sqrt(eta)
    total_phase = bits * math.pi + theta
    mean = amp * np.exp(-1j * total_phase)
    # exact envelope statistics of the M-fold averaged heterodyne record
    quad_var = ((1.0 - eta) * N_Z + 1.0) / (2.0 * M * N_S)
    noise = rng.normal(0.0, math.sqrt(quad_var), size=(trials, 2))
    envelope = mean + noise[:, 0] + 1j * noise[:, 1]
    decided = (envelope.real < 0.0).astype(int)  # nearest of +-sqrt(eta)
    return float(np.mean(decided != bits))
