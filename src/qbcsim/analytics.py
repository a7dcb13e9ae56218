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

from .link import Alphabet, AlphabetKind, ChannelParams, UnsupportedAlphabetError, min_squared_distance
from .receivers import _box_muller, envelope_sd


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


def _snr(a: Alphabet, N_S: float, M: int, N_Z: float) -> float:
    """The bounds' argument d^2 N_S M / N_Z; scaling it by 1/4 or 1/2 is exact."""
    if N_Z <= 0 or M < 1:
        raise ValueError("need N_Z > 0 and M >= 1")
    return min_squared_distance(a) * N_S * M / N_Z


def classical_ep_lower_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """Heterodyne-receiver lower bound (1 / 2|A|) erfc(sqrt(d^2 N_S M / 4 N_Z))."""
    value = erfc_eval(math.sqrt(_snr(a, N_S, M, N_Z) / 4.0)) / (2.0 * len(a))
    return EpBound(value=value, exponent=0.25, prefactor=1.0 / (2.0 * len(a)), kind=BoundKind.LOWER)


def pa_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """PA-receiver upper bound exp(-d^2 N_S M / 2 N_Z) for aligned binary alphabets."""
    snr = _snr(a, N_S, M, N_Z)
    if a.kind is AlphabetKind.QPSK or len(a) != 2:
        raise UnsupportedAlphabetError(
            "PA bound applies only to two-symbol aligned alphabets (PAM, BPSK)"
        )
    value = math.exp(-snr / 2.0)
    return EpBound(value=value, exponent=0.5, prefactor=1.0, kind=BoundKind.UPPER)


def sfg_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """SFG-receiver upper bound.

    PAM/BPSK: exp(-d^2 N_S M / N_Z); QPSK: 4 exp(-d^2 N_S M / 2 N_Z), value
    clamped to 1 while the exponent field is left unclamped.
    """
    snr = _snr(a, N_S, M, N_Z)
    if a.kind in (AlphabetKind.PAM, AlphabetKind.BPSK):
        value = math.exp(-snr)
        return EpBound(value=value, exponent=1.0, prefactor=1.0, kind=BoundKind.UPPER)
    if a.kind is AlphabetKind.QPSK:
        value = min(1.0, 4.0 * math.exp(-snr / 2.0))
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
    """Exponent ratio of the SFG receiver over a coherent-probe heterodyne link.

    SFG holds the idler and reaches coefficient 1 of d^2 N_S M / N_Z; the
    heterodyne link reaches 1/4.  The 4 does not describe a tap on the quantum
    link: the idler is the only phase reference, so an eavesdropper who taps
    the return sees the same thermal state for every BPSK or QPSK symbol, and
    their exponent is 0.
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
    fixes theta = 0 as the no-defense control.  Trials run on the counter-hash
    engine, as the one rule (point 0) of a `montecarlo.count_errors` call
    seeded by one raw word of `rng`, in blocks of 4096 trials at its 3 draws:
    the bit comes from the hash, the M-fold averaged envelope noise
    (per-quadrature deviation `receivers.envelope_sd`) by Box-Muller from
    u[0], u[1], the hop from u[2]; the decision is the real part's sign.
    """
    from .montecarlo import count_errors  # montecarlo imports this module

    if trials < 10_000:
        raise ValueError(f"need at least 1e4 trials, got {trials}")
    if phase_dist not in ("uniform", "binary", "none"):
        raise ValueError(f"unknown phase_dist {phase_dist!r}")
    cp = ChannelParams(eta, 0.0, N_Z, M, N_S)
    if not N_S > 0:
        raise ValueError(f"N_S must be > 0, got {N_S}")
    amp, sd = math.sqrt(eta), envelope_sd(cp)
    if not math.isfinite(sd):
        raise ValueError(f"envelope variance overflows: N_S M = {N_S * M:g} is too small")
    hop = {"uniform": 2.0 * math.pi, "binary": math.pi, "none": 0.0}[phase_dist]

    def decide(i: np.ndarray, u: np.ndarray) -> np.ndarray:
        r, theta = _box_muller(u)
        w = np.floor(2.0 * u[2]) if phase_dist == "binary" else u[2]
        x = amp * np.cos(math.pi * i + hop * w) + sd * (r * np.cos(theta))
        return (x < 0.0).astype(np.intp)  # nearest of +-sqrt(eta)

    decide.draws = 3
    master = int(rng.bit_generator.random_raw())
    return count_errors([(0, decide)], 2, master, 0, trials)[0] / trials
