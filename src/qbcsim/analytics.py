"""Closed forms only: error-probability bounds, exponent gains, and the
security calculators `eve_exponent_ratio` and `power_divider_penalty`.
The eavesdropper Monte Carlo, `montecarlo.eve_random_phase_ber`, runs on
the trial engine and lives with it.

Bounds are expressed per alphabet through the minimum squared constellation
distance d^2 and the composite signal-to-noise measure N_S M / N_Z.  The
`exponent` field of a bound is the coefficient of d^2 N_S M / N_Z in -ln P,
so receivers are compared by exponent ratios independent of the alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .link import Alphabet, AlphabetKind, UnsupportedAlphabetError, min_squared_distance


@dataclass(frozen=True)
class EpBound:
    """A bound on the average symbol error probability.

    value is the bound itself (clamped to [0, 1]); exponent is the coefficient
    of d^2 N_S M / N_Z in -ln P.
    """

    value: float
    exponent: float

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
    return EpBound(value=value, exponent=0.25)


def pa_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """PA-receiver upper bound exp(-d^2 N_S M / 2 N_Z) for aligned binary alphabets."""
    snr = _snr(a, N_S, M, N_Z)
    if a.kind is AlphabetKind.QPSK or len(a) != 2:
        raise UnsupportedAlphabetError(
            "PA bound applies only to two-symbol aligned alphabets (PAM, BPSK)"
        )
    value = math.exp(-snr / 2.0)
    return EpBound(value=value, exponent=0.5)


def sfg_ep_upper_bound(a: Alphabet, N_S: float, M: int, N_Z: float) -> EpBound:
    """SFG-receiver upper bound.

    PAM/BPSK: exp(-d^2 N_S M / N_Z); QPSK: 4 exp(-d^2 N_S M / 2 N_Z), value
    clamped to 1 while the exponent field is left unclamped.
    """
    snr = _snr(a, N_S, M, N_Z)
    if a.kind in (AlphabetKind.PAM, AlphabetKind.BPSK):
        value = math.exp(-snr)
        return EpBound(value=value, exponent=1.0)
    if a.kind is AlphabetKind.QPSK:
        value = min(1.0, 4.0 * math.exp(-snr / 2.0))
        return EpBound(value=value, exponent=0.5)
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
