"""Correctness gates: Monte Carlo BER against exact per-symbol error
probabilities, and the oracle/engine invariants of acceptance criteria 5 and 6.

The interval arithmetic lives here, independent of qbcsim, so a defect in the
program's own Wilson interval cannot hide a defect in its counts.
"""

from __future__ import annotations

import math

#: Wilson score z for the BER gate.  Two-sided miss probability per point is
#: 5.7e-7, so a correct program with ~30 checked points per run trips the gate
#: about once in 60000 runs.
Z_GATE = 5.0

#: criterion-6 limits
CHERNOFF_COHERENT = 0.25
CHERNOFF_TOL = 1e-6
#: absolute slack on Helstrom <= e^-xi / 2, the tolerance pinned in criterion 6
HELSTROM_SLACK = 1e-9
#: criterion-5 limits
NULL_LIMIT = 1e-10
SYMPLECTIC_FLOOR = 0.5 - 1e-9


def wilson(errors: int, trials: int, z: float = Z_GATE) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or not 0 <= errors <= trials:
        raise ValueError("need 0 <= errors <= trials with trials >= 1")
    p = errors / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _q(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def reference(qb, receiver: str, alphabet: str, N_S: float, N_Z: float, M: int, s: float):
    """Reference for one sweep point: ("exact", p) or ("upper", bound).

    eta is back-solved from s exactly as the experiment does.  SFG-QPSK has no
    closed form here and is held to the analytic upper bound.
    """
    eta = s * N_Z / (N_S * M)
    cp = qb.link.ChannelParams(eta=eta, phi=0.0, N_Z=N_Z, M=M, N_S=N_S)
    if receiver == "heterodyne":
        noise = (1.0 - eta) * N_Z + 1.0
        if alphabet == "bpsk":
            return "exact", 0.5 * math.erfc(math.sqrt(eta * M * N_S / noise))
        if alphabet == "qpsk":
            sd = math.sqrt(noise / (2.0 * M * N_S))
            return "exact", 1.0 - (1.0 - _q(math.sqrt(eta) / (math.sqrt(2.0) * sd))) ** 2
    elif receiver == "pa" and alphabet == "bpsk":
        grid = qb.receivers.pa_decision_grid(qb.link.make_alphabet_bpsk(eta), cp)
        return "exact", _q(abs(grid[0] - grid[1]) / (2.0 * math.sqrt(N_Z / M)))
    elif receiver == "sfg":
        if alphabet == "qpsk":
            bound = qb.analytics.sfg_ep_upper_bound(qb.link.make_alphabet_qpsk(eta), N_S, M, N_Z)
            return "upper", bound.value
        d2 = {"bpsk": 4.0 * eta, "pam": eta}[alphabet]
        spec = qb.receivers.ReceiverSpec(kind=qb.receivers.ReceiverKind.SFG)
        return "exact", 0.5 * math.exp(-qb.receivers.sfg_count_rate(cp, d2, spec))
    raise ValueError(f"no reference for {receiver}-{alphabet}")


def ber_check(kind: str, value: float, errors: int, trials: int) -> dict:
    """One gate check: the Wilson interval must hold an exact value, or its
    lower end must not exceed an upper bound."""
    lo, hi = wilson(errors, trials)
    ok = lo <= value <= hi if kind == "exact" else lo <= value
    return {"kind": kind, "reference": value, "errors": errors, "trials": trials,
            "wilson_lo": lo, "wilson_hi": hi, "ok": ok}


def oracle_pair_ok(helstrom: float, xi: float, nulled_corr: float, min_symplectic: float) -> bool:
    """Criterion-6 Helstrom/Chernoff consistency plus the criterion-5 engine check."""
    return (
        helstrom <= 0.5 * math.exp(-xi) + HELSTROM_SLACK
        and nulled_corr <= NULL_LIMIT
        and min_symplectic >= SYMPLECTIC_FLOOR
    )


def coherent_chernoff_ok(xi: float) -> bool:
    return abs(xi - CHERNOFF_COHERENT) <= CHERNOFF_TOL
