"""Closed-form bounds, exponent gains, erfc, and security calculators."""

import math
import re

import numpy as np
import pytest

from qbcsim.analytics import (
    EpBound,
    classical_ep_lower_bound,
    erfc_eval,
    eve_exponent_ratio,
    exponent_gain_db,
    pa_ep_upper_bound,
    power_divider_penalty,
    sfg_ep_upper_bound,
)
from qbcsim.link import AlphabetKind, make_alphabet_bpsk, make_alphabet_pam, make_alphabet_qpsk
from qbcsim.montecarlo import ExperimentConfig, count_errors, eve_random_phase_ber, wilson_interval
from qbcsim.receivers import ReceiverKind, ReceiverSpec, UnsupportedAlphabetError


def _at_s(alphabet_ctor, s, N_S=0.01, N_Z=100.0, M=1_000_000):
    """Alphabet whose eta puts d^2-independent axis value at eta N_S M / N_Z = s."""
    eta = s * N_Z / (N_S * M)
    return alphabet_ctor(eta), N_S, M, N_Z


def test_classical_bound_bpsk_at_unit_snr():
    a, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    b = classical_ep_lower_bound(a, N_S, M, N_Z)
    # (1/4) erfc(1), frozen from a 50-digit oracle
    assert b.value == pytest.approx(0.039324801762571283, rel=1e-12)
    assert b.exponent == 0.25


def test_classical_bound_zero_argument():
    a = make_alphabet_bpsk(1e-12)
    b = classical_ep_lower_bound(a, 1e-12, 1, 1.0)
    assert b.value == pytest.approx(0.25, rel=1e-6)


def test_classical_bound_qpsk_prefactor():
    a, N_S, M, N_Z = _at_s(make_alphabet_qpsk, 0.0001)
    b = classical_ep_lower_bound(a, N_S, M, N_Z)
    # (1 / 2|A|) erfc(sqrt(d^2 N_S M / 4 N_Z)) with |A| = 4 and d^2 N_S M / N_Z = 2 s
    assert b.value == pytest.approx(math.erfc(math.sqrt(0.00005)) / 8.0, rel=1e-12)


def test_pa_bound_bpsk_at_unit_snr():
    a, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    b = pa_ep_upper_bound(a, N_S, M, N_Z)
    # exp(-4 eta N_S M / 2 N_Z) = e^{-2} at s = 1
    assert b.value == pytest.approx(0.13533528323661269, rel=1e-12)
    assert b.exponent == 0.5


def test_pa_vs_classical_exponent_ratio():
    a, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    pa = pa_ep_upper_bound(a, N_S, M, N_Z)
    cl = classical_ep_lower_bound(a, N_S, M, N_Z)
    assert pa.exponent / cl.exponent == 2.0


def test_pa_bound_degenerate_argument():
    a = make_alphabet_bpsk(1e-15)
    assert pa_ep_upper_bound(a, 1e-15, 1, 1.0).value == pytest.approx(1.0)


def test_pa_bound_rejects_qpsk():
    with pytest.raises(UnsupportedAlphabetError):
        pa_ep_upper_bound(make_alphabet_qpsk(0.01), 0.01, 100, 100.0)


def test_sfg_bound_bpsk_at_unit_snr():
    a, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    b = sfg_ep_upper_bound(a, N_S, M, N_Z)
    # e^{-4} at s = 1, frozen from a 50-digit oracle
    assert b.value == pytest.approx(0.018315638888734180, rel=1e-12)
    assert b.exponent == 1.0


def test_sfg_pam_six_db_gain():
    a, N_S, M, N_Z = _at_s(lambda eta: make_alphabet_pam(0.0, eta), 1.0)
    sfg = sfg_ep_upper_bound(a, N_S, M, N_Z)
    cl = classical_ep_lower_bound(a, N_S, M, N_Z)
    assert sfg.exponent / cl.exponent == 4.0
    assert exponent_gain_db(sfg, cl) == pytest.approx(10 * math.log10(4), rel=1e-12)
    assert exponent_gain_db(sfg, cl) == pytest.approx(6.0206, abs=5e-4)


def test_sfg_qpsk_three_db_gain():
    a, N_S, M, N_Z = _at_s(make_alphabet_qpsk, 1.0)
    sfg = sfg_ep_upper_bound(a, N_S, M, N_Z)
    cl = classical_ep_lower_bound(a, N_S, M, N_Z)
    assert sfg.exponent / cl.exponent == 2.0
    assert exponent_gain_db(sfg, cl) == pytest.approx(3.0103, abs=5e-4)


def test_sfg_qpsk_value_clamped():
    a = make_alphabet_qpsk(1e-9)
    assert sfg_ep_upper_bound(a, 1e-9, 1, 1.0).value == 1.0


def test_exponent_gain_identical_bounds():
    a, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    b = pa_ep_upper_bound(a, N_S, M, N_Z)
    assert exponent_gain_db(b, b) == 0.0


def test_bound_exponent_fields():
    bp, N_S, M, N_Z = _at_s(make_alphabet_bpsk, 1.0)
    qp = make_alphabet_qpsk(1.0 * N_Z / (N_S * M))
    pam = make_alphabet_pam(0.0, 1.0 * N_Z / (N_S * M))
    assert classical_ep_lower_bound(bp, N_S, M, N_Z).exponent == 0.25
    assert pa_ep_upper_bound(bp, N_S, M, N_Z).exponent == 0.5
    assert sfg_ep_upper_bound(bp, N_S, M, N_Z).exponent == 1.0
    assert sfg_ep_upper_bound(pam, N_S, M, N_Z).exponent == 1.0
    assert sfg_ep_upper_bound(qp, N_S, M, N_Z).exponent == 0.5


def test_bound_ordering_bpsk():
    # above the crossover the SFG bound sits below PA, and both below the
    # classical envelope e^{-s}
    N_S, N_Z, M = 0.01, 100.0, 1_000_000
    for s in np.linspace(0.5, 20.0, 100):
        eta = s * N_Z / (N_S * M)
        a = make_alphabet_bpsk(eta)
        sfg = sfg_ep_upper_bound(a, N_S, M, N_Z).value
        pa = pa_ep_upper_bound(a, N_S, M, N_Z).value
        assert sfg < pa
        if s > 0.47:
            assert sfg < math.exp(-s)


def test_erfc_basics():
    assert erfc_eval(0.0) == 1.0
    # frozen from a 50-digit oracle
    assert erfc_eval(1.0) == pytest.approx(0.15729920705028513, rel=1e-13)


def test_erfc_reflection():
    for x in (0.3, 1.7, 4.2):
        assert erfc_eval(-x) == pytest.approx(2.0 - erfc_eval(x), rel=1e-14)


def test_erfc_against_high_precision_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    rng = np.random.default_rng(6)
    for x in rng.uniform(0.0, 26.0, size=300):
        expect = float(mpmath.erfc(x))
        assert abs(erfc_eval(x) - expect) <= 1e-12 * abs(expect)


def test_eve_exponent_ratio():
    assert eve_exponent_ratio() == 4.0


def test_power_divider_penalty():
    assert power_divider_penalty(0.5) == 0.5
    assert power_divider_penalty(1.0) == 1.0
    with pytest.raises(ValueError):
        power_divider_penalty(0.0)
    with pytest.raises(ValueError):
        power_divider_penalty(1.5)


def test_random_phase_defense_uniform():
    rng = np.random.default_rng(101)
    trials = 100_000
    ber = eve_random_phase_ber(0.01, 0.01, 100_000, 100.0, trials, rng)
    assert abs(ber - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_random_phase_defense_binary():
    rng = np.random.default_rng(103)
    trials = 100_000
    ber = eve_random_phase_ber(0.01, 0.01, 100_000, 100.0, trials, rng, phase_dist="binary")
    assert abs(ber - 0.5) < 3 * math.sqrt(0.25 / trials)


def test_random_phase_control_matches_plain_heterodyne():
    eta, N_S, N_Z, M = 0.01, 0.01, 100.0, 100_000
    rng = np.random.default_rng(105)
    trials = 200_000
    ber = eve_random_phase_ber(eta, N_S, M, N_Z, trials, rng, phase_dist="none")
    # exact BPSK error of the averaged envelope: Q(sqrt(eta)/sigma_quad)
    sigma = math.sqrt(((1 - eta) * N_Z + 1.0) / (2 * M * N_S))
    expect = 0.5 * math.erfc(math.sqrt(eta) / sigma / math.sqrt(2.0))
    assert abs(ber - expect) < 4 * math.sqrt(expect * (1 - expect) / trials)


@pytest.mark.parametrize("seed", [1, 2])
def test_random_phase_control_is_the_heterodyne_engine(seed):
    # the no-defense control runs the heterodyne-BPSK rule on the same counter
    # hash, its master seed being the generator's first raw word; the trial
    # count crosses a block boundary
    N_S, N_Z, M = 0.01, 100.0, 100_000
    trials = 2**16 + 4321
    master = int(np.random.default_rng(seed).bit_generator.random_raw())
    for s in (0.25, 1.0, 2.0):
        cfg = ExperimentConfig(
            alphabet_kind=AlphabetKind.BPSK,
            receiver=ReceiverSpec(kind=ReceiverKind.HETERODYNE),
            N_S=N_S,
            N_Z=N_Z,
            M=M,
            sweep=(s,),
            trials_per_point=trials,
            master_seed=master,
        )
        eta = cfg.eta_for(s)
        errors = count_errors([(0, cfg.rules[0])], 2, master, 0, trials)[0]
        ber = eve_random_phase_ber(
            eta, N_S, M, N_Z, trials, np.random.default_rng(seed), phase_dist="none"
        )
        assert round(ber * trials) == errors, s
        exact = 0.5 * math.erfc(math.sqrt(eta * M * N_S / ((1 - eta) * N_Z + 1.0)))
        lo, hi = wilson_interval(errors, trials, z=4.0)
        assert lo <= exact <= hi, s


def test_random_phase_rejects_few_trials():
    with pytest.raises(ValueError):
        eve_random_phase_ber(0.01, 0.01, 1000, 100.0, 100, np.random.default_rng(0))


_BPSK = make_alphabet_bpsk(1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: EpBound(1.5, 0.25), "bound value must lie in [0, 1], got 1.5"),
    (lambda: EpBound(0.5, -1.0), "exponent must be >= 0, got -1.0"),
    (lambda: classical_ep_lower_bound(_BPSK, 0.01, 1000, 0.0), "need N_Z > 0 and M >= 1"),
    (lambda: pa_ep_upper_bound(_BPSK, 0.01, 0, 100.0), "need N_Z > 0 and M >= 1"),
    (lambda: exponent_gain_db(EpBound(0.5, 0.0), EpBound(0.5, 1.0)),
     "exponent gain needs strictly positive exponents"),
], ids=["value-above-1", "negative-exponent", "zero-N_Z", "zero-M", "zero-exponent-gain"])
def test_documented_rejections(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
