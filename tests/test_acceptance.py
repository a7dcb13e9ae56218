"""Acceptance criteria: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import math
import time

import numpy as np
import pytest

from qbcsim.analytics import (
    classical_ep_lower_bound,
    erfc_eval,
    eve_exponent_ratio,
    exponent_gain_db,
    pa_ep_upper_bound,
    power_divider_penalty,
    sfg_ep_upper_bound,
)
from qbcsim.cli import bound_table_row, main
from qbcsim.fock import chernoff_exponent_oracle, gaussian_to_fock, helstrom_oracle
from qbcsim.gaussian import (
    apply_beam_splitter,
    apply_two_mode_squeeze,
    coherent,
    mean_photon_number,
    phase_sensitive_correlation,
    symplectic_eigenvalues,
    tensor,
    thermal,
    tmss,
)
from qbcsim.link import (
    AlphabetKind,
    ChannelParams,
    Symbol,
    apply_channel,
    make_alphabet_bpsk,
    make_alphabet_pam,
    make_alphabet_qpsk,
)
from qbcsim.montecarlo import (
    BerCurve,
    BerCurvePoint,
    ExperimentConfig,
    eve_random_phase_ber,
    fit_error_exponent,
    run_experiment,
)
from qbcsim.receivers import (
    ReceiverKind,
    ReceiverSpec,
    sfg_bookkeeping,
    sfg_nulling_params,
)


def _synthetic_curve(ss, values):
    pts = tuple(
        BerCurvePoint(
            s=float(s), empirical_ber=float(v), wilson_ci_low=0.0, wilson_ci_high=1.0,
            analytic_bound=float(v), trials=1, errors=0,
        )
        for s, v in zip(ss, values)
    )
    return BerCurve(points=pts)


def _fitted_bound_exponent(bound_fn, alphabet_ctor, window, n=50,
                           N_S=0.01, N_Z=100.0, M=50_000_000):
    """Least-squares exponent of an analytic bound curve over a high-s window."""
    ss = np.linspace(window[0], window[1], n)
    values = []
    for s in ss:
        eta = s * N_Z / (N_S * M)
        values.append(bound_fn(alphabet_ctor(eta), N_S, M, N_Z).value)
    return fit_error_exponent(_synthetic_curve(ss, values), s_min=0.0)


def test_criterion_1_exponent_gain_reproduction():
    t0 = time.perf_counter()
    ook = lambda eta: make_alphabet_pam(0.0, eta)

    # per-scheme windows sit high enough that prefactors stop biasing the fit
    # while every bound value stays a normal double
    cl_pam = _fitted_bound_exponent(classical_ep_lower_bound, ook, (400, 680))
    sfg_pam = _fitted_bound_exponent(sfg_ep_upper_bound, ook, (400, 680))
    pa_pam = _fitted_bound_exponent(pa_ep_upper_bound, ook, (400, 680))
    cl_bpsk = _fitted_bound_exponent(classical_ep_lower_bound, make_alphabet_bpsk, (100, 160))
    sfg_bpsk = _fitted_bound_exponent(sfg_ep_upper_bound, make_alphabet_bpsk, (100, 160))
    pa_bpsk = _fitted_bound_exponent(pa_ep_upper_bound, make_alphabet_bpsk, (100, 160))
    cl_qpsk = _fitted_bound_exponent(classical_ep_lower_bound, make_alphabet_qpsk, (200, 300))
    sfg_qpsk = _fitted_bound_exponent(sfg_ep_upper_bound, make_alphabet_qpsk, (200, 300))

    assert sfg_pam / cl_pam == pytest.approx(4.0, rel=0.01)
    assert sfg_bpsk / cl_bpsk == pytest.approx(4.0, rel=0.01)
    assert pa_pam / cl_pam == pytest.approx(2.0, rel=0.01)
    assert pa_bpsk / cl_bpsk == pytest.approx(2.0, rel=0.01)
    assert sfg_qpsk / cl_qpsk == pytest.approx(2.0, rel=0.01)

    # exact exponent fields and dB gains
    eta = 1e-6
    cl = classical_ep_lower_bound(make_alphabet_bpsk(eta), 0.01, 1000, 100.0)
    pa = pa_ep_upper_bound(make_alphabet_bpsk(eta), 0.01, 1000, 100.0)
    sfg = sfg_ep_upper_bound(make_alphabet_bpsk(eta), 0.01, 1000, 100.0)
    sfg_q = sfg_ep_upper_bound(make_alphabet_qpsk(eta), 0.01, 1000, 100.0)
    assert sfg.exponent / cl.exponent == 4.0
    assert pa.exponent / cl.exponent == 2.0
    assert sfg_q.exponent / cl.exponent == 2.0
    assert exponent_gain_db(sfg, cl) == pytest.approx(6.02, abs=0.005)
    assert exponent_gain_db(pa, cl) == pytest.approx(3.01, abs=0.005)
    assert exponent_gain_db(sfg_q, cl) == pytest.approx(3.01, abs=0.005)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"\n[PASS] criterion 1: exponent gains SFG/cl = {sfg_bpsk / cl_bpsk:.4f} (6.02 dB), "
        f"PA/cl = {pa_bpsk / cl_bpsk:.4f} (3.01 dB), SFG-QPSK/cl = {sfg_qpsk / cl_qpsk:.4f} "
        f"(3.01 dB) [{elapsed:.2f} s]"
    )


def test_criterion_2_bound_curves(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "bounds.csv"
    assert main(["bounds", "--sweep", "0.1:20:100", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, map(float, line.split(",")))) for line in lines[1:]]
    assert len(rows) == 100
    for row in rows:
        s = row["s"]
        assert row["sfg_bpsk"] <= row["pa_bpsk"] + 1e-300
        # e^{-4s} drops below the exact classical BPSK error (1/2) erfc(sqrt(s))
        # at s = 0.435, hence everywhere from 0.5 up; it crosses the halved
        # Eq.-3 bound value (1/4) erfc(sqrt(s)) itself at s = 0.7105
        if s >= 0.5:
            assert row["sfg_bpsk"] < 2.0 * row["het_bpsk"]
        if s >= 0.75:
            assert row["sfg_bpsk"] < row["het_bpsk"]
    # pin the two crossovers so the thresholds above stay meaningful
    f = lambda s: math.exp(-4 * s) - bound_table_row(s)["het_bpsk"]
    assert f(0.70) > 0 and f(0.72) < 0
    g = lambda s: math.exp(-4 * s) - 2.0 * bound_table_row(s)["het_bpsk"]
    assert g(0.43) > 0 and g(0.44) < 0
    spot = bound_table_row(1.0)["sfg_bpsk"]
    assert spot == pytest.approx(0.018316, abs=1e-6)
    assert spot == pytest.approx(0.018315638888734180, rel=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 2: bound curves ordered, sfg_bpsk(1) = {spot:.9f} [{elapsed:.2f} s]")


def test_criterion_3_cycle_series_consistency():
    t0 = time.perf_counter()
    N_S, M = 0.01, 10_000
    for N_Z in (100.0, 1000.0):
        tau = 0.01 / N_Z
        spec = ReceiverSpec(kind=ReceiverKind.SFG, sfg_tau=tau, sfg_capture_eps=1e-3)
        cp = ChannelParams(eta=0.01, phi=0.0, N_Z=N_Z, M=M, N_S=N_S)
        d2 = 4.0 * cp.eta  # BPSK at this eta
        bk = sfg_bookkeeping(cp, d2, spec)
        target = d2 * N_S * M / N_Z
        assert 4.0 * bk.total == pytest.approx(target, rel=0.02)
        # finite sum against the closed-form partial geometric series
        x = 1.0 - tau * (1.0 + N_Z)
        c0 = d2 * N_S * (N_S + 1.0) / 4.0
        closed = 2.0 * tau * M * c0 * x * x * (1.0 - x ** (2 * bk.K)) / (1.0 - x * x)
        assert bk.total == pytest.approx(closed, rel=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] criterion 3: 4x cycle total = d^2 N_S M / N_Z within 2% [{elapsed:.2f} s]")


@pytest.fixture(scope="module")
def mc_timer():
    budget = {"spent": 0.0}
    yield budget
    assert budget["spent"] < 300.0, f"criterion 4 runtime {budget['spent']:.0f} s exceeds 5 min"
    print(f"\n[PASS] criterion 4 runtime total: {budget['spent']:.0f} s (< 5 min)")


def test_criterion_4a_heterodyne_vs_bound(mc_timer):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        alphabet_kind=AlphabetKind.BPSK,
        receiver=ReceiverSpec(kind=ReceiverKind.HETERODYNE),
        N_S=0.01, N_Z=100.0, M=1_000_000,
        sweep=(0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0),
        trials_per_point=100_000,
        master_seed=20260810,
    )
    curve = run_experiment(cfg)
    for pt in curve.points:
        sigma = math.sqrt(max(pt.empirical_ber * (1 - pt.empirical_ber), 1e-12) / pt.trials)
        assert pt.empirical_ber >= pt.analytic_bound - 3 * sigma, pt
    elapsed = time.perf_counter() - t0
    mc_timer["spent"] += elapsed
    print(f"\n[PASS] criterion 4a: heterodyne BPSK >= lower bound at 7 points [{elapsed:.0f} s]")


def test_criterion_4b_pa_exponent(mc_timer):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        alphabet_kind=AlphabetKind.BPSK,
        receiver=ReceiverSpec(kind=ReceiverKind.PA),
        N_S=0.01, N_Z=100.0, M=10_000_000,
        sweep=(1.0, 2.0, 3.0, 4.0),
        trials_per_point=1_000_000,
        master_seed=20260810,
    )
    curve = run_experiment(cfg)
    slope = fit_error_exponent(curve, s_min=1.0)
    assert slope == pytest.approx(2.0, abs=0.3)
    elapsed = time.perf_counter() - t0
    mc_timer["spent"] += elapsed
    print(f"\n[PASS] criterion 4b: PA-BPSK empirical exponent {slope:.3f} = 2.0 +/- 0.3 [{elapsed:.0f} s]")


def test_criterion_4c_sfg_exponent(mc_timer):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        alphabet_kind=AlphabetKind.BPSK,
        receiver=ReceiverSpec(kind=ReceiverKind.SFG),
        N_S=0.01, N_Z=100.0, M=10_000_000,
        sweep=(1.0, 1.5, 2.0, 2.5, 3.0),
        trials_per_point=4_000_000,
        master_seed=20260810,
    )
    curve = run_experiment(cfg)
    slope = fit_error_exponent(curve, s_min=1.0)
    assert slope == pytest.approx(4.0, abs=0.4)
    elapsed = time.perf_counter() - t0
    mc_timer["spent"] += elapsed
    print(f"\n[PASS] criterion 4c: SFG-BPSK empirical exponent {slope:.3f} = 4.0 +/- 0.4 [{elapsed:.0f} s]")


def test_criterion_5_engine_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55_2026)
    for _ in range(1000):
        N_S = float(rng.uniform(0.01, 0.1))
        N_Z = float(rng.uniform(10.0, 60.0))
        eta = float(rng.uniform(0.01, 0.1))
        phi = float(rng.uniform(0.0, 2 * math.pi))

        # TMSS cross-correlation at 1e-12
        src = tmss(N_S)
        c = phase_sensitive_correlation(src, 0, 1)
        assert abs(c - math.sqrt(N_S * (N_S + 1.0))) <= 1e-12

        # beam-splitter photon conservation at 1e-10 relative
        st = tensor(thermal(float(rng.uniform(0, 30))), coherent(float(rng.uniform(0, 1.5))))
        before = mean_photon_number(st, 0) + mean_photon_number(st, 1)
        mixed = apply_beam_splitter(st, 0, 1, float(rng.uniform(0, 1)), phi)
        after = mean_photon_number(mixed, 0) + mean_photon_number(mixed, 1)
        assert abs(after - before) <= 1e-10 * max(1.0, abs(before))

        # uncertainty bound after the full channel + squeeze pipeline
        cp = ChannelParams(eta=eta, phi=phi, N_Z=N_Z, M=1000, N_S=N_S)
        sym = Symbol(math.sqrt(eta), float(rng.uniform(0.0, 2 * math.pi)))
        out = apply_channel(cp, sym)
        assert np.min(symplectic_eigenvalues(out)) >= 0.5 - 1e-9

        # nulling squeeze drives the correlation below 1e-10
        G, theta = sfg_nulling_params(sym, cp)
        nulled = apply_two_mode_squeeze(out, 0, 1, G, theta)
        assert abs(phase_sensitive_correlation(nulled, 0, 1)) <= 1e-10
        assert np.min(symplectic_eigenvalues(nulled)) >= 0.5 - 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 5: engine invariants over 1000 randomized cases [{elapsed:.1f} s]")


def test_criterion_6_oracles():
    t0 = time.perf_counter()

    # coherent-pair Chernoff exponent
    r0 = gaussian_to_fock(coherent(0.0), 24)
    r1 = gaussian_to_fock(coherent(0.5), 24)
    xi = chernoff_exponent_oracle(r0, r1)
    assert xi == pytest.approx(0.25, abs=1e-6)

    # Helstrom vs single-copy Chernoff on 50 random truncated pairs
    rng = np.random.default_rng(66_2026)
    for _ in range(50):
        cp = ChannelParams(
            eta=float(rng.uniform(0.0, 0.3)),
            phi=float(rng.uniform(0, 2 * math.pi)),
            N_Z=float(rng.uniform(0.05, 1.0)),
            M=100,
            N_S=float(rng.uniform(0.01, 0.3)),
        )
        s0 = Symbol(math.sqrt(cp.eta), float(rng.uniform(0, 2 * math.pi)))
        s1 = Symbol(math.sqrt(float(rng.uniform(0.0, 0.3))), float(rng.uniform(0, 2 * math.pi)))
        f0 = gaussian_to_fock(apply_channel(cp, s0), 17)
        f1 = gaussian_to_fock(apply_channel(cp, s1), 17)
        ph = helstrom_oracle(f0, f1)
        xi = chernoff_exponent_oracle(f0, f1)
        assert ph <= 0.5 * math.exp(-xi) + 1e-9

    # erfc against an arbitrary-precision oracle on 1e4 points
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    xs = np.random.default_rng(7_2026).uniform(0.0, 26.0, size=10_000)
    worst = 0.0
    for x in xs:
        expect = float(mpmath.erfc(float(x)))
        worst = max(worst, abs(erfc_eval(float(x)) - expect) / abs(expect))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"\n[PASS] criterion 6: Chernoff 0.2500000, Helstrom consistency x50, "
        f"erfc worst rel err {worst:.2e} [{elapsed:.0f} s]"
    )


def test_criterion_7_security():
    t0 = time.perf_counter()
    assert eve_exponent_ratio() == 4.0
    assert power_divider_penalty(0.5) == 0.5
    rng = np.random.default_rng(77_2026)
    trials = 100_000
    ber = eve_random_phase_ber(0.01, 0.01, 100_000, 100.0, trials, rng)
    assert abs(ber - 0.5) <= 3 * math.sqrt(0.25 / trials)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(
        f"\n[PASS] criterion 7: exponent ratio 4.0, divider penalty 0.5, "
        f"random-phase Eve BER {ber:.4f} [{elapsed:.1f} s]"
    )
