"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q qbcbench/selftest.py

The file name keeps it out of the repository's default test collection.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gates  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "qbcbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = "\n".join(lines[:-1])
    for name, m in result["metrics"].items():
        assert math.isfinite(m["value"])
        assert f"{name} = " in printed
    assert "failed_ops_frac = 0" in printed
    assert '"blas_threads_pinned": true' in printed
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "wall.call_s_p50 = " in printed and "machine_speed = " in printed


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "qbcbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "mc-binary", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def qb():
    return workloads.fresh_program()


@pytest.fixture(scope="module")
def het_curve(qb):
    cfg = qb.montecarlo.ExperimentConfig(
        alphabet_kind=qb.link.AlphabetKind.BPSK,
        receiver=qb.receivers.ReceiverSpec(kind=qb.receivers.ReceiverKind.HETERODYNE),
        N_S=workloads.N_S, N_Z=workloads.N_Z, M=1_000_000,
        sweep=(0.5, 1.0, 1.5), trials_per_point=20_000, master_seed=7,
    )
    return qb.montecarlo.run_experiment(cfg)


def _checks(qb, curve, receiver, s_scale=1.0):
    return [
        gates.ber_check(
            *gates.reference(qb, receiver, "bpsk", workloads.N_S, workloads.N_Z, 1_000_000,
                             pt.s * s_scale),
            pt.errors, pt.trials,
        )
        for pt in curve.points
    ]


def test_ber_gate_passes_the_right_curve(qb, het_curve):
    assert all(c["ok"] for c in _checks(qb, het_curve, "heterodyne"))


@pytest.mark.parametrize("receiver,s_scale", [("pa", 1.0), ("heterodyne", 1.2), ("heterodyne", 0.8)])
def test_ber_gate_trips_on_a_wrong_curve(qb, het_curve, receiver, s_scale):
    assert not all(c["ok"] for c in _checks(qb, het_curve, receiver, s_scale))


def test_ber_gate_trips_on_inflated_counts():
    p, trials = 0.05, 200_000
    errors = int(np.random.default_rng(1).binomial(trials, 1.1 * p))
    assert not gates.ber_check("exact", p, errors, trials)["ok"]
    assert not gates.ber_check("upper", 0.04, errors, trials)["ok"]
    assert gates.ber_check("upper", 0.06, errors, trials)["ok"]


def test_oracle_gate_trips():
    assert gates.coherent_chernoff_ok(0.25 + 5e-7)
    assert not gates.coherent_chernoff_ok(0.25 + 2e-6)
    good = dict(helstrom=0.1, xi=1.0, nulled_corr=1e-12, min_symplectic=0.5)
    assert gates.oracle_pair_ok(**good)
    for bad in (dict(helstrom=0.2), dict(nulled_corr=1e-9), dict(min_symplectic=0.49)):
        assert not gates.oracle_pair_ok(**{**good, **bad})


@pytest.mark.parametrize("n,pct", [(5, 100), (20, 50), (100, 90), (1000, 99)])
def test_tail_leaves_ten_samples_beyond(n, pct):
    durations = list(np.random.default_rng(n).permutation(n) + 1.0)
    value, got = workloads.tail(durations)
    assert got == pct
    assert n <= 10 or sum(d > value for d in durations) >= 10


def test_inputs_follow_the_seed(qb):
    assert workloads.mc_config("mc-qpsk", 5) == workloads.mc_config("mc-qpsk", 5)
    assert workloads.mc_config("mc-qpsk", 5) != workloads.mc_config("mc-qpsk", 6)
    assert workloads.call_seed(5, 0) != workloads.call_seed(5, 1)
    a = workloads.OracleWorkload(qb, 5).prepare(40)
    b = workloads.OracleWorkload(qb, 5).prepare(40)
    assert a == b
