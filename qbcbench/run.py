"""qbcsim benchmark: Monte Carlo throughput on binary and QPSK links, and the
oracle-pair rate, with a traced run for per-layer numbers.

Run from the repository root:

    python3 qbcbench/run.py --workload mc-binary --seed 1 --seconds 30 --trace 0

Workloads: mc-binary, mc-qpsk, oracle (see METRICS.md).  --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer metrics and writes spans.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Full records, the generated configs and the
spans go to .qbcbench_out/ under the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-binary", "mc-qpsk", "oracle")
#: OpenBLAS threads.  Pinned to 1 so the oracle's eigh calls do not contend
#: with the machine's other load for the second core; set before numpy loads.
BLAS_THREADS = 1
#: set-ups per run; setup_s is their median
SETUP_REPS = 15

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "call_s_p50": "s",
    "call_s_tail": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracer import SPAN_NAMES
    from workloads import EXPERIMENT_LABELS

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "1/unit"
        units[f"{name}.self_ms"] = "ms/unit"
    for label in EXPERIMENT_LABELS:
        units[f"montecarlo.us_per_trial.{label}"] = "us"
    units.update({
        "montecarlo.derive_trial_seed_us": "us",
        "montecarlo.point_setup_ms": "ms",
        "montecarlo.pool_speedup_2w": "ratio",
        "fock.eig_calls_per_pair": "1/unit",
        "trace_overhead_frac": "fraction",
    })
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit() -> str | None:
    """Commit of the checkout, read from .git if there is one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def machine_info() -> dict:
    import numpy as np

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "blas_threads_pinned": True,
        "qbc_threads": os.environ.get("QBC_THREADS", "unset"),
        "git_commit": git_commit(),
    }


def traced_extras(qb, seed: int, workdir, checks: list[dict]) -> dict:
    """Seed-hash cost, per-point set-up, pool speed-up and the parallel-invariance check."""
    import workloads

    mc = {name: workloads.McWorkload(qb, name, seed, workdir) for name in ("mc-binary", "mc-qpsk")}
    extras = {
        "montecarlo.derive_trial_seed_us": workloads.seed_hash_us(qb, seed),
        "montecarlo.point_setup_ms": workloads.point_setup_ms(qb, mc["mc-qpsk"].experiments),
    }
    for name, w in mc.items():
        one, tps1 = workloads.run_with_threads(qb, w.experiments, 1)
        two, tps2 = workloads.run_with_threads(qb, w.experiments, 2)
        checks.append({"check": f"parallel invariance {name}", "threads1": one, "threads2": two,
                       "ok": one == two})
        if name == "mc-binary":
            extras["montecarlo.pool_speedup_2w"] = tps2 / tps1
    return extras


def layer_metrics(tr, units: int, extras: dict, p50_traced: float, p50_untraced: float) -> dict:
    from tracer import SPAN_NAMES
    from workloads import EXPERIMENT_LABELS

    values = {}
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = tr.calls[name] / units
        values[f"{name}.self_ms"] = tr.self_ns(name) / 1e6 / units
    for label in EXPERIMENT_LABELS:
        trials = tr.experiment_trials[label]
        values[f"montecarlo.us_per_trial.{label}"] = (
            tr.experiment_self_ns[label] / 1e3 / trials if trials else 0.0
        )
    values["fock.eig_calls_per_pair"] = (
        tr.calls["numpy.linalg.eigh"] + tr.calls["numpy.linalg.eigvalsh"]
    ) / units
    values["trace_overhead_frac"] = p50_traced / p50_untraced - 1.0
    values.update(extras)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    os.environ.pop("QBC_THREADS", None)
    src = ROOT / "src"
    if not (src / "qbcsim" / "__init__.py").is_file():
        print(f"error: no qbcsim sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]

    import tracer as tracing
    import workloads

    workdir = ROOT / ".qbcbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)

    setup, setup_normalized = [], []
    for _ in range(SETUP_REPS):
        speed = workloads.PYTHON_REF.speed()
        t0 = time.perf_counter()
        qb = workloads.fresh_program()
        w = workloads.make_workload(qb, args.workload, args.seed, workdir)
        setup.append(time.perf_counter() - t0)
        setup_normalized.append(setup[-1] * speed)
    if not Path(qb.cli.__file__).resolve().is_relative_to(src):
        print(f"error: qbcsim was imported from {qb.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    warm = workloads.timed_loop(w, 0.0, 0)
    loops = [warm]
    checks: list[dict] = []
    if args.trace == 0:
        loop = workloads.timed_loop(w, args.seconds, warm.next_index)
        loops.append(loop)
        tail_s, tail_pct = workloads.tail(loop.normalized)
        values = {
            "setup_s": statistics.median(setup_normalized),
            "units_per_s": loop.units / sum(loop.normalized),
            "call_s_p50": statistics.median(loop.normalized),
            "call_s_tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        raw_tail_s, _ = workloads.tail(loop.durations)
        detail = {
            "samples": len(loop.durations),
            "call_s_tail_percentile": tail_pct,
            f"{w.unit_name}_per_s": values["units_per_s"],
            "wall.setup_s": statistics.median(setup),
            "wall.units_per_s": loop.units / sum(loop.durations),
            "wall.call_s_p50": statistics.median(loop.durations),
            "wall.call_s_tail": raw_tail_s,
            "machine_speed": sum(loop.normalized) / sum(loop.durations),
        }
    else:
        ref = workloads.timed_loop(w, args.seconds / 2, warm.next_index)
        tr = tracing.Tracer()
        tr.install()
        try:
            loop = workloads.timed_loop(w, args.seconds / 2, ref.next_index, tr)
        finally:
            tr.uninstall()
        loops += [ref, loop]
        extras = traced_extras(qb, args.seed, workdir, checks)
        values = layer_metrics(
            tr, len(loop.durations), extras,
            statistics.median(loop.normalized), statistics.median(ref.normalized),
        )
        units = per_layer_units()
        tr.write_spans(workdir / "spans.jsonl")
        detail = {"samples": len(loop.durations), "untraced_samples": len(ref.durations),
                  "spans": len(tr.spans), "spans_dropped": tr.dropped,
                  "machine_speed": sum(loop.normalized) / sum(loop.durations)}

    checks += w.gate()
    attempted = sum(len(lp.durations) for lp in loops) + len(checks)
    failed = sum(lp.failed for lp in loops) + sum(not c["ok"] for c in checks)
    detail["failed_ops_frac"] = failed / attempted
    for c in checks:
        if not c["ok"]:
            print(f"gate failed: {c}", file=sys.stderr)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "detail": detail,
        "checks": checks, "metrics": metrics,
    }
    (workdir / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"machine: {json.dumps(record['machine'])}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, v in detail.items():
        print(f"{name} = {v:.6g}" if isinstance(v, float) else f"{name} = {v}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
