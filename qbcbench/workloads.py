"""Workload inputs, the closed loop that times them, and the traced-run extras.

Every input is a pure function of the workload seed: the config text (sweep
jitter and experiment seeds), the master seed of each `simulate` call, and
the channel draws of each oracle pair.  The program sees only those inputs,
through its public functions.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import gates

N_S = 0.01
N_Z = 100.0
#: Fock cutoff of the oracle pairs (criterion 6)
ORACLE_CUTOFF = 17
#: oracle pairs whose inputs are built during set-up; later ones on demand
ORACLE_PREBUILT = 16
QB_MODULES = ("analytics", "cli", "config", "fock", "gaussian", "link", "montecarlo", "receivers")


@dataclass(frozen=True)
class Plan:
    """One [experiment] block: sweep from s_lo to s_hi before seeded jitter."""

    name: str
    receiver: str
    alphabet: str
    M: int
    s_lo: float
    s_hi: float


#: workload -> (sweep points, trials per point, experiments).  The names are
#: the `<rx>-<alphabet>` labels of montecarlo.us_per_trial.  The sweeps keep
#: every point's BER between about 0.005 and 0.45, so the BER gate has power
#: and the fitted exponent always has three nonzero points.
MC_PLANS = {
    "mc-binary": (3, 2000, (
        Plan("het-bpsk", "heterodyne", "bpsk", 1_000_000, 0.5, 1.5),
        Plan("pa-bpsk", "pa", "bpsk", 10_000_000, 0.5, 1.5),
        Plan("sfg-bpsk", "sfg", "bpsk", 10_000_000, 0.25, 0.75),
        Plan("sfg-pam", "sfg", "pam", 10_000_000, 1.0, 3.0),
    )),
    "mc-qpsk": (9, 1000, (
        Plan("sfg-qpsk", "sfg", "qpsk", 1_000_000, 0.5, 2.5),
        Plan("het-qpsk", "heterodyne", "qpsk", 1_000_000, 0.5, 2.5),
    )),
}
EXPERIMENT_LABELS = tuple(p.name for _, _, plans in MC_PLANS.values() for p in plans)


# ---------------------------------------------------------------------------
# machine-speed references
# ---------------------------------------------------------------------------
#
# On cores shared with other machines' work, the speed of a single thread can
# drift by tens of percent within a minute, and it moves every wall time of a
# run together.  Each unit is therefore preceded by a fixed reference
# computation with the instruction mix of the workload's dominant layer, and
# the gated times are the unit's wall time scaled by nominal_s / (that
# reference's wall time): seconds at the reference's nominal speed.  Raw wall
# times are reported alongside.

_MASK64 = (1 << 64) - 1


def python_reference() -> int:
    """Pure-Python 64-bit mixing, the instruction mix of the per-trial engine."""
    h = 0x243F6A8885A308D3
    for i in range(20_000):
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9 + i) & _MASK64
    return h


_REF_MATRIX = np.random.default_rng(0).standard_normal((120, 120))
_REF_MATRIX = _REF_MATRIX + _REF_MATRIX.T
#: bound here so the traced run's numpy.linalg wrapper never sees the reference
_EIGVALSH = np.linalg.eigvalsh


def lapack_reference() -> np.ndarray:
    """Dense symmetric eigensolve, the instruction mix of the Fock oracles."""
    return _EIGVALSH(_REF_MATRIX)


@dataclass(frozen=True)
class Reference:
    """A fixed computation that measures the machine's current speed."""

    run: Callable[[], object]
    #: wall time of `run` that defines nominal machine speed
    nominal_s: float

    def speed(self) -> float:
        """Time `run` once; return the factor that turns wall seconds into
        seconds at nominal speed."""
        t0 = time.perf_counter()
        self.run()
        return self.nominal_s / (time.perf_counter() - t0)


PYTHON_REF = Reference(python_reference, 5e-3)
LAPACK_REF = Reference(lapack_reference, 1e-3)


def fresh_program() -> SimpleNamespace:
    """Import every qbcsim module afresh (numpy stays loaded) and return them."""
    for name in [n for n in sys.modules if n == "qbcsim" or n.startswith("qbcsim.")]:
        del sys.modules[name]
    for sub in QB_MODULES:
        importlib.import_module(f"qbcsim.{sub}")
    return SimpleNamespace(**{sub: sys.modules[f"qbcsim.{sub}"] for sub in QB_MODULES})


def sweep_points(lo: float, hi: float, n: int) -> tuple[float, ...]:
    """The points `sweep = lo:hi:n` stands for."""
    step = (hi - lo) / (n - 1)
    return tuple(lo + k * step for k in range(n))


def call_seed(seed: int, index: int) -> int:
    """Master seed of the index-th simulate call of a run (63 bits)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0] >> 1)


def mc_config(workload: str, seed: int) -> tuple[str, list[tuple[Plan, tuple[float, ...]]]]:
    """Config text for an mc-* workload and the sweep of each experiment."""
    n_points, trials, plans = MC_PLANS[workload]
    rng = np.random.default_rng([seed, 0x5EED])
    blocks, sweeps = [], []
    for plan in plans:
        scale = float(rng.uniform(0.95, 1.05))
        lo, hi = plan.s_lo * scale, plan.s_hi * scale
        sweeps.append((plan, sweep_points(lo, hi, n_points)))
        blocks.append(
            "[experiment]\n"
            f"name = {plan.name}\nreceiver = {plan.receiver}\nalphabet = {plan.alphabet}\n"
            f"N_S = {N_S!r}\nN_Z = {N_Z!r}\nM = {plan.M}\n"
            f"sweep = {lo!r}:{hi!r}:{n_points}\ntrials = {trials}\n"
            f"seed = {int(rng.integers(1, 2**31))}\n"
        )
    return "\n".join(blocks), sweeps


class McWorkload:
    """Back-to-back in-process `qbcsim simulate` calls on one generated config."""

    unit_name = "trials"
    reference = PYTHON_REF

    def __init__(self, qb, workload: str, seed: int, workdir):
        self.qb = qb
        self.seed = seed
        text, self.sweeps = mc_config(workload, seed)
        self.trials_per_point = MC_PLANS[workload][1]
        self.config_path = workdir / f"{workload}.cfg"
        self.config_path.write_text(text)
        self.out_dir = workdir / f"{workload}-out"
        #: validated ExperimentConfigs, reused by the traced run's pool check
        self.experiments = qb.config.load_config(self.config_path).experiments
        self.units_per_call = sum(len(sw) * self.trials_per_point for _, sw in self.sweeps)
        self.errors = {plan.name: [0] * len(sw) for plan, sw in self.sweeps}
        self.trials = {plan.name: [0] * len(sw) for plan, sw in self.sweeps}

    def prepare(self, index: int) -> list[str]:
        return ["simulate", str(self.config_path), "--out", str(self.out_dir),
                "--format", "json", "--seed", str(call_seed(self.seed, index))]

    def execute(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.qb.cli.main(argv)

    def verify(self, argv: list[str], rc: int) -> bool:
        """Exit 0 and well-formed per-point counts for this call's seed; the
        counts then join the run totals that the BER gate checks."""
        if rc != 0:
            print(f"simulate exited {rc}", file=sys.stderr)
            return False
        seed = int(argv[-1])
        counts = {}
        for plan, sweep in self.sweeps:
            entry = json.loads((self.out_dir / f"{plan.name}.json").read_text())
            pts = entry["points"]
            if entry["seed"] != seed or len(pts) != len(sweep):
                return False
            for pt, s in zip(pts, sweep):
                if abs(pt["s"] - s) > 1e-12 * s or pt["trials"] != self.trials_per_point:
                    return False
                if not 0 <= pt["errors"] <= pt["trials"]:
                    return False
            counts[plan.name] = [pt["errors"] for pt in pts]
        for name, errs in counts.items():
            for k, e in enumerate(errs):
                self.errors[name][k] += e
                self.trials[name][k] += self.trials_per_point
        return True

    def gate(self) -> list[dict]:
        """BER gate over the errors and trials summed across the run."""
        checks = []
        for plan, sweep in self.sweeps:
            for k, s in enumerate(sweep):
                if self.trials[plan.name][k] == 0:
                    continue
                kind, value = gates.reference(self.qb, plan.receiver, plan.alphabet, N_S, N_Z, plan.M, s)
                check = gates.ber_check(kind, value, self.errors[plan.name][k], self.trials[plan.name][k])
                checks.append({"check": f"ber {plan.name} s={s:.6g}", **check})
        return checks


class OracleWorkload:
    """Back-to-back validation pairs: a criterion-6 oracle pair plus a
    criterion-5 nulling/uncertainty check."""

    unit_name = "pairs"
    units_per_call = 1
    reference = LAPACK_REF

    def __init__(self, qb, seed: int):
        self.qb = qb
        self.seed = seed
        self.prebuilt = [self._inputs(i) for i in range(ORACLE_PREBUILT)]

    def _inputs(self, index: int):
        rng = np.random.default_rng([self.seed, index])
        link = self.qb.link
        u = lambda lo, hi: float(rng.uniform(lo, hi))
        cp6 = link.ChannelParams(eta=u(0.0, 0.3), phi=u(0.0, 2 * math.pi), N_Z=u(0.05, 1.0),
                                 M=100, N_S=u(0.01, 0.3))
        s0 = link.Symbol(math.sqrt(cp6.eta), u(0.0, 2 * math.pi))
        s1 = link.Symbol(math.sqrt(u(0.0, 0.3)), u(0.0, 2 * math.pi))
        cp5 = link.ChannelParams(N_S=u(0.01, 0.1), N_Z=u(10.0, 60.0), eta=u(0.01, 0.1),
                                 phi=u(0.0, 2 * math.pi), M=1000)
        sym5 = link.Symbol(math.sqrt(cp5.eta), u(0.0, 2 * math.pi))
        return cp6, s0, s1, cp5, sym5

    def prepare(self, index: int):
        return self.prebuilt[index] if index < len(self.prebuilt) else self._inputs(index)

    def execute(self, inputs) -> tuple[float, float, float, float]:
        cp6, s0, s1, cp5, sym5 = inputs
        link, fock, g = self.qb.link, self.qb.fock, self.qb.gaussian
        f0 = fock.gaussian_to_fock(link.apply_channel(cp6, s0), ORACLE_CUTOFF)
        f1 = fock.gaussian_to_fock(link.apply_channel(cp6, s1), ORACLE_CUTOFF)
        helstrom = fock.helstrom_oracle(f0, f1)
        xi = fock.chernoff_exponent_oracle(f0, f1)
        out = link.apply_channel(cp5, sym5)
        G, theta = self.qb.receivers.sfg_nulling_params(sym5, cp5)
        nulled = g.apply_two_mode_squeeze(out, 0, 1, G, theta)
        corr = abs(g.phase_sensitive_correlation(nulled, 0, 1))
        nu = min(float(np.min(g.symplectic_eigenvalues(out))),
                 float(np.min(g.symplectic_eigenvalues(nulled))))
        return helstrom, xi, corr, nu

    def verify(self, inputs, result) -> bool:
        return gates.oracle_pair_ok(*result)

    def gate(self) -> list[dict]:
        fock, g = self.qb.fock, self.qb.gaussian
        xi = fock.chernoff_exponent_oracle(
            fock.gaussian_to_fock(g.coherent(0.0), 24), fock.gaussian_to_fock(g.coherent(0.5), 24)
        )
        return [{"check": "coherent-pair chernoff", "xi": xi, "ok": gates.coherent_chernoff_ok(xi)}]


def make_workload(qb, workload: str, seed: int, workdir):
    if workload == "oracle":
        return OracleWorkload(qb, seed)
    return McWorkload(qb, workload, seed, workdir)


@dataclass
class LoopResult:
    durations: list[float]
    #: durations at the reference's nominal machine speed
    normalized: list[float]
    units: int
    failed: int
    next_index: int


def timed_loop(w, seconds: float, first_index: int, tracer=None) -> LoopResult:
    """Closed loop with one client: the next unit starts when the last returns.

    Runs at least one unit.  Each unit is preceded by the workload's speed
    reference.  Only `execute` is timed; building a unit's inputs and checking
    its output happen outside the timed region.  A unit that raises or fails
    its check counts as failed and its time still counts.
    """
    durations, normalized, units, failed = [], [], 0, 0
    index = first_index
    deadline = time.perf_counter() + seconds
    while index == first_index or time.perf_counter() < deadline:
        args = w.prepare(index)
        speed = w.reference.speed()
        if tracer is not None:
            tracer.unit = index
        ok = False
        t0 = time.perf_counter()
        try:
            result = w.execute(args)
        except Exception:
            durations.append(time.perf_counter() - t0)
            traceback.print_exc()
        else:
            durations.append(time.perf_counter() - t0)
            try:
                ok = w.verify(args, result)
            except (OSError, ValueError, KeyError, TypeError):
                traceback.print_exc()
        normalized.append(durations[-1] * speed)
        if ok:
            units += w.units_per_call
        else:
            failed += 1
        index += 1
    return LoopResult(durations, normalized, units, failed, index)


def tail(durations: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it, and its value
    (nearest rank).  Runs with 10 or fewer samples report the maximum as p100."""
    n = len(durations)
    ordered = sorted(durations)
    if n <= 10:
        return ordered[-1], 100
    pct = math.floor(100.0 * (n - 10) / n)
    rank = max(1, math.ceil(pct * n / 100.0))
    return ordered[rank - 1], pct


# ---------------------------------------------------------------------------
# traced-run extras
# ---------------------------------------------------------------------------


def seed_hash_us(qb, seed: int, n: int = 20_000, reps: int = 5) -> float:
    """Median per-call cost of montecarlo.derive_trial_seed in microseconds."""
    derive = qb.montecarlo.derive_trial_seed
    per_call = []
    for r in range(reps):
        t0 = time.perf_counter()
        for t in range(n):
            derive(seed, r, t)
        per_call.append((time.perf_counter() - t0) / n * 1e6)
    return statistics.median(per_call)


def run_with_threads(qb, experiments, threads: int) -> tuple[list[tuple[int, ...]], float]:
    """Per-point error counts of each experiment at QBC_THREADS=threads, and trials/s."""
    saved = os.environ.get("QBC_THREADS")
    os.environ["QBC_THREADS"] = str(threads)
    try:
        t0 = time.perf_counter()
        counts = [tuple(pt.errors for pt in qb.montecarlo.run_experiment(exp).points)
                  for _, exp in experiments]
        wall = time.perf_counter() - t0
    finally:
        if saved is None:
            del os.environ["QBC_THREADS"]
        else:
            os.environ["QBC_THREADS"] = saved
    trials = sum(len(exp.sweep) * exp.trials_per_point for _, exp in experiments)
    return counts, trials / wall


def point_setup_ms(qb, experiments, reps: int = 3) -> float:
    """Median run_experiment wall time per sweep point, in ms, at QBC_THREADS=1."""
    points = sum(len(exp.sweep) for _, exp in experiments)
    walls = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _, exp in experiments:
            qb.montecarlo.run_experiment(exp)
        walls.append((time.perf_counter() - t0) / points * 1e3)
    return statistics.median(walls)
