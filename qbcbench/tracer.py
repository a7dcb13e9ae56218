"""In-memory span tracer for the benchmark's traced run.

The tracer wraps qbcsim's public functions from the outside: each wrapped
function is replaced in every qbcsim module that binds it by name (for
example `qbcsim.montecarlo.sequential_click_test` as well as
`qbcsim.receivers.sequential_click_test`), so calls made inside the program
are seen too.  numpy.linalg.eigh and eigvalsh are replaced on numpy.linalg,
where fock.py looks them up.  Spans stay in memory and are written out when
the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

#: (qbcsim module, function) pairs wrapped in the traced run
TRACED = (
    ("cli", "main"),
    ("config", "load_config"),
    ("montecarlo", "run_experiment"),
    ("montecarlo", "analytic_bound_value"),
    ("montecarlo", "wilson_interval"),
    ("montecarlo", "fit_error_exponent"),
    ("montecarlo", "derive_trial_seed"),
    ("receivers", "pa_decision_grid"),
    ("receivers", "sfg_count_rate"),
    ("receivers", "sfg_null_symbol"),
    ("receivers", "sequential_click_test"),
    ("receivers", "sfg_nulling_params"),
    ("link", "apply_channel"),
    ("gaussian", "symplectic_eigenvalues"),
    ("fock", "gaussian_to_fock"),
    ("fock", "helstrom_oracle"),
    ("fock", "chernoff_exponent_oracle"),
)
NUMPY_TRACED = ("eigh", "eigvalsh")

#: every span name the tracer can record, in report order
SPAN_NAMES = tuple(f"{m}.{f}" for m, f in TRACED) + tuple(
    f"numpy.linalg.{f}" for f in NUMPY_TRACED
)

#: spans kept for the span file; aggregates count every call regardless
SPAN_CAP = 100_000

_RX_SHORT = {"heterodyne": "het", "pa": "pa", "sfg": "sfg"}


def experiment_label(cfg) -> str:
    """`<rx>-<alphabet>` label of an ExperimentConfig, e.g. `sfg-qpsk`."""
    return f"{_RX_SHORT[cfg.receiver.kind.value]}-{cfg.alphabet_kind.value}"


class Tracer:
    """Records (id, name, start_ns, end_ns, parent_id, unit) spans and per-name totals."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.child_ns: dict[str, int] = defaultdict(int)
        #: run_experiment self time and trial count per experiment label
        self.experiment_self_ns: dict[str, int] = defaultdict(int)
        self.experiment_trials: dict[str, int] = defaultdict(int)
        #: index of the workload unit (simulate call or oracle pair) in progress
        self.unit: int | None = None
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def self_ns(self, name: str) -> int:
        return self.total_ns[name] - self.child_ns[name]

    def _wrap(self, name: str, fn):
        is_experiment = name == "montecarlo.run_experiment"

        def traced(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [self._next_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.child_ns[name] += frame[1]
                if is_experiment:
                    cfg = args[0] if args else kwargs["cfg"]
                    label = experiment_label(cfg)
                    self.experiment_self_ns[label] += duration - frame[1]
                    self.experiment_trials[label] += len(cfg.sweep) * cfg.trials_per_point
                if len(self.spans) < SPAN_CAP:
                    self.spans.append(
                        (frame[0], name, start, end, parent[0] if parent else None, self.unit)
                    )
                else:
                    self.dropped += 1

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a qbcsim module binds it."""
        import numpy.linalg

        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qbcsim" or name.startswith("qbcsim."))
        ]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"qbcsim.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        for fn_name in NUMPY_TRACED:
            original = getattr(numpy.linalg, fn_name)
            self._patches.append((numpy.linalg, fn_name, original))
            setattr(numpy.linalg, fn_name, self._wrap(f"numpy.linalg.{fn_name}", original))

    def uninstall(self) -> None:
        """Put back every original function."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def write_spans(self, path) -> None:
        """One JSON array per line: [id, name, start_ns, end_ns, parent_id, unit]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
