"""The package needs only numpy and the standard library at run time, its
modules import each other at module level and without a cycle, the channel
has one path (receivers builds no Gaussian state, and only the heterodyne
rule reads constellation points), it keeps every function
the benchmark's tracer binds by name and every name its workloads and
gates call, it looks up numpy's eigensolvers on numpy.linalg at each call,
where that tracer counts them, its `__init__` re-exports nothing, and every
definition no package code uses is one of a listed few, each with a reason.
Its value records are NamedTuples, whose classes are built without generating
code, apart from a listed few dataclasses, each with a reason, and no record
takes an assignment; the records guard reads every module of the package."""

import ast
import dataclasses
import importlib.util
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path
from types import SimpleNamespace

import pytest

from qbcsim import analytics, config, fock, gaussian, link, montecarlo, receivers

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "qbcsim").glob("*.py"))


def _third_party_imports(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [n for n in names if n.split(".")[0] not in sys.stdlib_module_names | {"numpy"}]


def test_src_imports_only_numpy_and_stdlib():
    assert SOURCES
    found = {
        path.name: bad
        for path in SOURCES
        if (bad := _third_party_imports(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"imports outside numpy and the standard library: {found}"


def test_guard_catches_a_third_party_import():
    tree = ast.parse("import scipy.linalg\nfrom mpmath import mp\nfrom . import fock\nimport json")
    assert _third_party_imports(tree) == ["scipy.linalg", "mpmath"]


def _package_imports(tree: ast.Module) -> tuple[set[str], list[int]]:
    """The package modules a module imports (relative imports), and the lines
    of those imports that sit below module level."""
    top = {id(node) for node in tree.body}
    modules, nested = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                modules.add(node.module.split(".")[0])
            else:
                modules |= {alias.name for alias in node.names}
            if id(node) not in top:
                nested.append(node.lineno)
    return modules, nested


def _import_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the module import graph, or None if it has none."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return None


def test_src_imports_are_module_level_and_acyclic():
    graph, nested = {}, {}
    for path in SOURCES:
        graph[path.stem], lines = _package_imports(ast.parse(path.read_text(), str(path)))
        if lines:
            nested[path.name] = lines
    assert not nested, f"package imports inside a function or block (file: lines): {nested}"
    cycle = _import_cycle(graph)
    assert cycle is None, f"modules import each other in a cycle: {' -> '.join(cycle)}"


def _names_from(tree: ast.Module, module: str) -> set[str]:
    """Names a module takes from a package module by relative import; '*'
    for a bare `from . import module`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module and node.module.split(".")[0] == module:
                names |= {alias.name for alias in node.names}
            elif not node.module and any(alias.name == module for alias in node.names):
                names.add("*")
    return names


def _attribute_reads(tree: ast.Module, attr: str) -> list[tuple[str, ...]]:
    """Where a module reads `.attr`: for each read, the names of the functions
    it sits in, then the test of each `if` around it, as `else: <test>` in
    the else branch (an `elif` is an `if` in the else branch)."""
    found = []

    def visit(node: ast.AST, where: tuple[str, ...]) -> None:
        if isinstance(node, ast.Attribute) and node.attr == attr and isinstance(node.ctx, ast.Load):
            found.append(where)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where += (node.name,)
        if isinstance(node, ast.If):
            test = ast.unparse(node.test)
            visit(node.test, where)
            for child in node.body:
                visit(child, where + (test,))
            for child in node.orelse:
                visit(child, where + (f"else: {test}",))
            return
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, ())
    return found


#: the one place receivers reads constellation points: the heterodyne rule's
#: nearest-point constellation; every SFG rate comes from the moments
HETERODYNE_POINTS = ("point_decider", "spec.kind is not ReceiverKind.SFG",
                     "spec.kind is ReceiverKind.HETERODYNE")


def test_channel_has_one_path():
    """The channel is `link.return_idler_moments`: receivers imports nothing
    from gaussian, link takes only the state type it fills in, and receivers
    reads `complex_point` only where the heterodyne rule builds its points,
    so no SFG function or SFG arm of `point_decider` reads a constellation."""
    trees = {name: ast.parse((ROOT / "src" / "qbcsim" / f"{name}.py").read_text())
             for name in ("link", "receivers")}
    assert _names_from(trees["receivers"], "gaussian") == set()
    assert _names_from(trees["link"], "gaussian") == {"GaussianState"}
    assert _attribute_reads(trees["receivers"], "complex_point") == [HETERODYNE_POINTS]


def test_guard_catches_a_constellation_read_on_the_sfg_path():
    tree = ast.parse(
        "def sfg_rate(cp, s, h):\n"
        "    return abs(s.complex_point() - h.complex_point())\n\n\n"
        "def point_decider(cp, a, spec):\n"
        "    if spec.kind is not ReceiverKind.SFG:\n"
        "        if spec.kind is ReceiverKind.HETERODYNE:\n"
        "            points = [s.complex_point() for s in a.symbols]\n"
        "    elif a.kind is AlphabetKind.QPSK:\n"
        "        points = [s.complex_point() for s in a.symbols]\n"
        "    else:\n"
        "        def decide(i, u, z):\n"
        "            return a.symbols[0].complex_point\n"
        "    s.complex_point = None\n"
    )
    sfg = ("point_decider", "else: spec.kind is not ReceiverKind.SFG")
    assert _attribute_reads(tree, "complex_point") == [
        ("sfg_rate",), ("sfg_rate",), HETERODYNE_POINTS,
        (*sfg, "a.kind is AlphabetKind.QPSK"),
        (*sfg, "else: a.kind is AlphabetKind.QPSK", "decide"),
    ]


def test_guard_catches_names_taken_from_a_module():
    tree = ast.parse("from .gaussian import GaussianState, tmss\nfrom . import gaussian, fock\n"
                     "from .link import Symbol\nimport gaussian\n")
    assert _names_from(tree, "gaussian") == {"GaussianState", "tmss", "*"}
    assert _names_from(tree, "link") == {"Symbol"}
    assert _names_from(tree, "fock") == {"*"}


def test_guard_catches_a_nested_import_and_a_cycle():
    sources = {
        "a": "from __future__ import annotations\nfrom .b import f\nfrom . import c\n",
        "b": "import math\n\n\ndef g():\n    from .a import h\n",
        "c": "import numpy as np\n",
    }
    found = {name: _package_imports(ast.parse(text)) for name, text in sources.items()}
    assert found == {"a": ({"b", "c"}, []), "b": ({"a"}, [5]), "c": (set(), [])}
    graph = {name: modules for name, (modules, _) in found.items()}
    cycle = _import_cycle(graph)
    assert cycle[0] == cycle[-1] and set(cycle) == {"a", "b"}
    graph["b"] = set()
    assert _import_cycle(graph) is None


def _is_linalg_function(node: ast.expr) -> bool:
    """`<name>.linalg.<function>`, such as np.linalg.eigh."""
    return isinstance(node, ast.Attribute) and (
        isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
    )


def _linalg_bindings(tree: ast.Module) -> list[int]:
    """Lines that bind a numpy.linalg function to a name: any `from
    numpy.linalg import ...`, and a module-level assignment whose value is
    such a function or a tuple or list of them."""
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "numpy.linalg"
    ]
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            values = node.value.elts if isinstance(node.value, (ast.Tuple, ast.List)) else [node.value]
            if any(_is_linalg_function(v) for v in values):
                lines.append(node.lineno)
    return sorted(lines)


def test_src_looks_up_linalg_functions_at_each_call():
    """The bench tracer replaces numpy.linalg.eigh and eigvalsh on numpy.linalg;
    a name bound to the original beforehand would make the traced eigensolve
    counts read 0."""
    found = {
        path.name: lines
        for path in SOURCES
        if (lines := _linalg_bindings(ast.parse(path.read_text(), str(path))))
    }
    assert not found, f"numpy.linalg functions bound by name (file: lines): {found}"


def test_guard_catches_a_bound_linalg_function():
    tree = ast.parse(
        "import numpy as np\n"
        "from numpy.linalg import eigh\n"
        "solve = np.linalg.eigvalsh\n"
        "pair: tuple = (numpy.linalg.eigh, np.linalg.eigvalsh)\n"
        "scale = np.linalg.norm(np.ones(2))\n"
        "linalg = np.linalg\n"
        "\n"
        "def f(m):\n"
        "    from numpy.linalg import eigvalsh as ev\n"
        "    local = np.linalg.eigh\n"
        "    return np.linalg.eigh(m), linalg.eigvalsh(m)\n"
    )
    assert _linalg_bindings(tree) == [2, 3, 4, 9]


def test_bench_traced_functions_exist():
    """qbcbench/tracer.py wraps each (module, function) in TRACED by name; the
    traced bench run breaks if one goes.  No qbcsim code calls the public
    entry points sfg_count_rate, sfg_nulling_params and the three fock
    functions, and only the bench uses montecarlo.derive_trial_seed."""
    spec = importlib.util.spec_from_file_location("qbcbench_tracer", ROOT / "qbcbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"qbcsim.{module}.{name}"
        for module, name in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"qbcsim.{module}"), name, None))
    ]
    assert not missing, f"functions the bench tracer binds are gone: {missing}"


@pytest.fixture
def workloads(monkeypatch):
    """qbcbench/workloads.py, imported with qbcbench/ on sys.path; it and the
    `gates` module it imports leave sys.modules afterwards."""
    monkeypatch.syspath_prepend(str(ROOT / "qbcbench"))
    yield importlib.import_module("workloads")
    for name in ("gates", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["mc-binary", "mc-qpsk", "oracle"])
def test_bench_workload_runs_and_passes_its_gates(workloads, name, tmp_path):
    """One unit of each bench workload, on the qbcsim modules already
    imported, runs and passes every gate: a name that the workloads or gates
    call (ChannelParams, the alphabets, the receivers' rates, the bounds,
    load_config, cli.main, the gaussian and fock calls) is still there."""
    qb = SimpleNamespace(**{m: importlib.import_module(f"qbcsim.{m}") for m in workloads.QB_MODULES})
    w = workloads.make_workload(qb, name, 3, tmp_path)
    inputs = w.prepare(0)
    assert w.verify(inputs, w.execute(inputs))
    checks = w.gate()
    assert checks and all(check["ok"] for check in checks), checks


def test_package_init_imports_nothing():
    """Each name is imported from the module that defines it: `__init__`
    keeps no second list of the modules' names."""
    tree = ast.parse((ROOT / "src" / "qbcsim" / "__init__.py").read_text())
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not lines, f"imports in qbcsim/__init__.py (lines): {lines}"


#: module-level functions and classes of qbcsim, and methods and properties
#: of its classes, that no package code uses, grouped by why they stay
UNUSED_IN_PACKAGE = {
    "Gaussian engine and Fock oracles, the state-level model that the Chernoff "
    "ceiling, idler-loss and two-tap eavesdropper work builds on": {
        "gaussian.apply_beam_splitter", "gaussian.apply_two_mode_squeeze", "gaussian.coherent",
        "gaussian.mean_photon_number", "gaussian.partial_trace", "gaussian.symplectic_eigenvalues",
        "gaussian.tensor", "gaussian.thermal", "gaussian.tmss", "gaussian.vacuum",
        "fock.gaussian_to_fock", "fock.helstrom_oracle", "fock.chernoff_exponent_oracle",
    },
    "bound by the bench's tracer or gates": {
        "link.apply_channel", "link.make_alphabet_bpsk", "link.make_alphabet_qpsk",
        "montecarlo.derive_trial_seed", "montecarlo.run_experiment", "receivers.sfg_count_rate",
        "receivers.sfg_nulling_params",
    },
    "pinned by an acceptance criterion": {
        "analytics.exponent_gain_db", "link.make_alphabet_pam", "receivers.sfg_bookkeeping",
    },
    "test reference": {
        "gaussian.heterodyne_samples", "link.apply_channel_classical",
    },
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _bound_names(function: ast.AST) -> set[str]:
    """The names a function binds itself: its arguments, and the assignment
    targets and nested definitions of its body outside nested functions."""
    args = function.args
    bound = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg)
             if a is not None}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        if isinstance(node, _DEFINITIONS):
            bound.add(node.name)
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            todo += ast.iter_child_nodes(node)
    return bound


def _reads(node: ast.AST, local: frozenset, owners: tuple, found: list) -> None:
    """Appends (name, owners) for each name or attribute read under `node`
    that is not a function-local name; owners are the definitions the read
    sits in."""
    if isinstance(node, _FUNCTIONS):
        local = local | _bound_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        found.append((node.id, owners))
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.append((node.attr, owners))
    for child in ast.iter_child_nodes(node):
        _reads(child, local, owners, found)


def _unused_definitions(sources: dict[str, str]) -> set[str]:
    """`module.name` of each module-level function or class, and
    `module.Class.name` of each method or property of such a class, that no
    module reads outside the definition itself: a function or class by name
    or attribute, a method by attribute.  A name a function binds itself (an
    argument or an assignment target) is not a read of a module-level name.
    Dunder methods, which Python calls, are not listed."""
    defined, found = {}, []
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, _DEFINITIONS):
                _reads(node, frozenset(), (), found)
                continue
            own = f"{module}.{node.name}"
            defined[own] = node.name
            if not isinstance(node, ast.ClassDef):
                _reads(node, frozenset(), (own,), found)
                continue
            for sub in ast.iter_child_nodes(node):
                owners = (own,)
                if isinstance(sub, _DEFINITIONS):
                    owners += (f"{own}.{sub.name}",)
                    if not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defined[owners[1]] = sub.name
                _reads(sub, frozenset(), owners, found)
    readers = {}  # name -> the owners of each read of it
    for name, owners in found:
        readers.setdefault(name, []).append(owners)
    return {qual for qual, name in defined.items()
            if not any(qual not in owners for owners in readers.get(name, ()))}


def test_unused_definitions_are_listed():
    """A function, class, method or property that no package code uses is
    either listed with its reason or deleted; a listed name that gains a
    caller or goes leaves the list too."""
    found = _unused_definitions({path.stem: path.read_text() for path in SOURCES})
    listed = set().union(*UNUSED_IN_PACKAGE.values())
    assert sum(map(len, UNUSED_IN_PACKAGE.values())) == len(listed), "a name is listed twice"
    assert not found - listed, f"unused in the package and not listed: {sorted(found - listed)}"
    assert not listed - found, f"listed but used in the package or gone: {sorted(listed - found)}"


def test_guard_catches_an_unused_definition():
    """Recursion is no use; an argument or local that shares a module-level
    name is no use of it; a method is used by an attribute read outside its
    own body, and dunder methods are exempt."""
    sources = {
        "__init__": "from .a import dead, live, Kept\n",
        "a": "def live():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
             "def dead(n):\n    return dead(n - 1) if n else 0\n\n\nclass Kept:\n"
             "    def __init__(self):\n        self.kept = 1\n\n"
             "    @property\n    def size(self):\n        return self.count()\n\n"
             "    def count(self):\n        return 2\n\n"
             "    def loop(self):\n        return self.loop()\n\n\n"
             "class Gone:\n    def make(self):\n        return Gone()\n\n\n"
             "def shadowed():\n    return 3\n\n\ndef hidden():\n    return 4\n",
        "b": "from . import a\n\n\ndef run(hidden):\n    shadowed = hidden\n"
             "    return a.live(), a.Kept().size, shadowed, [hidden for hidden in range(2)]\n",
    }
    assert _unused_definitions(sources) == {
        "a.dead", "a.Kept.loop", "a.Gone", "a.Gone.make", "a.shadowed", "a.hidden", "b.run",
    }


#: the package's dataclasses, each with why it is not a NamedTuple
DATACLASSES = {
    "montecarlo.ExperimentConfig": "its rules and bounds are derived fields, and tests call "
                                   "dataclasses.replace, which re-derives them where "
                                   "NamedTuple._replace would copy them",
    "link.Alphabet": "len(a) is its symbol count, where a tuple's length is its field count",
}


def _dataclasses(sources: dict[str, str]) -> set[str]:
    """`module.Class` of each class decorated with dataclass, bare or called,
    by name or as an attribute."""
    found = set()
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
                    found.add(f"{module}.{node.name}")
    return found


def test_dataclasses_are_listed():
    """A dataclass generates its methods with exec at import; every other
    value record is a NamedTuple, so a new dataclass needs a listed reason."""
    found = _dataclasses({path.stem: path.read_text() for path in SOURCES})
    assert found == set(DATACLASSES), (
        f"unlisted: {sorted(found - set(DATACLASSES))}, gone: {sorted(set(DATACLASSES) - found)}"
    )


def test_guard_catches_a_dataclass():
    sources = {
        "a": "import dataclasses\nfrom dataclasses import dataclass\n\n\n@dataclass\nclass A:\n"
             "    x: int\n\n\n@dataclass(frozen=True)\nclass B:\n    x: int\n\n\n"
             "@dataclasses.dataclass(eq=False)\nclass C:\n    x: int\n\n\n"
             "@functools.total_ordering\nclass D:\n    pass\n\n\nclass E(NamedTuple):\n    x: int\n",
    }
    assert _dataclasses(sources) == {"a.A", "a.B", "a.C"}


def _records() -> dict[str, object]:
    """One instance of each value record and dataclass of the package."""
    cp = link.ChannelParams(0.01, 0.0, 100.0, 1000, 0.01)
    spec = receivers.ReceiverSpec(receivers.ReceiverKind.SFG)
    point = montecarlo.BerCurvePoint(0.5, 0.1, 0.05, 0.2, 0.3, 1000, 100)
    return {
        "link.Symbol": link.Symbol(0.1, 0.0),
        "link.Alphabet": link.nominal_alphabet(link.AlphabetKind.BPSK, 0.01),
        "link.ChannelParams": cp,
        "link.LinkBudget": link.LinkBudget(*[1.0] * 9),
        "analytics.EpBound": analytics.EpBound(0.5, 0.25),
        "gaussian.GaussianState": gaussian.vacuum(1),
        "receivers.ReceiverSpec": spec,
        "receivers.SfgBookkeeping": receivers.sfg_bookkeeping(cp, 0.04, spec),
        "montecarlo.BerCurvePoint": point,
        "montecarlo.BerCurve": montecarlo.BerCurve((point,)),
        "montecarlo.ExperimentConfig": montecarlo.ExperimentConfig(
            link.AlphabetKind.BPSK, spec, 0.01, 100.0, 10**6, (0.5,), 1000, 7),
        "config.RunConfig": config.RunConfig((), Path("out"), "csv"),
        "fock.FockOperator": fock.gaussian_to_fock(gaussian.vacuum(1), 2),
    }


def _assignments_refused(record) -> bool:
    """Whether assigning a field of `record`, and a new attribute, both raise AttributeError."""
    field = record._fields[0] if isinstance(record, tuple) else dataclasses.fields(record)[0].name
    for name in (field, "extra"):
        try:
            setattr(record, name, None)
        except AttributeError:
            continue
        return False
    return True


def test_records_are_immutable():
    """Every public NamedTuple and dataclass of every module of the package
    is in `_records`, and none takes an assignment, to a field or to a new
    attribute."""
    modules = [importlib.import_module(f"qbcsim.{path.stem}") for path in SOURCES
               if path.stem != "__init__"]
    defined = {
        f"{module.__name__.split('.')[1]}.{name}"
        for module in modules
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module.__name__ and not name.startswith("_")
        and (hasattr(cls, "_fields") or dataclasses.is_dataclass(cls))
    }
    records = _records()
    assert set(records) == defined
    mutable = [name for name, record in records.items() if not _assignments_refused(record)]
    assert not mutable, f"records that take an assignment: {mutable}"


def test_guard_catches_a_record_without_slots():
    """A record subclass without `__slots__ = ()` has a __dict__ for new attributes."""
    loose = type("Loose", (link.Symbol,), {})
    assert not _assignments_refused(loose(0.1, 0.0))
    assert _assignments_refused(link.Symbol(0.1, 0.0))
