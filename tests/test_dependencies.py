"""The package needs only numpy and the standard library at run time, its
modules import each other at module level and without a cycle, the channel
has one path (receivers builds no Gaussian state), it keeps every function
the benchmark's tracer binds by name, it looks up numpy's eigensolvers on
numpy.linalg at each call, where that tracer counts them, and every
definition no package code uses is one of a listed few, each with a reason."""

import ast
import importlib.util
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

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


def test_channel_has_one_path():
    """The channel is `link.return_idler_moments`: receivers imports nothing
    from gaussian, and link takes only the state type it fills in."""
    trees = {name: ast.parse((ROOT / "src" / "qbcsim" / f"{name}.py").read_text())
             for name in ("link", "receivers")}
    assert _names_from(trees["receivers"], "gaussian") == set()
    assert _names_from(trees["link"], "gaussian") == {"GaussianState"}


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
    entry points sfg_nulling_params and the three fock functions, and only
    the bench uses montecarlo.derive_trial_seed."""
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


#: module-level functions and classes of qbcsim that no package code uses,
#: grouped by why they stay
UNUSED_IN_PACKAGE = {
    "Gaussian engine and Fock oracles, the state-level model that the Chernoff "
    "ceiling, idler-loss and two-tap eavesdropper work builds on": {
        "gaussian.apply_beam_splitter", "gaussian.apply_two_mode_squeeze", "gaussian.coherent",
        "gaussian.mean_photon_number", "gaussian.partial_trace", "gaussian.symplectic_eigenvalues",
        "gaussian.tensor", "gaussian.tmss", "gaussian.vacuum",
        "fock.gaussian_to_fock", "fock.helstrom_oracle", "fock.chernoff_exponent_oracle",
    },
    "bound by the bench's tracer or gates": {
        "link.apply_channel", "link.make_alphabet_bpsk", "link.make_alphabet_qpsk",
        "montecarlo.derive_trial_seed", "montecarlo.run_experiment", "receivers.sfg_nulling_params",
    },
    "pinned by an acceptance criterion": {
        "analytics.exponent_gain_db", "link.make_alphabet_pam", "receivers.sfg_bookkeeping",
    },
    "test reference": {
        "montecarlo._count_point_errors", "gaussian.heterodyne_samples", "link.apply_channel_classical",
    },
}


def _unused_definitions(sources: dict[str, str]) -> set[str]:
    """`module.name` of each module-level function or class that no module
    refers to, by name or attribute, outside the name's own definition.  The
    re-exports of `__init__` are not uses."""
    defined, used = set(), set()
    for module, text in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(text).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.add((module, own))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return {f"{module}.{name}" for module, name in defined if name not in used}


def test_unused_definitions_are_listed():
    """A function or class that no package code calls is either listed with
    its reason or deleted; a listed name that gains a caller or goes leaves
    the list too."""
    found = _unused_definitions({path.stem: path.read_text() for path in SOURCES})
    listed = set().union(*UNUSED_IN_PACKAGE.values())
    assert sum(map(len, UNUSED_IN_PACKAGE.values())) == len(listed), "a name is listed twice"
    assert not found - listed, f"unused in the package and not listed: {sorted(found - listed)}"
    assert not listed - found, f"listed but used in the package or gone: {sorted(listed - found)}"


def test_guard_catches_an_unused_definition():
    sources = {
        "__init__": "from .a import dead, live, Kept\n",
        "a": "def live():\n    return helper()\n\n\ndef helper():\n    return 1\n\n\n"
             "def dead(n):\n    return dead(n - 1) if n else 0\n\n\nclass Kept:\n    pass\n\n\n"
             "class Gone:\n    def make(self):\n        return Gone()\n",
        "b": "from . import a\n\n\ndef run():\n    return a.live(), a.Kept\n",
    }
    assert _unused_definitions(sources) == {"a.dead", "a.Gone", "b.run"}
