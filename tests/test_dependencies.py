"""The package needs only numpy and the standard library at run time."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "qbcsim").glob("*.py"))


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
