"""The package's top-level names each have a user that is not a test."""

import ast
import json
import pathlib

from psdolab.experiments import VERIFY_TARGETS

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdolab"


def _code_names(path: pathlib.Path) -> set[str]:
    """Every name a Python file's code refers to, imported, read or called
    (comments and docstrings do not count)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_package_export_has_a_user():
    """Each name __init__.py re-exports is a verify runner, is used by the code
    of a psdolab module other than its own, a demo or a benchmark script, or
    is a span that BENCHMARK.json's per-layer metrics read."""
    init = PACKAGE / "__init__.py"
    exports = {alias.asname or alias.name: node.module
               for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    runners = {fn.__name__ for fn in VERIFY_TARGETS.values()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]}
    users = {path: _code_names(path)
             for folder in (PACKAGE, ROOT / "demos", ROOT / "benchmarks")
             for path in folder.glob("*.py") if path != init}
    unused = sorted(
        name for name, module in exports.items()
        if name not in runners and f"{module}.{name}" not in spans
        and not any(name in names for path, names in users.items()
                    if not (path.parent == PACKAGE and path.stem == module))
    )
    assert unused == []
