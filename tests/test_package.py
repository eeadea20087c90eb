"""The package's top-level names each have a user."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdolab"


def test_every_package_export_has_a_user():
    """Each name __init__.py re-exports is named by a psdolab module other than
    its own, a test, a demo or the benchmark."""
    init = PACKAGE / "__init__.py"
    exports = {alias.asname or alias.name: node.module
               for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {path: path.read_text()
               for folder in (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "benchmarks")
               for path in folder.glob("*.py") if path != init}
    unused = sorted(
        name for name, module in exports.items()
        if not any(re.search(rf"\b{name}\b", text) for path, text in sources.items()
                   if not (path.parent == PACKAGE and path.stem == module))
    )
    assert unused == []
