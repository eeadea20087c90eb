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


_ROW_FUNCTIONS = {"kernel_row", "kernel_column", "adjoint_kernel_row"}
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
          ast.GeneratorExp)


def _looped_calls(names, skip=None):
    """Calls of the named functions inside a loop or a comprehension of a
    psdolab module other than skip (a for loop's iterable runs once)."""
    looped = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == skip:
            continue
        for loop in ast.walk(ast.parse(path.read_text())):
            if not isinstance(loop, _LOOPS):
                continue
            parts = loop.body + loop.orelse if isinstance(loop, (ast.For, ast.AsyncFor)) else [loop]
            for node in (node for part in parts for node in ast.walk(part)):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                    if name in names:
                        looped.append(f"{path.name}:{node.lineno} {name}")
    return looped


def test_kernel_rows_are_not_called_point_by_point():
    """Kernel rows take all their points in one call: outside operators.py,
    no psdolab module calls kernel_row, kernel_column or adjoint_kernel_row
    inside a loop or a comprehension."""
    assert _looped_calls(_ROW_FUNCTIONS, skip="operators") == []


def test_difference_tables_are_not_called_annulus_by_annulus():
    """A difference table takes all its annuli in one call, so its y and ybar
    phase rows are built once: no psdolab module calls _pair_differences
    inside a loop or a comprehension."""
    assert _looped_calls({"_pair_differences"}) == []


def test_maximal_builds_no_sampled_function_per_row():
    """The maximal checks take their rows as stacks: maximal.py constructs
    no SampledFunction inside a loop or a comprehension."""
    assert [call for call in _looped_calls({"SampledFunction"})
            if call.startswith("maximal.py:")] == []


def test_no_module_calls_a_ufunc_at():
    """No psdolab module calls a ufunc's unbuffered .at (np.maximum.at and
    the like): a pointwise max over the covering balls reads the cover's
    covering table, and every other scatter is a plain gather or reduction."""
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "at"]
    assert calls == []


def _calls_in_functions(path: pathlib.Path, name: str) -> list[str]:
    """Each call of the named function or method in a module, as the dotted
    path of the functions that enclose it ("" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def test_the_ratio_corpus_is_built_in_one_place():
    """theorem13a and theorem13b share one corpus per config: no psdolab
    module builds the config's corpus outside experiments._ratio_corpus."""
    calls = [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
             for scope in _calls_in_functions(path, "make_corpus")]
    assert calls == ["experiments._ratio_corpus"]


def test_the_class_probe_evaluates_through_its_memo():
    """estimate_class_membership calls the symbol's evaluator only inside its
    memo, a function nested in it, so each stencil point is evaluated once."""
    calls = _calls_in_functions(PACKAGE / "symbols.py", "evaluator")
    probe = [scope for scope in calls if scope.startswith("estimate_class_membership")]
    assert probe == ["estimate_class_membership.values"]
