"""Census of src/: which functions `psdolab report all` never runs, and what
keeps each of them.

Runs `psdolab report all` in-process, under `sys.setprofile`, on the configs
of the verdict ledger, presets/ledger.json: the defaults, grid.n = 2048,
grid.n = 2048 with grid.l = 32, the four presets, the in-class amplitude (rho
0.5, m -0.75, delta 0.5), the exp_abs and random_log_bounded weights and the
triangle and constant multipliers.  Reports go to a temporary directory.  Then prints every
function defined in src/psdolab that no config ran, with what holds it:

  api           README's Public API list names it
  span X        a per-layer metric of BENCHMARK.json, or a span name that
                benchmarks/*.py reads, names it as X
  benchmarks    the code of benchmarks/*.py refers to it
  acceptance    the code of tests/test_acceptance.py refers to it
  demo NN       the code of demos/NN_*.py refers to it
  helper of F   the code of F, another listed function that is held, calls it

A function the list names, or a helper of one, is marked "*".  After the
list it prints the line counts of src/ and of grid.py's window layer, from
the rule above its `# Windows:` header to the last line before `class
BallFamily` (its decorators included in the class): all lines, and code
lines (non-blank, not comment-only, not in a docstring).  Last, it prints
how many of the ledger's rows have the status `disagree` and how many
`agree-by-accident`.  Usage: python3
tools/census.py.  Needs only the standard library and numpy.  Exits 1 when
a printed function is outside README's Public API list (neither named there
nor a helper of a named one), else 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import re
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "psdolab"

LEDGER = json.loads((ROOT / "presets" / "ledger.json").read_text())

# name -> preset path, or the overrides of the defaults, in ledger order
CONFIGS = {entry["name"]: ROOT / entry["config"] if "config" in entry else entry["overrides"]
           for entry in LEDGER}


def defined_functions() -> dict[tuple[str, int], tuple[str, str, set[str]]]:
    """(file, first line of the code object) -> (module, qualname, the names
    its code refers to) for every function and method in src/psdolab."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = (*scope, child.name)
                if not isinstance(child, ast.ClassDef):
                    # a decorated function's code starts at its first decorator
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    found[(str(path), first)] = (path.stem, ".".join(qual), code_names(child))
                visit(child, path, qual)
            else:
                visit(child, path, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, ())
    return found


def api_names() -> set[str]:
    """The module.name entries of README's Public API list (a name may be
    Class.method): each backticked dotted name of the section whose first
    part is a module of src/psdolab."""
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    return {name for name in re.findall(r"`(\w+(?:\.\w+)+)`", section)
            if name.split(".", 1)[0] in modules}


def code_names(tree) -> set[str]:
    """Every name a piece of code refers to, imported, read or called."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def run_configs() -> set[tuple[str, int]]:
    """(file, first line) of every Python function called during `report all`
    on each config."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            ran.add((code.co_filename, code.co_firstlineno))

    # the import runs too: some config parsers are built at module level
    sys.path.insert(0, str(ROOT / "src"))
    sys.setprofile(profile)
    try:
        from psdolab.cli import main
    finally:
        sys.setprofile(None)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for i, (label, config) in enumerate(CONFIGS.items()):
            path = config
            if isinstance(config, dict):
                path = tmp / f"config{i}.cfg"
                path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            argv = ["report", "all", "--config", str(path), "--out", str(tmp / "out")]
            with contextlib.redirect_stdout(io.StringIO()):
                sys.setprofile(profile)
                try:
                    code = main(argv)
                finally:
                    sys.setprofile(None)
            print(f"ran {label}: exit {code}", file=sys.stderr)
    return ran


def holders() -> tuple[set[str], dict[str, set[str]]]:
    """The benchmark's span names, and the code names of each other holder."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    spans = {metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]}
    users = {}
    for path in sorted((ROOT / "benchmarks").glob("*.py")):
        text = path.read_text()
        spans.update(re.findall(r"""spans\[["'](\w+\.\w+)["']\]""", text))
        users.setdefault("benchmarks", set()).update(code_names(ast.parse(text)))
    acceptance = ROOT / "tests" / "test_acceptance.py"
    users["acceptance"] = code_names(ast.parse(acceptance.read_text()))
    for path in sorted((ROOT / "demos").glob("*.py")):
        users[f"demo {path.name[:2]}"] = code_names(ast.parse(path.read_text()))
    return spans, users


def line_census(texts: dict[str, str]) -> dict[str, tuple[int, int]]:
    """(lines, code lines) of the source texts by file name together ("src")
    and of the window layer of the text named grid.py ("window layer").  A
    code line is non-blank, not comment-only and not in a docstring."""

    def counts(text: str, first: int = 1, last: int | None = None) -> tuple[int, int]:
        lines = text.splitlines()
        last = len(lines) if last is None else last
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                head = node.body[0] if node.body else None
                if (isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant)
                        and isinstance(head.value.value, str)):
                    docs.update(range(head.lineno, head.end_lineno + 1))
        code = [line for i, line in enumerate(lines[first - 1 : last], first)
                if i not in docs and line.strip() and not line.lstrip().startswith("#")]
        return last - first + 1, len(code)

    total = [counts(text) for text in texts.values()]
    grid = texts["grid.py"]
    # the 0-based index of the header line is the 1-based number of the rule above it
    rule = next(i for i, line in enumerate(grid.splitlines()) if line.startswith("# Windows:"))
    family = next(node for node in ast.parse(grid).body
                  if isinstance(node, ast.ClassDef) and node.name == "BallFamily")
    end = min([family.lineno] + [d.lineno for d in family.decorator_list]) - 1
    return {"src": (sum(n for n, _ in total), sum(c for _, c in total)),
            "window layer": counts(grid, rule, end)}


def main() -> int:
    functions = defined_functions()
    ran = run_configs()
    spans, users = holders()
    api = api_names()
    unrun = {key: value for key, value in functions.items() if key not in ran}
    held = {}
    for module, qual, _ in unrun.values():
        name = qual.rsplit(".", 1)[-1]
        why = ["api"] if f"{module}.{qual}" in api else []
        why += [f"span {module}.{name}"] if f"{module}.{name}" in spans else []
        why += [holder for holder, names in users.items() if name in names]
        held[(module, qual)] = why
    # a helper is held through a held caller among the listed functions, and
    # is inside the API list through a caller that is
    inside = {key for key, why in held.items() if "api" in why}
    changed = True
    while changed:
        changed = False
        for module, qual, _ in unrun.values():
            name, why = qual.rsplit(".", 1)[-1], held[(module, qual)]
            for caller_module, caller, names in unrun.values():
                tag = f"helper of {caller_module}.{caller}"
                if ((caller_module, caller) != (module, qual) and name in names
                        and held[(caller_module, caller)] and tag not in why):
                    why.append(tag)
                    changed = True
                if tag in why and (caller_module, caller) in inside:
                    changed |= (module, qual) not in inside
                    inside.add((module, qual))
    outside = len(held) - len(inside)
    print(f"{len(unrun)} of {len(functions)} functions in src/ never ran "
          f"over {len(CONFIGS)} configs; {outside} outside README's Public API list")
    for (module, qual), why in sorted(held.items()):
        mark = "*" if (module, qual) in inside else " "
        print(f"{mark} {module + '.' + qual:<40} {', '.join(why) or 'held by nothing'}")
    census = line_census({path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))})
    for part, (lines, code) in census.items():
        print(f"{part}: {lines} lines, {code} of them code")
    statuses = [row["status"] for entry in LEDGER for row in entry.get("targets", {}).values()]
    print(f"ledger: {statuses.count('disagree')} disagree rows, "
          f"{statuses.count('agree-by-accident')} agree-by-accident rows")
    return 0 if outside == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
