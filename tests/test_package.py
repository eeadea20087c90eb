"""The package's top-level names each have a user that is not a test."""

import ast
import importlib.util
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


def _public_api() -> set[str]:
    """README's Public API list, read by tools/census.py's parser."""
    spec = importlib.util.spec_from_file_location("census", ROOT / "tools" / "census.py")
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census.api_names()


def _exports() -> dict[str, list[str]]:
    """module -> the names of its __all__, for every psdolab module but __init__."""
    return {path.stem: ast.literal_eval(node.value)
            for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.Assign)
            and any(getattr(target, "id", None) == "__all__" for target in node.targets)}


def test_every_all_name_is_used_elsewhere_or_listed():
    """A module's __all__ holds only names that the code of another psdolab
    module (not __init__.py) uses or that README's Public API list names; and
    every listed module.name exists, with its module's __all__ holding it."""
    api, exports = _public_api(), _exports()
    users = {path.stem: _code_names(path) for path in PACKAGE.glob("*.py")
             if path.stem != "__init__"}
    listed = {".".join(entry.split(".")[:2]) for entry in api}
    unheld = sorted(f"{module}.{name}" for module, names in exports.items() for name in names
                    if f"{module}.{name}" not in listed
                    and not any(name in code for user, code in users.items() if user != module))
    assert unheld == []
    missing = []
    for entry in sorted(api):
        module, *path = entry.split(".")
        value = importlib.import_module(f"psdolab.{module}")
        for attr in path:
            value = getattr(value, attr, None)
        if value is None or path[0] not in exports.get(module, ()):
            missing.append(entry)
    assert len(api) > 40 and missing == []


def test_the_package_reexports_only_all_names():
    """__init__.py re-exports from each module only names of its __all__."""
    exports = _exports()
    stray = [f"{node.module}.{alias.name}"
             for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
             if isinstance(node, ast.ImportFrom) for alias in node.names
             if alias.name not in exports[node.module]]
    assert stray == []


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
                if _called(node) in names:
                    looped.append(f"{path.name}:{node.lineno} {_called(node)}")
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


# numpy routines that hand their arithmetic to BLAS or LAPACK
_BLAS_ROUTINES = {"dot", "vdot", "inner", "matmul", "tensordot", "polyfit", "lstsq", "cov",
                  "corrcoef"}


def _reaches_blas(node) -> bool:
    """A matrix product, a call of a BLAS-backed routine, anything under
    linalg, or an einsum with `optimize`, whose path can be tensordot."""
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
        return True
    if _called(node) in _BLAS_ROUTINES:
        return True
    if _called(node) == "einsum" and any(kw.arg == "optimize" for kw in node.keywords):
        return True
    if isinstance(node, ast.Attribute) and node.attr == "linalg":
        return True
    if isinstance(node, ast.ImportFrom):
        return "linalg" in (node.module or "") or any(a.name == "linalg" for a in node.names)
    return isinstance(node, ast.Import) and any("linalg" in a.name for a in node.names)


def test_no_module_reaches_blas_or_lapack():
    """No psdolab module calls a BLAS or LAPACK routine, so no report byte
    depends on which BLAS library, core type or thread count runs: every
    reduction is one of numpy's own loops, in an order the program fixes."""
    uses = [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if _reaches_blas(node)]
    assert uses == []


def _nodes_in_functions(path: pathlib.Path, match) -> list[str]:
    """Each node of a module that match(node) accepts, as the dotted path of
    the functions that enclose it ("" at module level)."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (*scope, child.name))
                continue
            if match(child):
                found.append(".".join(scope))
            visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return found


def _called(node) -> str | None:
    """The name a call calls, a function's or a method's."""
    if not isinstance(node, ast.Call):
        return None
    return node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)


def _calls_in_functions(path: pathlib.Path, name: str) -> list[str]:
    """Each call of the named function or method in a module, as the dotted
    path of the functions that enclose it ("" at module level)."""
    return _nodes_in_functions(path, lambda node: _called(node) == name)


def _scoped_calls(name: str, files=None) -> list[str]:
    """module.scope of every call of the named function in src/ (or in the
    named modules only)."""
    paths = sorted(PACKAGE.glob("*.py")) if files is None else [PACKAGE / f for f in files]
    return [f"{path.stem}.{scope}" for path in paths
            for scope in _calls_in_functions(path, name)]


def test_the_ratio_corpus_is_built_in_one_place():
    """theorem13a and theorem13b share one corpus per config: no psdolab
    module builds the config's corpus outside experiments._ratio_corpus."""
    assert _scoped_calls("make_corpus") == ["experiments._ratio_corpus"]


def test_the_hypothesis_gate_runs_in_one_place():
    """The hypothesis gate runs once, inside load_config, so every config a
    runner receives has passed it and no runner checks it again."""
    assert _scoped_calls("check_hypotheses") == ["config.load_config"]


def test_the_class_probe_evaluates_through_its_memo():
    """estimate_class_membership calls the symbol's evaluator only inside its
    memo, a function nested in it, so each stencil point is evaluated once."""
    calls = _calls_in_functions(PACKAGE / "symbols.py", "evaluator")
    probe = [scope for scope in calls if scope.startswith("estimate_class_membership")]
    assert probe == ["estimate_class_membership.values"]


def _exp_of_gaussian_quotient(node) -> bool:
    """Whether node calls exp on a quotient whose denominator has a factor 2,
    the 2 w^2 of a Gaussian envelope."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "exp"):
        return False
    for div in ast.walk(node.args[0]):
        if isinstance(div, ast.BinOp) and isinstance(div.op, ast.Div):
            if any(isinstance(c, ast.Constant) and c.value == 2 for c in ast.walk(div.right)):
                return True
    return False


def test_each_shared_formula_has_one_implementation():
    """The doubled prefix sum (a cumsum of samples; the cover's multiplicity
    and covering table take integer cumsums of counts, and the class probe
    one of shell sizes), the Gaussian packet's envelope and the seeded
    cosine sum are each built in one function."""
    assert _scoped_calls("cumsum") == [
        "grid._doubled_prefix",
        "grid._depth",
        "grid._covering",
        "symbols.estimate_class_membership",
    ]
    envelopes = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in (n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)):
            if any(_exp_of_gaussian_quotient(node) for node in ast.walk(fn)):
                envelopes.append(f"{path.stem}.{fn.name}")
    assert envelopes == ["corpus.gaussian_corpus"]
    assert _scoped_calls("cos", ["corpus.py", "function_classes.py"]) == ["corpus._cosine_sum"]


def _homes(match) -> list[str]:
    """module.scope of every node in src/ that match(node) accepts."""
    return [f"{path.stem}.{scope}" for path in sorted(PACKAGE.glob("*.py"))
            for scope in _nodes_in_functions(path, match)]


def _strings(node) -> list[str]:
    """The string constants under node, f-string parts included."""
    return [n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)]


def _raises(fragment: str):
    """A matcher of the raise statements whose message holds fragment."""
    return lambda node: isinstance(node, ast.Raise) and any(
        fragment in text for text in _strings(node))


def _passes(text: str):
    """A matcher of the calls that take the string text as an argument."""
    return lambda node: isinstance(node, ast.Call) and any(
        getattr(arg, "value", None) == text for arg in node.args)


def _inside_the_box(node) -> bool:
    """A comparison of a sum holding abs() with the box's half length: |c| + r < L."""
    if not isinstance(node, ast.Compare):
        return False
    sides = [node.left, *node.comparators]
    return (any(isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add)
                and any(_called(n) == "abs" for n in ast.walk(side)) for side in sides)
            and any(getattr(n, "attr", None) == "half_length"
                    for side in sides for n in ast.walk(side)))


def _boundary_slack(node) -> bool:
    """A sum or difference with 1e-12 on a side: the package's relative
    slack 1 + 1e-12, or a bound's own absolute or relative slack, x + 1e-12
    or 1 - 1e-12."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub))
            and 1e-12 in {getattr(side, "value", None) for side in (node.left, node.right)})


def _log_floor(node) -> bool:
    """A max or maximum call that takes 1e-300: a floor under a value whose
    log a growth fit reads (fitting.r_squared's comparison with 1e-300 is no
    call)."""
    return _called(node) in ("max", "maximum") and any(
        getattr(arg, "value", None) == 1e-300 for arg in node.args)


def _zero_skip(node) -> bool:
    """An if whose body is continue and whose test compares a value == 0.0,
    a float: a loop that drops an item for a vanishing right side (an index
    or a size compared with the int 0 is not matched)."""
    return (isinstance(node, ast.If) and isinstance(node.body[0], ast.Continue)
            and any(isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.Eq)
                    and repr(getattr(n.comparators[0], "value", None)) == "0.0"
                    for n in ast.walk(node.test)))


def _first_max_index(fn) -> bool:
    """Whether a function takes the first maximal entry of a list:
    values.index(max(values)), or values.index(best) with best bound to a
    max."""
    maxima = {target.id for node in ast.walk(fn)
              if isinstance(node, ast.Assign) and _called(node.value) == "max"
              for target in node.targets if isinstance(target, ast.Name)}
    return any(_called(node) == "index" and len(node.args) == 1
               and (_called(node.args[0]) == "max" or getattr(node.args[0], "id", None) in maxima)
               for node in ast.walk(fn))


def _home_set(match) -> list[str]:
    """The distinct module.scope of the nodes in src/ that match(node) accepts."""
    return sorted(set(_homes(match)))


def _inf_branch(node) -> bool:
    """A conditional value with inf on a branch: x if c else inf, or where(c, x, inf)."""
    if isinstance(node, ast.IfExp):
        branches = [node.body, node.orelse]
    elif _called(node) == "where":
        branches = node.args[1:]
    else:
        return False
    return any(getattr(n, "attr", getattr(n, "id", None)) == "inf"
               for branch in branches for n in ast.walk(branch))


def _isinstance_of(name: str):
    """A matcher of the isinstance calls whose class argument names name."""
    return lambda node: _called(node) == "isinstance" and any(
        getattr(n, "id", None) == name for n in ast.walk(node.args[1]))


def _tolerance_given(node) -> bool:
    """A real-part refusal called with a number for its tolerance:
    real_values(1e-12) or _real_rows(values, 1e-12)."""
    place = {"real_values": 0, "_real_rows": 1}.get(_called(node))
    if place is None:
        return False
    given = [*node.args[place:place + 1], *(k.value for k in node.keywords)]
    return any(isinstance(n, ast.Constant) for arg in given for n in ast.walk(arg))


def _reads_key(key: str):
    """A matcher of the reads of a mapping's key: m[key], m.get(key, ..) and key in m."""
    def match(node) -> bool:
        if isinstance(node, ast.Subscript):
            return isinstance(node.ctx, ast.Load) and getattr(node.slice, "value", None) == key
        if _called(node) == "get":
            return bool(node.args) and getattr(node.args[0], "value", None) == key
        return (isinstance(node, ast.Compare) and getattr(node.left, "value", None) == key
                and isinstance(node.ops[0], (ast.In, ast.NotIn)))
    return match


def _function_homes(match) -> list[str]:
    """module.function of every function in src/ that match(function) accepts."""
    return [f"{path.stem}.{fn.name}" for path in sorted(PACKAGE.glob("*.py"))
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef) and match(fn)]


def _precision_literal(node) -> bool:
    """A precision spelled out: float or complex in a dtype= or an astype,
    or np.float64 or np.complex128."""
    if isinstance(node, ast.keyword) and node.arg == "dtype":
        spelled = node.value
    elif _called(node) == "astype" and node.args:
        spelled = node.args[0]
    else:
        return isinstance(node, ast.Attribute) and node.attr in ("float64", "complex128")
    return any(getattr(n, "id", None) in ("float", "complex") for n in ast.walk(spelled))


def _buffer_without_dtype(node) -> bool:
    """A call of np.zeros, np.empty, np.full or np.ones that names no dtype
    (the *_like calls take their input's)."""
    return _called(node) in ("zeros", "empty", "full", "ones") and not any(
        kw.arg == "dtype" for kw in node.keywords)


def test_one_precision_rule_for_every_sample_array():
    """Samples, phases and spectra keep their input's precision and are at
    least double, by one rule, grid._working: no other function spells a
    precision out, and every new buffer names its dtype or is a *_like
    call, so a grid whose half length is np.longdouble runs in long double
    end to end."""
    assert _homes(_precision_literal) == ["grid._working"]
    assert _homes(_buffer_without_dtype) == []


def test_each_shared_rule_has_one_implementation():
    """Each rule that several callers share is written in one function: the
    imaginary-part refusal, the piece-index range, the exponent >= 1 check,
    the ascending fit ranges, the inside-the-box rule, the relative slack of
    a bound (grid._slack: no bound takes an absolute slack or its own 1 -
    1e-12), the first maximal entry (the A_p^theta and BMO_theta sups' ball,
    lemma41's argmax center), the plain and commutator families that end
    lemma41 and lemma42, the ratio of a bound whose right side may vanish
    (report.bound_ratio, which every ratio family calls: theorem13a/b, the
    maximal bounds, John-Nirenberg's two parts, the stabilization's
    changes, kernel-decay's far over peak, fs, lemma41 and lemma42; no loop
    skips an item whose right side is 0), the
    log2 floor of a growth fit's sups (report.log2_floor), the one weight
    form (an array or None, refused by one function when not
    strictly positive; no site takes a SampledFunction weight), the
    tolerance of built-real inputs, the weight and b (grid._built_real, the
    one caller that gives a real-part refusal its tolerance), and the one
    reading of a corpus item's shift."""
    assert _homes(_raises("imaginary part")) == ["grid._real_rows"]
    assert _homes(lambda node: getattr(node, "attr", None) == "imag") == ["grid._real_rows"]
    assert _homes(_raises("outside 0..")) == ["littlewood_paley._check_index"]
    assert _homes(_raises("must be >= 1")) == ["grid._check_exponent"]
    assert _homes(_raises("degenerate fit")) == ["kernels._ascending"]
    assert _homes(_inside_the_box) == ["grid._inside_box"]
    assert _homes(_boundary_slack) == ["grid._slack"]
    assert _homes(_log_floor) == ["report.log2_floor"]
    assert _function_homes(_first_max_index) == ["function_classes._first_max"]
    for prefix in ("plain_", "commutator_"):
        assert _homes(_passes(prefix)) == ["experiments._lemma_report"]
    assert _home_set(_inf_branch) == ["report.bound_ratio"]
    assert _homes(_zero_skip) == []
    assert _scoped_calls("bound_ratio") == [
        "experiments._corpus_ratio_report",
        "experiments._corpus_ratio_report",
        "experiments.local_average_ratio",
        "experiments.run_oscillation_check",
        "experiments.run_oscillation_check",
        "function_classes.check_john_nirenberg_variant",
        "function_classes.check_john_nirenberg_variant",
        "function_classes._stabilization",
        "function_classes._stabilization",
        "kernels.adjoint_kernel_bounds",
        "maximal.fs_inequality_rows",
        "maximal.check_weighted_bounds_maximal",
        "maximal.check_weighted_bounds_maximal",
    ]
    assert _homes(_raises("strictly positive")) == ["grid._weight_values"]
    assert _homes(_isinstance_of("SampledFunction")) == []
    assert _homes(_tolerance_given) == ["grid._built_real"]
    assert _scoped_calls("_built_real") == [
        "function_classes.values",
        "function_classes.bmo_theta_norm",
        "function_classes.check_john_nirenberg_variant",
        "grid._weight_values",
        "operators._commutator_with",
    ]
    assert _home_set(_reads_key("shift")) == ["corpus.item_shift"]


# Window arrays: what these return, what a function returns that holds one,
# a parameter named windows, and any name bound from an expression that holds
# one.  The layer's plan cache passes its build's result through; any other
# call returns a window array only when its function does.
_WINDOW_SOURCES = {"_ball_arcs", "ball_windows", "ball_indices", "windows", "_family_groups",
                   "_family_indices"}
_LAYER = PACKAGE / "grid.py"


def _holds_window(node, names: set[str]) -> bool:
    """Whether an expression refers to a window array, names being the
    window sources and the names bound to one so far."""
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "_plan":
            return any(_holds_window(arg, names) for arg in node.args)
        if isinstance(func, ast.Name):
            return func.id in names
        return isinstance(func, ast.Attribute) and (
            func.attr in names or _holds_window(func.value, names))
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in names
    return any(_holds_window(child, names) for child in ast.iter_child_nodes(node))


def _bindings(fn):
    """(target, value) of every assignment and loop of a function."""
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            yield from ((target, node.value) for target in node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)) and node.value is not None:
            yield node.target, node.value
        elif isinstance(node, (ast.For, ast.comprehension)):
            yield node.target, node.iter


def _window_reads(paths) -> list[str]:
    """Each subscript, take or take_along_axis in the named modules whose
    index holds a window array, as module.function:line."""
    functions = [(path, fn) for path in paths for fn in ast.walk(ast.parse(path.read_text()))
                 if isinstance(fn, (ast.FunctionDef, ast.Lambda))]
    sources, tracked, changed = set(_WINDOW_SOURCES), {}, True
    while changed:
        changed = False
        for path, fn in functions:
            names = sources | {a.arg for a in fn.args.args if a.arg == "windows"}
            grew = True
            while grew:
                grew = False
                for target, value in _bindings(fn):
                    new = {n.id for n in ast.walk(target) if isinstance(n, ast.Name)} - names
                    if new and _holds_window(value, names):
                        names |= new
                        grew = True
            tracked[path, fn] = names
            if isinstance(fn, ast.FunctionDef) and fn.name not in sources and any(
                    isinstance(node, ast.Return) and node.value is not None
                    and _holds_window(node.value, names) for node in ast.walk(fn)):
                sources.add(fn.name)
                changed = True
    found = set()
    for (path, fn), names in tracked.items():
        for node in ast.walk(fn):
            index = None
            if isinstance(node, ast.Subscript):
                index = node.slice
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in (
                    "take", "take_along_axis") and len(node.args) > 1:
                index = node.args[1]
            if index is not None and _holds_window(index, names):
                found.add(f"{path.stem}.{getattr(fn, 'name', 'lambda')}:{node.lineno}")
    return sorted(found)


def test_only_the_window_layer_reduces_over_balls():
    """grid.py's window layer is the one place that builds arcs, prefix sums
    and strided windows, and that indexes samples by a window array: outside
    it no function calls _ball_arcs, cumsum or sliding_window_view (the class
    probe's cumsum of shell sizes is no window), and no subscript or take
    reads samples at a window array."""
    others = [path for path in sorted(PACKAGE.glob("*.py")) if path != _LAYER]
    files = [path.name for path in others]
    assert _scoped_calls("_ball_arcs", files) == []
    assert _scoped_calls("sliding_window_view", files) == []
    assert _scoped_calls("cumsum", files) == ["symbols.estimate_class_membership"]
    assert _window_reads(others) == []
