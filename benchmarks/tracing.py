"""Span tracing of psdolab's layers, installed from outside the package.

`Tracer.instrument()` replaces every public function of each layer module
(and every public method of the classes those modules define, except the
grid's value types) with a wrapper that records one span: name, start, end
and parent.  A function imported by name into another psdolab module is
rebound there too, so `experiments.m_tilde_s` is traced like
`maximal.m_tilde_s`.  Spans stay in memory; `summary()` turns them into
per-name call counts and self times (span minus its child spans).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref

import numpy as np

# The package's modules, in dependency order.  `report` and `config` are not
# layers here: report writing is one span the benchmark opens itself
# ("report.write"), and config loading is part of set-up.
LAYER_MODULES = (
    "grid",
    "fitting",
    "littlewood_paley",
    "symbols",
    "operators",
    "kernels",
    "function_classes",
    "maximal",
    "corpus",
    "experiments",
)

# Classes whose methods are accessors of the lattice's value types; their
# cost is charged to the caller's self time.
UNWRAPPED_CLASSES = ("PeriodicGrid", "SampledFunction", "Ball", "BallFamily")


class Tracer:
    """Records nested spans of one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one span per call: (name id, start, end, parent span index or -1)
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self._distinct: dict[str, set] = {}
        self._op_serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._next_serial = 0

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_call=None):
        name_id = self._name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    # -- counters -----------------------------------------------------------

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def distinct(self, key: str, item) -> None:
        self._distinct.setdefault(key, set()).add(item)

    def distinct_count(self, key: str) -> int:
        return len(self._distinct.get(key, ()))

    def _op_serial(self, op) -> int:
        # operators hash by identity; a serial number survives id() reuse
        if op not in self._op_serials:
            self._op_serials[op] = self._next_serial
            self._next_serial += 1
        return self._op_serials[op]

    def _on_ball_mask(self, grid, ball, *args, **kwargs):
        self.distinct("grid.ball_mask", (grid, ball))
        self.count("grid.ball_mask.points_scanned", grid.size)

    def _on_kernel_column(self, op, x_pt, *args, **kwargs):
        point = tuple(np.ravel(np.asarray(x_pt, dtype=float)).tolist())
        self.distinct("operators.kernel_column", (self._op_serial(op), point))
        self.count("operators.kernel_column.phase_evals", op.grid.size**2)

    # -- installation -------------------------------------------------------

    def instrument(self, package, verify_targets: dict) -> None:
        """Wrap the layer functions of an imported psdolab package in place."""
        hooks = {
            "grid.ball_mask": self._on_ball_mask,
            "operators.kernel_column": self._on_kernel_column,
        }
        target_of = {fn: target for target, fn in verify_targets.items()}
        replaced = {}  # original function -> wrapper
        taken = set()
        for short in LAYER_MODULES:
            module = sys.modules[f"{package.__name__}.{short}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ != module.__name__:
                    continue
                if value in target_of:
                    name = f"experiments.{target_of[value]}"
                else:
                    name = f"{short}.{attr}"
                replaced[value] = self.wrap(name, value, hooks.get(name))
                taken.add(name)
            for cls_name, cls in list(vars(module).items()):
                if not inspect.isclass(cls) or cls.__module__ != module.__name__:
                    continue
                if cls_name in UNWRAPPED_CLASSES:
                    continue
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_") or not inspect.isfunction(value):
                        continue
                    name = f"{short}.{attr}"
                    if name in taken:
                        raise ValueError(f"two traced callables share the name {name}")
                    taken.add(name)
                    setattr(cls, attr, self.wrap(name, value))
        # rebind every reference held by a psdolab module, including names
        # imported with `from .x import f`
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        for target, fn in list(verify_targets.items()):
            verify_targets[target] = replaced[fn]

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i, (name_id, start, end, _) in enumerate(self.spans):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out
