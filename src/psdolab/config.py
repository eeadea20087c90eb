"""Experiment configuration.

Config files are flat key=value text: one assignment per line, '#' starts
a comment, section membership is spelled in the key itself (grid.n=2048).
Unknown keys, and a key set twice in one file, are rejected so typos fail
loudly.  CLI flags override file values, file values override defaults, and
the resolved text is what gets hashed into every report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .report import config_hash

__all__ = ["HypothesisViolation", "ExperimentConfig", "load_config"]


class HypothesisViolation(ValueError):
    """A parameter combination breaks a hypothesis the experiment declares.

    The message names the violated condition so an aborted run says what
    to fix.  Runs flagged run.counterexample=true skip the gate and carry
    the flag into their reports instead.
    """


_SYMBOL_PARAM_KEYS = {
    "identity": (),
    "bessel_order_m": ("m",),
    "rough_x_modulated": ("m",),
    "oscillating_amplitude": ("m", "rho", "delta", "spatial_scale"),
}


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ValueError(f"line {lineno}: {key} is already set on line {first_line[key]}")
        first_line[key] = lineno
        entries[key] = value
    return entries


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"needs a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"needs an integer >= 0, got {value}")
    return value


def _list(parse, arity: int | None = None):
    """Comma-separated values read by parse, refusing an empty list, or any
    length but arity when given."""
    def checked(text: str) -> tuple:
        values = tuple(parse(t) for t in text.split(",") if t.strip())
        if not values or arity not in (None, len(values)):
            raise ValueError(f"needs {arity or 'at least one'} value(s), got {len(values)}")
        return values
    return checked


def _choice(*allowed: str, parse=str):
    """One of the allowed spellings, read by parse."""
    def checked(text: str):
        if text not in allowed:
            raise ValueError(f"unknown value {text!r}, expected one of " + ", ".join(allowed))
        return parse(text)
    return checked


def _out_dir(text: str) -> str:
    """A report directory that exists or can be made: no file stands at the
    path or at any of its existing ancestors."""
    if not text:
        raise ValueError("needs a directory path, got an empty value")
    path = os.path.abspath(text)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"{path} is a file, not a directory")
    return text


# Every key once: its default text and the one parser that both checks a
# value and reads it.  ExperimentConfig parses its entries in this order, so
# a refusal names the first bad key; README's Configuration table lists the
# same keys and defaults.
_KEYS = {
    "grid.n": ("1024", int),
    "grid.l": ("16.0", _finite),
    "symbol.preset": ("bessel_order_m", _choice(*_SYMBOL_PARAM_KEYS)),
    "symbol.m": ("-0.75", _finite),
    "symbol.rho": ("1.0", _finite),
    "symbol.delta": ("0.0", _finite),
    "symbol.spatial_scale": ("16.0", _finite),
    "weight.preset": ("power_growth",
                      _choice("unit", "power_growth", "exp_abs", "random_log_bounded")),
    "weight.gamma": ("1.5", _finite),
    "weight.p": ("2.0", _finite),
    "weight.theta": ("1.5", _finite),
    "bmo.preset": ("linear", _choice("constant", "linear", "triangle")),
    "bmo.theta": ("1.0", _finite),
    "corpus.center_count": ("6", int),
    "corpus.widths": ("0.6,1.0,1.8", _list(_finite)),
    "corpus.modulations": ("0,4,12", _list(int)),
    "maximal.s": ("1.5", _finite),
    "maximal.kappa": ("1.0", _finite),
    "maximal.n_big": ("8", int),
    "fs.count": ("30", int),
    "lemma.n_big": ("3", int),
    "lemma.center_count": ("4", int),
    "lemma.widths": ("0.7,1.5", _list(_finite)),
    "lemma.modulations": ("0,8", _list(int)),
    "oscillation.radii": ("0.5,1.0,2.0", _list(_finite)),
    "oscillation.centers": ("0.0,3.0", _list(_finite)),
    "kernel.ell_max": ("2", _choice("0", "1", "2", "3", parse=int)),
    "kernel.k_lo": ("2", int),
    "kernel.k_hi": ("5", int),
    "kernel.diff_ball_radius": ("0.5", _finite),
    "kernel.diff_j": ("2,4", _list(int, 2)),
    "kernel.diff_k": ("2,5", _list(int, 2)),
    "kernel.adjoint_n_exp": ("2", _choice("1", "2", parse=int)),
    "tolerances.ratio_spread": ("4.0", _finite),
    "tolerances.trend_slope": ("0.1", _finite),
    "tolerances.slope": ("0.15", _finite),
    "run.seed": ("7", _seed),
    "run.out": ("out", _out_dir),
    "run.counterexample": ("false", _as_bool),
}

DEFAULTS: dict[str, str] = {key: default for key, (default, _) in _KEYS.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration: defaults, then file, then explicit overrides.

    entries holds each key's text, which digest() hashes.  Building the
    config parses every entry once, in _KEYS order, and get() returns the
    parsed value.
    """

    entries: tuple[tuple[str, str], ...]
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        text = dict(self.entries)
        unknown = sorted(set(text) - set(_KEYS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values = {}
        for key, (_, parse) in _KEYS.items():
            try:
                values[key] = parse(text[key])
            except ValueError as exc:
                # grid.n and grid.l are refused as the grid they build
                where = "grid" if key.startswith("grid.") else key
                raise ValueError(f"{where}: {exc}") from None
        object.__setattr__(self, "values", values)

    def get(self, key: str):
        return self.values[key]

    def digest(self) -> str:
        # run.out points at the report directory; it does not influence any
        # computed value, and hashing it would make otherwise identical runs
        # look distinct.
        return config_hash({k: v for k, v in self.entries if k != "run.out"})

    @property
    def seed(self) -> int:
        return self.get("run.seed")

    @property
    def out_dir(self) -> str:
        return self.get("run.out")

    @property
    def counterexample(self) -> bool:
        return self.get("run.counterexample")

    # -- object builders ----------------------------------------------------

    def make_grid(self):
        from .grid import make_grid

        return make_grid(self.get("grid.n"), self.get("grid.l"))

    def symbol_params(self) -> dict:
        name = self.get("symbol.preset")
        return {k: self.get(f"symbol.{k}") for k in _SYMBOL_PARAM_KEYS[name]}

    def make_symbol(self):
        from .symbols import preset_symbol

        return preset_symbol(self.get("symbol.preset"), **self.symbol_params())

    def make_weight(self, grid):
        from .function_classes import preset_weight

        name = self.get("weight.preset")
        params = {}
        if name == "power_growth":
            params["gamma"] = self.get("weight.gamma")
        if name == "random_log_bounded":
            params["seed"] = self.seed
        return preset_weight(name, grid, **params)

    def make_bmo(self, grid):
        from .function_classes import preset_bmo

        return preset_bmo(self.get("bmo.preset"), grid)

    def make_corpus(self, grid):
        from .corpus import gaussian_corpus

        return gaussian_corpus(
            grid,
            widths=self.get("corpus.widths"),
            modulations=self.get("corpus.modulations"),
            center_count=self.get("corpus.center_count"),
        )

    # -- hypothesis gate ----------------------------------------------------

    def check_hypotheses(self) -> None:
        """Reject parameter combinations outside the verified regime.

        The symbol's class (m, rho) must satisfy m < rho-1, except the
        order-zero rho=1 family which is admitted outright, and its delta
        must lie below 1 (only the amplitude reads one).  The weight
        exponent must exceed 1, both growth exponents must be nonnegative,
        and Lemma 4.2's balls need radius < 4.  Runs flagged as
        counterexamples bypass the gate.
        """
        if self.counterexample:
            return
        symbol = self.make_symbol()
        m, rho = symbol.order, symbol.rho
        order_zero_family = m == 0.0 and rho == 1.0
        if not (m < rho - 1.0 or order_zero_family):
            raise HypothesisViolation(
                f"symbol order m={m:g} must satisfy m < rho-1 = {rho - 1.0:g}"
                " (or be the order-zero rho=1 family)"
            )
        if not symbol.delta < 1.0:
            raise HypothesisViolation(f"symbol delta={symbol.delta:g} must be below 1")
        p = self.get("weight.p")
        if not p > 1.0:
            raise HypothesisViolation(f"weight exponent p={p:g} must exceed 1")
        if self.get("weight.theta") < 0.0:
            raise HypothesisViolation("weight growth exponent theta must be nonnegative")
        if self.get("bmo.theta") < 0.0:
            raise HypothesisViolation("oscillation growth exponent theta must be nonnegative")
        s = self.get("maximal.s")
        if not p > s > 1.0:
            raise HypothesisViolation(
                f"maximal bound needs p > s > 1, got p={p:g}, s={s:g}"
            )
        bad = [r for r in self.get("oscillation.radii") if not r < 4.0]
        if bad:
            raise HypothesisViolation(f"oscillation balls need radius < 4, got {bad[0]:g}")


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config: DEFAULTS, then the file at path, then overrides.

    Both gates run here, before any computation: a config no runner can
    compute is a ValueError, one outside the verified regime a
    HypothesisViolation, and no runner checks its config again."""
    resolved = dict(DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            resolved.update(parse_config_text(fh.read()))
    resolved.update({k: str(v) for k, v in (overrides or {}).items()})
    cfg = ExperimentConfig(entries=tuple(sorted(resolved.items())))
    # a grid the lattice cannot hold is a config error, refused before any run
    try:
        grid = cfg.make_grid()
    except ValueError as exc:
        raise ValueError(f"grid: {exc}") from None
    _check_computable(cfg, grid)
    cfg.check_hypotheses()
    return cfg


def _check_computable(cfg: ExperimentConfig, grid) -> None:
    """Refuse what a runner would refuse mid-run, by that runner's own check.

    The config's symbol must build (an amplitude needs rho and delta in
    [0, 1]); kernel-decay fits k = kernel.k_lo..kernel.k_hi and tabulates
    kernel.diff_k on the annuli kernel.diff_j of a kernel.diff_ball_radius
    ball, and lemma42 runs on the oscillation balls, each with a positive
    radius and a grid point; the series maximal needs maximal.kappa > 0; the
    maximal checks need the critical balls' 8-dilates inside the
    box; the weight gate needs 4 dyadic sweep radii; fs's family sups at the
    radii maximal._FS_BETA and _FS_ALPHA_SHARP need the family's least radius 8 dx;
    every corpus needs an item and positive widths; each damped series needs
    n_big >= 1/p + 1 at the exponent it runs with; and the weighted maximal
    bounds need 1 < maximal.s < weight.p, the class sweeps growth exponents
    >= 0, and lemma42's doubled balls need 2r <= grid.l, all of which the
    hypothesis gate checks (r < 4 <= grid.l/2) unless run.counterexample lets
    them through.  Every symbol preset runs at every grid size: none has a
    cost budget.
    """
    from .corpus import _check_count, _check_width
    from .experiments import _oscillation_balls
    from .function_classes import _check_growth, _check_stabilization_radii
    from .grid import Ball, _family_windows, _sweep_radii, ball_indices
    from .kernels import _check_annuli, _check_k_window, _decay_ks, _difference_js, _difference_ks
    from .littlewood_paley import make_lp_family
    from .maximal import (_FS_ALPHA_SHARP, _FS_BETA, _check_damping, _check_dilates_fit,
                          _check_kappa, _check_maximal_exponents)

    k_lo, k_hi = cfg.get("kernel.k_lo"), cfg.get("kernel.k_hi")
    (j_lo, j_hi), (dk_lo, dk_hi) = cfg.get("kernel.diff_j"), cfg.get("kernel.diff_k")
    pieces = [*range(k_lo, k_hi + 1), *range(dk_lo, dk_hi + 1)]
    radius = cfg.get("kernel.diff_ball_radius")
    checks = [
        ("symbol", cfg.make_symbol),
        ("kernel.k_lo", lambda: _decay_ks(range(k_lo, k_hi + 1))),
        ("kernel.diff_j", lambda: _difference_js(range(j_lo, j_hi + 1))),
        ("kernel.diff_k", lambda: _difference_ks(range(dk_lo, dk_hi + 1))),
        ("kernel.diff_ball_radius", lambda: Ball((0.0,), radius)),
        ("oscillation.radii", lambda: _oscillation_balls(
            grid, cfg.get("oscillation.centers"), cfg.get("oscillation.radii"))),
        ("maximal.kappa", lambda: _check_kappa(cfg.get("maximal.kappa"))),
        ("grid", lambda: _check_k_window(make_lp_family(grid), pieces)),
        # the grid bounds the annuli, and the message names the keys that set them
        ("grid", lambda: _check_annuli(grid, radius, j_hi, "kernel.diff_ball_radius",
                                       "kernel.diff_j")),
        ("grid", lambda: _check_dilates_fit(grid)),
        # the weight gate sweeps sweep_family(grid), radii up to L/2
        ("grid", lambda: _check_stabilization_radii(_sweep_radii(grid, grid.half_length / 2))),
        ("grid", lambda: [_family_windows(grid, a) for a in (_FS_BETA, _FS_ALPHA_SHARP)]),
    ]
    for key in ("corpus.center_count", "lemma.center_count", "fs.count"):
        checks.append((key, lambda key=key: _check_count(cfg.get(key))))
    for key in ("corpus.widths", "lemma.widths"):
        checks.append((key, lambda key=key: [_check_width(w) for w in cfg.get(key)]))
    # below p = 1 the hypothesis gate speaks (exit 3), and g_kappa_p's own
    # p check would fire before the damping one
    for key, exponent in (("lemma.n_big", "weight.p"), ("maximal.n_big", "maximal.s")):
        p = cfg.get(exponent)
        if p >= 1.0:
            checks.append((key, lambda key=key, p=p: _check_damping(cfg.get(key), p)))
    if cfg.counterexample:
        checks.append(("maximal.s", lambda: _check_maximal_exponents(
            cfg.get("weight.p"), cfg.get("maximal.s"))))
        # the class sweeps of the weight and the multiplier; weight.p <= 1
        # fails the maximal.s check above
        for key in ("weight.theta", "bmo.theta"):
            checks.append((key, lambda key=key: _check_growth(cfg.get(key))))
        # past the radius < 4 hypothesis, lemma42 still indexes each 2B
        checks.append(("oscillation.radii", lambda: [ball_indices(grid, Ball((0.0,), 2.0 * r))
                                                     for r in cfg.get("oscillation.radii")]))
    for key, check in checks:
        try:
            check()
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
