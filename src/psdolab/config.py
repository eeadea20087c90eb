"""Experiment configuration.

Config files are flat key=value text: one assignment per line, '#' starts
a comment, section membership is spelled in the key itself (grid.n=2048).
Unknown keys are rejected so typos fail loudly.  CLI flags override file
values, file values override defaults, and the resolved mapping is what
gets hashed into every report.
"""

from __future__ import annotations

from dataclasses import dataclass

from .report import config_hash

__all__ = [
    "HypothesisViolation",
    "ExperimentConfig",
    "DEFAULTS",
    "parse_config_text",
    "load_config",
]


class HypothesisViolation(ValueError):
    """A parameter combination breaks a hypothesis the experiment declares.

    The message names the violated condition so an aborted run says what
    to fix.  Runs flagged run.counterexample=true skip the gate and carry
    the flag into their reports instead.
    """


DEFAULTS: dict[str, str] = {
    "grid.n": "1024",
    "grid.l": "16.0",
    "symbol.preset": "bessel_order_m",
    "symbol.m": "-0.75",
    "symbol.rho": "1.0",
    "symbol.delta": "0.0",
    "symbol.spatial_scale": "16.0",
    "weight.preset": "power_growth",
    "weight.gamma": "1.5",
    "weight.p": "2.0",
    "weight.theta": "1.5",
    "bmo.preset": "linear",
    "bmo.theta": "1.0",
    "corpus.center_count": "6",
    "corpus.widths": "0.6,1.0,1.8",
    "corpus.modulations": "0,4,12",
    "maximal.s": "1.5",
    "maximal.kappa": "1.0",
    "maximal.n_big": "8",
    "fs.count": "30",
    "lemma.n_big": "3",
    "lemma.center_count": "4",
    "lemma.widths": "0.7,1.5",
    "lemma.modulations": "0,8",
    "oscillation.radii": "0.5,1.0,2.0",
    "oscillation.centers": "0.0,3.0",
    "kernel.ell_max": "2",
    "kernel.k_lo": "2",
    "kernel.k_hi": "5",
    "kernel.diff_ball_radius": "0.5",
    "kernel.diff_j": "2,4",
    "kernel.diff_k": "2,5",
    "kernel.adjoint_n_exp": "2",
    "tolerances.ratio_spread": "4.0",
    "tolerances.trend_slope": "0.1",
    "tolerances.slope": "0.15",
    "run.seed": "7",
    "run.out": "out",
    "run.counterexample": "false",
}

_SYMBOL_PARAM_KEYS = {
    "identity": (),
    "bessel_order_m": ("m",),
    "rough_x_modulated": ("m",),
    "oscillating_amplitude": ("m", "rho", "delta", "spatial_scale"),
}


def parse_config_text(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip()] = value.strip()
    return entries


def _as_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",") if t.strip())


def _list(parse, arity: int | None = None):
    """parse, refusing an empty list, or any length but arity when given."""
    def checked(text: str) -> tuple:
        values = parse(text)
        if not values or arity not in (None, len(values)):
            raise ValueError(f"needs {arity or 'at least one'} value(s), got {len(values)}")
        return values
    return checked


# How each typed key is read: a parser, or the tuple of its allowed values.
# load_config applies every entry, so a bad value never reaches a runner.
_KEY_TYPES = {
    "grid.n": int, "grid.l": float,
    "symbol.preset": tuple(_SYMBOL_PARAM_KEYS),
    "symbol.m": float, "symbol.rho": float, "symbol.delta": float,
    "symbol.spatial_scale": float,
    "weight.preset": ("unit", "power_growth", "exp_abs", "random_log_bounded"),
    "weight.gamma": float, "weight.p": float, "weight.theta": float,
    "bmo.preset": ("constant", "linear", "triangle"),
    "bmo.theta": float,
    "corpus.center_count": int, "corpus.widths": _list(_floats),
    "corpus.modulations": _list(_ints),
    "maximal.s": float, "maximal.kappa": float, "maximal.n_big": int,
    "fs.count": int,
    "lemma.n_big": int, "lemma.center_count": int, "lemma.widths": _list(_floats),
    "lemma.modulations": _list(_ints),
    "oscillation.radii": _list(_floats), "oscillation.centers": _list(_floats),
    "kernel.ell_max": ("0", "1", "2", "3"), "kernel.k_lo": int, "kernel.k_hi": int,
    "kernel.diff_ball_radius": float, "kernel.diff_j": _list(_ints, 2),
    "kernel.diff_k": _list(_ints, 2),
    "kernel.adjoint_n_exp": ("1", "2"),
    "tolerances.ratio_spread": float, "tolerances.trend_slope": float,
    "tolerances.slope": float,
    "run.seed": int, "run.counterexample": _as_bool,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved configuration: defaults, then file, then explicit overrides."""

    entries: tuple[tuple[str, str], ...]

    # -- raw access ---------------------------------------------------------

    def get(self, key: str) -> str:
        for k, v in self.entries:
            if k == key:
                return v
        raise KeyError(key)

    def get_float(self, key: str) -> float:
        return float(self.get(key))

    def get_int(self, key: str) -> int:
        return int(self.get(key))

    def get_bool(self, key: str) -> bool:
        return _as_bool(self.get(key))

    def get_floats(self, key: str) -> tuple[float, ...]:
        return _floats(self.get(key))

    def get_ints(self, key: str) -> tuple[int, ...]:
        return _ints(self.get(key))

    def digest(self) -> str:
        # run.out points at the report directory; it does not influence any
        # computed value, and hashing it would make otherwise identical runs
        # look distinct.
        return config_hash({k: v for k, v in self.entries if k != "run.out"})

    @property
    def seed(self) -> int:
        return self.get_int("run.seed")

    @property
    def out_dir(self) -> str:
        return self.get("run.out")

    @property
    def counterexample(self) -> bool:
        return self.get_bool("run.counterexample")

    # -- object builders ----------------------------------------------------

    def make_grid(self):
        from .grid import make_grid

        return make_grid(self.get_int("grid.n"), self.get_float("grid.l"))

    def symbol_params(self) -> dict:
        name = self.get("symbol.preset")
        return {k: self.get_float(f"symbol.{k}") for k in _SYMBOL_PARAM_KEYS[name]}

    def make_symbol(self):
        from .symbols import preset_symbol

        return preset_symbol(self.get("symbol.preset"), **self.symbol_params())

    def make_weight(self, grid):
        from .function_classes import preset_weight

        name = self.get("weight.preset")
        params = {}
        if name == "power_growth":
            params["gamma"] = self.get_float("weight.gamma")
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
            widths=self.get_floats("corpus.widths"),
            modulations=self.get_ints("corpus.modulations"),
            center_count=self.get_int("corpus.center_count"),
        )

    # -- hypothesis gate ----------------------------------------------------

    def check_hypotheses(self) -> None:
        """Reject parameter combinations outside the verified regime.

        The symbol's class (m, rho) must satisfy m < rho-1, except the
        order-zero rho=1 family which is admitted outright.  The weight
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
        p = self.get_float("weight.p")
        if not p > 1.0:
            raise HypothesisViolation(f"weight exponent p={p:g} must exceed 1")
        if self.get_float("weight.theta") < 0.0:
            raise HypothesisViolation("weight growth exponent theta must be nonnegative")
        if self.get_float("bmo.theta") < 0.0:
            raise HypothesisViolation("oscillation growth exponent theta must be nonnegative")
        s = self.get_float("maximal.s")
        if not p > s > 1.0:
            raise HypothesisViolation(
                f"maximal bound needs p > s > 1, got p={p:g}, s={s:g}"
            )
        bad = [r for r in self.get_floats("oscillation.radii") if not r < 4.0]
        if bad:
            raise HypothesisViolation(f"oscillation balls need radius < 4, got {bad[0]:g}")


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Resolve a config: DEFAULTS, then the file at path, then overrides."""
    resolved = dict(DEFAULTS)
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            file_entries = parse_config_text(fh.read())
        unknown = sorted(set(file_entries) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update(file_entries)
    if overrides:
        unknown = sorted(set(overrides) - set(DEFAULTS))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        resolved.update({k: str(v) for k, v in overrides.items()})
    cfg = ExperimentConfig(entries=tuple(sorted(resolved.items())))
    # a grid the lattice cannot hold is a config error, refused before any run
    try:
        grid = cfg.make_grid()
    except ValueError as exc:
        raise ValueError(f"grid: {exc}") from None
    # then every typed value, without building anything from it
    for key, kind in _KEY_TYPES.items():
        value = cfg.get(key)
        if isinstance(kind, tuple):
            if value not in kind:
                raise ValueError(f"{key}: unknown value {value!r}, expected one of "
                                 + ", ".join(kind))
            continue
        try:
            kind(value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
    _check_computable(cfg, grid)
    return cfg


def _check_computable(cfg: ExperimentConfig, grid) -> None:
    """Refuse what a runner would refuse mid-run, by that runner's own check.

    The config's symbol must build (an amplitude needs rho and delta in
    [0, 1]); kernel-decay fits k = kernel.k_lo..kernel.k_hi and tabulates
    kernel.diff_k on the annuli kernel.diff_j of a kernel.diff_ball_radius
    ball, and lemma42 runs on balls of the oscillation.radii, each a Ball
    with a positive radius; the series maximal needs maximal.kappa > 0; the
    maximal checks need the critical balls' 8-dilates inside the
    box; the weight gate needs 4 dyadic sweep radii; fs's family sups at
    beta = 0.5 and alpha_sharp = 4 need the family's least radius 8 dx;
    every corpus needs an item and positive widths; each damped series needs
    n_big >= 1/p + 1 at the exponent it runs with; and the weighted maximal
    bounds need 1 < maximal.s < weight.p, and lemma42's doubled balls need
    2r <= grid.l, both of which the hypothesis gate checks (r < 4 <= grid.l/2)
    unless run.counterexample lets them through.  Every symbol preset runs at
    every grid size: none has a cost budget.
    """
    from .corpus import _check_count, _check_width
    from .function_classes import _check_stabilization_radii
    from .grid import Ball, _sweep_radii, ball_indices
    from .kernels import _check_annuli, _check_k_window, _decay_ks, _difference_js, _difference_ks
    from .littlewood_paley import make_lp_family
    from .maximal import (_check_damping, _check_dilates_fit, _check_family_radius,
                          _check_kappa, _check_maximal_exponents)

    k_lo, k_hi = cfg.get_int("kernel.k_lo"), cfg.get_int("kernel.k_hi")
    (j_lo, j_hi), (dk_lo, dk_hi) = cfg.get_ints("kernel.diff_j"), cfg.get_ints("kernel.diff_k")
    pieces = [*range(k_lo, k_hi + 1), *range(dk_lo, dk_hi + 1)]
    radius = cfg.get_float("kernel.diff_ball_radius")
    checks = [
        ("symbol", cfg.make_symbol),
        ("kernel.k_lo", lambda: _decay_ks(range(k_lo, k_hi + 1))),
        ("kernel.diff_j", lambda: _difference_js(range(j_lo, j_hi + 1))),
        ("kernel.diff_k", lambda: _difference_ks(range(dk_lo, dk_hi + 1))),
        ("kernel.diff_ball_radius", lambda: Ball((0.0,), radius)),
        ("oscillation.radii",
         lambda: [Ball((0.0,), r) for r in cfg.get_floats("oscillation.radii")]),
        ("maximal.kappa", lambda: _check_kappa(cfg.get_float("maximal.kappa"))),
        ("grid", lambda: _check_k_window(make_lp_family(grid), pieces)),
        ("grid", lambda: _check_annuli(grid, radius, j_hi)),
        ("grid", lambda: _check_dilates_fit(grid)),
        # the weight gate sweeps sweep_family(grid), radii up to L/2
        ("grid", lambda: _check_stabilization_radii(_sweep_radii(grid, grid.half_length / 2))),
        ("grid", lambda: [_check_family_radius(grid, alpha) for alpha in (0.5, 4.0)]),
    ]
    for key in ("corpus.center_count", "lemma.center_count", "fs.count"):
        checks.append((key, lambda key=key: _check_count(cfg.get_int(key))))
    for key in ("corpus.widths", "lemma.widths"):
        checks.append((key, lambda key=key: [_check_width(w) for w in cfg.get_floats(key)]))
    # below p = 1 the hypothesis gate speaks (exit 3), and g_kappa_p's own
    # p check would fire before the damping one
    for key, exponent in (("lemma.n_big", "weight.p"), ("maximal.n_big", "maximal.s")):
        p = cfg.get_float(exponent)
        if p >= 1.0:
            checks.append((key, lambda key=key, p=p: _check_damping(cfg.get_int(key), p)))
    if cfg.counterexample:
        checks.append(("maximal.s", lambda: _check_maximal_exponents(
            cfg.get_float("weight.p"), cfg.get_float("maximal.s"))))
        # past the radius < 4 hypothesis, lemma42 still indexes each 2B
        checks.append(("oscillation.radii", lambda: [ball_indices(grid, Ball((0.0,), 2.0 * r))
                                                     for r in cfg.get_floats("oscillation.radii")]))
    for key, check in checks:
        try:
            check()
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None
