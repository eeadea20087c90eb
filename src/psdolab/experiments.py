"""End-to-end experiment runners driven by an ExperimentConfig.

Two layers of gating.  config.load_config refuses declared parameter
combinations outside the verified regime (HypothesisViolation) before any
computation, so no runner checks its config again.  Desk-scale gates
(class-membership probing, weight stabilization) can still fail on a legal
config; those runs keep their raw numbers and report the verdict
"hypothesis_unverified" instead of pass/fail.

Every runner hands its gates and criteria to one report builder and never
writes a verdict: report.py derives it, and the report records every gate
and criterion with its value and threshold, so the verdict can be recomputed
from the report alone.  A fixed config + seed reproduces the report bytes
exactly on one numeric build (README says what moves across builds).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .config import ExperimentConfig
from .corpus import band_noise, corpus_blocks, gaussian_corpus, gaussian_packet, mixed_corpus
from .function_classes import (
    _ap_theta_values,
    _first_max,
    _monotonicity,
    _openness,
    _openness_exponent,
    _stabilization,
    ap_theta_characteristic,
    bmo_theta_norm,
    check_john_nirenberg_variant,
    preset_weight,
    stabilization_criteria,
)
from .grid import Ball, _gathered, ball_indices, ball_mask, lp_norms, sweep_family
from .kernels import (
    adjoint_kernel_bounds,
    band_limited_twin,
    fit_decay_in_k,
    fit_difference_estimate,
)
from .littlewood_paley import evaluate_partition_residual
from .maximal import (
    build_critical_cover,
    check_weighted_bounds_maximal,
    fs_inequality_rows,
    g_kappa_p,
    m_tilde_s,
)
from .operators import (
    adjoint_commutator_rows,
    adjoint_kernel_row,
    apply_adjoint_rows,
    apply_rows,
    commutator_rows,
    make_operator,
)
from .report import Criterion, VerificationReport, ratio_family, trend_criterion, zero_family
from .symbols import estimate_class_membership

__all__ = [
    "run_boundedness_experiment",
    "run_commutator_experiment",
    "run_local_average_check",
    "run_oscillation_check",
    "run_kernel_decay",
    "run_weight_calculus",
    "run_bmo",
    "run_maximal",
    "run_fs",
    "run_all",
    "VERIFY_TARGETS",
]


# ---------------------------------------------------------------------------
# Shared pieces.
# ---------------------------------------------------------------------------


def _report(cfg: ExperimentConfig, experiment: str, items: list[dict], aggregate: dict,
            criteria: list[Criterion], gates=()) -> VerificationReport:
    """The one way a runner builds its report; report.py derives the verdict."""
    return VerificationReport(experiment, items, aggregate, criteria, list(gates),
                              cfg.digest(), cfg.seed)


def _family(cfg: ExperimentConfig, prefix: str, values) -> tuple[dict, list[Criterion]]:
    """report.ratio_family at the cap tolerances.ratio_spread."""
    return ratio_family(prefix, values, cfg.get("tolerances.ratio_spread"))


@lru_cache(maxsize=1)
def _weight_stabilization(cfg: ExperimentConfig):
    """The config weight's A_p^theta stabilization sweep, one per config:
    weights reports it and _operator_gates gates on it.  Returns the
    stabilization with the sweep's per-ball values at weight.p and the
    per-ball log means of w, which weights reuses at its other exponents;
    not to be mutated."""
    grid = cfg.make_grid()
    family = sweep_family(grid)
    (at_p,), log_w_means = _ap_theta_values(cfg.make_weight(grid), (cfg.get("weight.p"),),
                                            cfg.get("weight.theta"), family)
    return _stabilization(at_p, family), tuple(at_p), log_w_means


@lru_cache(maxsize=1)
def _operator_gates(cfg: ExperimentConfig):
    """Desk-scale hypotheses: class membership and weight stabilization.

    They read only the config's symbol, grid and weight, so theorem13a and
    theorem13b share one evaluation per config.  Returns the aggregate
    entries, not to be mutated, and the gate criteria.
    """
    membership = estimate_class_membership(cfg.make_symbol(), cfg.make_grid()).criterion
    stab, _, _ = _weight_stabilization(cfg)
    entries = {
        "class_membership": membership.ok,
        "weight_stable": stab.stable,
        "weight_growth_slope": stab.growth_slope,
    }
    return entries, (membership, *stabilization_criteria(stab, "weight_stable"))


@lru_cache(maxsize=1)
def _ratio_corpus(cfg: ExperimentConfig):
    """The config's corpus in blocks, one per config: theorem13a and
    theorem13b share it.  Each block is its items, whose values are
    read-only, with their weighted and plain p-norms."""
    grid = cfg.make_grid()
    w = cfg.make_weight(grid)
    p = cfg.get("weight.p")
    blocks = []
    for block, rows in corpus_blocks(cfg.make_corpus(grid), grid.n):
        for item in block:
            item.fn.values.flags.writeable = False
        blocks.append((tuple(block), tuple(lp_norms(grid, rows, p, weight=w.values)),
                       tuple(lp_norms(grid, rows, p))))
    return tuple(blocks)


def _lemma_setup(cfg: ExperimentConfig):
    """What lemma41 and lemma42 share: the band-limited twin of the config's
    operator, the series damping n_big, the multiplier b, its BMO_theta norm
    and the scale each commutator statistic is divided by."""
    grid = cfg.make_grid()
    # the smooth band cutoff matters here: the full-lattice symbol has a
    # derivative kink at the frequency seam whose |z|^-2 kernel tail would
    # beat the series maximal's 2^-Nk damping on far balls
    op = band_limited_twin(make_operator(cfg.make_symbol(), grid))
    # damping must clear n/p yet stay below the kernel's decay order over
    # the box, or far balls report the bound's worst constant instead of
    # its uniformity
    n_big = cfg.get("lemma.n_big")
    b = cfg.make_bmo(grid)
    # the norm bmo reports: balls across the seam would read b = x's 2L jump
    bnorm = bmo_theta_norm(b, cfg.get("bmo.theta"), sweep_family(grid, inside_only=True)).value
    # a multiplier with a zero-family norm is a constant and its commutator
    # the zero operator: that statistic stays unscaled rather than divide by 0
    b_scale = 1.0 if zero_family(bnorm).ok else bnorm
    return op, n_big, b, bnorm, b_scale


def _lemma_report(cfg: ExperimentConfig, experiment: str, items: list[dict], plain, comm,
                  first: list[Criterion], **entries) -> VerificationReport:
    """How lemma41 and lemma42 end: the plain and commutator families judged
    by _family, then the entries after the families' aggregates and the
    criteria `first` ahead of the families' criteria."""
    agg, criteria = _family(cfg, "plain_", plain)
    comm_agg, comm_criteria = _family(cfg, "commutator_", comm)
    agg.update(comm_agg, **entries)
    return _report(cfg, experiment, items, agg, [*first, *criteria, *comm_criteria])


def _corpus_ratio_report(cfg: ExperimentConfig, experiment: str, transform) -> VerificationReport:
    """Shared loop for the weighted operator-ratio experiments.

    transform(op, rows) must return the transformed (rows, n) stack; the
    corpus of _ratio_corpus goes through it one block at a time, and only
    the transformed rows' norms are computed here.  Ratios are weighted p-norm
    quotients; unweighted quotients ride along so a drifting unweighted
    family is visible in the same report.
    """
    grid = cfg.make_grid()
    sym = cfg.make_symbol()
    op = make_operator(sym, grid)
    w = cfg.make_weight(grid)
    p = cfg.get("weight.p")
    gate_entries, gates = _operator_gates(cfg)

    items = []
    ratios, unweighted, shifts = [], [], []
    for block, denoms_w, denoms_0 in _ratio_corpus(cfg):
        t_rows = transform(op, np.stack([item.fn.values for item in block]))
        norms = zip(block, denoms_w, denoms_0,
                    lp_norms(grid, t_rows, p, weight=w.values), lp_norms(grid, t_rows, p))
        for (label, _, params), denom_w, denom_0, num_w, num_0 in norms:
            if denom_w == 0.0 or denom_0 == 0.0:
                continue
            r_w = num_w / denom_w
            r_0 = num_0 / denom_0
            ratios.append(r_w)
            unweighted.append(r_0)
            shifts.append(abs(float(params.get("shift", 0.0))))
            items.append(
                {"id": label, "params": dict(params),
                 "value": {"weighted_ratio": r_w, "unweighted_ratio": r_0}}
            )
    if not ratios:
        raise ValueError("empty corpus")

    agg, criteria = _family(cfg, "", ratios)
    # a commutator family whose ratios all sit at the float floor is the
    # zero operator, and its trend says nothing
    agg["zero_family"] = zero = criteria[-1].name == "zero_family"
    slope, trend = (0.0, []) if zero else trend_criterion(
        "slope", ratios, shifts, cfg.get("tolerances.trend_slope"))
    if slope is not None:
        agg["slope"] = slope
    criteria += trend
    # the unweighted family is observed, not judged
    unweighted_agg, unweighted_criteria = _family(cfg, "unweighted_", unweighted)
    agg.update(unweighted_agg)
    agg["unweighted_drift"] = not zero and not all(c.ok for c in unweighted_criteria)
    agg.update(gate_entries)
    agg["symbol"] = sym.label
    agg["weight"] = w.label
    agg["p"] = p
    agg["counterexample"] = cfg.counterexample
    return _report(cfg, experiment, items, agg, criteria, gates)


# ---------------------------------------------------------------------------
# Weighted operator bounds and their commutator analogue.
# ---------------------------------------------------------------------------


def run_boundedness_experiment(cfg: ExperimentConfig) -> VerificationReport:
    """Corpus-ratio stability of f -> T_a f in the weighted p-norm.

    The constant in the underlying bound is not quantitative, so desk-scale
    boundedness is operationalized as spread control (max <= spread_tol x
    median) plus a flat translation trend as the corpus marches toward the
    region where the weight is largest.
    """
    return _corpus_ratio_report(cfg, "weighted_operator_bounds", apply_rows)


def run_commutator_experiment(cfg: ExperimentConfig) -> VerificationReport:
    """Same ratio statistics for f -> [b, T_a] f with b from the config."""
    grid = cfg.make_grid()
    b = cfg.make_bmo(grid)

    def apply_comm(op, rows):
        return commutator_rows(op, b, rows)

    report = _corpus_ratio_report(cfg, "weighted_commutator_bounds", apply_comm)
    report.aggregate["multiplier"] = cfg.get("bmo.preset")
    report.aggregate["bmo_theta"] = cfg.get("bmo.theta")
    return report


# ---------------------------------------------------------------------------
# Local average control: critical-ball means of the adjoint against the
# damped series maximal function.
# ---------------------------------------------------------------------------


def local_average_ratio(rows: np.ndarray, series: np.ndarray, windows: np.ndarray) -> np.ndarray:
    """(rows, J) array of mean_B |u| / inf_B series, u a row of the (rows, n)
    stack and B ball j (row j of windows); inf (0 if u vanishes on B) where
    inf_B series <= 0.  inf_B series is gathered once for all rows."""
    lhs = _gathered(np.abs(rows), windows)
    rhs = _gathered(series, windows, np.min)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(rhs <= 0.0, np.where(lhs > 0.0, np.inf, 0.0), lhs / rhs)


def run_local_average_check(cfg: ExperimentConfig) -> VerificationReport:
    """Critical-ball averages of T_a^* f against the series maximal function.

    For each corpus item the ratio sup runs over every ball of the critical
    cover; the spread statistic is then taken across the corpus.  Pooling
    all (ball, item) pairs instead would compare numbers straddling the
    floating-point floor whenever a packet sits far from a ball, which says
    nothing about the uniform constant the bound asserts.
    """
    op, n_big, b, bnorm, b_scale = _lemma_setup(cfg)
    grid = op.grid
    cover = build_critical_cover(grid)
    p = cfg.get("weight.p")

    corpus = gaussian_corpus(
        grid,
        widths=cfg.get("lemma.widths"),
        modulations=cfg.get("lemma.modulations"),
        center_count=cfg.get("lemma.center_count"),
    )
    items = []
    plain, comm = [], []
    q = cover.windows(1.0)
    for block, rows in corpus_blocks(corpus, grid.n):
        pairs = np.stack([apply_adjoint_rows(op, rows), adjoint_commutator_rows(op, b, rows)], 1)
        for (label, f, params), pair in zip(block, pairs):
            series = g_kappa_p(f, 1.0, p, cover, n_big).values
            ratios, comm_ratios = local_average_ratio(pair, series, q).tolist()
            # the 0.0 first: no ball when no ratio exceeds it
            best, i = _first_max([0.0, *ratios])
            best_center = [cover.centers[i - 1]] if i else None
            best_c = max([0.0] + [r / b_scale for r in comm_ratios])
            plain.append(best)
            comm.append(best_c)
            items.append(
                {"id": label, "params": dict(params),
                 "value": {"plain": best, "commutator": best_c,
                           "argmax_center": best_center}}
            )
    return _lemma_report(cfg, "local_average_control", items, plain, comm, [],
                         multiplier_norm=bnorm, cover_size=len(cover.centers),
                         symbol=op.symbol.label, p=p)


# ---------------------------------------------------------------------------
# Oscillation control: the adjoint kernel difference integrated outside a
# doubled ball against the damped series plus the cover maximal function.
# ---------------------------------------------------------------------------


def _oscillation_rows(op, c: float, r: float) -> np.ndarray:
    """|K*(x,.) - K*(y,.)| over the lattice for the pairs (c -+ 0.5r) and
    (c + 0.9r, c + 0.15r) of B(c, r), then for c + 0.25r twice (the same-point
    probe): one stack of six adjoint rows.  Evaluate on the band-limited twin:
    a hard lattice cutoff rings at |z|^{-1}, and the ringing does not cancel
    between two base points."""
    kstar = adjoint_kernel_row(op, c + r * np.array([-0.5, 0.5, 0.9, 0.15, 0.25, 0.25]))
    return np.abs(kstar[0::2] - kstar[1::2])


def _oscillation_balls(grid, centers, radii) -> list[tuple[float, float, np.ndarray]]:
    """(c, r, grid points of B(c, r)) per oscillation ball, center-major as
    lemma42 reports them.  lemma42 reads minima over each ball, so the first
    empty one, radius-major, is refused; past the half box a ball holds all."""
    balls = [(c, r, ball_indices(grid, Ball((c,), min(r, grid.half_length))))
             for c in centers for r in radii]
    for c, r, idx in sorted(balls, key=lambda ball: radii.index(ball[1])):
        if len(idx) == 0:
            raise ValueError(f"ball B({c:g}, {r:g}) holds no grid point")
    return balls


def run_oscillation_check(cfg: ExperimentConfig) -> VerificationReport:
    """Lemma 4.2: the adjoint kernel's oscillation outside doubled balls.

    Per ball B = B(c, r), base-point pair (x, y) in B and corpus item f
    (two packets scaled to B and band noise), the statistic is
    int_{z outside 2B} |K*(x,z) - K*(y,z)| |f(z)| dz over
    inf_B g_{4,p} f + inf_B m~_p f, and its commutator analogue with
    |b - b_B| |f| over the BMO_theta norm of b; the spread runs across all
    items.  Three probes per ball must read exactly 0: x = y, f supported
    in 2B, and a constant multiplier.  Only the minima over each B of the
    two maximal functions are read.
    """
    op, n_big, b, bnorm, b_scale = _lemma_setup(cfg)
    grid = op.grid
    p = cfg.get("weight.p")
    balls = _oscillation_balls(grid, cfg.get("oscillation.centers"), cfg.get("oscillation.radii"))

    # On the critical balls that meet some B both maximal functions are
    # exact on every B (CriticalCover.meeting); off those balls' union they
    # read -inf, and nothing reads them there.
    cover = build_critical_cover(grid).meeting(np.concatenate([idx for *_, idx in balls]))

    def majorized(label, f, params):
        """A corpus item with its majorants g_{4,p} f and m~_p f on the cover."""
        return (label, f, params, g_kappa_p(f, 4.0, p, cover, n_big).values,
                m_tilde_s(f, p, cover).values)

    noise = majorized("noise", band_noise(grid, cfg.seed), {"seed": cfg.seed})

    items = []
    plain, comm, zeros = [], [], []
    for c, r, idx in balls:
        outside = ~ball_mask(grid, Ball((c,), 2.0 * r))
        *cuts, same_cut = (row[outside] * grid.spacing for row in _oscillation_rows(op, c, r))
        b_dev = np.abs(b.values[outside] - float(_gathered(b.values, idx)))

        # packets scaled to the ball so every generic item keeps real
        # mass outside 2B; a packet swallowed by 2B probes nothing
        # (its ratio is the trivial-zero regime)
        corpus = [
            majorized("packet(+3r,w=r)", gaussian_packet(grid, c + 3.0 * r, r),
                      {"offset": 3.0, "width": r}),
            majorized("packet(-4.5r,w=1.2r)", gaussian_packet(grid, c - 4.5 * r, 1.2 * r),
                      {"offset": -4.5, "width": 1.2 * r}),
            noise,
        ]
        for label, f, params, g4, mt in corpus:
            rhs = float(_gathered(g4, idx, np.min)) + float(_gathered(mt, idx, np.min))
            dens = np.abs(f.values[outside])
            dens_b = b_dev * dens
            for i, cut in enumerate(cuts):
                val = float(np.sum(cut * dens)) / rhs
                val_b = float(np.sum(cut * dens_b)) / (rhs * b_scale)
                plain.append(val)
                comm.append(val_b)
                items.append(
                    {"id": f"ball(c={c:g},r={r:g})|pair{i}|{label}",
                     "params": {"ball_center": c, "ball_radius": r,
                                "pair": i, **params},
                     "value": {"plain": val, "commutator": val_b}}
                )

        # exact-zero probes on this ball, each integrated outside 2B: same
        # base point (two rows of one stack), support inside the doubled
        # ball, constant multiplier; the last two reuse the first pair's cut
        f0 = corpus[0][1].values
        same, supported, constant = (
            float(np.sum(cut * np.abs(dens[outside])))
            for cut, dens in ((same_cut, f0), (cuts[0], np.where(outside, 0.0, f0)),
                              (cuts[0], (np.ones(grid.n) - 1.0) * f0)))
        zeros.extend([same, supported, constant])
        items.append(
            {"id": f"ball(c={c:g},r={r:g})|zero_cases",
             "params": {"ball_center": c, "ball_radius": r},
             "value": {"same_point": same, "inside_support": supported,
                       "constant_multiplier": constant}}
        )

    zero_case_max = float(np.max(np.abs(zeros)))
    return _lemma_report(cfg, "kernel_oscillation_control", items, plain, comm,
                         [Criterion("zero_case_max", zero_case_max, "==", 0.0)],
                         zero_case_max=zero_case_max, multiplier_norm=bnorm,
                         symbol=op.symbol.label, p=p)


# ---------------------------------------------------------------------------
# Module-level wrappers: kernel probe, weight calculus, oscillation norms,
# maximal machinery, local sharp control.
# ---------------------------------------------------------------------------


def run_kernel_decay(cfg: ExperimentConfig) -> VerificationReport:
    """Dyadic kernel decay fits, the difference table, and far-field bounds."""
    grid = cfg.make_grid()
    sym = cfg.make_symbol()
    op = make_operator(sym, grid)
    k_lo, k_hi = cfg.get("kernel.k_lo"), cfg.get("kernel.k_hi")
    slope_tol = cfg.get("tolerances.slope")
    items, criteria = [], []
    items.append(
        {"id": "partition_residual", "params": {},
         "value": evaluate_partition_residual(op.family)}
    )
    ells = range(cfg.get("kernel.ell_max") + 1)
    fits = fit_decay_in_k(op, ells, k_range=range(k_lo, k_hi + 1), tolerance=slope_tol)
    for ell, fit in zip(ells, fits):
        items.append({"id": f"decay(ell={ell})", "params": {"ell": ell},
                      "value": fit.to_dict()})
        criteria += fit.criteria(f"decay(ell={ell})")

    j_lo, j_hi = cfg.get("kernel.diff_j")
    dk_lo, dk_hi = cfg.get("kernel.diff_k")
    ball = Ball((0.0,), cfg.get("kernel.diff_ball_radius"))
    diff = fit_difference_estimate(
        op, ball, j_range=range(j_lo, j_hi + 1), k_range=range(dk_lo, dk_hi + 1)
    )
    items.append({"id": "difference_j", "params": {"r_b": diff.r_b},
                  "value": diff.j_fit.to_dict()})
    items.append({"id": "difference_k", "params": {"r_b": diff.r_b},
                  "value": diff.k_fit.to_dict()})
    criteria += diff.j_fit.criteria("difference_j") + diff.k_fit.criteria("difference_k")

    adj = adjoint_kernel_bounds(
        op, n_exp=cfg.get("kernel.adjoint_n_exp"), tolerance=slope_tol
    )
    items.append({"id": "adjoint_far_field", "params": {"n_exp": adj.n_exp},
                  "value": adj.far_field.to_dict()})
    items.append({"id": "adjoint_difference", "params": {"n_exp": adj.n_exp},
                  "value": adj.difference.to_dict()})
    items.append({"id": "adjoint_far_over_peak", "params": {},
                  "value": adj.weighted_far_over_peak})
    criteria += (adj.far_field.criteria("adjoint_far_field")
                 + adj.difference.criteria("adjoint_difference"))

    agg = {"symbol": sym.label, "fits": len(items) - 2}
    return _report(cfg, "kernel_decay_probe", items, agg, criteria)


def run_weight_calculus(cfg: ExperimentConfig) -> VerificationReport:
    """Characteristic sanity, p-monotonicity, stabilization, openness."""
    grid = cfg.make_grid()
    w = cfg.make_weight(grid)
    p = cfg.get("weight.p")
    theta = cfg.get("weight.theta")
    family = sweep_family(grid)
    items = []

    unit = ap_theta_characteristic(preset_weight("unit", grid), p, 0.0, family)
    items.append({"id": "unit_characteristic", "params": {"p": p},
                  "value": unit.value})
    criteria = [Criterion("unit_characteristic_error", abs(unit.value - 1.0), "<=", 1e-10)]

    # monotonicity at (p, p + 1) and openness below p share the stabilization
    # sweep at p and its log means of w: one more pass per new exponent
    stab, at_p, log_w_means = _weight_stabilization(cfg)
    (at_q, below), _ = _ap_theta_values(w, (p + 1.0, _openness_exponent(p)), theta, family,
                                        log_w_means)
    mono = _monotonicity(max(at_p), max(at_q))
    items.append({"id": "monotonicity", "params": {"p": p, "q": p + 1.0},
                  "value": mono.aggregate})
    criteria += mono.criteria

    items.append(
        {"id": "stabilization", "params": {"p": p, "theta": theta},
         "value": {"caps": list(stab.caps), "values": list(stab.values),
                   "growth_slope": stab.growth_slope, "stable": stab.stable}}
    )
    criteria += stabilization_criteria(stab, "stabilization")

    openness = _openness(_stabilization(below, family))
    items.append({"id": "openness", "params": {"p": p},
                  "value": openness.aggregate})
    criteria += openness.criteria

    agg = {"weight": w.label, "p": p, "theta": theta}
    return _report(cfg, "weight_calculus", items, agg, criteria)


def run_bmo(cfg: ExperimentConfig) -> VerificationReport:
    """Growth-allowed oscillation norm plus the two s-moment ratio checks."""
    grid = cfg.make_grid()
    b = cfg.make_bmo(grid)
    theta = cfg.get("bmo.theta")
    jn = check_john_nirenberg_variant(b, theta, 2.0, Ball((0.0,), 0.5),
                                      family=sweep_family(grid, inside_only=True))
    norm = jn.aggregate["norm"]
    items = [
        {"id": "norm", "params": {"theta": theta}, "value": norm},
        {"id": "moment_ratios", "params": {"s": 2.0}, "value": jn.aggregate},
    ]
    criteria = [Criterion("norm_finite", norm, "<", np.inf), *jn.criteria]
    agg = {"multiplier": cfg.get("bmo.preset"), "theta": theta, "norm": norm}
    return _report(cfg, "mean_oscillation_calculus", items, agg, criteria)


def run_maximal(cfg: ExperimentConfig) -> VerificationReport:
    """Cover invariants plus weighted bounds for the two maximal operators."""
    grid = cfg.make_grid()
    cover = build_critical_cover(grid)
    items, criteria = [], []
    items.append({"id": "cover", "params": {}, "value": cover.to_json_dict()})
    for sigma in (1.0, 2.0, 4.0, 8.0):
        mult = int(np.max(cover.multiplicity(sigma)))
        name = f"multiplicity(sigma={sigma:g})"
        items.append({"id": name, "params": {"sigma": sigma}, "value": mult})
        criteria.append(Criterion(name, mult, "<=", 10.0 * sigma, "10*sigma"))

    w = cfg.make_weight(grid)
    # The cover maximal smears each packet over the 8-dilate window, about
    # nine units either side, so for packets in the inner box the weighted
    # ratio still carries the weight's curvature and reads as a spurious
    # downward trend.  The uniformity claim is about growth toward the edge;
    # sweep the outer quarter, where the smear window sits on the weight's
    # power tail and the ratio has settled.
    half = grid.half_length
    centers = np.linspace(0.4 * half, 0.5 * half,
                          cfg.get("corpus.center_count"))
    corpus = gaussian_corpus(
        grid, centers=centers, widths=cfg.get("corpus.widths"),
        modulations=(0,),
    )
    wb = check_weighted_bounds_maximal(
        corpus,
        w,
        cfg.get("weight.p"),
        cfg.get("maximal.s"),
        cfg.get("weight.theta"),
        cover,
        kappa=cfg.get("maximal.kappa"),
        n_big=cfg.get("maximal.n_big"),
        spread=cfg.get("tolerances.ratio_spread"),
        trend=cfg.get("tolerances.trend_slope"),
    )
    items.append({"id": "weighted_bounds", "params": {},
                  "value": wb.aggregate})
    agg = {"cover_size": len(cover.centers), "weight": w.label}
    return _report(cfg, "maximal_machinery", items, agg, criteria + wb.criteria, wb.gates)


def run_fs(cfg: ExperimentConfig) -> VerificationReport:
    """Local sharp-function control over a mixed corpus."""
    grid = cfg.make_grid()
    cover = build_critical_cover(grid)
    w = cfg.make_weight(grid)
    p = cfg.get("weight.p")
    corpus = mixed_corpus(grid, cfg.get("fs.count"), cfg.seed)
    checks = fs_inequality_rows((rows for _, rows in corpus_blocks(corpus, grid.n)), w, p, cover)
    ratios = [ratio for *_, ratio in checks]
    items = [{"id": label, "params": dict(params), "value": ratio}
             for (label, _, params), ratio in zip(corpus, ratios)]
    # every ratio is >= 0 or NaN, and NaN carries through the max
    agg, criteria = _family(cfg, "", ratios)
    agg.update(weight=w.label, p=p)
    return _report(cfg, "local_sharp_control", items, agg, criteria)


VERIFY_TARGETS = {
    "kernel-decay": run_kernel_decay,
    "weights": run_weight_calculus,
    "bmo": run_bmo,
    "maximal": run_maximal,
    "fs": run_fs,
    "theorem13a": run_boundedness_experiment,
    "theorem13b": run_commutator_experiment,
    "lemma41": run_local_average_check,
    "lemma42": run_oscillation_check,
}


def run_all(cfg: ExperimentConfig) -> dict[str, VerificationReport]:
    """Every verify target once, in a fixed order."""
    return {name: runner(cfg) for name, runner in VERIFY_TARGETS.items()}
