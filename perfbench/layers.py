"""What the traced run wraps, layer by layer, and the per-layer metrics it
derives from the spans.

Span names are "<layer>.<function>"; stage spans are "stage.<stage name>".
`_s` metrics are self time (the span minus its traced children), except
`stage.*_s`, which are whole stages so that they add up to the pipeline.
`.calls` metrics count spans; the other counts are exact work measures.
"""

from __future__ import annotations

from tracer import Target, self_times

STAGES = ("regularity", "classification", "polynomials", "hilbert-C",
          "charge2-table", "h1-window", "exceptional-pair", "lines", "jw",
          "jw1")
VERIFY_SPANS = ("verify.jw_pointwise", "verify.jw1_section_check")
TABLE_SPANS = ("cohomology.charge2_instanton_table",
               "cohomology.h1_pattern_check",
               "cohomology.exceptional_pair_check_y")


def _mul_terms(tracer, args, kwargs):
    a, b = args[0], args[1]
    other = getattr(b, "terms", None)
    if other is not None:
        tracer.count("multipoly.mul.term_products", len(a.terms) * len(other))


def _addmul_flops(tracer, args, kwargs):
    target, delta = args[0], args[1]
    cols = target.shape[1]
    lo = args[4] if len(args) > 4 else kwargs.get("col_lo")
    hi = args[5] if len(args) > 5 else kwargs.get("col_hi")
    if lo is not None:
        cols -= max(0, min(hi, cols) - lo)
    tracer.count("modnum.addmul_mod.flops",
                 2 * delta.shape[0] * delta.shape[1] * cols)


def _rref_cells(tracer, args, kwargs):
    shape = getattr(args[0], "shape", None)
    if shape is not None and len(shape) == 2:
        tracer.count("modnum.rref_mod.cells", int(shape[0]) * int(shape[1]))


def _batch_matrices(tracer, args, kwargs):
    tracer.count("modnum.batch_rank.matrices", len(args[0]))


def _ladder_degree(tracer, args, kwargs):
    tracer.peak("ideals.top_degree", int(args[1]))


def _jw_checked(tracer, report, args):
    tracer.count("verify.checked", report.checked)
    if args[1].mode == "random":
        tracer.count("verify.checked_random", report.checked)


TARGETS = (
    Target("cli.build_report", "pfaffian_nets.cli:build_report"),
    Target("stage", "pfaffian_nets.cli:_run_stage",
           label=lambda args: "stage." + args[0]),
    Target("ideals.is_empty_projective",
           "pfaffian_nets.ideals:is_empty_projective"),
    Target("ideals.fit_hilbert_polynomial",
           "pfaffian_nets.ideals:fit_hilbert_polynomial"),
    Target("ideals.minors_ideal", "pfaffian_nets.ideals:minors_ideal"),
    Target("ideals.ideal_rank",
           "pfaffian_nets.ideals:HilbertEngine.ideal_rank",
           pre=_ladder_degree),
    Target("ideals.ladder_step", "pfaffian_nets.ideals:HilbertEngine._step"),
    Target("modnum.addmul_mod", "pfaffian_nets.modnum:addmul_mod",
           pre=_addmul_flops),
    Target("modnum.rref_mod", "pfaffian_nets.modnum:rref_mod",
           pre=_rref_cells),
    Target("modnum.batch_rank", "pfaffian_nets.modnum:batch_rank",
           pre=_batch_matrices),
    Target("modnum.batch_rank", "pfaffian_nets.modnum:batch_rank_table",
           pre=_batch_matrices),
    Target("multipoly.mul", "pfaffian_nets.multipoly:MultiPoly.__mul__",
           pre=_mul_terms),
    Target("multipoly.evaluate",
           "pfaffian_nets.multipoly:MultiPoly.evaluate"),
    Target("multipoly.det_poly", "pfaffian_nets.multipoly:det_poly"),
    Target("multipoly.pfaffian_poly",
           "pfaffian_nets.multipoly:pfaffian_poly"),
    Target("matrices.rref", "pfaffian_nets.matrices:ExactMatrix.rref"),
    Target("grassmann.enumerate_grassmannian",
           "pfaffian_nets.grassmann:enumerate_grassmannian", kind="gen",
           per_item="grassmann.enumerate_grassmannian.points"),
    Target("grassmann.enumerate_projective",
           "pfaffian_nets.grassmann:enumerate_projective", kind="gen",
           per_item="grassmann.enumerate_projective.points"),
    Target("grassmann.plucker_from_basis",
           "pfaffian_nets.grassmann:plucker_from_basis"),
) + tuple(
    Target("correspondence." + fn, "pfaffian_nets.correspondence:" + fn)
    for fn in ("is_regular", "classify", "pfaffian_hypersurface", "q_quartic",
               "x_points", "y_points", "fv_rank_profile", "find_lines_on_y",
               "phi_fiber")
) + (
    Target("verify.jw_pointwise", "pfaffian_nets.verify:jw_pointwise",
           post=_jw_checked),
    Target("verify.jw1_section_check",
           "pfaffian_nets.verify:jw1_section_check", post=_jw_checked),
    Target("cohomology.line_ideal_membership",
           "pfaffian_nets.cohomology:line_ideal_membership"),
) + tuple(Target(name, name.replace("cohomology.",
                                    "pfaffian_nets.cohomology:"))
          for name in TABLE_SPANS)

S, COUNT, RATIO = "s", "count", "ratio"

# (metric, unit, better); the order is the order of the printed report
PER_LAYER = (
    [("stage.%s_s" % st, S, "lower") for st in STAGES]
    + [("stage.coverage", RATIO, "higher"),
       ("trace.pipeline_s", S, "lower"),
       ("trace.overhead", RATIO, "lower"),
       ("trace.spans", COUNT, "lower"),
       ("ideals.is_empty_projective_s", S, "lower"),
       ("ideals.is_empty_projective.calls", COUNT, "lower"),
       ("ideals.fit_hilbert_polynomial_s", S, "lower"),
       ("ideals.minors_ideal_s", S, "lower"),
       ("ideals.hilbert_engine_s", S, "lower"),
       ("ideals.ladder_steps", COUNT, "lower"),
       ("ideals.top_degree", "degree", "lower"),
       ("modnum.addmul_mod_s", S, "lower"),
       ("modnum.addmul_mod.calls", COUNT, "lower"),
       ("modnum.addmul_mod.flops", "flop", "lower"),
       ("modnum.addmul_mod.gflops", "GFLOP/s", "higher"),
       ("modnum.rref_mod_s", S, "lower"),
       ("modnum.rref_mod.calls", COUNT, "lower"),
       ("modnum.rref_mod.cells", COUNT, "lower"),
       ("modnum.batch_rank_s", S, "lower"),
       ("modnum.batch_rank.matrices", COUNT, "lower"),
       ("multipoly.mul_s", S, "lower"),
       ("multipoly.mul.calls", COUNT, "lower"),
       ("multipoly.mul.term_products", COUNT, "lower"),
       ("multipoly.det_poly_s", S, "lower"),
       ("multipoly.pfaffian_poly_s", S, "lower"),
       ("multipoly.pfaffian_poly.calls", COUNT, "lower"),
       ("multipoly.evaluate_s", S, "lower"),
       ("multipoly.evaluate.calls", COUNT, "lower"),
       ("matrices.rref_s", S, "lower"),
       ("matrices.rref.calls", COUNT, "lower"),
       ("grassmann.enumerate_grassmannian_s", S, "lower"),
       ("grassmann.enumerate_grassmannian.points", COUNT, "lower"),
       ("grassmann.enumerate_projective_s", S, "lower"),
       ("grassmann.enumerate_projective.points", COUNT, "lower"),
       ("grassmann.plucker_from_basis.calls", COUNT, "lower")]
    + [("correspondence.%s.calls" % fn, COUNT, "lower")
       for fn in ("pfaffian_hypersurface", "q_quartic", "x_points",
                  "y_points", "phi_fiber", "is_regular")]
    + [("correspondence.%s_s" % fn, S, "lower")
       for fn in ("classify", "x_points", "fv_rank_profile",
                  "find_lines_on_y", "phi_fiber")]
    + [("verify.jw_pointwise_s", S, "lower"),
       ("verify.jw1_section_check_s", S, "lower"),
       ("verify.checked", COUNT, "higher"),
       ("verify.draws", COUNT, "lower"),
       ("verify.accept_ratio", RATIO, "higher"),
       ("cohomology.line_ideal_membership_s", S, "lower"),
       ("cohomology.tables_s", S, "lower")]
)

# counters that are read as they are, under their own metric name
_COUNTERS = ("multipoly.mul.term_products", "modnum.addmul_mod.flops",
             "modnum.rref_mod.cells", "modnum.batch_rank.matrices",
             "grassmann.enumerate_grassmannian.points",
             "grassmann.enumerate_projective.points", "verify.checked")


def per_layer_metrics(spans, counters, peaks, traced_s, untraced_s):
    """Every PER_LAYER metric from one traced run; `traced_s` and
    `untraced_s` are the pipeline_s of the traced and an untraced run."""
    own = self_times(spans)
    self_s, calls, whole = {}, {}, {}
    for (name, start, end, _), s in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        whole[name] = whole.get(name, 0.0) + (end - start)
    draws = sum(1 for name, _, _, parent in spans
                if name == "multipoly.evaluate" and parent >= 0
                and spans[parent][0] in VERIFY_SPANS)
    out = {}
    for st in STAGES:
        out["stage.%s_s" % st] = whole.get("stage." + st, 0.0)
    out["stage.coverage"] = sum(whole.get("stage." + st, 0.0)
                                for st in STAGES) / traced_s
    out["trace.pipeline_s"] = traced_s
    out["trace.overhead"] = traced_s / untraced_s - 1.0
    out["trace.spans"] = len(spans)
    for metric, _, _ in PER_LAYER:
        if metric in out:
            continue
        if metric in _COUNTERS:
            out[metric] = counters.get(metric, 0)
        elif metric.endswith(".calls"):
            out[metric] = calls.get(metric[:-len(".calls")], 0)
        elif metric.endswith("_s"):
            out[metric] = self_s.get(metric[:-2], 0.0)
    addmul_s = out["modnum.addmul_mod_s"]
    out["modnum.addmul_mod.gflops"] = (
        out["modnum.addmul_mod.flops"] / addmul_s / 1e9 if addmul_s else 0.0)
    out["ideals.hilbert_engine_s"] = (self_s.get("ideals.ideal_rank", 0.0)
                                      + self_s.get("ideals.ladder_step", 0.0))
    out["ideals.ladder_steps"] = calls.get("ideals.ladder_step", 0)
    out["ideals.top_degree"] = peaks.get("ideals.top_degree", 0)
    out["verify.draws"] = draws
    random_checked = counters.get("verify.checked_random", 0)
    out["verify.accept_ratio"] = random_checked / draws if draws else 0.0
    out["cohomology.tables_s"] = sum(self_s.get(n, 0.0) for n in TABLE_SPANS)
    return out
