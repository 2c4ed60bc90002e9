"""The layer boundaries the traced run records, and the per-layer metrics
derived from its spans.

Every ``_s`` metric is seconds per workload operation (one solve plus
analyze of a problem, or one set-calculus pass) and every count is per
operation too, so layer numbers add up against ``op_s``.  Times are
inclusive of nested calls unless the name says ``self``.
"""

from evfam import analysis, cfp, families, intseq, multisets, setlimits


def _acsa_counts(args, trace):
    return {"steps": trace.n_steps, "checkpoints": len(trace.checkpoints),
            "residual_evals": len(trace.checkpoints) * len(args[0])}


def _certify_counts(args, cert):
    followed = sum(1 for rep in cert.follows if rep.min_c is not None)
    return {"pairs": len(cert.entries), "pair_base": len(cert.candidates) * followed}


def _rows(module, names, measures=None):
    short = module.__name__.rsplit(".", 1)[-1]
    return [(f"{short}.{n}", module, n, (measures or {}).get(n)) for n in names]


LAYERS = (
    _rows(cfp, ["problem_from_json", "acsa_run", "trace_summary", "trace_records",
                "trace_from_records", "replay_trace"], {"acsa_run": _acsa_counts})
    + _rows(analysis, ["follows_check", "accumulation_points", "cogap_limit_estimate",
                       "certify_fixed_points", "follows_report_json", "limit_estimate_json",
                       "certification_json"], {
        "follows_check": lambda args, rep: {"witnesses": len(rep.witnesses)},
        "cogap_limit_estimate": lambda args, est: {"candidates": len(est.candidates)},
        "certify_fixed_points": _certify_counts,
    })
    + _rows(intseq, ["union", "intersection", "complement", "gap", "cogap"])
    + _rows(families, ["all_topologies", "limit_set", "closure_family", "star"])
    + [("families.from_subbasis", families.FiniteTopology, "from_subbasis", None)]
    + _rows(multisets, ["mf_closure", "multiset_limit", "mstar"])
    + _rows(setlimits, ["classical_limits", "e_limit", "verify_limit_theorem"])
)

JSON_SPANS = {"analysis.follows_report_json", "analysis.limit_estimate_json",
              "analysis.certification_json"}

# metric -> span names whose inclusive seconds it sums
TOTALS = {
    "cfp.acsa_run_s": ["cfp.acsa_run"],
    "cfp.problem_from_json_s": ["cfp.problem_from_json"],
    "cfp.trace_records_s": ["cfp.trace_records"],
    "cfp.trace_summary_s": ["cfp.trace_summary"],
    "cfp.trace_from_records_s": ["cfp.trace_from_records"],
    "cfp.replay_trace_s": ["cfp.replay_trace"],
    "analysis.follows_check_s": ["analysis.follows_check"],
    "analysis.accumulation_points_s": ["analysis.accumulation_points"],
    "intseq.union_s": ["intseq.union"],
    "intseq.intersection_s": ["intseq.intersection"],
    "intseq.complement_s": ["intseq.complement"],
    "intseq.gap_s": ["intseq.gap"],
    "intseq.cogap_s": ["intseq.cogap"],
    "families.closure_family_s": ["families.closure_family"],
    "families.limit_set_s": ["families.limit_set"],
    "families.star_s": ["families.star"],
    "families.topology_build_s": ["families.all_topologies", "families.from_subbasis"],
    "multisets.mf_closure_s": ["multisets.mf_closure"],
    "multisets.multiset_limit_s": ["multisets.multiset_limit"],
    "multisets.mstar_s": ["multisets.mstar"],
    "setlimits.verify_limit_theorem_s": ["setlimits.verify_limit_theorem"],
    "setlimits.e_limit_s": ["setlimits.e_limit"],
    "setlimits.classical_limits_s": ["setlimits.classical_limits"],
}

# metric -> span name whose self seconds it reports
SELF = {
    "analysis.cogap_limit_estimate_self_s": "analysis.cogap_limit_estimate",
    "analysis.certify_fixed_points_self_s": "analysis.certify_fixed_points",
    "cli.solve_self_s": "cli.solve",
    "cli.analyze_self_s": "cli.analyze",
}

# metric -> (span name, count key); a key of None counts the calls
COUNTS = {
    "cfp.steps": ("cfp.acsa_run", "steps"),
    "cfp.checkpoints": ("cfp.acsa_run", "checkpoints"),
    "cfp.residual_evals": ("cfp.acsa_run", "residual_evals"),
    "analysis.follows_calls": ("analysis.follows_check", None),
    "analysis.witnesses": ("analysis.follows_check", "witnesses"),
    "analysis.estimate_calls": ("analysis.cogap_limit_estimate", None),
    "analysis.candidates": ("analysis.cogap_limit_estimate", "candidates"),
    "analysis.certified_pairs": ("analysis.certify_fixed_points", "pairs"),
}

# metric -> key of the counts the benchmark's own checks take per operation
OP_COUNTS = {
    "cli.trace_bytes": "trace_bytes",
    "cli.report_bytes": "report_bytes",
    "families.combos": "combos",
}

UNITS = {
    **{n: "s" for n in [*TOTALS, *SELF, "analysis.json_s", "cli.solve_s", "cli.analyze_s",
                        "trace.overhead_s"]},
    **{n: "count" for n in [*COUNTS, "families.combos", "intseq.ops"]},
    "cli.trace_bytes": "bytes",
    "cli.report_bytes": "bytes",
    "cfp.us_per_step": "us",
    "analysis.pair_yield": "ratio",
}


def layer_metrics(recorder, n_ops, op_counts, untraced):
    """Per-layer metrics of ``n_ops`` traced operations.

    ``op_counts`` sums the per-operation counts of the benchmark's checks;
    ``untraced`` holds cli.solve_s and cli.analyze_s, untraced medians, and
    trace.overhead_s, the median of traced minus untraced scaled time per
    operation.
    """
    rows = recorder.summarize()

    def field(span, key):
        return rows.get(span, {}).get(key, 0)

    def count(span, key):
        return field(span, "calls") if key is None else rows.get(span, {}).get("counts", {}).get(key, 0)

    values = {}
    for metric, spans in TOTALS.items():
        values[metric] = sum(field(s, "total") for s in spans) / n_ops
    for metric, span in SELF.items():
        values[metric] = field(span, "self") / n_ops
    for metric, (span, key) in COUNTS.items():
        values[metric] = count(span, key) / n_ops
    for metric, key in OP_COUNTS.items():
        values[metric] = op_counts.get(key, 0) / n_ops
    steps = count("cfp.acsa_run", "steps")
    values["cfp.us_per_step"] = 1e6 * field("cfp.acsa_run", "total") / steps if steps else 0.0
    base = count("analysis.certify_fixed_points", "pair_base")
    values["analysis.pair_yield"] = count("analysis.certify_fixed_points", "pairs") / base if base else 0.0
    values["analysis.json_s"] = recorder.outermost_total(JSON_SPANS) / n_ops
    values["intseq.ops"] = sum(
        field(name, "calls") for name in rows if name.startswith("intseq.")) / n_ops
    values.update(untraced)
    return {name: {"value": values[name], "unit": UNITS[name]} for name in sorted(values)}
