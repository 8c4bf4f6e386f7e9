"""Which library callables the traced run wraps, and the per-layer
metrics computed from what the tracer saw.

Span names are ``<module>.<stage>``; each maps to one or more patch
sites, one per namespace that calls the function.
"""

from __future__ import annotations


def _field_char(args, kwargs, pos):
    return kwargs.get("field_char", kwargs.get("char", args[pos] if len(args) > pos else 0))


def _taylor_labels(lcm):
    """Counter of the distinct non-unit Taylor labels of a generator list:
    the multidegrees ``taylor_betti`` examines.  Cached per generator
    list, so the counting runs once per instance."""
    cache = {}

    def count(result, args, kwargs):
        gens = tuple(args[0])
        n = cache.get(gens)
        if n is None:
            labels = set()
            for g in gens:
                labels |= {lcm(m, g) for m in labels} | {g}
            cache[gens] = n = len(labels)
        return {"resolution.taylor_labels": n}

    return count


def install(tracer, lib, workloads_module) -> set:
    """Wrap every traced callable; ``lib`` holds the library modules.

    Returns the set that collects the faces ``enumerate_arrows``
    classified; the caller empties it after each op to count distinct
    faces per op.
    """
    cli, res, mat, mor = lib.cli, lib.resolution, lib.matching, lib.morse
    faces: set = set()

    def enumerated(result, args, kwargs):
        faces.update(f for f, _ in result)
        return {"matching.faces_classified": len(result)}

    patch = tracer.patch
    for ns in (lib.ordering, cli, res):
        patch(ns, "order_generators", "ordering.order")
    patch(lib.powers.PowerBasis, "__init__", "powers.basis",
          count=lambda _r, a, _k: {"powers.generators": a[0].size})
    patch(mat.TaylorMatching, "arrow", "matching.arrow", hot=True)
    patch(mat.TaylorMatching, "enumerate_arrows", "matching.enumerate", count=enumerated)
    patch(mat.TaylorMatching, "critical_faces_closed_form", "matching.closed_form")
    for ns in (cli, mat):
        patch(ns, "verify_matching_acyclic", "matching.acyclic")
        patch(ns, "verify_matching_homogeneous", "matching.homogeneous")
    patch(mor.MorseComplex, "critical_cells", "morse.critical_cells")
    patch(mor.MorseComplex, "cell_lcm", "morse.cell_lcm", hot=True)
    patch(mor.MorseComplex, "differential", "morse.differential", hot=True,
          count=lambda result, _a, _k: {"morse.differential_nnz": len(result)})
    patch(mor.MorseComplex, "paths_bruteforce", "morse.paths_bruteforce", hot=True)
    patch(cli, "_paths_consistent", "morse.paths_check")
    for ns in (cli, res):
        patch(ns, "build_resolution", "resolution.build",
              count=lambda c, _a, _k: {"morse.cells": sum(c.ranks())})
        patch(ns, "verify_d2", "resolution.d2")
        patch(ns, "verify_minimality", "resolution.minimality")
        patch(ns, "verify_strand_acyclicity",
              lambda a, k: f"resolution.strand_char{_field_char(a, k, 1)}")
    patch(res, "strand_degrees", "resolution.strand_degrees",
          count=lambda result, _a, _k: {"resolution.strand_degrees": len(result)})
    patch(res, "_strand_is_acyclic", "resolution.strand_check", hot=True)
    patch(res, "taylor_betti", lambda a, k: f"resolution.taylor_char{_field_char(a, k, 1)}",
          count=_taylor_labels(lib.morsepow.lcm))
    patch(cli, "run", "cli.run")
    patch(workloads_module, "serialize", "cli.serialize",
          count=lambda payload, _a, _k: {"cli.report_bytes": len(payload)})
    return faces


# (metric, unit): seconds and counts are per op unless the name says
# otherwise; ``ordering.order_s`` is per order_generators call, since
# set-up orders every instance of the run whatever the op count.
PER_LAYER = (
    ("ordering.order_s", "s"),
    ("powers.basis_s", "s"),
    ("powers.generators", "count"),
    ("powers.basis_builds", "count"),
    ("matching.arrow_calls", "count"),
    ("matching.arrow_s", "s"),
    ("matching.enumerate_s", "s"),
    ("matching.enumerate_calls", "count"),
    ("matching.faces_classified", "count"),
    ("matching.faces_distinct", "count"),
    ("matching.classify_useful_ratio", "ratio"),
    ("matching.acyclic_s", "s"),
    ("matching.homogeneous_s", "s"),
    ("matching.closed_form_s", "s"),
    ("morse.critical_cells_s", "s"),
    ("morse.cells", "count"),
    ("morse.cell_lcm_s", "s"),
    ("morse.cell_lcm_calls", "count"),
    ("morse.cell_lcm_per_cell", "ratio"),
    ("morse.differential_s", "s"),
    ("morse.differential_nnz", "count"),
    ("morse.paths_check_s", "s"),
    ("morse.paths_bruteforce_calls", "count"),
    ("resolution.build_s", "s"),
    ("resolution.build_self_s", "s"),
    ("resolution.d2_s", "s"),
    ("resolution.minimality_s", "s"),
    ("resolution.strand_degrees_s", "s"),
    ("resolution.strand_degrees", "count"),
    ("resolution.strand_degrees_calls", "count"),
    ("resolution.strand_char0_s", "s"),
    ("resolution.strand_char2_s", "s"),
    ("resolution.strands_checked", "count"),
    ("resolution.taylor_char0_s", "s"),
    ("resolution.taylor_char2_s", "s"),
    ("resolution.taylor_labels", "count"),
    ("cli.run_s", "s"),
    ("cli.run_self_s", "s"),
    ("cli.serialize_s", "s"),
    ("cli.report_bytes", "count"),
    ("trace.overhead_s", "s"),
)


def metrics(tracer, ops: int, distinct_faces: int, overhead_s: float) -> dict:
    """Per-layer (value, unit) pairs from a tracer that saw ``ops`` ops."""
    t, s, calls, k = tracer.totals, tracer.self_totals, tracer.calls, tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    values = {
        "ordering.order_s": ratio(t["ordering.order"], calls["ordering.order"]),
        "powers.basis_s": t["powers.basis"] / ops,
        "powers.generators": ratio(k["powers.generators"], calls["powers.basis"]),
        "powers.basis_builds": calls["powers.basis"] / ops,
        "matching.arrow_calls": calls["matching.arrow"] / ops,
        "matching.arrow_s": t["matching.arrow"] / ops,
        "matching.enumerate_s": t["matching.enumerate"] / ops,
        "matching.enumerate_calls": calls["matching.enumerate"] / ops,
        "matching.faces_classified": k["matching.faces_classified"] / ops,
        "matching.faces_distinct": distinct_faces / ops,
        "matching.classify_useful_ratio": ratio(distinct_faces, k["matching.faces_classified"]),
        "matching.acyclic_s": t["matching.acyclic"] / ops,
        "matching.homogeneous_s": t["matching.homogeneous"] / ops,
        "matching.closed_form_s": t["matching.closed_form"] / ops,
        "morse.critical_cells_s": t["morse.critical_cells"] / ops,
        "morse.cells": k["morse.cells"] / ops,
        "morse.cell_lcm_s": t["morse.cell_lcm"] / ops,
        "morse.cell_lcm_calls": calls["morse.cell_lcm"] / ops,
        "morse.cell_lcm_per_cell": ratio(calls["morse.cell_lcm"], k["morse.cells"]),
        "morse.differential_s": t["morse.differential"] / ops,
        "morse.differential_nnz": k["morse.differential_nnz"] / ops,
        "morse.paths_check_s": t["morse.paths_check"] / ops,
        "morse.paths_bruteforce_calls": calls["morse.paths_bruteforce"] / ops,
        "resolution.build_s": t["resolution.build"] / ops,
        "resolution.build_self_s": s["resolution.build"] / ops,
        "resolution.d2_s": t["resolution.d2"] / ops,
        "resolution.minimality_s": t["resolution.minimality"] / ops,
        "resolution.strand_degrees_s": t["resolution.strand_degrees"] / ops,
        "resolution.strand_degrees": ratio(
            k["resolution.strand_degrees"], calls["resolution.strand_degrees"]
        ),
        "resolution.strand_degrees_calls": calls["resolution.strand_degrees"] / ops,
        "resolution.strand_char0_s": t["resolution.strand_char0"] / ops,
        "resolution.strand_char2_s": t["resolution.strand_char2"] / ops,
        "resolution.strands_checked": calls["resolution.strand_check"] / ops,
        "resolution.taylor_char0_s": t["resolution.taylor_char0"] / ops,
        "resolution.taylor_char2_s": t["resolution.taylor_char2"] / ops,
        "resolution.taylor_labels": ratio(
            k["resolution.taylor_labels"],
            calls["resolution.taylor_char0"] + calls["resolution.taylor_char2"],
        ),
        "cli.run_s": t["cli.run"] / ops,
        "cli.run_self_s": s["cli.run"] / ops,
        "cli.serialize_s": t["cli.serialize"] / ops,
        "cli.report_bytes": k["cli.report_bytes"] / ops,
        "trace.overhead_s": overhead_s,
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}


# verifier span -> key of the ``timings`` dict that ``cli.run`` returns
TIMED_BY_CLI = {
    "resolution.build": "build_resolution",
    "matching.acyclic": "matching_acyclic",
    "matching.homogeneous": "matching_homogeneous",
    "morse.paths_check": "gradient_paths_match_closure",
    "resolution.d2": "differentials_compose_to_zero",
    "resolution.minimality": "minimality",
    "resolution.strand_char0": "strand_acyclicity_char_0",
    "resolution.strand_char2": "strand_acyclicity_char_2",
}


def timings_mismatches(spans, op, timings) -> list[str]:
    """Verifier spans of one op that disagree with the CLI's own timer.

    The CLI's timer wraps the call that the span wraps, so the span must
    not be longer, and may be shorter only by the wrapping overhead.
    """
    bad = []
    for _, name, start, end, _, span_op, _ in spans:
        key = TIMED_BY_CLI.get(name)
        if span_op != op or key not in timings:
            continue
        span, timed = end - start, timings[key]
        if span > timed or timed - span > max(0.25 * timed, 0.05):
            bad.append(f"{name}: span {span:.6f}s vs cli {key} {timed:.6f}s")
    return bad
