"""Command-line interface: ingestion, subcommands, deterministic JSON
reports.

The machine format is JSON on stdout (or --out); a plain-text renderer
sits on top via --format text.  Default output is byte-identical across
runs for identical inputs; wall-clock timings only appear when --timings
is given, in their own section.  Indices in reports (joint function,
move sets, permutations) are 1-based to match the usual numbering of
generators m_1..m_q; everything in the Python API is 0-based.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import warnings
from dataclasses import dataclass

from .errors import (
    InvalidJointChoice,
    MorsepowError,
    NotMinimalGenerating,
    NotProjectiveDimensionOne,
    NotSquarefree,
    ParseError,
    TooLarge,
)
from .matching import (
    TaylorMatching,
    is_matching,
    split_arrows,
    verify_matching_acyclic,
    verify_matching_homogeneous,
)
from .monomials import Variables, format_monomial, parse_generators
from .morse import MorseComplex
from .ordering import order_generators, resolution_tree
from .powers import PowerBasis
from .resolution import (
    betti,
    betti_closed_form,
    build_resolution,
    check_field_char,
    dstab,
    pd_computed,
    pd_formula,
    pd_sequence,
    verify_d2,
    verify_minimality,
    verify_strands,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PD_ONE = 3
EXIT_TOO_LARGE = 4
EXIT_VERIFICATION = 5

SUBCOMMANDS = (
    "check",
    "order",
    "generators",
    "matching",
    "critical",
    "resolution",
    "betti",
    "pd",
    "verify",
    "all",
)


@dataclass
class IdealSpec:
    variables: list[str] | None
    generators: list[str]
    declared_order: list[int] | None
    r: int


def parse_ideal(text_or_json: str) -> IdealSpec:
    """Parse an ideal description, either JSON or the plain text form
    "I = (x*y, y*z, z*u); r = 2" (optionally "vars = (x, y, z, u);")."""
    s = text_or_json.strip()
    if s.startswith("{"):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON ideal spec: {exc}") from exc
        gens = data.get("generators", data.get("gens"))
        if not isinstance(gens, list) or not gens:
            raise ParseError('JSON spec needs a non-empty "gens" or "generators" list')
        r = data.get("r", 1)
        if not isinstance(r, int) or r < 1:
            raise ParseError('"r" must be a positive integer')
        variables = data.get("variables", data.get("vars"))
        if variables is not None and not isinstance(variables, list):
            raise ParseError('"variables" must be a list of names')
        order = data.get("declared_order")
        if order is not None and sorted(order) != list(range(1, len(gens) + 1)):
            raise ParseError('"declared_order" must be a permutation of 1..q')
        return IdealSpec(variables, [str(g) for g in gens], order, r)

    gens = None
    variables = None
    r = 1
    statements = [p.strip() for p in re.split(r"[;\n]", s) if p.strip()]
    for stmt in statements:
        m = re.fullmatch(r"(?:I\s*=\s*)?\(([^()]*)\)", stmt)
        if m:
            # a blank entry stays, for parse_generators to reject by position
            gens = [g.strip() for g in m.group(1).split(",")] if m.group(1).strip() else []
            continue
        m = re.fullmatch(r"r\s*=\s*([0-9]+)", stmt)
        if m:
            r = int(m.group(1))
            continue
        m = re.fullmatch(r"(?:vars|variables)\s*=\s*\(?([^()]*)\)?", stmt)
        if m:
            variables = [v.strip() for v in m.group(1).split(",") if v.strip()]
            continue
        raise ParseError(f"cannot parse statement {stmt!r}")
    if not gens:
        raise ParseError("no generator list found in the input")
    if r < 1:
        raise ParseError("r must be a positive integer")
    return IdealSpec(variables, gens, None, r)


def _ingest(spec: IdealSpec, joints_override=None):
    """Spec -> (OrderedGenerators, warnings emitted during ordering)."""
    gens, variables = parse_generators(
        spec.generators, Variables(spec.variables) if spec.variables else None
    )
    if spec.declared_order:
        gens = [gens[i - 1] for i in spec.declared_order]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        og = order_generators(gens, variables, joints_override)
    return og, [str(w.message) for w in caught]


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _fmt(monomial, og) -> str:
    return format_monomial(monomial, og.variables)


def _witness_section(og) -> dict:
    tree = resolution_tree(og)
    return {
        "generators_ordered": [_fmt(m, og) for m in og.generators],
        "order_permutation": _one_based(og.permutation),
        "tau": _one_based(og.joints),
        "complement_facets": [
            sorted(og.variables.name(v) for v in f) for f in og.facets
        ],
        "free_vertex_sets": [
            sorted(og.variables.name(v) for v in f) for f in og.free_sets
        ],
        "tree_edges": [
            {"from": i + 1, "to": j + 1, "label": _fmt(m, og)}
            for i, j, m in tree.edges
        ],
        "betti_of_ideal": [og.q, og.q - 1] if og.q > 1 else [1],
    }


def _critical_section(morse: MorseComplex) -> dict:
    cells = morse.critical_cells()
    serialized = []
    for dim, group in enumerate(cells):
        for c in group:
            serialized.append(
                {
                    "a": list(c.a),
                    "D": _one_based(c.moves),
                    "lcm": _fmt(morse.cell_lcm(c), morse.basis.og),
                    "dim": dim,
                }
            )
    return {"f_vector": [len(g) for g in cells], "cells": serialized}


def _resolution_section(complex) -> dict:
    og = complex.og
    out = {
        "length": complex.length,
        "ranks": list(complex.ranks()),
        "basis": [
            [
                {"a": list(c.a), "D": _one_based(c.moves), "lcm": _fmt(m, og)}
                for c, m in zip(cells, labels)
            ]
            for cells, labels in zip(complex.basis, complex.labels)
        ],
        "maps": [],
    }
    for i in range(1, complex.length + 1):
        entries = [
            {"row": row, "col": col, "coeff": c, "shift": _fmt(shift, og)}
            for (row, col), (c, shift) in sorted(complex.maps[i].items())
        ]
        out["maps"].append({"degree": i, "entries": entries})
    return out


def _matching_section(matching: TaylorMatching, cap: int, with_faces: bool):
    """The matching report, and the (faces, pairs, critical faces) of
    its one face classification for the verifiers to reuse."""
    classified = matching.enumerate_arrows(cap)
    classes = split_arrows(classified)
    by_dim: dict[int, int] = {}
    for f in classes.critical:
        by_dim[len(f) - 1] = by_dim.get(len(f) - 1, 0) + 1
    out = {
        "faces": len(classes.faces),
        "arrows": len(classes.pairs),
        "critical": len(classes.critical),
        "critical_by_dim": [by_dim.get(d, 0) for d in range(max(by_dim) + 1)],
    }
    if with_faces:
        out["records"] = matching.face_records(classified)
    return out, classes


def _verify_section(morse, complex, classes, cap, chars, skip_large: bool):
    """Run the verification battery on the layers ``run`` built;
    ``classes`` is the matching section's face classification, or None.
    Returns (section dict, timings, all_passed)."""
    for char in chars:
        check_field_char(char)  # before any check runs, not after most
    checks: dict[str, str] = {}
    timings: dict[str, float] = {}

    def record(name, fn):
        t0 = time.perf_counter()
        try:
            ok = fn()
        except TooLarge:
            if not skip_large:
                raise
            checks[name] = "SKIPPED (over cap)"
            return
        timings[name] = time.perf_counter() - t0
        checks[name] = "PASS" if ok else "FAIL"

    matching = morse.matching
    size = morse.basis.size

    def face_classes():
        # the matching section's face classification, or one made here
        nonlocal classes
        if classes is None:
            if (1 << size) > cap:
                raise TooLarge(
                    f"brute-force verification needs 2**{size} faces, over the cap {cap}",
                    cap=cap,
                )
            classes = split_arrows(matching.enumerate_arrows(cap))
        return classes

    record("matching_is_matching", lambda: is_matching(face_classes().pairs))
    record(
        "matching_acyclic",
        lambda: verify_matching_acyclic(face_classes().faces, face_classes().pairs),
    )
    record(
        "matching_homogeneous",
        lambda: verify_matching_homogeneous(
            face_classes().pairs, matching.face_exponents
        ),
    )
    record(
        "critical_cells_match_closed_form",
        lambda: face_classes().critical == matching.critical_faces_closed_form(),
    )
    record(
        "cell_labels_match_face_lcm",
        lambda: all(
            label == matching.face_lcm(morse.cell_face(c))
            for cells, labels in zip(complex.basis, complex.labels)
            for c, label in zip(cells, labels)
        ),
    )
    record("gradient_paths_match_closure", lambda: morse.paths_match_closure(complex, cap))
    record("differentials_compose_to_zero", lambda: verify_d2(complex))
    record("minimality", lambda: verify_minimality(complex))
    t0 = time.perf_counter()
    strands = verify_strands(complex, chars)
    timings["strand_acyclicity"] = time.perf_counter() - t0
    for char, ok in strands.items():
        checks[f"strand_acyclicity_char_{char}"] = "PASS" if ok else "FAIL"
    b = betti(complex)
    record(
        "betti_closed_form",
        lambda: tuple(b.totals) == betti_closed_form(complex.og.q, complex.r)
        and sum((-1) ** i * t for i, t in enumerate(b.totals)) == 1,
    )
    all_passed = all(v == "PASS" for v in checks.values() if not v.startswith("SKIP"))
    return {"checks": checks}, timings, all_passed


def run(subcommand, spec, *, cap=1 << 20, chars=(0, 2), joints_override=None,
        with_faces=False, threads=None, q=None, r=None):
    """Execute one pipeline slice and return (report dict, exit code,
    timings dict).  ``threads`` is accepted for old callers and ignored:
    every check runs in the calling thread."""
    report: dict = {}
    timings: dict[str, float] = {}
    code = EXIT_OK

    if subcommand == "pd" and spec is None:
        if q is None or r is None:
            raise ParseError("pd without an ideal needs both -q and -r")
        report["pd"] = {
            "q": q,
            "r": r,
            "pd": pd_formula(q, r),
            "pd_of_quotient": pd_formula(q, r) + 1,
            "dstab": dstab(q),
            "pd_sequence": list(pd_sequence(q)),
            "mode": "formula",
        }
        return report, code, timings

    if subcommand == "check":
        try:
            og, warns = _ingest(spec, joints_override)
        except NotProjectiveDimensionOne as exc:
            report["pd1"] = False
            report["witness"] = {"remaining_facets": list(exc.remaining_facets)}
            report["error_message"] = str(exc)
            return report, EXIT_NOT_PD_ONE, timings
        report["input"] = {
            "variables": list(og.variables.names),
            "generators": list(spec.generators),
            "r": spec.r,
        }
        if warns:
            report["warnings"] = warns
        report["pd1"] = True
        report["witness"] = _witness_section(og)
        return report, code, timings

    og, warns = _ingest(spec, joints_override)
    report["input"] = {
        "variables": list(og.variables.names),
        "generators": list(spec.generators),
        "r": spec.r,
    }
    if warns:
        report["warnings"] = warns

    def include(name):
        return subcommand in (name, "all")

    if include("order"):
        report["pd1_witness"] = _witness_section(og)

    basis = morse = None
    if subcommand != "order":
        basis = PowerBasis(og, spec.r)
        morse = MorseComplex(TaylorMatching(basis))
        report["power"] = {"r": spec.r, "generator_count": basis.size}

    if subcommand == "generators":
        report["generators_of_power"] = [
            {"a": list(a), "monomial": _fmt(m, og)}
            for a, m in zip(basis.vectors, basis.monomials)
        ]

    classes = None
    if include("matching"):
        t0 = time.perf_counter()
        if subcommand == "all" and (1 << basis.size) > cap:
            report["matching"] = {"status": "SKIPPED (over cap)"}
        else:
            report["matching"], classes = _matching_section(
                morse.matching, cap, with_faces
            )
        timings["matching"] = time.perf_counter() - t0

    if include("critical"):
        t0 = time.perf_counter()
        report["critical"] = _critical_section(morse)
        timings["critical"] = time.perf_counter() - t0

    complex = None
    if subcommand in ("resolution", "betti", "pd", "verify", "all"):
        t0 = time.perf_counter()
        complex = build_resolution(None, spec.r, og=og)
        timings["build_resolution"] = time.perf_counter() - t0

    if include("resolution"):
        report["resolution"] = _resolution_section(complex)

    if include("betti"):
        b = betti(complex)
        report["betti"] = b.to_json()
        report["betti"]["grid"] = b.render()

    if include("pd"):
        computed = pd_computed(complex)
        formula = pd_formula(og.q, spec.r)
        report["pd"] = {
            "q": og.q,
            "r": spec.r,
            "pd": computed,
            "pd_formula": formula,
            "agree": computed == formula,
            "pd_of_quotient": computed + 1,
            "dstab": dstab(og.q),
            "pd_sequence": list(pd_sequence(og.q)),
            "depth_of_quotient_info": len(og.variables) - (computed + 1),
        }
        if computed != formula:
            code = EXIT_VERIFICATION

    if include("verify"):
        section, vt, all_passed = _verify_section(
            morse, complex, classes, cap, chars, skip_large=(subcommand == "all")
        )
        report["verify"] = section
        timings.update(vt)
        if not all_passed:
            code = EXIT_VERIFICATION

    return report, code, timings


def _render_text(report: dict, indent=0) -> str:
    lines = []
    pad = "  " * indent
    for key, value in report.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{pad}{key}:")
            for item in value:
                lines.append(
                    "  " * (indent + 1)
                    + ", ".join(f"{k}={v}" for k, v in item.items())
                )
        elif key == "grid":
            lines.append(f"{pad}{key}:")
            for row in str(value).splitlines():
                lines.append("  " * (indent + 1) + row)
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsepow",
        description=(
            "Minimal free resolutions of powers of square-free monomial "
            "ideals of projective dimension one."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-i", "--input", help="ideal file (.txt or .json)")
        p.add_argument("--gens", help="inline comma-separated generators")
        p.add_argument("--vars", help="inline comma-separated variable names")
        p.add_argument("-r", "--power", type=int, help="the power r")
        p.add_argument("-q", "--count", type=int, help="generator count (pd formula mode)")
        p.add_argument("--cap", type=int, default=1 << 20,
                       help="face cap for brute-force enumeration (default 2^20)")
        p.add_argument("--char", type=int, action="append",
                       help="field characteristic for strand checks (repeatable; default 0 and 2)")
        p.add_argument("--tau-override",
                       help="comma-separated 1-based joint choices, e.g. 1,1,2")
        p.add_argument("--faces", action="store_true",
                       help="include per-face matching records")
        p.add_argument("--timings", action="store_true",
                       help="append a (non-deterministic) timings section")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", help="write the report to this file")
    return parser


def _load_spec(args) -> IdealSpec | None:
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ParseError(f"cannot read the ideal file: {exc}") from exc
        spec = parse_ideal(text)
    elif args.gens:
        variables = (
            [v.strip() for v in args.vars.split(",")] if args.vars else None
        )
        spec = IdealSpec(variables, [g.strip() for g in args.gens.split(",")], None, 1)
    else:
        return None
    if args.power is not None:
        if args.power < 1:
            raise ParseError("r must be a positive integer")
        spec.r = args.power
    return spec


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
        if spec is None and args.subcommand != "pd":
            raise ParseError("an ideal is required: pass -i FILE or --gens")
        joints_override = None
        if args.tau_override:
            try:
                joints_override = [
                    int(x) - 1 for x in args.tau_override.split(",") if x.strip()
                ]
            except ValueError as exc:
                raise ParseError(
                    f"--tau-override takes comma-separated integers, "
                    f"not {args.tau_override!r}"
                ) from exc
        report, code, timings = run(
            args.subcommand,
            spec,
            cap=args.cap,
            chars=tuple(args.char) if args.char else (0, 2),
            joints_override=joints_override,
            with_faces=args.faces,
            q=args.count,
            r=args.power,
        )
        if args.timings:
            report["timings"] = {k: round(v, 6) for k, v in sorted(timings.items())}
    except (ParseError, NotSquarefree, NotMinimalGenerating, InvalidJointChoice,
            ValueError) as exc:
        _emit_error(args, exc)
        return EXIT_PARSE
    except NotProjectiveDimensionOne as exc:
        _emit_error(args, exc, remaining_facets=list(exc.remaining_facets))
        return EXIT_NOT_PD_ONE
    except TooLarge as exc:
        _emit_error(args, exc, cap=exc.cap)
        return EXIT_TOO_LARGE
    except MorsepowError as exc:
        _emit_error(args, exc)
        return EXIT_VERIFICATION

    payload = (
        json.dumps(report, indent=2, sort_keys=False)
        if args.format == "json"
        else _render_text(report)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)
    return code


def _emit_error(args, exc, **extra):
    body = {"error": {"type": type(exc).__name__, "message": str(exc), **extra}}
    payload = (
        json.dumps(body, indent=2)
        if getattr(args, "format", "json") == "json"
        else _render_text(body)
    )
    print(payload)
    print(f"morsepow: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
