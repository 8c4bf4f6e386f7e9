"""The four workloads: what one op does, and how its output is checked.

Ops reach the library through module attributes at call time, so a
tracer that patches those attributes sees every call.  The checks run
outside the timed region and use only the library's public API, plus an
exact digest of each op's deterministic output.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Callable

MATCHING_CHECKS = frozenset(
    {
        "matching_is_matching",
        "matching_acyclic",
        "matching_homogeneous",
        "critical_cells_match_closed_form",
    }
)


@dataclass(frozen=True)
class Workload:
    name: str
    shapes: tuple[str, ...]
    q: int
    r: int
    instances: int
    op: Callable
    check: Callable


def serialize(report) -> str:
    """The CLI's JSON rendering of a report (``morsepow all`` stdout)."""
    return json.dumps(report, indent=2, sort_keys=False)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _complex_text(lib, complex) -> str:
    fmt = lib.morsepow.format_monomial
    v = complex.variables
    return json.dumps(
        {
            "ranks": list(complex.ranks()),
            "cells": [
                [[list(c.a), list(c.moves), fmt(m, v)] for c, m in zip(cells, labels)]
                for cells, labels in zip(complex.basis, complex.labels)
            ],
            "maps": {
                i: [[rc[0], rc[1], e[0], fmt(e[1], v)] for rc, e in sorted(entries.items())]
                for i, entries in sorted(complex.maps.items())
            },
        }
    )


def _betti_text(table, variables, fmt) -> str:
    return json.dumps([[i, fmt(m, variables), c] for (i, m), c in sorted(table.items())])


# ----------------------------------------------------------------------
# build-wide: the Morse build alone


def build_op(lib, inst, og):
    res = lib.resolution
    complex = res.build_resolution(None, inst.r, og=og)
    return complex, res.betti(complex)


def build_check(lib, inst, og, out):
    res = lib.resolution
    complex, table = out
    ranks = complex.ranks()
    ok = (
        ranks == res.betti_closed_form(og.q, inst.r)
        and table.totals == ranks
        and res.pd_computed(complex) == res.pd_formula(og.q, inst.r)
        and sum((-1) ** i * n for i, n in enumerate(ranks)) == 1
        and res.verify_d2(complex)
    )
    return ok, _digest(_complex_text(lib, complex))


# ----------------------------------------------------------------------
# verify-*: the full ``morsepow all`` pipeline


def verify_op(lib, inst, og):
    cli = lib.cli
    spec = cli.IdealSpec(None, list(inst.generators), None, inst.r)
    report, code, timings = cli.run("all", spec, chars=(0, 2), threads=None)
    return code, report, timings, serialize(report)


def _verify_check(expect_skipped):
    def check(lib, inst, og, out):
        code, report, _, payload = out
        checks = report.get("verify", {}).get("checks", {})
        skipped = {k for k, v in checks.items() if v.startswith("SKIPPED")}
        ok = (
            code == 0
            and len(checks) > len(skipped)
            and skipped == expect_skipped
            and all(v == "PASS" for k, v in checks.items() if k not in skipped)
        )
        return ok, _digest(payload)

    return check


# ----------------------------------------------------------------------
# crosscheck-taylor: the matching-free Taylor oracle against the build


def taylor_op(lib, inst, og):
    res = lib.resolution
    mul = lib.morsepow.mul
    power_gens = set()
    for combo in combinations_with_replacement(og.generators, inst.r):
        m = combo[0]
        for g in combo[1:]:
            m = mul(m, g)
        power_gens.add(m)
    power_gens = sorted(power_gens)
    morse = res.betti(res.build_resolution(None, inst.r, og=og)).multigraded
    return morse, res.taylor_betti(power_gens, 0), res.taylor_betti(power_gens, 2)


def taylor_check(lib, inst, og, out):
    morse, char0, char2 = out
    ok = bool(morse) and morse == char0 == char2
    return ok, _digest(_betti_text(morse, og.variables, lib.morsepow.format_monomial))


# Each ROADMAP optimisation has a workload where its layer does most of
# the work and a control where it does almost none; NOTES.md has the
# table.  Runs stop only after whole cycles of the shapes, so the median
# op time stays among one shape's ops; crosscheck-taylor keeps paths
# only, because its other shapes cost 40 times less or 4 times more.
WORKLOADS = {
    w.name: w
    for w in (
        # labels, PowerBasis, ordering and the Morse differential; no verifier
        Workload("build-wide", ("path", "star", "caterpillar", "uniform"),
                 32, 2, 24, build_op, build_check),
        # strand homology; the brute-force matching is over the cap, skipped
        Workload("verify-strands", ("path", "star", "caterpillar"),
                 4, 4, 18, verify_op, _verify_check(MATCHING_CHECKS)),
        # 15 power generators, 32767 faces: matching enumerators and verifiers
        Workload("verify-matching", ("path", "star"),
                 3, 4, 8, verify_op, _verify_check(frozenset())),
        # 10 power generators: the only caller of taylor_betti, over Q and GF(2)
        Workload("crosscheck-taylor", ("path",),
                 4, 2, 16, taylor_op, taylor_check),
    )
}
