"""Seeded benchmark of morsepow: end-to-end metrics, or per-layer metrics
from a traced run.

    python3 bench/run.py --workload build-wide --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The library is imported from ``src/``;
without it the benchmark exits with code 2 and prints no result.  Each
workload runs in its own process (``--workload all`` starts one per
workload, one after another), single-threaded, so ``ru_maxrss`` is the
workload's own high-water mark.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See NOTES.md for the workloads, the metrics and the baseline.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
import types
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
OUT = BENCH / "out"

# outputs of this seed's instances are pinned in digests.json
DEFAULT_SEED = 0
# set-up runs this many times per run; setup_s is their median
SETUP_REPEATS = 5
LIB_MODULES = ("cli", "resolution", "matching", "morse", "powers", "ordering")

import layers  # noqa: E402
import workloads  # noqa: E402
from instances import Instance, make_instances, tree_ideal  # noqa: E402
from speed import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_library():
    """Import morsepow afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "morsepow" or n.startswith("morsepow.")]:
        del sys.modules[name]
    pkg = importlib.import_module("morsepow")
    mods = {m: importlib.import_module(f"morsepow.{m}") for m in LIB_MODULES}
    return types.SimpleNamespace(morsepow=pkg, **mods)


def order(lib, inst):
    gens, variables = lib.morsepow.parse_generators(inst.generators)
    return lib.ordering.order_generators(gens, variables)


def set_up(wl, seed):
    """Import, generate the run's instances, parse and order each one;
    returns the (start, end) interval too."""
    t0 = perf_counter()
    lib = load_library()
    instances = make_instances(seed, wl.shapes, wl.instances, wl.q, wl.r)
    prepared = [(inst, order(lib, inst)) for inst in instances]
    return (t0, perf_counter()), lib, prepared


class Outcomes:
    """Pass/fail bookkeeping; a wrong output or a raised error fails."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        pinned = {}
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            pinned = json.loads(DIGESTS.read_text()).get(wl.name, {})
        self.pinned = pinned

    def run(self, lib, inst, og, op=None, check=None):
        """Time one op, then check its output outside the timed region.
        Returns the op's (start, end) interval and its output."""
        op, check = op or self.wl.op, check or self.wl.check
        gc.collect()
        self.attempted += 1
        t0 = perf_counter()
        try:
            out = op(lib, inst, og)
        except Exception:
            interval = (t0, perf_counter())
            self._fail(inst, traceback.format_exc())
            return interval, None
        interval = (t0, perf_counter())
        try:
            ok, digest = check(lib, inst, og, out)
        except Exception:
            ok, digest = False, traceback.format_exc()
        expected = self.pinned.get(str(inst.index)) if inst.index >= 0 else None
        if not ok:
            self._fail(inst, "check failed")
        elif expected is not None and digest != expected:
            self._fail(inst, f"digest {digest} differs from pinned {expected}")
        return interval, out

    def _fail(self, inst, why):
        self.failed += 1
        print(f"FAILED {self.wl.name} instance {inst.index} ({inst.shape}): {why}",
              file=sys.stderr)


def untraced(wl, lib, prepared, seconds, outcomes):
    """Ops over whole cycles of the workload's shapes until ``seconds`` of
    op time have been spent; returns the op intervals."""
    intervals = []
    spent = 0.0
    while len(intervals) % len(wl.shapes) or spent < seconds:
        inst, og = prepared[len(intervals) % len(prepared)]
        (a, b), _ = outcomes.run(lib, inst, og)
        intervals.append((a, b))
        spent += b - a
    return intervals


def _seconds(interval):
    return interval[1] - interval[0]


def traced(wl, lib, prepared, seconds, outcomes, seed):
    """Each instance runs both untraced and traced, in alternating order;
    the median difference is the tracing overhead.

    A reference op (``morsepow all`` and the Taylor cross-check on a
    three-generator ideal) closes the run under a tracer of its own.  A
    per-layer metric that reads zero on the workload, because the
    workload never enters that layer, reports the reference op's value
    instead, so each metric is a measurement on every workload.
    """
    tracer = Tracer()
    layers.install(tracer, lib, workloads)
    tracer.op = "setup"
    prepared = [(inst, order(lib, inst)) for inst, _ in prepared]
    tracer.uninstall()

    overheads, spent, distinct, mismatches = [], 0.0, 0, []
    i = 0
    while i % len(wl.shapes) or spent < seconds:
        inst, og = prepared[i % len(prepared)]
        if i % 2:
            plain = _seconds(outcomes.run(lib, inst, og)[0])
        faces = layers.install(tracer, lib, workloads)
        tracer.op = i
        interval, out = outcomes.run(lib, inst, og)
        with_trace = _seconds(interval)
        tracer.uninstall()
        if not i % 2:
            plain = _seconds(outcomes.run(lib, inst, og)[0])
        distinct += len(faces)
        if wl.op is workloads.verify_op and out is not None:
            mismatches += layers.timings_mismatches(tracer.spans, i, out[2])
        overheads.append(with_trace - plain)
        spent += plain + with_trace
        i += 1

    reference = Tracer()
    ref = Instance(-1, "path", 3, 2, tree_ideal("path", 3, random.Random(0)))
    faces = layers.install(reference, lib, workloads)
    reference.op = "reference"
    ref_og = order(lib, ref)
    outcomes.run(lib, ref, ref_og, workloads.verify_op,
                 workloads.WORKLOADS["verify-matching"].check)
    outcomes.run(lib, ref, ref_og, workloads.taylor_op, workloads.taylor_check)
    reference.uninstall()

    OUT.mkdir(exist_ok=True)
    body = {"workload": tracer.to_json(), "reference": reference.to_json()}
    (OUT / f"trace-{wl.name}-seed{seed}.json").write_text(json.dumps(body, indent=1))
    for line in mismatches:
        print(f"TRACE MISMATCH {line}", file=sys.stderr)
    overhead = statistics.median(overheads)
    measured = layers.metrics(tracer, i, distinct, overhead)
    floor = layers.metrics(reference, 1, len(faces), overhead)
    metrics = {k: v if v[0] else floor[k] for k, v in measured.items()}
    return metrics, not mismatches


def run_one(args):
    wl = workloads.WORKLOADS[args.workload]
    outcomes = Outcomes(wl, args.seed)
    consistent = True
    if args.trace:
        _, lib, prepared = set_up(wl, args.seed)
        metrics, consistent = traced(wl, lib, prepared, args.seconds, outcomes, args.seed)
        raw = {}
    else:
        with SpeedClock() as clock:
            setups = []
            for _ in range(SETUP_REPEATS):
                interval, lib, prepared = set_up(wl, args.seed)
                setups.append(interval)
            ops = untraced(wl, lib, prepared, args.seconds, outcomes)
        times = [clock.scaled(a, b) for a, b in ops]
        raw_times = [_seconds(i) for i in ops]
        metrics = {
            "setup_s": (statistics.median(clock.scaled(a, b) for a, b in setups), "s"),
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        raw = {
            "setup_s": statistics.median(_seconds(i) for i in setups),
            "ops_per_s": len(raw_times) / sum(raw_times),
            "op_p50_s": statistics.median(raw_times),
        }

    fail_rate = outcomes.failed / outcomes.attempted
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"instances {len(prepared)}  ops {outcomes.attempted}")
    print(f"  {'fail_rate':<34} {fail_rate:.4f} ({outcomes.failed}/{outcomes.attempted})")
    for name, (value, unit) in metrics.items():
        wall = f"   (wall clock {raw[name]:.6g})" if name in raw else ""
        print(f"  {name:<34} {value:.6g} {unit}{wall}")
    result = {
        "correct": outcomes.failed == 0 and consistent,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in a fresh process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def pin_digests(args):
    """Record the output digest of every instance of the default seed."""
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        wl = workloads.WORKLOADS[name]
        _, lib, prepared = set_up(wl, DEFAULT_SEED)
        digests = {}
        for inst, og in prepared:
            ok, digest = wl.check(lib, inst, og, wl.op(lib, inst, og))
            if not ok:
                print(f"{name} instance {inst.index} fails its check; not pinned",
                      file=sys.stderr)
                return 1
            digests[str(inst.index)] = digest
        pinned[name] = digests
        print(f"pinned {len(digests)} digests for {name}")
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-digests", action="store_true",
                        help=f"record the output digests of seed {DEFAULT_SEED} and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "morsepow" / "__init__.py").is_file():
        print(f"morsepow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin_digests:
        return pin_digests(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
