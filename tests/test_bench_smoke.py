import json
import subprocess
import sys

from conftest import ROOT


def test_benchmark_runs_every_workload_correctly():
    # a short run of every workload (bench/run.py imports the library
    # from src/): each op is checked against the seed-0 output digests,
    # and every library name bench/ calls must exist
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "all", "--seed", "0",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
