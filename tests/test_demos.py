"""Each script in demos/ runs to completion against the library in src/,
and none of its printed self-checks reads False, so a change to an API a
demo calls cannot break it unseen."""

import subprocess
import sys

import pytest
from conftest import ROOT, src_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=src_env(), cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr
    # a demo prints its self-checks as lines ending in True or False
    failed = [line for line in proc.stdout.splitlines() if line.rstrip().endswith("False")]
    assert not failed, failed
