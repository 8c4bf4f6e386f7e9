"""Byte-identity guard: ``morsepow all`` reports on a fixed set of ideals,
and the per-face ``matching --faces`` records of the running example,
must match the stored reports in tests/golden/ exactly.

Regenerate the stored reports (only when a report change is intended) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import pathlib
import sys

import pytest

from morsepow.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

# name -> argv of one ``morsepow all`` call; the q=4, r=3 path has 2**20
# Taylor faces, so its cap skips the brute-force matching section
CASES = {
    "running_r2": ["--gens", "x*y,y*z,z*u", "-r", "2"],
    "running_r3": ["--gens", "x*y,y*z,z*u", "-r", "3"],
    "path4_r2": ["--gens", "z*u*v,x*u*v,x*y*v,x*y*z", "--vars", "x,y,z,u,v", "-r", "2"],
    "star3_r2": ["--gens", "c*d,a*d,a*c", "-r", "2"],
    "path_q4_r3": [
        "--gens", "c*d*e,a*d*e,a*b*e,a*b*c", "--vars", "a,b,c,d,e", "-r", "3",
        "--cap", "65536",
    ],
}

# name -> argv of one ``morsepow matching --faces`` call
FACE_CASES = {
    "running_r2_faces": ["--gens", "x*y,y*z,z*u", "-r", "2"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_all_report_is_byte_identical(capsys, name):
    assert main(["all", *CASES[name]]) == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name", sorted(FACE_CASES))
def test_face_records_are_byte_identical(capsys, name):
    assert main(["matching", "--faces", *FACE_CASES[name]]) == 0
    expected = (GOLDEN / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        main(["all", *argv, "--out", str(GOLDEN / f"{name}.json")])
    for name, argv in FACE_CASES.items():
        main(["matching", "--faces", *argv, "--out", str(GOLDEN / f"{name}.json")])
    sys.exit(0)
