import json
import subprocess
import sys

import pytest
from conftest import src_env

from morsepow import ParseError
from morsepow.cli import (
    EXIT_NOT_PD_ONE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TOO_LARGE,
    EXIT_VERIFICATION,
    main,
    parse_ideal,
)

RUNNING_TEXT = "I = (x*y, y*z, z*u); r = 2"


@pytest.fixture
def running_txt(tmp_path):
    p = tmp_path / "running.txt"
    p.write_text(RUNNING_TEXT + "\n", encoding="utf-8")
    return str(p)


@pytest.fixture
def running_json(tmp_path):
    p = tmp_path / "running.json"
    p.write_text(json.dumps({"gens": ["x*y", "y*z", "z*u"], "r": 2}), encoding="utf-8")
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_ideal_text():
    spec = parse_ideal(RUNNING_TEXT)
    assert spec.generators == ["x*y", "y*z", "z*u"]
    assert spec.r == 2
    assert spec.variables is None


def test_parse_ideal_text_with_vars():
    spec = parse_ideal("vars = (a, b, c, d)\nI = (c*d, a*d, a*c)\nr = 3")
    assert spec.variables == ["a", "b", "c", "d"]
    assert spec.r == 3


def test_parse_ideal_json():
    spec = parse_ideal(json.dumps({"gens": ["x*y"], "r": 5}))
    assert spec.generators == ["x*y"] and spec.r == 5


def test_parse_ideal_rejects_garbage():
    with pytest.raises(ParseError):
        parse_ideal("hello world")
    with pytest.raises(ParseError):
        parse_ideal(json.dumps({"gens": [], "r": 1}))
    with pytest.raises(ParseError):
        parse_ideal("I = (x*y); r = 0")


@pytest.mark.parametrize(
    "field, value",
    [
        ("declared_order", 5),
        ("declared_order", [1.0, 2.0]),
        ("variables", ["x", 1]),
        ("r", True),
    ],
)
def test_json_spec_field_of_wrong_type_is_parse_error(capsys, tmp_path, field, value):
    p = tmp_path / "typed.json"
    p.write_text(json.dumps({"gens": ["x*y", "y*z"], field: value}), encoding="utf-8")
    code, out = run_cli(capsys, "betti", "-i", str(p))
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError" and f'"{field}"' in err["message"]


def test_all_on_running_example(capsys, running_json):
    code, out = run_cli(capsys, "all", "-i", running_json)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["critical"]["f_vector"] == [6, 6, 1]
    assert report["pd"]["pd"] == 2
    assert report["betti"]["total"] == [6, 6, 1]
    assert report["pd1_witness"]["tau"] == [1, 1, 2]
    assert report["power"]["generator_count"] == 6
    checks = report["verify"]["checks"]
    assert all(v == "PASS" for v in checks.values())


def test_all_matches_text_input(capsys, running_txt, running_json):
    code1, out1 = run_cli(capsys, "all", "-i", running_txt)
    code2, out2 = run_cli(capsys, "all", "-i", running_json)
    assert code1 == code2 == EXIT_OK
    assert json.loads(out1)["betti"] == json.loads(out2)["betti"]


def test_output_is_byte_identical_across_runs(capsys, running_json):
    _, out1 = run_cli(capsys, "all", "-i", running_json)
    _, out2 = run_cli(capsys, "all", "-i", running_json)
    assert out1 == out2


def test_timings_are_separate_and_optional(capsys, running_json):
    _, plain = run_cli(capsys, "betti", "-i", running_json)
    assert "timings" not in json.loads(plain)
    _, timed = run_cli(capsys, "betti", "-i", running_json, "--timings")
    assert "timings" in json.loads(timed)


def test_check_subcommand(capsys, running_json):
    code, out = run_cli(capsys, "check", "-i", running_json)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pd1"] is True
    assert report["witness"]["tau"] == [1, 1, 2]


def test_check_rejects_non_pd1(capsys, tmp_path):
    p = tmp_path / "tetra.txt"
    p.write_text("I = (x*a, x*b, x*c, x*d)", encoding="utf-8")
    code, out = run_cli(capsys, "check", "-i", str(p))
    assert code == EXIT_NOT_PD_ONE
    report = json.loads(out)
    assert report["pd1"] is False
    assert report["witness"]["remaining_facets"]


def test_non_pd1_errors_elsewhere(capsys, tmp_path):
    p = tmp_path / "tetra.txt"
    p.write_text("I = (x*a, x*b, x*c, x*d); r = 2", encoding="utf-8")
    code, out = run_cli(capsys, "betti", "-i", str(p))
    assert code == EXIT_NOT_PD_ONE
    assert json.loads(out)["error"]["type"] == "NotProjectiveDimensionOne"


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("I = (x*y, x*y*z)", encoding="utf-8")
    code, out = run_cli(capsys, "betti", "-i", str(p))
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err["type"] == "NotMinimalGenerating"
    assert err["message"] == "generator x*y divides generator x*y*z"
    # x1*x2 is read as x^1 * x^2 = x^3, and the message says so
    code, out = run_cli(capsys, "check", "--gens", "x1*x2,x2*x3")
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err["type"] == "NotSquarefree"
    assert err["message"] == "generator x^3 is not square-free"


def test_missing_ideal_is_parse_error(capsys):
    code, out = run_cli(capsys, "betti")
    assert code == EXIT_PARSE


def test_too_large_exit_code(capsys, running_json):
    code, out = run_cli(capsys, "verify", "-i", running_json, "--cap", "8")
    assert code == EXIT_TOO_LARGE
    err = json.loads(out)["error"]
    assert err["type"] == "TooLarge" and err["cap"] == 8


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_parse_error(capsys, cap):
    code, out = run_cli(capsys, "all", "--gens", "x*y,y*z", "-r", "2", "--cap", cap)
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err == {"type": "ParseError", "message": "cap must be a positive integer"}


def test_all_skips_over_cap_sections(capsys, running_json):
    code, out = run_cli(capsys, "all", "-i", running_json, "--cap", "8")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["matching"]["status"].startswith("SKIPPED")
    assert report["verify"]["checks"]["matching_acyclic"].startswith("SKIPPED")
    assert report["verify"]["checks"]["minimality"] == "PASS"


def test_verification_failure_exit_code(capsys, running_json, monkeypatch):
    import morsepow.cli as cli

    monkeypatch.setattr(cli, "verify_minimality", lambda complex: False)
    code, out = run_cli(capsys, "verify", "-i", running_json)
    assert code == EXIT_VERIFICATION
    assert json.loads(out)["verify"]["checks"]["minimality"] == "FAIL"


@pytest.mark.parametrize("char", ["4", "6", "9", "1"])
def test_non_prime_char_is_parse_error(capsys, char):
    # Z/4 is not a field: a strand check over it must not report PASS
    code, out = run_cli(
        capsys, "verify", "--gens", "x*y,y*z,z*u", "-r", "2", "--char", char
    )
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err["type"] == "ValueError" and "prime" in err["message"]


def test_pd_formula_mode(capsys):
    code, out = run_cli(capsys, "pd", "-q", "3", "-r", "7")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["pd"]["pd"] == 2
    assert report["pd"]["mode"] == "formula"
    assert report["pd"]["dstab"] == 2


def test_pd_with_ideal(capsys, running_json):
    code, out = run_cli(capsys, "pd", "-i", running_json)
    report = json.loads(out)
    assert report["pd"] == {
        "q": 3,
        "r": 2,
        "pd": 2,
        "pd_formula": 2,
        "agree": True,
        "pd_of_quotient": 3,
        "dstab": 2,
        "pd_sequence": [1, 2, 2],
        "depth_of_quotient_info": 1,
    }


def test_verify_q4_path(capsys, tmp_path):
    p = tmp_path / "path4.json"
    p.write_text(
        json.dumps({"gens": ["z*u*v", "x*u*v", "x*y*v", "x*y*z"], "r": 2}),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "verify", "-i", str(p))
    assert code == EXIT_OK
    checks = json.loads(out)["verify"]["checks"]
    assert checks and all(v == "PASS" for v in checks.values())


def test_generators_lists_power_basis(capsys, running_json):
    code, out = run_cli(capsys, "generators", "-i", running_json)
    gens = json.loads(out)["generators_of_power"]
    assert len(gens) == 6
    assert gens[0] == {"a": [0, 0, 2], "monomial": "z^2*u^2"}


def test_matching_records(capsys, running_json):
    code, out = run_cli(capsys, "matching", "-i", running_json, "--faces")
    report = json.loads(out)
    assert report["matching"]["faces"] == 63
    assert report["matching"]["critical"] == 13
    assert report["matching"]["arrows"] == 25
    records = report["matching"]["records"]
    assert len(records) == 63
    assert {r["kind"] for r in records} == {"critical", "up", "down"}


def test_critical_cells_serialized(capsys, running_json):
    code, out = run_cli(capsys, "critical", "-i", running_json)
    report = json.loads(out)
    cells = report["critical"]["cells"]
    assert report["critical"]["f_vector"] == [6, 6, 1]
    top = [c for c in cells if c["dim"] == 2]
    assert top == [
        {"a": [0, 1, 1], "D": [2, 3], "lcm": "x*y^2*z^2*u", "dim": 2}
    ]


def test_resolution_subcommand(capsys, running_json):
    code, out = run_cli(capsys, "resolution", "-i", running_json)
    report = json.loads(out)
    assert report["resolution"]["ranks"] == [6, 6, 1]
    first_map = report["resolution"]["maps"][0]
    assert first_map["degree"] == 1
    assert all(e["coeff"] in (1, -1) for e in first_map["entries"])
    assert all(e["shift"] != "1" for e in first_map["entries"])


def test_tau_override_flag(capsys, tmp_path):
    p = tmp_path / "star.json"
    p.write_text(
        json.dumps(
            {"gens": ["c*d", "a*d", "a*c"], "variables": ["a", "b", "c", "d"], "r": 2}
        ),
        encoding="utf-8",
    )
    code, out = run_cli(capsys, "betti", "-i", str(p), "--tau-override", "1,1,2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["betti"]["total"] == [6, 6, 1]
    assert "warnings" in report  # unused variable b
    code, out = run_cli(capsys, "betti", "-i", str(p), "--tau-override", "1,1,3")
    assert code == EXIT_PARSE
    # a lone generator still gets its joint list checked
    code, out = run_cli(capsys, "betti", "--gens", "x*y", "-r", "2", "--tau-override", "3,7")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "InvalidJointChoice"
    code, out = run_cli(capsys, "betti", "--gens", "x*y", "-r", "2", "--tau-override", "1")
    assert code == EXIT_OK
    code, out = run_cli(capsys, "betti", "-i", str(p), "--tau-override", "1,a")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_out_file_and_text_format(capsys, running_json, tmp_path):
    target = tmp_path / "report.json"
    code, _ = run_cli(capsys, "betti", "-i", running_json, "--out", str(target))
    assert code == EXIT_OK
    assert json.loads(target.read_text())["betti"]["total"] == [6, 6, 1]
    code, out = run_cli(capsys, "betti", "-i", running_json, "--format", "text")
    assert code == EXIT_OK
    assert "total:" in out


def test_inline_generators(capsys):
    code, out = run_cli(capsys, "betti", "--gens", "x*y,y*z", "-r", "3")
    assert code == EXIT_OK
    assert json.loads(out)["betti"]["total"] == [4, 3]
    # declared names ending in digits are read whole
    code, out = run_cli(
        capsys, "betti", "--gens", "v0*v1,v1*v2", "--vars", "v0,v1,v2", "-r", "3"
    )
    assert code == EXIT_OK
    assert json.loads(out)["betti"]["total"] == [4, 3]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "morsepow.cli", "pd", "-q", "4", "-r", "2"],
        capture_output=True,
        text=True,
        env=src_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pd"]["pd"] == 2


def test_broken_involution_exits_verification(capsys, running_json, monkeypatch):
    from morsepow import TaylorMatching
    from morsepow.matching import UNMATCHED

    top_pivots = TaylorMatching._top_pivots

    def broken(self, top):
        # faces of five or more vertices lie beyond every r = 2 build
        out = top_pivots(self, top)
        for above, p in enumerate(out):
            mask = (above << 1 | 1) << top
            if mask.bit_count() >= 5 and p >= 0 and mask >> p & 1:
                out[above] = UNMATCHED
        return out

    monkeypatch.setattr(TaylorMatching, "_top_pivots", broken)
    code, out = run_cli(capsys, "verify", "-i", running_json)
    assert code == EXIT_VERIFICATION
    assert json.loads(out)["error"]["type"] == "VerificationFailed"


def test_flipped_differential_sign_fails_gradient_paths(
    capsys, running_json, monkeypatch
):
    import morsepow.cli as cli

    build = cli.build_resolution

    def flipped(*args, **kwargs):
        complex = build(*args, **kwargs)
        (key, (coeff, shift)), *_ = sorted(complex.maps[1].items())
        complex.maps[1][key] = (-coeff, shift)
        return complex

    monkeypatch.setattr(cli, "build_resolution", flipped)
    code, out = run_cli(capsys, "verify", "-i", running_json)
    assert code == EXIT_VERIFICATION
    checks = json.loads(out)["verify"]["checks"]
    assert checks["gradient_paths_match_closure"] == "FAIL"


def test_all_skips_gradient_paths_over_cap(capsys):
    gens = "c*d*e,a*d*e,a*b*e,a*b*c"
    code, out = run_cli(capsys, "all", "--gens", gens, "-r", "4", "--cap", "10")
    assert code == EXIT_OK
    checks = json.loads(out)["verify"]["checks"]
    assert checks["gradient_paths_match_closure"] == "SKIPPED (over cap)"
    assert checks["minimality"] == "PASS"


def test_verify_gradient_paths_over_cap_exits_too_large(
    capsys, running_json, monkeypatch
):
    from morsepow import MorseComplex, TooLarge

    def over(self, start, cap):
        raise TooLarge(f"more than {cap} path steps explored", cap=cap)

    monkeypatch.setattr(MorseComplex, "gradient_paths", over)
    code, out = run_cli(capsys, "verify", "-i", running_json)
    assert code == EXIT_TOO_LARGE
    code, out = run_cli(capsys, "all", "-i", running_json)
    assert code == EXIT_OK
    checks = json.loads(out)["verify"]["checks"]
    assert checks["gradient_paths_match_closure"] == "SKIPPED (over cap)"
    assert checks["matching_acyclic"] == "PASS"


def test_unit_generator_is_a_parse_error(capsys, tmp_path):
    code, out = run_cli(capsys, "check", "--gens", "1", "--vars", "x,y")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"]["type"] == "ParseError"
    # beside other generators the unit is named, not reported as a divisor
    code, out = run_cli(capsys, "check", "--gens", "1,x*y")
    assert code == EXIT_PARSE
    err = json.loads(out)["error"]
    assert err["type"] == "ParseError" and "unit monomial" in err["message"]
    # an empty generator is a parse error naming its position
    code, out = run_cli(capsys, "check", "--gens", "x*y,,y*z")
    assert code == EXIT_PARSE
    assert json.loads(out)["error"] == {
        "type": "ParseError", "message": "generator 2 is empty"
    }
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"gens": ["x*y", ""]}), encoding="utf-8")
    code, out = run_cli(capsys, "check", "-i", str(p))
    assert code == EXIT_PARSE
    assert json.loads(out)["error"] == {
        "type": "ParseError", "message": "generator 2 is empty"
    }


@pytest.mark.parametrize(
    "text, position",
    [("I = (x*y, , y*z); r = 2", 2), ("I = (x*y, y*z,); r = 2", 3)],
)
def test_text_form_rejects_blank_generator(capsys, tmp_path, text, position):
    p = tmp_path / "blank.txt"
    p.write_text(text, encoding="utf-8")
    code, out = run_cli(capsys, "betti", "-i", str(p))
    assert code == EXIT_PARSE
    assert json.loads(out)["error"] == {
        "type": "ParseError", "message": f"generator {position} is empty"
    }


def test_unreadable_input_file_is_parse_error(capsys, tmp_path):
    for path in (tmp_path / "nosuchfile", tmp_path):
        code, out = run_cli(capsys, "betti", "-i", str(path))
        assert code == EXIT_PARSE
        err = json.loads(out)["error"]
        assert err["type"] == "ParseError"
        assert err["message"].startswith("cannot read the ideal file: ")


def test_strand_fields_share_one_timing(capsys, running_json):
    code, out = run_cli(
        capsys, "all", "-i", running_json, "--char", "3", "--char", "0", "--timings"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    checks = list(report["verify"]["checks"])
    assert checks[-3:] == [
        "strand_acyclicity_char_3", "strand_acyclicity_char_0", "betti_closed_form"
    ]
    timed = [k for k in report["timings"] if k.startswith("strand")]
    assert timed == ["strand_acyclicity"]


def test_underscore_names_in_single_factor_generators(capsys):
    # the q = 2 tree ideal of the path x_0 - x_1 - x_2
    code, out = run_cli(capsys, "all", "--gens", "x_2,x_0", "-r", "2")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["input"]["variables"] == ["x_2", "x_0"]
    assert all(v == "PASS" for v in report["verify"]["checks"].values())


def test_all_checks_matching_at_two_to_the_seventeen(capsys):
    # 17 power generators, 2**17 faces, under the default cap: every
    # matching check runs on the whole face poset
    code, out = run_cli(capsys, "all", "--gens", "x*y,y*z", "-r", "16")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["matching"]["faces"] == (1 << 17) - 1
    checks = report["verify"]["checks"]
    for name in (
        "matching_is_matching",
        "matching_acyclic",
        "matching_homogeneous",
        "critical_cells_match_closed_form",
    ):
        assert checks[name] == "PASS"


def test_verify_checks_matching_at_the_default_cap(capsys):
    # the q = 4, r = 3 path complement has 20 power generators: 2**20
    # faces, exactly the default cap
    gens = "c*d*e,a*d*e,a*b*e,a*b*c"
    code, out = run_cli(capsys, "verify", "--gens", gens, "--vars", "a,b,c,d,e", "-r", "3")
    assert code == EXIT_OK
    checks = json.loads(out)["verify"]["checks"]
    for name in (
        "matching_is_matching",
        "matching_acyclic",
        "matching_homogeneous",
        "critical_cells_match_closed_form",
    ):
        assert checks[name] == "PASS"
