import json
import time

import pytest

from tcone.cli import (E_CANDIDATE, E_CHAR, E_CUBIC, E_MISSING_FIELD,
                       E_NOT_PRIMARY, E_SINGULAR, E_SYNTAX, ProblemError,
                       main, parse_problem, run_check, run_closure,
                       run_decompose, run_info)

FERMAT_CHECK = """\
# tight closure membership over the Fermat cubic
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
candidate = "x*y*z"
"""

FERMAT_CLOSURE = """\
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
"""

DUP_CHECK = """\
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "x^2"]
candidate = "x*y*z"
"""


def test_parse_problem_well_formed():
    prob = parse_problem(FERMAT_CHECK)
    assert prob.char == 5
    assert prob.ext_degree == 1
    assert prob.ideal.n == 3
    assert prob.candidate is not None


def _code_of(text):
    cause = None
    try:
        parse_problem(text)
    except ProblemError as exc:
        cause = exc.code
    return cause


def test_parse_problem_error_codes():
    assert _code_of(FERMAT_CHECK.replace("char = 5", "char = 4")) == E_CHAR
    assert _code_of(FERMAT_CHECK.replace('cubic = "x^3 + y^3 + z^3"\n',
                                         "")) == E_MISSING_FIELD
    assert _code_of(FERMAT_CHECK.replace("x^3 + y^3 + z^3",
                                         "x^2 + y^2")) == E_CUBIC
    assert _code_of(FERMAT_CHECK.replace("x^3 + y^3 + z^3",
                                         "x^3")) == E_SINGULAR
    assert _code_of(FERMAT_CHECK.replace('["x^2", "y^2", "z^2"]',
                                         '["x", "x^2"]')) == E_NOT_PRIMARY
    assert _code_of(FERMAT_CHECK + "bogus line\n") == E_SYNTAX
    assert _code_of(FERMAT_CHECK + "unknown = 3\n") == E_SYNTAX
    assert _code_of(FERMAT_CHECK + "char = 7\n") == E_SYNTAX  # duplicate key
    assert _code_of(FERMAT_CHECK.replace('"x*y*z"', '"x*y +"')) == E_SYNTAX


def test_e_max_from_problem_file():
    prob = parse_problem(FERMAT_CHECK + "e_max = 2\n")
    assert prob.e_max == 2
    out, _ = run_check(prob, as_json=True)
    assert json.loads(out)["frobenius"]["e_max"] == 2


def test_negative_e_max_is_an_input_error(tmp_path, capsys):
    with pytest.raises(ProblemError) as info:
        parse_problem(FERMAT_CHECK + "e_max = -1\n")
    assert info.value.code == E_SYNTAX
    assert "line 6" in str(info.value)
    f = tmp_path / "problem.tc"
    f.write_text(FERMAT_CHECK + "e_max = -1\n")
    assert main(["check", str(f)]) == 2
    f.write_text(FERMAT_CHECK)
    assert main(["check", str(f), "--emax", "-1"]) == 2
    err = capsys.readouterr().err
    assert "e_max must be nonnegative" in err
    assert "--emax must be nonnegative" in err


def test_non_utf8_file_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "problem.tc"
    f.write_bytes(b"char = 5\xff\n")
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [{E_SYNTAX}]: ")
    assert "not UTF-8 text (invalid start byte: byte 0xff)" in err
    assert "Traceback" not in err


def test_candidate_zero_in_the_cone_is_an_input_error(tmp_path, capsys):
    # F itself is nonzero in S but zero in R: an input error (exit 2),
    # not a non-member verdict (exit 1)
    text = FERMAT_CHECK.replace('"x*y*z"', '"x^3 + y^3 + z^3"')
    assert _code_of(text) == E_CANDIDATE
    f = tmp_path / "problem.tc"
    f.write_text(text)
    assert main(["check", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error [{E_CANDIDATE}]: candidate is a multiple of the "
                   f"curve equation\n")

F11_CHECK = """\
char = 11
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2"]
candidate = "x*y*z"
"""


def test_check_member_exit_zero():
    out, code = run_check(parse_problem(FERMAT_CHECK))
    assert code == 0
    assert "verdict: member" in out
    assert "in ideal: no" in out
    assert "frobenius" in out  # curve is supersingular over F_5


def test_check_nonmember_exit_one():
    out, code = run_check(parse_problem(DUP_CHECK))
    assert code == 1
    assert "verdict: non-member" in out


def test_check_reports_oracle_refusal():
    # supersingular over F_11: at e = 3 the oracle's matrix would take
    # 7986 x 11979 int64 codes, past the cap, so the search stops there
    problem = parse_problem(F11_CHECK)
    out, code = run_check(problem)
    assert code == 1
    assert out.splitlines()[-1] == (
        "frobenius oracle (supersingular curve): inconclusive: stopped at "
        "e = 3, D = 3993, where the membership matrix would exceed 512 MiB")
    doc = json.loads(run_check(problem, as_json=True)[0])
    assert doc["frobenius"] == {"found": False, "e": None, "e_max": 4,
                                "inconclusive_at": {"e": 3, "D": 3993}}


def test_check_requires_candidate():
    with pytest.raises(ProblemError) as info:
        run_check(parse_problem(FERMAT_CLOSURE))
    assert info.value.code == E_CANDIDATE


def test_closure_rejects_candidate():
    with pytest.raises(ProblemError) as info:
        run_closure(parse_problem(FERMAT_CHECK))
    assert info.value.code == E_CANDIDATE


def test_check_json_round_trip():
    out, code = run_check(parse_problem(FERMAT_CHECK), as_json=True)
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["verdict"] == "member"
    assert doc["in_ideal"] is False
    assert doc["summands"] == [
        {"rank": 2, "degree": 0, "class_vanishes": False}]
    assert doc["supersingular"] is True
    assert doc["frobenius"]["found"] is True
    # re-serialisation is stable
    out2, _ = run_check(parse_problem(FERMAT_CHECK), as_json=True)
    assert out == out2


def test_decompose_uses_candidate_degree():
    out, code = run_decompose(parse_problem(DUP_CHECK), as_json=True)
    doc = json.loads(out)
    assert code == 0
    assert doc["twist"] == 3
    assert [(s["rank"], s["degree"]) for s in doc["summands"]] == \
        [(1, 3), (1, -3)]


def test_decompose_degree_flag_overrides():
    out, _ = run_decompose(parse_problem(FERMAT_CHECK), degree=3,
                           as_json=True)
    doc = json.loads(out)
    assert doc["twist"] == 3
    assert doc["summands"] == [{"rank": 2, "degree": 0, "h0": 1, "h1": 1}]


def test_decompose_needs_some_degree():
    with pytest.raises(ProblemError) as info:
        run_decompose(parse_problem(FERMAT_CLOSURE))
    assert info.value.code == E_MISSING_FIELD


def test_closure_output():
    out, code = run_closure(parse_problem(FERMAT_CLOSURE), as_json=True)
    doc = json.loads(out)
    assert code == 0
    assert sorted(doc["generators"]) == ["x*y*z", "x^2", "y^2", "z^2"]
    assert doc["threshold_k"] == "3"
    assert doc["semistable"] is True


def test_info_output():
    out, code = run_info(parse_problem(FERMAT_CLOSURE), as_json=True)
    doc = json.loads(out)
    assert code == 0
    assert doc["char"] == 5
    assert doc["smooth"] is True
    assert doc["hasse"] == "0"
    assert doc["supersingular"] is True


def test_info_ordinary_curve():
    text = FERMAT_CLOSURE.replace("char = 5", "char = 7")
    out, _ = run_info(parse_problem(text), as_json=True)
    doc = json.loads(out)
    assert doc["hasse"] == "6"
    assert doc["supersingular"] is False


def test_main_end_to_end(tmp_path, capsys):
    f = tmp_path / "problem.tc"
    f.write_text(FERMAT_CHECK)
    assert main(["check", str(f)]) == 0
    captured = capsys.readouterr()
    assert "verdict: member" in captured.out
    assert main(["info", str(f)]) == 0
    assert main(["decompose", str(f), "--degree", "3"]) == 0
    bad = tmp_path / "bad.tc"
    bad.write_text("char = 4\n")
    assert main(["info", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.tc")]) == 2


def test_undecided_maps_to_exit_three(tmp_path, monkeypatch, capsys):
    from tcone.algebra import UndecidedError
    import tcone.cli as cli_mod

    def boom(problem, e_max_flag=None, as_json=False):
        raise UndecidedError("splitting bound exceeded")

    monkeypatch.setattr(cli_mod, "run_check", boom)
    f = tmp_path / "problem.tc"
    f.write_text(FERMAT_CHECK)
    assert main(["check", str(f)]) == 3
    assert "undecided" in capsys.readouterr().err


def test_extension_field_problem(tmp_path):
    text = """\
char = 2
ext_degree = 2
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
candidate = "t*x*y*z"
"""
    prob = parse_problem(text)
    assert prob.field.q == 4
    out, code = run_check(prob, as_json=True)
    doc = json.loads(out)
    assert doc["verdict"] == "member"
    assert code == 0


@pytest.mark.parametrize("candidate", ["x^99999999999999999999",
                                       "(x+y+z)^100000"])
def test_huge_degree_is_refused_before_expansion(tmp_path, capsys, candidate):
    f = tmp_path / "problem.tc"
    f.write_text(FERMAT_CHECK.replace('"x*y*z"', f'"{candidate}"'))
    start = time.perf_counter()
    assert main(["check", str(f)]) == 2
    assert time.perf_counter() - start < 0.5
    err = capsys.readouterr().err
    assert "E_SYNTAX" in err
    assert "exceeds the bound 64" in err
    with pytest.raises(ProblemError) as info:
        parse_problem(FERMAT_CHECK.replace('"x*y*z"', '"x^40*y^25"'))
    assert info.value.code == E_SYNTAX
    assert "degree 65" in str(info.value)
    # the bound itself is still parsed
    assert parse_problem(FERMAT_CHECK.replace('"x*y*z"',
                                              '"x^32*y^32"')).candidate
