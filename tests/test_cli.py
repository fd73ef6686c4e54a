import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tcone.cli import (E_CANDIDATE, E_CHAR, E_CUBIC, E_MISSING_FIELD,
                       E_NOT_PRIMARY, E_SINGULAR, E_SYNTAX, SCHEMA_VERSION,
                       ProblemError, main, parse_problem, run_check,
                       run_closure, run_decompose, run_info)

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


# `tc decompose --json` on every demo problem at twists 0 and 3: twist,
# bundle (rank, degree), splitting extension degree and each summand's
# (rank, degree, h0, h1); at twist 0 seven of the problems split, over
# F_4, F_5, F_101, F_25, F_625 and F_(5^8)
DECOMPOSE_PINS = {
    ("closure_f4", 0): ((2, -21), 1, [(1, -9, 0, 9), (1, -12, 0, 12)]),
    ("closure_f4", 3): ((2, -3), 1, [(1, 0, 1, 1), (1, -3, 0, 3)]),
    ("duplicate_generator", 0): ((2, -18), 1,
                                 [(1, -6, 0, 6), (1, -12, 0, 12)]),
    ("duplicate_generator", 3): ((2, 0), 1, [(1, 3, 3, 0), (1, -3, 0, 3)]),
    ("fermat2_frobenius", 0): ((2, -18), 1, [(2, -18, 0, 18)]),
    ("fermat2_frobenius", 3): ((2, 0), 1, [(2, 0, 1, 1)]),
    ("fermat5_check", 0): ((2, -18), 1, [(2, -18, 0, 18)]),
    ("fermat5_check", 3): ((2, 0), 1, [(2, 0, 1, 1)]),
    ("fermat5_closure", 0): ((2, -18), 1, [(2, -18, 0, 18)]),
    ("fermat5_closure", 3): ((2, 0), 1, [(2, 0, 1, 1)]),
    ("f625_splits_over_f5_8", 0): ((2, -18), 2,
                                   [(1, -9, 0, 9), (1, -9, 0, 9)]),
    ("f625_splits_over_f5_8", 3): ((2, 0), 2, [(1, 0, 0, 0), (1, 0, 0, 0)]),
    ("sheared_duplicate_generator", 0): ((2, -18), 1,
                                         [(1, -6, 0, 6), (1, -12, 0, 12)]),
    ("sheared_duplicate_generator", 3): ((2, 0), 1,
                                         [(1, 3, 3, 0), (1, -3, 0, 3)]),
    ("sheared_fermat5", 0): ((2, -18), 1, [(2, -18, 0, 18)]),
    ("sheared_fermat5", 3): ((2, 0), 1, [(2, 0, 1, 1)]),
    ("ordinary_char101", 0): ((2, -18), 1, [(1, -9, 0, 9), (1, -9, 0, 9)]),
    ("ordinary_char101", 3): ((2, 0), 1, [(1, 0, 0, 0), (1, 0, 0, 0)]),
    ("ordinary_f625", 0): ((2, -18), 1, [(1, -9, 0, 9), (1, -9, 0, 9)]),
    ("ordinary_f625", 3): ((2, 0), 1, [(1, 0, 0, 0), (1, 0, 0, 0)]),
    ("splitting_extension", 0): ((2, -18), 2, [(1, -9, 0, 9), (1, -9, 0, 9)]),
    ("splitting_extension", 3): ((2, 0), 2, [(1, 0, 0, 0), (1, 0, 0, 0)]),
    ("wide_window", 0): ((3, -36), 1, [(1, -9, 0, 9), (2, -27, 0, 27)]),
    ("wide_window", 3): ((3, -9), 1, [(1, 0, 1, 1), (2, -9, 0, 9)]),
}


@pytest.mark.parametrize("name, twist", sorted(DECOMPOSE_PINS))
def test_decompose_json_on_the_demo_problems(name, twist):
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    problem = parse_problem((demo / f"{name}.tc").read_text())
    assert {p.stem for p in demo.glob("*.tc")} == \
        {n for n, _ in DECOMPOSE_PINS}
    out, code = run_decompose(problem, degree=twist, as_json=True)
    bundle, ext, rows = DECOMPOSE_PINS[name, twist]
    assert code == 0
    assert json.loads(out) == {
        "schema": SCHEMA_VERSION, "command": "decompose", "twist": twist,
        "bundle": {"rank": bundle[0], "degree": bundle[1]},
        "extension_degree": ext,
        "summands": [{"rank": r, "degree": d, "h0": h0, "h1": h1}
                     for r, d, h0, h1 in rows]}


def test_sheared_duplicate_generator_check_and_info():
    """duplicate_generator.tc moved by y -> y + 4x: lt(F) = x^2*y, so the
    oracle changes coordinates first; its verdict, summands and oracle line
    (a search to e = 4, D = 1875) are the original's."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    moved, orig = (parse_problem((demo / f"{name}.tc").read_text())
                   for name in ("sheared_duplicate_generator",
                                "duplicate_generator"))
    out, code = run_check(moved)
    assert code == 1
    assert out == """\
verdict: non-member
in ideal: no
candidate: 4*x^2*z + x*y*z (degree 3)
bundle degree: 0
splitting extension degree: 1
summands:
  rank  degree  class_vanishes
  1     3       yes
  1     -3      no
tight closure = plus closure (positive characteristic)
frobenius oracle (supersingular curve): not found for e <= 4"""
    assert out.splitlines()[-1] == run_check(orig)[0].splitlines()[-1]
    out, code = run_info(moved)
    assert code == 0
    assert out == """\
char: 5
ext_degree: 1
cubic: x^2*y + 4*x*y^2 + 2*y^3 + 2*z^3
smooth: yes
hasse: 0
supersingular: yes
ideal: (x^2, x^2 + 3*x*y + y^2, x^2)
generator degrees: [2, 2, 2]"""


def test_f625_problem_splits_over_f5_8():
    """An ordinary cubic over F_625 whose End algebra splits only over
    F_(5^8): the factorisations there take k * p gcds per kernel element by
    traces, where a scan over the 390,625 scalars took 156,257 gcds and
    about a minute."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    problem = parse_problem((demo / "f625_splits_over_f5_8.tc").read_text())
    start = time.perf_counter()
    out, code = run_check(problem)
    assert time.perf_counter() - start < 20
    assert code == 0
    assert out == """\
verdict: member
in ideal: yes
candidate: x*y*z (degree 3)
bundle degree: 0
splitting extension degree: 2
summands:
  rank  degree  class_vanishes
  1     0       yes
  1     0       yes
tight closure = plus closure (positive characteristic)"""


def test_closure_on_the_f4_demo():
    """The one demo over an extension field of characteristic 2, where
    every sum of element codes is an XOR: its window at degree 3 runs the
    criterion, and the closure gains y^2*z^2 in degree 4."""
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    out, code = run_closure(parse_problem((demo / "closure_f4.tc").read_text()))
    assert code == 0
    assert out == """\
tight closure generators: x, y^3, y^2*z^2
threshold k: 7/2
mu_min: 9  mu_max: 12  semistable: no
every element of degree >= 4 is in the closure
degrees:
  m  regime     dim_ideal  dim_closure
  1  ideal      1          1
  2  ideal      3          3
  3  criterion  7          7
  4  all        11         12"""


def test_cold_check_does_not_import_numpy_ma():
    """A fresh `tc check` on duplicate_generator.tc reaches the sparse
    oracle systems, which sort their rows without np.setdiff1d: its first
    call in a process imports numpy.ma."""
    root = Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from tcone.cli import main\n"
            "status = main(['check', sys.argv[1]])\n"
            "print(status, 'numpy.ma' in sys.modules)\n")
    done = subprocess.run(
        [sys.executable, "-c", code,
         str(root / "demos" / "problems" / "duplicate_generator.tc")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True, text=True, timeout=120, check=True)
    assert "frobenius oracle" in done.stdout
    assert done.stdout.splitlines()[-1] == "1 False"


def test_decompose_cross_checks_the_summand_invariants(monkeypatch):
    """`tc decompose` compares each summand's two-piece rank and degree
    with the count on the summand's own Groebner basis, and refuses a
    disagreement; here the two summands' invariants are swapped, which
    keeps both sums."""
    import tcone.bundle as bundle_module
    real = bundle_module._summand_invariants
    monkeypatch.setattr(bundle_module, "_summand_invariants",
                        lambda bundle, images: real(bundle, images)[::-1])
    with pytest.raises(ArithmeticError, match="disagrees with"):
        run_decompose(parse_problem(DUP_CHECK))


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


def test_bad_arguments_exit_two_on_every_call(tmp_path, capsys):
    """The parser is built once; a second bad call fails as the first did,
    also after a good call has parsed in between."""
    f = tmp_path / "fermat.tc"
    f.write_text(FERMAT_CHECK)
    errors = []
    for good in (False, True, False):
        if good:
            assert main(["info", str(f)]) == 0
            capsys.readouterr()
            continue
        with pytest.raises(SystemExit) as exc:
            main(["check", str(f), "--bogus"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: tc ")
    assert "unrecognized arguments: --bogus" in errors[0]

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


def test_field_past_int64_codes_exits_two(tmp_path, capsys):
    """F_(5^28) has more than 2^63 elements: E_CHAR and exit 2, not a
    traceback in the coordinate code (whose exit code was the
    non-member's)."""
    f = tmp_path / "big.tc"
    f.write_text("char = 5\next_degree = 28\n"
                 'cubic = "x^3 + y^3 + z^3"\n'
                 'generators = ["t*x^2", "y^2", "(t + 1)*z^2"]\n'
                 'candidate = "x*y*z"\n')
    for command in ("check", "info"):
        assert main([command, str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error [{E_CHAR}]: ") and "2^63" in err


def test_splitting_extension_past_the_field_bound_is_undecided(
        monkeypatch, capsys):
    """splitting_extension.tc needs F_25; with the field-order bound
    lowered to 25, decompose_bundle refuses at stage "splitting extension"
    and tc check and tc decompose exit 3, where they crashed with a
    FieldError traceback before."""
    import tcone.bundle as bundle_mod
    import tcone.field as field_mod
    from tcone.algebra import UndecidedError

    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    path = demo / "splitting_extension.tc"
    problem = parse_problem(path.read_text())
    monkeypatch.setattr(field_mod, "_ORDER_LIMIT", 25)
    # uncached, so that the lowered bound applies to F_25 as well
    monkeypatch.setattr(bundle_mod, "make_field", field_mod.Field)
    with pytest.raises(UndecidedError) as info:
        bundle_mod.decompose_bundle(bundle_mod.syzygy_bundle(problem.ideal,
                                                             0))
    assert (info.value.stage, info.value.size) == ("splitting extension", 2)
    for argv in (["check", str(path)], ["decompose", str(path)]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("undecided: splitting the endomorphism algebra "
                              "needs a degree-2 extension: ")


def test_hasse_invariant_past_its_budget_exits_three(tmp_path, capsys):
    """At p = 65521 the truncated product would take about 8e14 term
    products: tc info and tc check refuse at once (exit 3), naming the
    Hasse invariant, and tc decompose, which does not need it, answers."""
    f = tmp_path / "large_char.tc"
    f.write_text(FERMAT_CHECK.replace("char = 5", "char = 65521"))
    for command in ("info", "check"):
        start = time.perf_counter()
        assert main([command, str(f)]) == 3
        assert time.perf_counter() - start < 10
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("undecided: the Hasse invariant")
    assert main(["decompose", str(f)]) == 0


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


def test_one_check_runs_one_groebner_basis(monkeypatch, capsys):
    """`tc check` computes one module Groebner basis, the ideal's augmented
    basis, plus the smoothness basis when the process has not seen the
    curve; a seen curve is fetched with its caches (`make_curve`)."""
    import tcone.polyring as polyring
    calls = []
    real = polyring.buchberger_module
    monkeypatch.setattr(polyring, "buchberger_module",
                        lambda vectors, field: calls.append(1) or
                        real(vectors, field))
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    checked = 0
    for path in sorted(demo.glob("*.tc")):
        if "candidate" not in path.read_text():
            continue
        polyring._cached_curve.cache_clear()
        counts = []
        for _ in range(2):
            calls.clear()
            assert main(["check", str(path)]) in (0, 1)
            counts.append(len(calls))
        assert counts == [2, 1], path.name
        checked += 1
    capsys.readouterr()
    assert checked >= 5
