from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tcone import closure
from tcone.bundle import (component_class_vanishes, decompose_bundle,
                          forcing_data, syzygy_bundle)
from tcone.closure import (FrobeniusResult, frobenius_member,
                           slope_and_threshold, tight_closure_ideal,
                           tight_closure_member, _frobenius_system,
                           _ideal_piece_rows)
from tcone.field import make_field
from tcone.gradedmod import PieceFrame
from tcone.linalg import (SpanBasis, reduce_against, row_space_contains, rref,
                          sparse_row_space_contains)
from tcone.polyring import (CubicCurve, IdealData, Polynomial,
                            format_polynomial, ideal_membership,
                            parse_polynomial)

from .conftest import ideal_of, pp, random_homogeneous, random_primary_ideal, seeded
from .reference import frobenius_system_reference, reference_multiples


def test_membership_verdicts_worked_examples(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    cert = tight_closure_member(I, pp("x*y*z", F5))
    assert cert.verdict == "member"
    assert cert.in_ideal is False
    assert [(s.rank, s.degree, s.class_vanishes) for s in cert.summands] == \
        [(2, 0, False)]
    assert cert.formula_degree == 0

    I2 = ideal_of(fermat5, "x^2", "y^2", "x^2")
    cert2 = tight_closure_member(I2, pp("x*y*z", F5))
    assert cert2.verdict == "non-member"

    I3 = ideal_of(fermat5, "x", "y", "z^3")
    cert3 = tight_closure_member(I3, pp("z^2", F5))
    assert cert3.verdict == "member"


def test_ideal_dependence_invariant(fermat5, F5):
    pairs = [("x*y*z", None), ("z^2", None), ("x^2*y", None)]
    I_two = ideal_of(fermat5, "x^2", "y^2")
    I_dup = ideal_of(fermat5, "x^2", "y^2", "x^2")
    for text, _ in pairs:
        f0 = pp(text, F5)
        assert tight_closure_member(I_two, f0).verdict == \
            tight_closure_member(I_dup, f0).verdict


def test_degree_zero_candidate_is_not_member(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    cert = tight_closure_member(I, pp("3", F5))
    assert cert.verdict == "non-member"
    assert cert.in_ideal is False


def test_members_of_ideal_are_members(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    for text in ("x^2", "y^3", "x^2*z + y^2*x"):
        cert = tight_closure_member(I, pp(text, F5))
        assert cert.in_ideal is True
        assert cert.verdict == "member"
        assert all(s.class_vanishes for s in cert.summands)


def test_monotonicity_chain(fermat5):
    rng = seeded(17)
    for _ in range(6):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f0 = random_homogeneous(fermat5, rng.randint(1, 3), rng)
        in_ideal = ideal_membership(f0, ideal)
        frob = frobenius_member(ideal, f0, 1)
        cert = tight_closure_member(ideal, f0)
        if in_ideal:
            assert frob.found and frob.e == 0
        if frob.found:
            assert cert.verdict == "member"


def test_frobenius_examples(fermat5, fermat2, F5, F2):
    I5 = ideal_of(fermat5, "x^2", "y^2", "z^2")
    assert frobenius_member(I5, pp("x^2", F5), 2) == FrobeniusResult(True, 0, 2)
    # golden values, frozen from this operation
    I2 = ideal_of(fermat2, "x^2", "y^2", "z^2")
    assert frobenius_member(I2, pp("x*y*z", F2), 4) == FrobeniusResult(True, 2, 4)
    I2d = ideal_of(fermat2, "x^2", "y^2", "x^2")
    assert frobenius_member(I2d, pp("x*y*z", F2), 4) == \
        FrobeniusResult(False, None, 4)
    assert frobenius_member(I5, pp("x*y*z", F5), 3) == FrobeniusResult(True, 1, 3)


def test_frobenius_duplicate_generator_is_the_same_ideal(fermat5, F5):
    dup = ideal_of(fermat5, "x^2", "y^2", "x^2")
    two = ideal_of(fermat5, "x^2", "y^2")
    for text in ("x*y*z", "x*y", "z^2", "x^2*y", "x*z^2", "x*y*z^2"):
        f0 = pp(text, F5)
        for e_max in range(3):
            assert frobenius_member(dup, f0, e_max) == \
                frobenius_member(two, f0, e_max)


def test_frobenius_refuses_past_the_matrix_cap(monkeypatch):
    # p = 11, e_max = 4 on a non-member would reach D = 3 * 11^4; the size
    # is predicted before the rows are built, so D = 3993 is never built
    F11 = make_field(11)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", F11), F11)
    built = []
    real = closure._frobenius_system
    monkeypatch.setattr(closure, "_frobenius_system",
                        lambda c, powered, target, D:
                        built.append(D) or real(c, powered, target, D))
    ideal = ideal_of(curve, "x^2", "y^2")
    result = frobenius_member(ideal, pp("x*y*z", F11), 4)
    assert result == FrobeniusResult(False, None, 4, inconclusive_at=(3, 3993))
    assert built == [3, 33, 363]
    assert str(result).startswith("inconclusive: stopped at e = 3, D = 3993")


def _rank(rows, field):
    return len(rref(rows, field)[1])


def _densify(rows, ncols):
    """The dense matrix of sparse rows (indptr, cols, vals), as
    `linalg.sparse_row_space_contains` takes them."""
    indptr, cols, vals = rows
    out = np.zeros((len(indptr) - 1, ncols), dtype=np.int64)
    out[np.repeat(np.arange(len(indptr) - 1), np.diff(indptr)), cols] = vals
    return out


def _leads(mat):
    """Column of each row's first nonzero entry; the width for zero rows."""
    stop = np.ones((mat.shape[0], 1), dtype=bool)
    return np.hstack([mat != 0, stop]).argmax(axis=1)


def _same_system(curve, powered, target, D):
    """_frobenius_system, with the arrays of the reference builder: equal
    indptr, cols, vals and vec, in values and order (dtypes aside)."""
    sparse, vec = _frobenius_system(curve, powered, target, D)
    ref, ref_vec = frobenius_system_reference(curve, powered, target, D)
    for got, want in zip(sparse + (vec,), ref + (ref_vec,)):
        assert np.array_equal(got, want)
    return sparse, vec


def _check_system(curve, powered, target, D):
    """_frobenius_system against the reference builder and the reference
    route, the full system of every monomial multiple, one normal form per
    row (no normal-form table, which at D = 98 would take 12 MB and
    seconds); returns the answer and the number of fixed columns."""
    field = curve.field
    sparse, vec = _same_system(curve, powered, target, D)
    frame = PieceFrame(curve, (0,), D)
    full = reference_multiples(frame, [(h,) for h in powered])
    full_vec = frame.coords((target,))
    answer = sparse_row_space_contains(sparse, vec, field)
    assert answer == row_space_contains(full.copy(), full_vec, field)
    rows = _densify(sparse, len(vec))
    n_fixed = full.shape[1] - rows.shape[1]
    assert _rank(rows, field) + n_fixed == _rank(full, field)
    # exactly: the reference's unit rows fix their columns, and the other
    # rows, in order, lose those columns, once the documented order is
    # undone: rows numbered by (power, x-exponent a, z-exponent c) of
    # their multipliers x^a y^b z^c, columns reversed when more rows then
    # have distinct leads, rows sorted by lead (stably), empty rows last
    unit = np.count_nonzero(full, axis=1) == 1
    fixed = np.zeros(full.shape[1], dtype=bool)
    fixed[np.nonzero(full[unit])[1]] = True
    expect = full[~unit][:, ~fixed]
    mults = np.array([(k, a, c) for k, h in enumerate(powered)
                      for a, _, c in curve.piece_monomials(D - h.degree())],
                     dtype=np.int64).reshape(-1, 3)[~unit]
    numbered = np.lexsort((mults[:, 2], mults[:, 1], mults[:, 0]))
    ordered = expect[numbered]
    filled = ordered.any(axis=1)
    forward, backward = _leads(ordered), _leads(ordered[:, ::-1])
    if len(set(backward[filled])) > len(set(forward[filled])):
        rows, vec, forward = rows[:, ::-1], vec[::-1], backward
    undone = np.empty_like(rows)
    undone[numbered[np.argsort(forward, kind="stable")]] = rows
    assert np.array_equal(undone, expect)
    assert np.array_equal(vec, full_vec[~fixed])
    return answer, n_fixed


def test_column_table_matches_piece_monomials(fermat5):
    for D in range(12):
        table = np.full((3, D + 1), -1)
        for j, (a, _, c) in enumerate(fermat5.piece_monomials(D)):
            table[a, c] = j
        assert np.array_equal(closure._column_table(D), table)


def _x_cubed_curves(field):
    """The Fermat cubic and one with x^2 z in its tail, smooth over F_2,
    F_4, F_5, F_7 and F_25; both have lt(F) = x^3."""
    curves = [CubicCurve(pp(text, field), field)
              for text in ("x^3 + y^3 + z^3", "x^3 + x^2*z + y^2*z + y*z^2")]
    assert all(c.F.leading_monomial() == (3, 0, 0) for c in curves)
    return curves


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (5, 1), (7, 1), (5, 2)])
def test_frobenius_system_matches_the_reference_route(p, k):
    field = make_field(p, k)
    rng = seeded(600 + 10 * p + k)
    answers, fixed_seen = set(), 0
    for curve in _x_cubed_curves(field):
        for _ in range(4):
            ideal = random_primary_ideal(curve, rng, max_deg=2)
            if rng.random() < 0.5:
                ideal = IdealData(curve, list(ideal.gens) + [
                    pp(rng.choice(["x^2", "y^2", "z^2", "y*z"]), field)])
            m = rng.randint(1, 2)
            f0 = random_homogeneous(curve, m, rng)
            gens = list(dict.fromkeys(g.monic() for g in ideal.gens))
            for e in range(3):
                q = p ** e
                powered = [curve.nf(g.frobenius_power(e)) for g in gens]
                target = curve.nf(f0.frobenius_power(e))
                answer, n_fixed = _check_system(curve, powered, target, q * m)
                answers.add(answer)
                fixed_seen += n_fixed > 0
    assert answers == {True, False}
    assert fixed_seen


def test_frobenius_system_edge_cases(fermat5, F5):
    curve = fermat5
    nf = curve.nf
    dense3 = nf(pp("x^2*y + 2*x*y*z + 3*y^3 + z^3 + x^3", F5))
    dense2 = nf(pp("x^2 + 3*x*y + y*z + 4*z^2", F5))
    cases = [
        # monomial generators, one of them x^2 with dense x-multiples
        ([pp("x^2", F5), pp("y^2", F5), pp("z^2", F5)], "x*y*z", 3),
        ([pp("x^2", F5), pp("y^2", F5), pp("z^2", F5)], "x*y*z*x", 4),
        # dense generators, of degree D (K = 0) and D - 1 (K = 1)
        ([dense3, dense2], "x*y*z", 3),
        ([dense3, pp("y^2", F5)], "3*x^2*z + y^3", 3),
        # a generator above D contributes no rows
        ([dense2, pp("y^4", F5), pp("z^2", F5)], "x^2*y + z^3", 3),
        # a target supported only on fixed columns
        ([pp("y^2", F5), dense2], "y^2*z + 2*x*y^2", 3),
    ]
    for powered, text, D in cases:
        _check_system(curve, [nf(h) for h in powered], nf(pp(text, F5)), D)
    rows, vec = _frobenius_system(curve, [pp("y^2", F5), dense2],
                                  pp("y^2*z + 2*x*y^2", F5), 3)
    assert not vec.any()
    # every column fixed: y and z span all of R_3, and no row is left
    assert _check_system(curve, [pp("y", F5), pp("z", F5)],
                         pp("x^2*y", F5), 3) == (True, 9)


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (5, 1), (5, 2), (7, 1),
                                  (7, 2)])
def test_iterated_frobenius_normal_forms(p, k):
    # nf(h^[p^e]) one p-th power at a time equals the direct normal form,
    # on a curve with lt(F) = x^3 and on one through (1:0:0)
    field = make_field(p, k)
    rng = seeded(700 + 10 * p + k)
    for curve in (_x_cubed_curves(field)[0],
                  CubicCurve(_sheared(pp("x^3 + y^3 + z^3", field), -1),
                             field)):
        for _ in range(2):
            h = random_homogeneous(curve, rng.randint(1, 2), rng)
            step = h
            for e in range(1, 4):
                step = curve.nf(step.frobenius_power(1))
                assert step == curve.nf(h.frobenius_power(e))


def _sheared(poly, s):
    """poly with y replaced by y + s*x."""
    field = poly.field
    y_new = Polynomial.variable(field, "y") + \
        Polynomial.variable(field, "x").scale(s % field.p)
    out = Polynomial.zero(field)
    for (a, b, c), coeff in poly.terms.items():
        out = out + (y_new ** b).term_mul((a, 0, c), coeff)
    return out


@pytest.mark.parametrize("p, problems", [
    (2, [(("x^2", "y^2", "z^2"), "x*y*z", 4),
         (("x^2", "y^2", "x^2"), "x*y*z", 4),
         (("x", "y^2", "z^2"), "y*z", 3)]),
    (5, [(("x^2", "y^2", "z^2"), "x*y*z", 4),
         (("x^2", "y^2"), "x*y*z", 2),
         (("x^2", "y^2", "z^2"), "x^2", 2),
         (("x*y", "y^2 + z^2", "x^2"), "x*z", 2)]),
])
def test_sheared_curves_match_their_fermat_originals(p, problems):
    # y -> y - x moves (1:-1:0) of the Fermat cubic to (1:0:0), so the
    # sheared curve has lt(F) = x^2*y and the oracle first moves (0:0:1)
    # to (1:0:0) (`_moved_off_curve`); both substitutions are graded
    # isomorphisms, so every answer, e and D agree with the original's
    field = make_field(p)
    fermat = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    sheared = CubicCurve(_sheared(fermat.F, -1), field)
    assert fermat.F.leading_monomial() == (3, 0, 0)
    assert sheared.F.leading_monomial() == (2, 1, 0)
    results = set()
    for gens, cand, e_max in problems:
        ideal = ideal_of(fermat, *gens)
        moved = IdealData(sheared, [_sheared(g, -1) for g in ideal.gens])
        f0 = pp(cand, field)
        result = frobenius_member(ideal, f0, e_max)
        assert frobenius_member(moved, _sheared(f0, -1), e_max) == result
        results.add(result.found)
    assert results == {True, False}


def test_sheared_demo_is_the_fermat_check():
    # demos/problems/sheared_fermat5.tc is fermat5_check.tc sheared by
    # y -> y + 4x, and its oracle answer is the original's
    from tcone.cli import parse_problem
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    orig, moved = (parse_problem((demo / f"{name}.tc").read_text())
                   for name in ("fermat5_check", "sheared_fermat5"))
    assert moved.curve.F == _sheared(orig.curve.F, 4).monic()
    assert moved.ideal.gens == tuple(moved.curve.nf(_sheared(g, 4))
                                     for g in orig.ideal.gens)
    assert moved.candidate == _sheared(orig.candidate, 4)
    assert moved.curve.F.leading_monomial() == (2, 1, 0)
    result = frobenius_member(orig.ideal, orig.candidate)
    assert result == FrobeniusResult(True, 1, 4)
    assert frobenius_member(moved.ideal, moved.candidate) == result


def test_oracle_builds_no_normal_form_table(monkeypatch):
    # the oracle's rows are shifts of three normal forms per power, on
    # every curve; a table at D = 1875 would take about 80 GB
    from tcone.cli import parse_problem
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    problems = {name: parse_problem((demo / f"{name}.tc").read_text())
                for name in ("duplicate_generator",
                             "sheared_duplicate_generator",
                             "sheared_fermat5")}

    def no_table(self, D):
        raise AssertionError(f"normal-form table at degree {D}")

    monkeypatch.setattr(CubicCurve, "_nf_table", no_table)
    results = {name: frobenius_member(prob.ideal, prob.candidate)
               for name, prob in problems.items()}
    assert results == {
        "duplicate_generator": FrobeniusResult(False, None, 4),
        "sheared_duplicate_generator": FrobeniusResult(False, None, 4),
        "sheared_fermat5": FrobeniusResult(True, 1, 4)}
    assert problems["sheared_duplicate_generator"].curve.F \
        .leading_monomial() == (2, 1, 0)


def test_frobenius_system_matches_the_reference_builder_on_the_demos(
        monkeypatch):
    # every system the oracle builds on three demos, up to D = 1875, equals
    # the reference builder's; sheared_duplicate_generator.tc's are built
    # after the change of coordinates to lt(F) = x^3
    from tcone.cli import parse_problem
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    built = []

    def checked(curve, powered, target, D):
        built.append(D)
        return _same_system(curve, powered, target, D)

    monkeypatch.setattr(closure, "_frobenius_system", checked)
    results = {}
    for name in ("duplicate_generator", "sheared_duplicate_generator",
                 "fermat5_check"):
        prob = parse_problem((demo / f"{name}.tc").read_text())
        results[name] = frobenius_member(prob.ideal, prob.candidate)
    assert results == {
        "duplicate_generator": FrobeniusResult(False, None, 4),
        "sheared_duplicate_generator": FrobeniusResult(False, None, 4),
        "fermat5_check": FrobeniusResult(True, 1, 4)}
    assert built == [3, 15, 75, 375, 1875] * 2 + [3, 15]


def test_oracle_memory_stays_below_the_dense_system():
    # at D = 1875 the dense system of duplicate_generator.tc was
    # 1875 x 3750 int64 codes, 56 MB; its 111,970 sparse entries take
    # 12 bytes each (int32 column, int64 code), 1.3 MB, and the oracle's
    # peak stays within about 25 bytes per entry (it was 7.9 MiB, about
    # 74 bytes per entry, with full-length int64 index arrays).  The
    # warm-up call fills the caches that later calls reuse.
    import tracemalloc
    from tcone.cli import parse_problem
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    prob = parse_problem((demo / "duplicate_generator.tc").read_text())
    frobenius_member(prob.ideal, prob.candidate)
    tracemalloc.start()
    try:
        result = frobenius_member(prob.ideal, prob.candidate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == FrobeniusResult(False, None, 4)
    assert peak < 5 << 20
    # the target's coordinates come from the column table, so a cold call
    # on a new curve leaves no degree-1875 monomial list or index on it
    curve = CubicCurve(prob.curve.F, prob.curve.field)
    ideal = IdealData(curve, list(prob.ideal.gens))
    assert frobenius_member(ideal, prob.candidate) == result
    assert 1875 not in curve._piece_cache
    assert 1875 not in curve._index_cache


# (field, cubic with lt(F) != x^3, the first point off it): points of the
# forms (0:0:1) (the Fermat cubic sheared by y -> y + c x with c^3 = -1)
# and (0:1:c) over F_2, F_4, F_5 and F_7; one of the form
# (1:b:c) needs a curve through all q + 1 points of x = 0, and a smooth
# cubic meets a line in at most 3 points, so only over F_2
MOVED_CURVES = [
    ((2, 1), "y^3 + x*y^2 + x^2*y + z^3", (0, 0, 1)),
    ((2, 2), "y^3 + x*y^2 + x^2*y + z^3", (0, 0, 1)),
    ((5, 1), "3*x^2*y + 2*x*y^2 + y^3 + z^3", (0, 0, 1)),
    ((7, 1), "6*x^2*y + 2*x*y^2 + y^3 + z^3", (0, 0, 1)),
    ((2, 1), "x^2*y + y^2*z + z^2*x", (0, 1, 1)),
    ((2, 2), "x^2*y + y^2*z + z^2*x", (0, 1, 1)),
    ((5, 1), "x^2*y + y^2*z + z^2*x", (0, 1, 1)),
    ((7, 1), "x^2*y + y^2*z + z^2*x", (0, 1, 1)),
    ((2, 1), "x^2*y + x*z^2 + y^2*z + y*z^2", (1, 0, 1)),
]


@pytest.mark.parametrize("field_pk, cubic, point", MOVED_CURVES)
def test_coordinate_change_gives_x_cubed(field_pk, cubic, point):
    """`_moved_off_curve` takes the first point off the curve to (1:0:0):
    the new F leads with x^3, is smooth and has as many K-points, and the
    images are the substituted forms, reduced on the new curve."""
    from tcone.polyring import is_smooth_cubic
    field = make_field(*field_pk)
    curve = CubicCurve(pp(cubic, field), field)
    assert curve.F.leading_monomial() != (3, 0, 0)
    assert closure._point_off_curve(curve) == (point, point.index(1))
    polys = [pp("x^2", field), pp("y*z", field), pp("x*y + z^2", field)]
    moved, images = closure._moved_off_curve(curve, polys)
    assert moved.F.leading_monomial() == (3, 0, 0)
    assert is_smooth_cubic(moved.F, field)
    q = field.q
    plane = [(0, 0, 1)] + [(0, 1, c) for c in range(q)] + \
        [(1, b, c) for b in range(q) for c in range(q)]
    assert sum(not closure._evaluate(moved.F, v) for v in plane) == \
        sum(not closure._evaluate(curve.F, v) for v in plane)
    assert [h.degree() for h in images] == [2, 2, 2]
    assert images == [moved.nf(h) for h in images]
    # x_i -> x and the other two coordinates -> P_j x + y, P_j' x + z, so
    # x_i x_j is x (P_j x + y)
    i = point.index(1)
    j = [k for k in range(3) if k != i]
    x, y = pp("x", field), pp("y", field)
    monomial = [0, 0, 0]
    monomial[i] += 1
    monomial[j[0]] += 1
    (image,) = closure._moved_off_curve(
        curve, [Polynomial.monomial(field, monomial)])[1]
    assert image == moved.nf(x * (x.scale(point[j[0]]) + y))


def test_obstruction_budget_counts_the_normal_form_table(monkeypatch):
    """The obstruction map's rows come from normal-form tables up to
    degree T = max(m + N, 2N + m - min d_i), and its prediction adds the
    degree-T table's 8 (T + 1)(T + 2)/2 * 3T bytes: a budget that the
    matrices alone fit is refused, names the stage, and builds no table
    of degree T."""
    F5 = make_field(5)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", F5), F5)     # no tables yet
    ideal = ideal_of(curve, "x^2", "y^2", "x^2")
    f0 = pp("x*y*z", F5)
    m, N = 3, 2
    assert closure._full_degree(ideal) - m == N
    T = max(m + N, 2 * N + m - 2)
    table = 8 * (T + 1) * (T + 2) // 2 * 3 * T
    built = []
    real = CubicCurve._nf_table

    def recorded(self, D):
        if D not in self._nf_tables:
            built.append(D)
        return real(self, D)

    monkeypatch.setattr(CubicCurve, "_nf_table", recorded)
    monkeypatch.setattr(closure, "_MATRIX_BYTES", 1000)
    with pytest.raises(closure.UndecidedError) as info:
        tight_closure_member(ideal, f0)
    size = info.value.size
    assert info.value.stage == "class test"
    assert size > table and size % 8 == 0
    # the matrices alone fit, the table does not
    for budget in (size - table, size - 8):
        monkeypatch.setattr(closure, "_MATRIX_BYTES", budget)
        with pytest.raises(closure.UndecidedError) as info:
            tight_closure_member(ideal, f0)
        assert (info.value.stage, info.value.size) == ("class test", size)
    assert built and max(built) < T
    monkeypatch.setattr(closure, "_MATRIX_BYTES", size)
    assert tight_closure_member(ideal, f0).verdict == "non-member"
    assert max(built) == T


def test_slope_examples(fermat5):
    sr = slope_and_threshold(ideal_of(fermat5, "x^2", "y^2", "z^2"))
    assert (sr.mu_min, sr.mu_max) == (Fraction(9), Fraction(9))
    assert sr.k == Fraction(3)
    assert sr.semistable

    sr2 = slope_and_threshold(ideal_of(fermat5, "x", "y"))
    assert (sr2.mu_min, sr2.mu_max) == (Fraction(6), Fraction(6))
    assert sr2.k == Fraction(2)

    # twist-0 summands O(-3), O(-2) give dual slopes 9 and 6
    sr3 = slope_and_threshold(ideal_of(fermat5, "x", "y", "z^3"))
    assert (sr3.mu_min, sr3.mu_max) == (Fraction(6), Fraction(9))
    assert sr3.k == Fraction(5, 2)
    assert not sr3.semistable


def _piece_span_dims(curve, gens, through):
    dims = {}
    for d in range(1, through + 1):
        rows = _ideal_piece_rows(curve, gens, d)
        dims[d] = rref(rows, curve.field)[0].shape[0]
    return dims


def test_closure_ideal_fermat(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    ci = tight_closure_ideal(I)
    got = sorted(format_polynomial(g) for g in ci.generators)
    assert got == ["x*y*z", "x^2", "y^2", "z^2"]
    assert ci.k == Fraction(3)
    assert ci.bound_degree == 3
    # degreewise equality with (x^2,y^2,z^2) + R_{>=3} through degree 5
    closure_gens = list(ci.generators)
    dims = _piece_span_dims(fermat5, closure_gens, 5)
    ideal_dims = _piece_span_dims(fermat5, list(I.gens), 5)
    for d in range(1, 6):
        expected = ideal_dims[d] if d < 3 else fermat5.piece_dim(d)
        assert dims[d] == expected


def test_closure_ideal_xy(fermat5, F5):
    I = ideal_of(fermat5, "x", "y")
    ci = tight_closure_ideal(I)
    got = sorted(format_polynomial(g) for g in ci.generators)
    assert got == ["x", "y", "z^2"]
    assert ci.k == Fraction(2)
    dims = _piece_span_dims(fermat5, list(ci.generators), 4)
    for d in range(2, 5):
        assert dims[d] == fermat5.piece_dim(d)
    assert dims[1] == 2


def test_closure_ideal_irrelevant(fermat5):
    ci = tight_closure_ideal(ideal_of(fermat5, "x", "y", "z"))
    assert sorted(format_polynomial(g) for g in ci.generators) == ["x", "y", "z"]


def test_closure_ideal_window_matches_reduced_generators(fermat5):
    # duplicate generator: same ideal, different bundle; the closure computed
    # through the criterion window must agree with the semistable shortcut
    ci_dup = tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2", "x^2"))
    ci_two = tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2"))
    assert any(d.regime == "criterion" for d in ci_dup.per_degree)
    assert all(d.regime != "criterion" for d in ci_two.per_degree)
    dup = sorted(format_polynomial(g) for g in ci_dup.generators)
    two = sorted(format_polynomial(g) for g in ci_two.generators)
    assert dup == two


def test_degree_threshold_semistable(fermat5, F5):
    # for semistable duals the closure is ideal + everything from degree k on,
    # checked degreewise through k + 2
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    sr = slope_and_threshold(I)
    assert sr.semistable
    k = int(sr.k)
    rng = seeded(41)
    for d in range(1, k + 3):
        if d >= k:
            f = random_homogeneous(fermat5, d, rng)
            assert tight_closure_member(I, f).verdict == "member"
        else:
            f = random_homogeneous(fermat5, d, rng)
            assert tight_closure_member(I, f).is_member == \
                ideal_membership(f, I)


def test_indecomposable_numerical_equivalence(fermat5):
    # with an indecomposable syzygy sheaf the verdict is numerical:
    # non-member iff sum(d_i) - (n-1) m > 0 and the candidate is outside
    rng = seeded(59)
    tested = 0
    while tested < 6:
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f0 = random_homogeneous(fermat5, rng.randint(1, 3), rng)
        m = f0.degree()
        dec = decompose_bundle(syzygy_bundle(ideal, m))
        if len(dec) != 1:
            continue
        tested += 1
        cert = tight_closure_member(ideal, f0)
        numerical = (sum(ideal.degrees) - (ideal.n - 1) * m > 0
                     and not ideal_membership(f0, ideal))
        assert (cert.verdict == "non-member") == numerical


def test_supersingular_agreement_small(fermat2, F2):
    # on a supersingular curve the Frobenius oracle and the criterion agree
    rng = seeded(67)
    for _ in range(6):
        ideal = random_primary_ideal(fermat2, rng, n_max=3, max_deg=2)
        f0 = random_homogeneous(fermat2, rng.randint(1, 2), rng)
        frob = frobenius_member(ideal, f0, 3)
        cert = tight_closure_member(ideal, f0)
        if frob.found:
            assert cert.verdict == "member"
        if cert.verdict == "non-member":
            assert not frob.found


def test_certificate_invariant(fermat5):
    rng = seeded(73)
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f0 = random_homogeneous(fermat5, rng.randint(1, 3), rng)
        cert = tight_closure_member(ideal, f0)
        obstructed = any(s.degree < 0 and not s.class_vanishes
                         for s in cert.summands)
        assert cert.is_member == (not obstructed)
        n = ideal.n
        assert cert.formula_degree == \
            -3 * (sum(ideal.degrees) - (n - 1) * f0.degree())


def test_closure_ideal_decomposes_once(fermat5, monkeypatch):
    """The window degrees twist the twist-0 decomposition: one
    decompose_bundle and one End algebra per ideal, however many criterion
    degrees there are."""
    import tcone.bundle as bundle
    calls = []
    real_dec, real_end = closure.decompose_bundle, bundle.end_algebra
    monkeypatch.setattr(closure, "decompose_bundle",
                        lambda b, **kw: calls.append(("dec", b.m)) or
                        real_dec(b, **kw))
    monkeypatch.setattr(bundle, "end_algebra",
                        lambda b: calls.append(("end", b.m)) or real_end(b))
    ci = tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2", "x^2"))
    assert any(d.regime == "criterion" for d in ci.per_degree)
    assert calls == [("dec", 0), ("end", 0)]


def test_obstruction_budget_names_stage_and_size(fermat5, F5, monkeypatch):
    # the window's matrices are predicted before any is built: past the
    # budget, the refusal names the stage and the size in bytes, and the
    # degree-D rows of the cocycle solve are never built
    built = []
    real = closure._ideal_piece_rows
    monkeypatch.setattr(closure, "_ideal_piece_rows",
                        lambda c, gens, D: built.append(D) or real(c, gens, D))
    monkeypatch.setattr(closure, "_MATRIX_BYTES", 1000)
    with pytest.raises(closure.UndecidedError) as info:
        tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2", "x^2"))
    exc = info.value
    assert exc.stage == "closure window"
    assert exc.size > 1000 and exc.size % 8 == 0
    assert str(exc) == (f"degree 2: the obstruction map's matrices would "
                        f"take {exc.size} bytes, beyond 0 MiB")
    assert built == [1, 2]         # the ideal pieces, no solve rows
    built.clear()
    with pytest.raises(closure.UndecidedError) as info:
        tight_closure_member(ideal_of(fermat5, "x^2", "y^2", "x^2"),
                             pp("x*y*z", F5))
    assert info.value.stage == "class test"
    assert built == []


def _reference_peel(curve, pieces, bound):
    """Minimal generators as the closure used to find them: degree by
    degree, a piece row is a generator when it grows the SpanBasis of R_1
    times the previous piece."""
    gens, prev = [], []
    for m in range(1, bound + 1):
        frame = PieceFrame(curve, (0,), m)
        grown = SpanBasis(frame.width, curve.field)
        for row in frame.multiples(prev):
            grown.add(row)
        prev = pieces.get(m, [])
        for vec in prev:
            if grown.add(frame.coords(vec)):
                gens.append(vec[0])
    return gens


@pytest.mark.parametrize("p, gens", [
    (5, ("x^2", "y^2", "z^2")), (5, ("x^2", "y^2", "x^2")), (5, ("x", "y")),
    (5, ("x", "y", "z")), (5, ("x^2", "y^2")), (2, ("x^2", "y^2", "z^2")),
    (7, ("x^2", "y^2", "z^2"))])
def test_closure_generators_match_peel_reference(p, gens, monkeypatch):
    field = make_field(p)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    seen = {}
    real = closure._minimal_generators

    def recording(curve, ambient, vectors):
        seen["candidates"] = vectors
        seen["kept"] = real(curve, ambient, vectors)
        return seen["kept"]

    monkeypatch.setattr(closure, "_minimal_generators", recording)
    ci = tight_closure_ideal(ideal_of(curve, *gens))
    pieces = {}
    for vec in seen["candidates"]:
        pieces.setdefault(vec[0].degree(), []).append(vec)
    assert [d.dim_closure for d in ci.per_degree] == \
        [len(pieces.get(m, [])) for m in range(1, ci.bound_degree + 1)]
    want = _reference_peel(curve, pieces, ci.bound_degree)
    assert [v[0] for v in seen["kept"]] == want
    assert sorted(format_polynomial(g) for g in ci.generators) == \
        sorted(format_polynomial(g) for g in want)


def test_closure_ideal_adds_no_span_basis_rows(fermat5, monkeypatch):
    calls = []
    real = SpanBasis.add
    monkeypatch.setattr(SpanBasis, "add",
                        lambda self, vec: calls.append(1) or real(self, vec))
    ci = tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2", "z^2"))
    assert sorted(format_polynomial(g) for g in ci.generators) == \
        ["x*y*z", "x^2", "y^2", "z^2"]
    assert calls == []


# ---------------------------------------------------------------------------
# the Cech obstruction map against the reference route
# ---------------------------------------------------------------------------

def _enumerated_piece(ideal, m, ideal_piece, dec0):
    """Reference for the closure window: the degree-m piece of the tight
    closure reconstructed by testing one representative of every line of
    the quotient R_m / I_m with forcing_data and component_class_vanishes
    on the negative summands (the line enumeration the window ran before
    the Cech map)."""
    curve = ideal.curve
    field = curve.field
    frame = PieceFrame(curve, (0,), m)
    width = frame.width
    rows, pivots = ideal_piece
    free_cols = [c for c in range(width) if c not in pivots]
    t = len(free_cols)
    if t == 0:
        return ideal_piece
    q = field.q
    assert (q ** t - 1) // (q - 1) <= 200, "too many lines for a test"
    dec = dec0.twisted(m)
    negatives = [s for s in dec if s.degree < 0]
    # canonical line representatives: leading coordinate 1
    for lead in range(t):
        tail = t - lead - 1
        for code in range(q ** tail):
            coeffs = [0] * lead + [1]
            c = code
            for _ in range(tail):
                coeffs.append(c % q)
                c //= q
            vec = np.zeros(width, dtype=np.int64)
            vec[free_cols] = coeffs
            if not reduce_against(rows, pivots, vec, field).any():
                # already known to be in the closure piece
                continue
            fd = forcing_data(ideal, frame.polys(vec)[0], dec.base_bundle)
            if all(component_class_vanishes(fd, s) for s in negatives):
                rows, pivots = rref(np.vstack([rows, vec]), field)
    return rows, pivots


def _fermat(p, k=1):
    return _cubic("x^3 + y^3 + z^3", p, k)


def _cubic(text, p, k=1):
    field = make_field(p, k)
    return CubicCurve(pp(text, field), field)


def _window_degrees(ideal, dec0):
    slope = closure._slope_report(ideal, dec0)
    return [m for m in range(1, closure._ceil_fraction(slope.mu_max / 3) + 1)
            if slope.mu_min / 3 <= m < slope.mu_max / 3]


# the corpus shapes (1,3,3), (1,1,4) and (2,2,3) over F_2, F_4, F_5, F_7,
# some with a binomial generator; (x^3, y^3, x^2*y) has a window degree
# m = 4 > max d_i with a degree-0 summand, where dim I*_4 - dim I_4 = h^0 = 1;
# the last ideal's End algebra splits only over F_25, so its window runs
# over the extension and pulls the piece back
WINDOW_CASES = [
    (2, 1, ("x", "y^3 + x*y^2", "z^3")), (2, 1, ("x", "y", "z^4")),
    (2, 1, ("x^2 + x*y", "y^2", "z^3")), (2, 1, ("x^3", "y^3", "x^2*y")),
    (2, 2, ("x", "y^3", "(t + 1)*z^3 + x*z^2")), (2, 2, ("x", "y", "t*z^4")),
    (2, 2, ("x^2", "t*y^2", "z^3")),
    (5, 1, ("2*x", "y^3", "3*z^3")), (5, 1, ("x", "y", "z^4")),
    (5, 1, ("x^2", "3*y^2", "z^3")),
    (7, 1, ("x", "y^3 + 3*x*y^2", "z^3")), (7, 1, ("x", "y", "z^4")),
    (5, 1, ("x*y + x*z + 4*y*z + 2*z^2", "2*y^2", "2*y^2", "x^2 + 4*x*y")),
]


@pytest.mark.parametrize("p, k, gens", WINDOW_CASES)
def test_window_matches_line_enumeration(p, k, gens, monkeypatch):
    ideal = ideal_of(_fermat(p, k), *gens)
    curve = ideal.curve
    dec0 = decompose_bundle(syzygy_bundle(ideal, 0))
    degrees = _window_degrees(ideal, dec0)
    assert degrees
    if gens == WINDOW_CASES[-1][2]:
        assert dec0.extension_degree == 2
    pieces = {}
    for m in degrees:
        ideal_piece = rref(_ideal_piece_rows(curve, ideal.gens, m),
                           curve.field)
        got = closure._criterion_piece(ideal, m, ideal_piece, dec0)
        want = _enumerated_piece(ideal, m, ideal_piece, dec0)
        assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        pieces[m] = ideal_piece, got
    if gens == ("x^3", "y^3", "x^2*y"):
        assert {m: len(got[1]) - len(ip[1])
                for m, (ip, got) in pieces.items()} == {4: 1}
    # any N with l^N R_m inside I_(m+N) gives the same piece
    real = closure._full_degree
    monkeypatch.setattr(closure, "_full_degree", lambda I: real(I) + 2)
    for m, (ideal_piece, got) in pieces.items():
        again = closure._criterion_piece(ideal, m, ideal_piece, dec0)
        assert np.array_equal(again[0], got[0]) and again[1] == got[1]


def test_window_checks_the_h0_bound(monkeypatch):
    # at m = 4 > max d_i the gain must equal h^0 of the degree-0 summand;
    # a count of 0 there is caught
    from tcone.gradedmod import PresentedModule
    ideal = ideal_of(_fermat(2), "x^3", "y^3", "x^2*y")
    dec0 = decompose_bundle(syzygy_bundle(ideal, 0))
    ideal_piece = rref(_ideal_piece_rows(ideal.curve, ideal.gens, 4),
                       ideal.curve.field)
    real = PresentedModule.piece_matrix
    monkeypatch.setattr(PresentedModule, "piece_matrix",
                        lambda self, t: real(self, t)[:0] if t == 0
                        else real(self, t))
    with pytest.raises(ArithmeticError, match="gains 1 over the ideal, "
                       "against h\\^0 = 0"):
        closure._criterion_piece(ideal, 4, ideal_piece, dec0)


# ideals of three conics over F_5 whose End algebras split only over F_25
EXTENSION_IDEALS = [
    ("3*x^2 + 3*x*y + 2*y^2 + y*z", "2*x^2 + 3*x*y + y^2 + 4*x*z + z^2",
     "x^2 + 4*x*y + 4*x*z + 2*y*z"),
    ("4*x^2 + 4*y^2 + x*z + 3*z^2", "x*y + z^2", "3*x*y + y^2 + 2*x*z"),
    ("2*x^2 + 4*x*z", "2*y^2 + 3*y*z + z^2", "x*y + 4*y^2 + x*z + 3*y*z"),
    ("2*x^2 + 3*y^2 + 2*y*z", "4*x^2 + 2*z^2", "2*x*y + 2*y^2 + 3*x*z"),
    ("4*x*y + 3*x*z + z^2", "2*x^2 + 3*y*z + 2*z^2", "2*x^2"),
    ("2*x^2 + x*y + 2*y*z", "3*x^2 + 4*x*y + 4*y^2",
     "x*y + y^2 + 4*y*z + 2*z^2"),
]


# smooth cubics through (0:0:1) and, over F_2, through every point of x = 0
THROUGH_ORIGIN = ("y^2*z + 4*x^3 + x*z^2", 5)
THROUGH_LINE = ("x^3 + y^2*z + y*z^2", 2)


@pytest.mark.parametrize("cubic, forms", [
    (("x^3 + y^3 + z^3", 2), ["x", "y"]), (THROUGH_ORIGIN, ["x", "4*y + z"]),
    (THROUGH_LINE, ["y", "z"])])
def test_parameter_forms_meet_off_the_curve(cubic, forms):
    # (0:0:1), then (0:1:c), then (1:b:c): the first point off the curve
    curve = _cubic(*cubic)
    got = closure._parameter_forms(curve)
    assert [format_polynomial(f) for f in got] == forms


def _membership_problems():
    """Seeded problems over F_2, F_4, F_5 and F_7, on the Fermat cubic and
    on the two cubics above, then two candidates (degrees 2 and 3) against
    each extension ideal."""
    rng = seeded(211)
    curves = [_fermat(2), _fermat(2, 2), _fermat(5), _fermat(7),
              _cubic(*THROUGH_ORIGIN), _cubic(*THROUGH_LINE)]
    for i in range(100):
        curve = curves[i % len(curves)]
        ideal = random_primary_ideal(curve, rng, n_max=3, max_deg=2)
        yield ideal, random_homogeneous(curve, rng.randint(1, 3), rng)
    fermat5 = _fermat(5)
    for gens in EXTENSION_IDEALS:
        for d in (2, 3):
            yield ideal_of(fermat5, *gens), random_homogeneous(fermat5, d, rng)


def test_cech_class_tests_match_the_reference_route():
    """Per summand, the Cech test of tight_closure_member agrees with
    forcing_data + component_class_vanishes."""
    extended = verdicts = 0
    for ideal, f0 in _membership_problems():
        B = syzygy_bundle(ideal, f0.degree())
        dec = decompose_bundle(B)
        fd = forcing_data(ideal, f0, B)
        want = [(s.rank, s.degree, component_class_vanishes(fd, s))
                for s in dec]
        cert = tight_closure_member(ideal, f0)
        assert [(s.rank, s.degree, s.class_vanishes)
                for s in cert.summands] == want
        extended += cert.extension_degree == 2
        verdicts += not cert.is_member
    assert extended >= 12
    assert verdicts >= 10


def test_wide_window_pieces(fermat5):
    """(x^3, y^3, z^3, x*y*z) over F_5: the degree-3 quotient has 3906
    lines, which the enumeration took minutes over."""
    ci = tight_closure_ideal(ideal_of(fermat5, "x^3", "y^3", "z^3", "x*y*z"))
    assert [(d.degree, d.regime, d.dim_ideal, d.dim_closure)
            for d in ci.per_degree] == [
        (1, "ideal", 0, 0), (2, "ideal", 0, 0), (3, "criterion", 3, 3),
        (4, "criterion", 9, 9), (5, "all", 15, 15)]
    assert [format_polynomial(g) for g in ci.generators] == \
        ["z^3", "x*y*z", "y^3"]
