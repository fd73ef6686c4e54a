from fractions import Fraction

import numpy as np
import pytest

from tcone import closure
from tcone.closure import (FrobeniusResult, frobenius_member,
                           slope_and_threshold, tight_closure_ideal,
                           tight_closure_member, _ideal_piece_rows)
from tcone.field import make_field
from tcone.gradedmod import PieceFrame
from tcone.linalg import SpanBasis, rref
from tcone.polyring import (CubicCurve, IdealData, Polynomial,
                            format_polynomial, ideal_membership,
                            parse_polynomial)

from .conftest import ideal_of, pp, random_homogeneous, random_primary_ideal, seeded


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
    real = closure._ideal_piece_rows
    monkeypatch.setattr(closure, "_ideal_piece_rows",
                        lambda c, gens, D: built.append(D) or real(c, gens, D))
    ideal = ideal_of(curve, "x^2", "y^2")
    result = frobenius_member(ideal, pp("x*y*z", F11), 4)
    assert result == FrobeniusResult(False, None, 4, inconclusive_at=(3, 3993))
    assert built == [3, 33, 363]
    assert str(result).startswith("inconclusive: stopped at e = 3, D = 3993")


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
    from tcone.bundle import decompose_bundle, syzygy_bundle
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


def test_line_limit_names_stage_and_size(fermat5, monkeypatch):
    monkeypatch.setattr(closure, "_LINE_LIMIT", 5)
    with pytest.raises(closure.UndecidedError) as info:
        tight_closure_ideal(ideal_of(fermat5, "x^2", "y^2", "x^2"))
    exc = info.value
    assert exc.stage == "closure window"
    assert exc.size > 5
    assert str(exc).endswith(f"quotient has {exc.size} candidate lines, "
                             f"beyond the testing limit")


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
