import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcone.field import make_field
from tcone.polyring import (CubicCurve, IdealData, Polynomial, buchberger,
                            format_polynomial, grevlex_key,
                            hasse_invariant_of, ideal_membership,
                            is_irrelevant_primary, is_smooth_cubic,
                            mono_divides, mono_mul, monomials_of_degree,
                            normal_form, parse_polynomial)

from .conftest import ideal_of, pp, random_homogeneous, seeded


def test_grevlex_order_degree_two():
    order = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomials_of_degree(2) == order
    keys = [grevlex_key(m) for m in order]
    assert keys == sorted(keys, reverse=True)


def test_parse_format_roundtrip(F5):
    for text in ["x^2*y + 4*z^3", "x + y + z", "3", "x*y*z",
                 "2*x^2 + 3*y^2 + z^2"]:
        poly = pp(text, F5)
        assert pp(format_polynomial(poly), F5) == poly


def test_parse_extension_coefficients():
    F4 = make_field(2, 2)
    poly = parse_polynomial("(t + 1)*x^2 + t*y*z", F4)
    assert poly.coefficient((2, 0, 0)).code == 3
    assert poly.coefficient((0, 1, 1)).code == 2
    assert pp(format_polynomial(poly), F4) == poly


def test_parse_rejects_garbage(F5):
    from tcone.polyring import PolynomialSyntaxError
    for text in ["x +", "w^2", "x^", "(x", "x^2 y"]:
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial(text, F5)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("t*x", make_field(5))  # t needs an extension field


def test_normal_form_examples(F5):
    fermat = pp("x^3 + y^3 + z^3", F5)
    r = normal_form(pp("x^3", F5), [fermat])
    assert r == pp("4*y^3 + 4*z^3", F5)
    assert normal_form(Polynomial.zero(F5), [fermat]).is_zero()
    gb = buchberger([pp("x^2", F5), pp("y^2", F5)])
    assert normal_form(pp("x^2*y^2 + x^4", F5), gb).is_zero()


def test_buchberger_trivial(F5):
    assert buchberger([pp("x", F5)]) == [pp("x", F5)]
    assert buchberger([pp("1", F5)]) == [pp("1", F5)]
    assert buchberger([]) == []


def test_buchberger_example_f7(F7):
    gb = buchberger([pp("x^2 + y^2", F7), pp("x*y", F7)])
    assert gb == [pp("x*y", F7), pp("x^2 + y^2", F7), pp("y^3", F7)]


def test_buchberger_idempotent(F5):
    rng = seeded(11)
    mons3 = monomials_of_degree(2)
    for _ in range(8):
        gens = []
        for _ in range(rng.randint(1, 3)):
            terms = {m: rng.randrange(5) for m in mons3}
            terms = {m: c for m, c in terms.items() if c}
            if terms:
                gens.append(Polynomial(F5, terms))
        gb = buchberger(gens)
        assert buchberger(gb) == gb


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(0, 2), st.integers(1, 4)),
                min_size=1, max_size=5))
def test_normal_form_difference_reduces_to_zero(term_data):
    F5 = make_field(5)
    terms = {}
    for ex, ey, ez, c in term_data:
        terms[(ex, ey, ez)] = c % 5
    f = Polynomial(F5, {m: c for m, c in terms.items() if c})
    gb = buchberger([pp("x^2 + y*z", F5), pp("y^3 + z^3", F5)])
    r = normal_form(f, gb)
    assert normal_form(f - r, gb).is_zero()


def test_homogeneous_input_gives_homogeneous_basis(F5):
    rng = seeded(23)
    curve_poly = pp("x^3 + y^3 + z^3", F5)
    for _ in range(5):
        gens = [curve_poly]
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 3)
            terms = {m: rng.randrange(5) for m in monomials_of_degree(d)}
            terms = {m: c for m, c in terms.items() if c}
            if terms:
                gens.append(Polynomial(F5, terms))
        for g in buchberger(gens):
            assert g.is_homogeneous()


def test_buchberger_against_sympy(F5, F7):
    import sympy
    from sympy.polys.orderings import grevlex as sym_grevlex

    xs = sympy.symbols("x y z")
    rng = seeded(37)
    for field in (F5, F7):
        for _ in range(6):
            gens = []
            for _ in range(rng.randint(2, 3)):
                d = rng.randint(1, 3)
                terms = {m: rng.randrange(field.p)
                         for m in monomials_of_degree(d)}
                terms = {m: c for m, c in terms.items() if c}
                if terms:
                    gens.append(Polynomial(field, terms))
            if not gens:
                continue
            ours = buchberger(gens)
            sym_gens = []
            for g in gens:
                expr = 0
                for (ex, ey, ez), c in g.terms.items():
                    expr += c * xs[0] ** ex * xs[1] ** ey * xs[2] ** ez
                sym_gens.append(expr)
            gb = sympy.groebner(sym_gens, *xs, order="grevlex",
                                modulus=field.p)
            theirs = set()
            for expr in gb.exprs:
                poly = sympy.Poly(expr, *xs, modulus=field.p)
                terms = {}
                for mono, coeff in poly.terms():
                    terms[tuple(mono)] = int(coeff) % field.p
                theirs.add(tuple(sorted(terms.items())))
            mine = {tuple(sorted(g.terms.items())) for g in ours}
            assert mine == theirs


def test_smoothness_examples():
    F3, F2, F5 = make_field(3), make_field(2), make_field(5)
    assert not is_smooth_cubic(pp("x^3 + y^3 + z^3", F3), F3)
    assert is_smooth_cubic(pp("x^3 + y^3 + z^3", F2), F2)
    assert not is_smooth_cubic(pp("y^2*z + 4*x^3 + 4*x^2*z", F5), F5)


def test_smoothness_rejects_wrong_degree(F5):
    with pytest.raises(ValueError):
        is_smooth_cubic(pp("x^2", F5), F5)
    with pytest.raises(ValueError):
        is_smooth_cubic(pp("x^3 + y", F5), F5)


def test_singular_curve_rejected(F5):
    with pytest.raises(ValueError):
        CubicCurve(pp("y^2*z + 4*x^3 + 4*x^2*z", F5), F5)


def test_primary_examples(fermat5, F5):
    assert is_irrelevant_primary([pp("x^2", F5), pp("y^2", F5),
                                  pp("z^2", F5)], fermat5.F)
    assert is_irrelevant_primary([pp("x", F5), pp("y", F5)], fermat5.F)
    nodal = pp("y^2*z + 4*x^3 + 4*x*z^2", F5)
    assert not is_irrelevant_primary([pp("x", F5), pp("y", F5)], nodal)


def test_ideal_data_validation(fermat5, F5):
    with pytest.raises(ValueError):
        IdealData(fermat5, [pp("x", F5)])  # needs two generators
    with pytest.raises(ValueError):
        IdealData(fermat5, [pp("x", F5), Polynomial.zero(F5)])
    with pytest.raises(ValueError):
        IdealData(fermat5, [pp("x + 1", F5), pp("y", F5)])  # inhomogeneous
    with pytest.raises(ValueError):
        IdealData(fermat5, [pp("x", F5), pp("x^2", F5)])  # not primary
    # duplicates allowed
    IdealData(fermat5, [pp("x^2", F5), pp("y^2", F5), pp("x^2", F5)])


# -- Hasse invariant ---------------------------------------------------------

def _fermat_hasse_oracle(p):
    """Multinomial coefficient (p-1)!/(((p-1)/3)!)^3 mod p, else 0."""
    if (p - 1) % 3 != 0:
        return 0
    from math import factorial
    a = (p - 1) // 3
    return (factorial(p - 1) // (factorial(a) ** 3)) % p


@pytest.mark.parametrize("p,expected", [(2, 0), (5, 0), (7, 6), (11, 0),
                                        (13, 5)])
def test_hasse_fermat(p, expected):
    field = make_field(p)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    assert curve.hasse.code == expected
    assert curve.hasse.code == _fermat_hasse_oracle(p)
    assert curve.supersingular == (expected == 0)


@pytest.mark.parametrize("lt", monomials_of_degree(3))
def test_piece_monomials_match_filtered_enumeration(F5, lt):
    # only lt(F) matters to the basis, so F may be the bare monomial here
    curve = CubicCurve(Polynomial(F5, {lt: 1}), F5, check_smooth=False)
    for d in range(41):
        expected = tuple(m for m in monomials_of_degree(d)
                         if not mono_divides(lt, m))
        assert curve.piece_monomials(d) == expected
        assert curve.piece_dim(d) == len(expected) == (3 * d if d else 1)
        assert curve.piece_index(d) == {m: i for i, m in enumerate(expected)}
    assert curve.piece_monomials(-1) == ()
    assert curve.piece_dim(-1) == 0


def test_hasse_non_fermat():
    # y^2 z = x^3 - x z^2 has j = 1728; supersingular exactly when p = 3 mod 4
    for p, ss in [(5, False), (7, True), (11, True), (13, False)]:
        field = make_field(p)
        curve = CubicCurve(pp(f"y^2*z + {p-1}*x^3 + x*z^2", field), field)
        assert curve.supersingular == ss


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2])
def test_hasse_truncated_product_matches_full_power(p, k):
    """The product truncated to exponents <= p - 1 keeps the coefficient
    of (xyz)^(p-1) in the full F^(p-1)."""
    field = make_field(p, k)
    texts = ["x^3 + y^3 + z^3", "y^2*z + x*y*z + x^3 + z^3",
             "x^2*y + y^2*z + z^2*x + 2*x*y*z"]
    if k > 1:
        texts.append("x^3 + t*y^3 + z^3 + (t + 1)*x*y*z")
    e = p - 1
    for text in texts:
        F = pp(text, field)
        assert hasse_invariant_of(F, field).code == \
            (F ** e).terms.get((e, e, e), 0)


def test_hasse_supersingular_families():
    """x^3 + y^3 + z^3 is supersingular exactly when p = 2 mod 3, and
    y^2 z = x^3 - x z^2 (j = 1728) exactly when p = 3 mod 4."""
    primes = [p for p in range(5, 62) if all(p % q for q in range(2, p))]
    assert primes[-1] == 61
    for p in primes:
        field = make_field(p)
        fermat = pp("x^3 + y^3 + z^3", field)
        j1728 = pp("y^2*z - x^3 + x*z^2", field)
        assert hasse_invariant_of(fermat, field).is_zero() == (p % 3 == 2)
        assert hasse_invariant_of(j1728, field).is_zero() == (p % 4 == 3)


def test_hasse_invariant_refuses_past_its_budget(monkeypatch):
    """The work is predicted as (p - 1) p^2 |F| term products before any
    is taken: a budget one below it refuses, naming the stage and the
    size, and a budget equal to it computes the invariant."""
    import tcone.polyring as polyring
    from tcone.algebra import UndecidedError

    field = make_field(7)
    F = pp("y^2*z + x*y*z + x^3 + z^3", field)
    size = 6 * 7 ** 2 * 4
    monkeypatch.setattr(polyring, "_HASSE_TERMS", size - 1)
    with pytest.raises(UndecidedError) as info:
        hasse_invariant_of(F, field)
    assert (info.value.stage, info.value.size) == ("hasse invariant", size)
    assert "Hasse invariant" in str(info.value)
    # the curve's property raises too, and nothing is cached
    curve = CubicCurve(F, field)
    with pytest.raises(UndecidedError):
        curve.supersingular
    monkeypatch.setattr(polyring, "_HASSE_TERMS", size)
    e = field.p - 1
    assert hasse_invariant_of(F, field).code == \
        (F ** e).terms.get((e, e, e), 0)
    assert curve.hasse == hasse_invariant_of(F, field)

def _reference_curve_nf(curve, f):
    """Normal form modulo (F), rebuilding F's leading term and negated tail
    on every call."""
    import heapq

    from tcone.polyring import mono_div, mono_mul

    F = curve.F
    lt = F.leading_monomial()
    field = curve.field
    tail = [(m, field.neg(c)) for m, c in F.terms.items() if m != lt]
    work, out, heap = {}, {}, []

    def heap_key(m):
        return (-(m[0] + m[1] + m[2]), m[2], m[1])

    for m, c in f.terms.items():
        if mono_divides(lt, m):
            work[m] = c
            heapq.heappush(heap, (heap_key(m), m))
        else:
            out[m] = c
    while heap:
        _, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        shift = mono_div(m, lt)
        for tm, tc in tail:
            mm = mono_mul(tm, shift)
            contrib = field.mul(c, tc)
            target = work if mono_divides(lt, mm) else out
            prev = target.get(mm, 0)
            if target is work and prev == 0:
                heapq.heappush(heap, (heap_key(mm), mm))
            s = field.add(prev, contrib)
            if s:
                target[mm] = s
            else:
                target.pop(mm, None)
    return Polynomial(field, out)


def _nf_test_curves():
    ordinary = "y^2*z + x*y*z + x^3 + z^3"
    curves = []
    for p, k in [(2, 1), (2, 2), (5, 2)]:
        field = make_field(p, k)
        for text in (ordinary, "x^3 + y^3 + z^3", "x^2*y + y^2*z + z^2*x"):
            curves.append(CubicCurve(pp(text, field), field))
    # base change: the curve of an ideal embedded F_5 -> F_25
    from tcone.field import embed
    F5, F25 = make_field(5), make_field(5, 2)
    base = CubicCurve(pp("y^2*z + 4*x^3 + x*z^2", F5), F5)
    ideal = IdealData(base, [pp("x^2", F5), pp("y^2", F5), pp("z^2", F5)])
    up = ideal.embedded(F25, lambda c: embed(F5.from_code(c), F25).code)
    curves.append(up.curve)
    return curves


def test_curve_nf_matches_per_call_reference():
    rng = seeded(61)
    curves = _nf_test_curves()
    assert not curves[0].supersingular and curves[1].supersingular
    for curve in curves:
        field = curve.field
        for _ in range(25):
            terms = {}
            for _ in range(rng.randint(0, 15)):
                m = rng.choice(monomials_of_degree(rng.randint(0, 12)))
                terms[m] = rng.randrange(1, field.q)
            f = Polynomial(field, terms)
            got = curve.nf(f)
            want = _reference_curve_nf(curve, f)
            assert list(got.terms.items()) == list(want.terms.items())
            lt = curve.F.leading_monomial()
            assert not any(mono_divides(lt, m) for m in got.terms)



def test_products_match_the_uncached_gather():
    """`products` keeps its table rows per (d1, d2) on the curve; every
    call still equals the gather with the rows recomputed, on each curve
    of `_nf_test_curves` (the embedded one included), with empty pieces
    at negative degrees, when called again, and after a caller wrote into
    an earlier result."""
    from .reference import reference_products

    pairs = [(0, 0), (1, 2), (2, 1), (3, 3), (0, 4), (-1, 3), (2, -2),
             (-1, -1), (-3, 5)]
    for curve in _nf_test_curves():
        for d1, d2 in pairs:
            want = reference_products(curve, d1, d2)
            first = curve.products(d1, d2)
            assert first.shape == (curve.piece_dim(d1), curve.piece_dim(d2),
                                   curve.piece_dim(d1 + d2))
            assert np.array_equal(first, want)
            first += 1
            again = curve.products(d1, d2)
            assert again is not first
            assert np.array_equal(again, want)
        # one entry against the normal form it stands for
        mu, nu = curve.piece_monomials(2)[-1], curve.piece_monomials(3)[0]
        index = curve.piece_index(5)
        row = np.zeros(curve.piece_dim(5), dtype=np.int64)
        for m, c in curve.nf(Polynomial(curve.field, {mono_mul(mu, nu): 1})
                             ).terms.items():
            row[index[m]] = c
        assert np.array_equal(curve.products(2, 3)[-1, 0], row)


# -- membership ---------------------------------------------------------------

def _membership_oracle(ideal, f):
    """Independent degreewise linear algebra over the curve ring."""
    curve = ideal.curve
    field = curve.field
    f = curve.nf(f)
    if f.is_zero():
        return True
    d = f.degree()
    monos = curve.piece_monomials(d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.gens:
        dg = g.degree()
        if d - dg < 0:
            continue
        for mu in curve.piece_monomials(d - dg):
            prod = curve.nf(g.term_mul(mu, 1))
            row = [0] * len(monos)
            for mo, c in prod.terms.items():
                row[index[mo]] = c
            rows.append(row)
    target = [0] * len(monos)
    for mo, c in f.terms.items():
        target[index[mo]] = c
    # plain Gaussian elimination, self-contained
    p = field.p
    mat = [list(r) for r in rows]
    piv_cols = []
    r = 0
    for c in range(len(monos)):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                fct = mat[i][c]
                mat[i] = [(x - fct * y) % p for x, y in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
    v = list(target)
    for rr, c in enumerate(piv_cols):
        if v[c] % p:
            fct = v[c]
            v = [(x - fct * y) % p for x, y in zip(v, mat[rr])]
    return not any(x % p for x in v)


def test_membership_examples(fermat5, F5):
    ideal = ideal_of(fermat5, "x^2", "y^2", "z^2")
    assert ideal_membership(pp("x^3", F5), ideal)
    assert not ideal_membership(pp("x*y*z", F5), ideal)
    ixy = ideal_of(fermat5, "x", "y")
    assert not ideal_membership(pp("z^2", F5), ixy)
    # oracle agreement on the same cases
    assert _membership_oracle(ideal, pp("x^3", F5))
    assert not _membership_oracle(ideal, pp("x*y*z", F5))
    assert not _membership_oracle(ixy, pp("z^2", F5))


def test_membership_matches_oracle_randomly(fermat5):
    rng = seeded(101)
    from .conftest import random_primary_ideal
    for _ in range(10):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f = random_homogeneous(fermat5, rng.randint(1, 3), rng)
        assert ideal_membership(f, ideal) == _membership_oracle(ideal, f)


def test_generators_belong_to_ideal(fermat5):
    rng = seeded(55)
    from .conftest import random_primary_ideal
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        for g in ideal.gens:
            assert ideal_membership(g, ideal)


def test_frobenius_power(F5):
    f = pp("x^2 + 2*y*z", F5)
    assert f.frobenius_power(1) == f ** 5
    assert f.frobenius_power(0) == f


# -- one Groebner engine ----------------------------------------------------
#
# The polynomial Buchberger and normal form that ran before ideals went
# through the module engine at rank 1, kept as the reference: a pair loop
# with the coprime criterion and a rescanning first-divisor normal form.

def _reference_normal_form(f, basis):
    from tcone.polyring import mono_div, mono_mul

    field = f.field
    reducers = [(g.leading_monomial(), g.leading_coeff_code(), g)
                for g in basis if g]
    work = dict(f.terms)
    remainder = {}
    while work:
        m = max(work, key=grevlex_key)
        c = work.pop(m)
        hit = None
        for lm, lc, g in reducers:
            if mono_divides(lm, m):
                hit = (lm, lc, g)
                break
        if hit is None:
            remainder[m] = c
            continue
        lm, lc, g = hit
        factor = field.mul(c, field.inv(lc))
        shift = mono_div(m, lm)
        for gm, gc in g.terms.items():
            mm = mono_mul(gm, shift)
            s = field.sub(work.get(mm, 0), field.mul(factor, gc))
            if mm == m:
                continue
            if s:
                work[mm] = s
            else:
                work.pop(mm, None)
    return Polynomial(field, remainder)


def _reference_buchberger(gens):
    from tcone.polyring import mono_deg, mono_div, mono_lcm, mono_mul

    def s_poly(f, g):
        field = f.field
        lf, lg = f.leading_monomial(), g.leading_monomial()
        l = mono_lcm(lf, lg)
        cf = field.inv(f.leading_coeff_code())
        cg = field.inv(g.leading_coeff_code())
        return (f.term_mul(mono_div(l, lf), cf)
                - g.term_mul(mono_div(l, lg), cg))

    def interreduce(basis):
        basis = [g.monic() for g in basis if g]
        changed = True
        while changed:
            changed = False
            out = []
            for i, g in enumerate(basis):
                r = _reference_normal_form(g, out + basis[i + 1:])
                if r.terms != g.terms:
                    changed = True
                if r:
                    out.append(r.monic())
            basis = out
        basis.sort(key=lambda g: grevlex_key(g.leading_monomial()))
        return basis

    basis = [g.monic() for g in gens if g]
    basis.sort(key=lambda g: grevlex_key(g.leading_monomial()), reverse=True)
    if not basis:
        return []
    pairs = []

    def push_pairs(k):
        for i in range(k):
            lf = basis[i].leading_monomial()
            lg = basis[k].leading_monomial()
            l = mono_lcm(lf, lg)
            if l == mono_mul(lf, lg):  # coprime leading monomials
                continue
            pairs.append((mono_deg(l), i, k))

    for k in range(1, len(basis)):
        push_pairs(k)
    pairs.sort()
    while pairs:
        _, i, j = pairs.pop(0)
        r = _reference_normal_form(s_poly(basis[i], basis[j]), basis)
        if r:
            basis.append(r.monic())
            push_pairs(len(basis) - 1)
            pairs.sort()
    return interreduce(basis)


def _random_poly(field, rng, degrees):
    terms = {}
    for d in degrees:
        for m in monomials_of_degree(d):
            if rng.random() < 0.5:
                terms[m] = rng.randrange(field.q)
    return Polynomial(field, {m: c for m, c in terms.items() if c})


def _differential_inputs(field, rng):
    """Generator lists: homogeneous, inhomogeneous, with a constant, with
    zero polynomials and with duplicate (also rescaled) generators."""
    cases = []
    for _ in range(6):
        d = rng.randint(1, 3)
        cases.append([_random_poly(field, rng, [rng.randint(1, d)])
                      for _ in range(rng.randint(1, 4))])
    for n in (1, 2, 2, 2, 3):
        cases.append([_random_poly(field, rng, range(rng.randint(0, 2),
                                                     rng.randint(2, 4)))
                      for _ in range(n)])
    x, y = Polynomial.variable(field, "x"), Polynomial.variable(field, "y")
    cases.append([x * y + y, Polynomial.constant(field, field.q - 1)])
    cases.append([Polynomial.constant(field, 1)])
    zero = Polynomial.zero(field)
    g = _random_poly(field, rng, [2])
    cases.append([zero, g, zero, x * x - y])
    cases.append([zero])
    cases.append([])
    code = 2 % field.q or 1
    cases.append([g, x * g, g, g.scale(code), _random_poly(field, rng, [2])])
    return cases


def _term_items(polys):
    return [list(p.terms.items()) for p in polys]


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (7, 4)])
def test_rank1_engine_matches_reference(p, k):
    field = make_field(p, k)
    rng = seeded(1000 * p + k)
    for gens in _differential_inputs(field, rng):
        want = _reference_buchberger(gens)
        got = buchberger(gens)
        assert got == want
        assert _term_items(got) == _term_items(want)
        for _ in range(3):
            f = _random_poly(field, rng, range(rng.randint(0, 4)))
            for basis in (want, gens, list(reversed(gens))):
                assert (_term_items([normal_form(f, basis)])
                        == _term_items([_reference_normal_form(f, basis)]))


def test_checked_ideal_and_membership_run_one_buchberger(fermat5, F5,
                                                          monkeypatch):
    """The primary check and both memberships read the ideal's one
    augmented basis: one module Groebner run, and no rank-1 `buchberger`."""
    import tcone.polyring as polyring

    calls, rank1 = [], []
    real, real_rank1 = polyring.buchberger_module, polyring.buchberger
    monkeypatch.setattr(polyring, "buchberger_module",
                        lambda vecs, field: calls.append(1) or
                        real(vecs, field))
    monkeypatch.setattr(polyring, "buchberger",
                        lambda gens: rank1.append(1) or real_rank1(gens))
    ideal = ideal_of(fermat5, "x^2", "y^2", "z^2")
    assert ideal_membership(pp("x^3", F5), ideal)
    assert not ideal_membership(pp("x*y*z", F5), ideal)
    assert (calls, rank1) == ([1], [])
    assert ideal.gb == tuple(real_rank1(list(ideal.gens) + [fermat5.F]))
