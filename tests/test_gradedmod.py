import heapq

import numpy as np
import pytest

import tcone.gradedmod as gradedmod
import tcone.polyring as polyring
from tcone.bundle import decompose_bundle, forcing_data, syzygy_bundle
from tcone.closure import _ideal_piece_rows
from tcone.field import embed, make_field
from tcone.gradedmod import (GradedMap, HomModule, ModuleHom, PieceFrame,
                             PresentedModule, TwistedFree, buchberger_module,
                             closing_relations, free_module, hom_space,
                             image_presentation, syzygy_of_map, vec_from_polys,
                             vec_lt, vec_nf, vec_reducer, vkey)
from tcone.linalg import SpanBasis, as_matrix
from tcone.polyring import (CubicCurve, IdealData, Polynomial,
                            format_polynomial, mono_deg, mono_div,
                            mono_divides, mono_lcm, mono_mul,
                            monomials_of_degree, vec_monic, vec_sub,
                            vec_term_mul)

from .conftest import (ideal_of, pp, random_homogeneous, random_primary_ideal,
                       seeded)


def syz_map(curve, gens_texts, m):
    field = curve.field
    gens = [pp(t, field) for t in gens_texts]
    source = TwistedFree([m - g.degree() for g in gens])
    target = TwistedFree([m])
    return GradedMap(source, target, [gens])


def test_graded_map_homogeneity_enforced(F5):
    with pytest.raises(ValueError):
        GradedMap(TwistedFree([0]), TwistedFree([2]), [[pp("x", F5)]])
    GradedMap(TwistedFree([0]), TwistedFree([2]), [[pp("x^2", F5)]])
    GradedMap(TwistedFree([0]), TwistedFree([2]), [[Polynomial.zero(F5)]])


def test_syzygy_koszul_pair(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x", "y"], 2), fermat5)
    assert len(M.gens) == 1
    g = M.gens[0]
    assert g == (pp("y", F5), pp("4*x", F5))
    assert M.rank_and_degree() == (1, 0)


def test_syzygy_contains_global_section(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    assert M.contains((pp("x", F5), pp("y", F5), pp("z", F5)))
    assert M.rank_and_degree() == (2, 0)


def test_syzygy_of_zero_map(fermat5, F5):
    zero = Polynomial.zero(F5)
    phi = GradedMap(TwistedFree([0, 0]), TwistedFree([2]), [[zero, zero]])
    M = syzygy_of_map(phi, fermat5)
    # kernel is all of the source
    assert M.rank_and_degree() == (2, 0)
    one = Polynomial.constant(F5, 1)
    assert M.contains((one, zero))
    assert M.contains((zero, one))


def test_syzygies_compose_to_zero(fermat5):
    rng = seeded(7)
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        m = max(ideal.degrees) + 1
        phi = GradedMap(TwistedFree([m - d for d in ideal.degrees]),
                        TwistedFree([m]), [list(ideal.gens)])
        M = syzygy_of_map(phi, fermat5)
        for g in M.gens:
            img = phi.apply(g)
            assert fermat5.nf(img[0]).is_zero()


def test_graded_piece_examples(fermat5, F5):
    R = free_module(fermat5, [0])
    assert R.piece_dim(2) == 6
    assert R.piece_dim(0) == 1
    basis0 = R.piece_basis(0)
    assert basis0 == [(Polynomial.constant(F5, 1),)]
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    basis = M.piece_basis(0)
    assert len(basis) == 1
    assert basis[0] == (pp("x", F5), pp("y", F5), pp("z", F5))


def test_hilbert_examples(fermat5):
    R = free_module(fermat5, [0])
    assert R.piece_dim(4) == 12
    Rm1 = free_module(fermat5, [-1])
    assert Rm1.piece_dim(1) == 1
    M = syzygy_of_map(syz_map(fermat5, ["x", "y"], 0), fermat5)
    assert M.piece_dim(3) == 3


def test_hilbert_matches_piece_basis(fermat5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    for t in range(0, 5):
        assert M.piece_dim(t) == len(M.piece_basis(t))


def test_rank_and_degree_examples(fermat5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    assert M.rank_and_degree() == (2, 0)
    Mdup = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "x^2"], 3), fermat5)
    assert Mdup.rank_and_degree() == (2, 0)
    assert free_module(fermat5, [-1]).rank_and_degree() == (1, -3)


def test_rank_and_degree_of_twisted_frees(fermat5):
    rng = seeded(13)
    for _ in range(5):
        twists = [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))]
        F = free_module(fermat5, twists)
        assert F.rank_and_degree() == (len(twists), 3 * sum(twists))


def test_degree_formula_for_primary_ideals(fermat5):
    rng = seeded(29)
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        n = ideal.n
        for m in (max(ideal.degrees), max(ideal.degrees) + 1):
            phi = GradedMap(TwistedFree([m - d for d in ideal.degrees]),
                            TwistedFree([m]), [list(ideal.gens)])
            M = syzygy_of_map(phi, fermat5)
            rank, degree = M.rank_and_degree()
            assert rank == n - 1
            assert degree == -3 * (sum(ideal.degrees) - (n - 1) * m)


def test_hom_module_examples(fermat5, F5):
    Rm1 = free_module(fermat5, [-1])
    R = free_module(fermat5, [0])
    H = HomModule(Rm1, R)
    assert len(H.degree0) == 3
    images = sorted(format_polynomial(h.images[0][0]) for h in H.degree0)
    assert images == ["x", "y", "z"]
    assert len(HomModule(R, Rm1).degree0) == 0
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    assert len(HomModule(M, M).degree0) == 2


def test_hom_module_module_part(fermat5):
    Rm1 = free_module(fermat5, [-1])
    R = free_module(fermat5, [0])
    H = HomModule(Rm1, R)
    assert H.module.rank_and_degree() == (1, 3)  # Hom(R(-1), R) = R(1)
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    HM = HomModule(M, M)
    # degree-0 piece of the module presentation agrees with the hom basis
    assert HM.module.piece_dim(0) == len(HM.degree0)


def test_homs_respect_module_structure(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    homs = hom_space(M, M, 0)
    rng = seeded(31)
    for h in homs:
        # psi(a * g) == a * psi(g) for generator multiples
        for g, img in zip(M.gens, h.images):
            for var in ("x", "y", "z"):
                v = Polynomial.variable(F5, var)
                moved = tuple(fermat5.nf(v * p) for p in g)
                expect = tuple(fermat5.nf(v * p) for p in img)
                assert h.apply(moved) == expect


def test_image_presentation_identity_and_zero(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    ident = ModuleHom(M, M, list(M.gens))
    img = image_presentation(ident, M)
    assert img.rank_and_degree() == M.rank_and_degree()
    assert img.groebner_basis() == M.groebner_basis()
    for t in range(0, 4):
        assert img.piece_dim(t) == M.piece_dim(t)
    for g in M.gens:
        assert img.contains(g)
    zero_images = [tuple(Polynomial.zero(F5) for _ in range(M.ambient.rank))
                   for _ in M.gens]
    zeroh = ModuleHom(M, M, zero_images)
    zimg = image_presentation(zeroh, M)
    assert len(zimg.vectors) == 0
    assert zimg.piece_dim(3) == 0


def test_express_roundtrip(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    rng = seeded(43)
    # random module element: combination of generator multiples
    for _ in range(5):
        acc = [Polynomial.zero(F5)] * M.ambient.rank
        for g in M.gens:
            c = rng.randrange(5)
            mu = (rng.randint(0, 1), rng.randint(0, 1), 0)
            for i, p in enumerate(g):
                acc[i] = acc[i] + p.term_mul(mu, c)
        acc = tuple(fermat5.nf(p) for p in acc)
        coeffs = M.express(acc)
        assert coeffs is not None
        back = [Polynomial.zero(F5)] * M.ambient.rank
        for c, g in zip(coeffs, M.gens):
            for i, p in enumerate(g):
                back[i] = back[i] + c * p
        assert tuple(fermat5.nf(p) for p in back) == acc


# -- the graded-piece frame ---------------------------------------------------

def _reference_coords(curve, twists, t, polys):
    """Hand-built frame: offsets over the pieces R_(t + a), then one
    `piece_index` lookup per term."""
    offsets = []
    total = 0
    for a in twists:
        offsets.append(total)
        total += len(curve.piece_monomials(t + a))
    row = np.zeros(total, dtype=np.int64)
    for pos, poly in enumerate(polys):
        if not poly:
            continue
        index = curve.piece_index(t + twists[pos])
        for m, c in poly.terms.items():
            row[offsets[pos] + index[m]] = c
    return row


def _reference_polys(curve, twists, t, row):
    out = []
    base = 0
    for a in twists:
        terms = {}
        for i, m in enumerate(curve.piece_monomials(t + a)):
            c = int(row[base + i])
            if c:
                terms[m] = c
        base += len(curve.piece_monomials(t + a))
        out.append(Polynomial(curve.field, terms))
    return tuple(out)


def _reference_multiples(curve, twists, t, vectors):
    """nf(mu * v) for mu in R_(t - deg v), vector by vector, as a list."""
    width = sum(len(curve.piece_monomials(t + a)) for a in twists)
    rows = []
    for v in vectors:
        degs = {mono_deg(m) - twists[pos]
                for (pos, m) in vec_from_polys(v)}
        if not degs:
            continue
        (vdeg,) = degs
        for mu in curve.piece_monomials(t - vdeg):
            w = tuple(curve.nf(p.term_mul(mu, 1)) for p in v)
            rows.append(_reference_coords(curve, twists, t, w))
    return as_matrix(rows, width)


def _random_piece_vector(curve, twists, degree, rng):
    """Random vector of R-reduced components, some of them zero."""
    field = curve.field
    out = []
    for a in twists:
        terms = {}
        if rng.random() < 0.7:
            for m in curve.piece_monomials(degree + a):
                if rng.random() < 0.5:
                    terms[m] = rng.randrange(1, field.q)
        out.append(Polynomial(field, terms))
    return tuple(out)


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_piece_frame_matches_reference(p, k):
    field = make_field(p, k)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    rng = seeded(300 + p * 10 + k)
    # negative and empty pieces (t + a < 0), one-monomial pieces (t + a = 0)
    # and ordinary ones, side by side
    cases = [((0,), 2), ((-2, 0, 1), 1), ((-3, -1), 2), ((1, -4, 0), 3),
             ((-5,), 2)]
    seen_rows = 0
    for twists, t in cases:
        frame = PieceFrame(curve, twists, t)
        assert frame.width == sum(curve.piece_dim(t + a) for a in twists)
        for _ in range(4):
            v = _random_piece_vector(curve, twists, t, rng)
            row = frame.coords(v)
            assert np.array_equal(row, _reference_coords(curve, twists, t, v))
            assert frame.polys(row) == v
            assert frame.polys(row) == _reference_polys(curve, twists, t, row)
        zero = tuple(Polynomial.zero(field) for _ in twists)
        vectors = [zero]
        for d in (t - 2, t - 1, t, t + 1):
            vectors += [_random_piece_vector(curve, twists, d, rng)
                        for _ in range(2)]
        got = frame.multiples(vectors)
        want = _reference_multiples(curve, twists, t, vectors)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)
        seen_rows += got.shape[0]
    assert seen_rows > 20


def _reference_minimal_generators(curve, ambient, vectors):
    """Graded Nakayama one row at a time: a generator is kept when adding
    it grows the SpanBasis of the multiples of the generators kept below its
    degree and of the generators before it."""
    kept = []
    i = 0
    while i < len(vectors):
        d = gradedmod.vector_degree(vectors[i], ambient.twists)
        frame = PieceFrame(curve, ambient.twists, d)
        span = SpanBasis(frame.width, curve.field)
        for row in frame.multiples(kept):
            span.add(row)
        while i < len(vectors) and \
                gradedmod.vector_degree(vectors[i], ambient.twists) == d:
            if span.add(frame.coords(vectors[i])):
                kept.append(vectors[i])
            i += 1
    return kept


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_minimal_generators_match_span_basis_reference(p, k):
    field = make_field(p, k)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    rng = seeded(600 + p * 10 + k)
    pruned = 0
    for twists in [(0,), (0, 1), (-1, 0, 2)]:
        ambient = TwistedFree(twists)
        vectors = []
        for d in (1, 1, 2, 2, 3):
            v = _random_piece_vector(curve, twists, d, rng)
            if not any(v):
                continue
            earlier = list(vectors)
            vectors.append(v)
            # a duplicate and a scalar multiple of a generator
            vectors.append(rng.choice(vectors))
            c = rng.randrange(1, field.q)
            vectors.append(tuple(q.scale(c) for q in rng.choice(vectors)))
            # a multiple of a lower-degree generator plus a same-degree one
            lower = [w for w in earlier
                     if gradedmod.vector_degree(w, twists) < d]
            if lower:
                w = rng.choice(lower)
                mu = rng.choice(curve.piece_monomials(
                    d - gradedmod.vector_degree(w, twists)))
                vectors.append(tuple(curve.nf(q.term_mul(mu, 1)) + r
                                     for q, r in zip(w, v)))
        vectors = [v for v in vectors if any(v)]
        vectors.sort(key=lambda v: gradedmod.vector_degree(v, twists))
        got = gradedmod._minimal_generators(curve, ambient, vectors)
        assert got == _reference_minimal_generators(curve, ambient, vectors)
        pruned += len(vectors) - len(got)
    assert pruned > 0


def _reference_ideal_piece_rows(curve, gens, D):
    """One row per monomial multiple nf(mu * g) in R_D, built in a list."""
    index = curve.piece_index(D)
    rows = []
    for g in gens:
        for mu in curve.piece_monomials(D - g.degree()):
            row = np.zeros(len(index), dtype=np.int64)
            for mo, c in curve.nf(g.term_mul(mu, 1)).terms.items():
                row[index[mo]] = c
            rows.append(row)
    return as_matrix(rows, len(index))


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_ideal_piece_rows_match_reference(p, k):
    field = make_field(p, k)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    rng = seeded(400 + p * 10 + k)
    gens = [pp("x^2", field), pp("x^2", field), pp("y*z + z^2", field),
            pp("x^4", field)]
    gens += [random_homogeneous(curve, rng.randint(1, 3), rng)
             for _ in range(3)]
    for D in (0, 1, 2, 3, 5):
        got = _ideal_piece_rows(curve, gens, D)
        assert np.array_equal(got, _reference_ideal_piece_rows(curve, gens, D))


# -- reducers: vec_nf and buchberger_module ----------------------------------

def _reference_vec_nf(vec, basis, field):
    """Full reduction by a list of vectors, rescanning for the largest term
    and rebuilding every reducer's leading term on each call."""
    reducers = [(vec_lt(g), g) for g in basis if g]
    work = dict(vec)
    remainder = {}
    while work:
        t = max(work, key=vkey)
        c = work.pop(t)
        pos, m = t
        hit = None
        for (lpos, lm), g in reducers:
            if lpos == pos and mono_divides(lm, m):
                hit = ((lpos, lm), g)
                break
        if hit is None:
            remainder[t] = c
            continue
        (lpos, lm), g = hit
        lc = g[(lpos, lm)]
        factor = field.mul(c, field.inv(lc))
        shift = mono_div(m, lm)
        for (gpos, gm), gc in g.items():
            tt = (gpos, mono_mul(gm, shift))
            if tt == t:
                continue
            s = field.sub(work.get(tt, 0), field.mul(factor, gc))
            if s:
                work[tt] = s
            else:
                work.pop(tt, None)
    return remainder


def _reference_buchberger_module(vectors, field):
    """Every equal-position pair reduced, then inter-reduction repeated until
    a pass changes nothing.  Calls go through `polyring.vec_nf`, so a
    counter patched onto it sees them."""
    basis = [vec_monic(v, field) for v in vectors if v]
    basis.sort(key=lambda v: vkey(vec_lt(v)), reverse=True)
    seen = set()
    uniq = []
    for v in basis:
        key = tuple(sorted(v.items()))
        if key not in seen:
            seen.add(key)
            uniq.append(v)
    basis = uniq
    reducers = [vec_reducer(g, field) for g in basis]
    pairs = []

    def push_pairs(k):
        pk, mk = reducers[k][:2]
        for i in range(k):
            pi, mi = reducers[i][:2]
            if pi == pk:
                heapq.heappush(pairs, (mono_deg(mono_lcm(mi, mk)), i, k))

    for k in range(1, len(basis)):
        push_pairs(k)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        gi, gj = basis[i], basis[j]
        _, mi, inv_i, _ = reducers[i]
        _, mj, inv_j, _ = reducers[j]
        l = mono_lcm(mi, mj)
        s = vec_sub(vec_term_mul(gi, mono_div(l, mi), inv_i, field),
                    vec_term_mul(gj, mono_div(l, mj), inv_j, field),
                    field)
        r = polyring.vec_nf(s, reducers, field)
        if r:
            basis.append(vec_monic(r, field))
            reducers.append(vec_reducer(basis[-1], field))
            push_pairs(len(basis) - 1)
    changed = True
    while changed:
        changed = False
        out = []
        out_red = []
        for i, g in enumerate(basis):
            r = polyring.vec_nf(g, out_red + reducers[i + 1:], field)
            same = r == g
            if not same:
                changed = True
            if r:
                out.append(vec_monic(r, field))
                out_red.append(reducers[i] if same
                               else vec_reducer(out[-1], field))
        basis, reducers = out, out_red
    basis.sort(key=lambda v: vkey(vec_lt(v)))
    return basis


def _random_vec(rng, field, npos, degrees, nterms):
    """Random module vector with nonzero coefficients, in random key order;
    each term has a degree drawn from `degrees`."""
    vec = {}
    for _ in range(nterms):
        pos = rng.randrange(npos)
        monos = monomials_of_degree(rng.choice(degrees))
        vec[(pos, rng.choice(monos))] = rng.randrange(1, field.q)
    return vec


def _homogeneous_vec(rng, field, twists, degree, nterms):
    """Random vector of the given degree in the free module with `twists`."""
    vec = {}
    for _ in range(nterms):
        pos = rng.randrange(len(twists))
        d = degree + twists[pos]
        if d >= 0:
            vec[(pos, rng.choice(monomials_of_degree(d)))] = \
                rng.randrange(1, field.q)
    return vec


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_vec_nf_matches_rescan_reference(p, k):
    field = make_field(p, k)
    rng = seeded(100 + p * 10 + k)
    hits = 0
    for _ in range(60):
        npos = rng.randint(1, 3)
        # arbitrary, non-monic, not a Groebner basis; zero vectors and
        # repeated leading terms included, so the first match matters
        basis = [_random_vec(rng, field, npos, (0, 1, 2, 3), rng.randint(0, 5))
                 for _ in range(rng.randint(0, 6))]
        if basis and rng.random() < 0.3:
            basis.append(dict(basis[0]))
        reducers = [vec_reducer(g, field) for g in basis if g]
        for _ in range(3):
            vec = _random_vec(rng, field, npos, (2, 3, 4, 5),
                              rng.randint(0, 12))
            want = _reference_vec_nf(vec, basis, field)
            got = vec_nf(vec, reducers, field)
            assert list(got.items()) == list(want.items())
            hits += got != vec
    assert hits > 60          # most reductions actually reduce


def test_vec_reducer_fields():
    field = make_field(5)
    g = {(1, (0, 1, 0)): 3, (0, (0, 0, 2)): 2, (1, (1, 0, 0)): 4}
    pos, lm, inv_lc, tail = vec_reducer(g, field)
    assert (pos, lm) == (0, (0, 0, 2)) == vec_lt(g)
    assert field.mul(inv_lc, 2) == 1
    assert tail == ((1, (0, 1, 0), 3), (1, (1, 0, 0), 4))


def _check_reduced_basis(basis, inputs, field):
    reducers = [vec_reducer(g, field) for g in basis]
    for g in basis:
        assert g[vec_lt(g)] == 1
    keys = [vkey(vec_lt(g)) for g in basis]
    assert keys == sorted(keys)
    for i, g in enumerate(basis):
        assert vec_nf(g, reducers[:i] + reducers[i + 1:], field) == g
    for v in inputs:
        assert vec_nf(v, reducers, field) == {}


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 1)])
def test_buchberger_module_is_reduced_and_unique(p, k):
    field = make_field(p, k)
    rng = seeded(200 + p * 10 + k)
    for _ in range(8):
        twists = [rng.randint(-1, 1) for _ in range(rng.randint(1, 3))]
        inputs = []
        for _ in range(rng.randint(1, 4)):
            v = _homogeneous_vec(rng, field, twists, rng.randint(1, 3),
                                 rng.randint(1, 4))
            if v:
                inputs.append(v)
        basis = buchberger_module(inputs, field)
        _check_reduced_basis(basis, inputs, field)
        # the reduced basis depends only on the module: shuffle the inputs
        # and rescale each by a nonzero constant
        shuffled = list(inputs)
        rng.shuffle(shuffled)
        scaled = []
        for v in shuffled:
            a = rng.randrange(1, field.q)
            scaled.append({t: field.mul(c, a) for t, c in v.items()})
        again = buchberger_module(scaled, field)
        assert [list(g.items()) for g in again] == \
            [list(g.items()) for g in basis]


def test_buchberger_module_with_closing_relations(fermat5, F5):
    """Lift-basis style input: generators plus F times each unit."""
    rng = seeded(211)
    F = fermat5.F
    for _ in range(4):
        twists = [rng.randint(0, 2) for _ in range(2)]
        inputs = [v for v in (_homogeneous_vec(rng, F5, twists, 2, 3)
                              for _ in range(3)) if v]
        inputs += [{(i, m): c for m, c in F.terms.items()} for i in range(2)]
        basis = buchberger_module(inputs, F5)
        _check_reduced_basis(basis, inputs, F5)
        shuffled = list(inputs)
        rng.shuffle(shuffled)
        assert buchberger_module(shuffled, F5) == basis


# -- Hilbert values by leading-term counts --------------------------------------

def _check_piece_dims(M):
    """piece_dim(t) against the rank of piece_matrix(t), the row-reduction
    reference, for t from -2 to max generator degree + rank + 6; returns
    the number of degrees with a nonzero piece."""
    degs = M.gen_degrees()
    top = (max(degs) if degs else 0) + M.ambient.rank + 6
    nonzero = 0
    for t in range(-2, top + 1):
        want = M.piece_matrix(t).shape[0]
        assert M.piece_dim(t) == want, (M, t)
        nonzero += want > 0
    return nonzero


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_piece_dim_counts_match_rref_reference(p, k):
    field = make_field(p, k)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    rng = seeded(500 + p * 10 + k)
    modules = [PresentedModule(curve, TwistedFree([0, -1]), []),
               free_module(curve, [-2, 0, 1])]
    # random submodules of twisted frees, negative twists included, so some
    # pieces R_(t + a) are empty
    for twists in ((-2, 0, 1), (-3, -1), (0,), (1, -1, 0)):
        vectors = [_random_piece_vector(curve, twists, rng.randint(0, 3), rng)
                   for _ in range(rng.randint(1, 3))]
        modules.append(PresentedModule(curve, TwistedFree(twists), vectors))
    ideal = ideal_of(curve, "x^2", "y^2", "x^2 + x*y")
    syz = syzygy_of_map(syz_map(curve, ["x^2", "y^2", "x^2 + x*y"], 3), curve)
    modules.append(syz)
    modules += [image_presentation(h, syz) for h in hom_space(syz, syz, 0)]
    modules.append(forcing_data(ideal, pp("x*y*z", field)).syz_prime)
    nonzero = sum(_check_piece_dims(M) for M in modules)
    assert nonzero > 40


def test_piece_dim_counts_on_acceptance_5_modules(fermat5):
    """Every bundle, summand and enlarged syzygy module of the first 20
    ideals of acceptance 5 counts the same Hilbert values as row reduction."""
    rng = seeded(20260808)
    cand_rng = seeded(5)
    checked = 0
    for _ in range(20):
        ideal = random_primary_ideal(fermat5, rng, n_min=2, n_max=4, max_deg=3)
        m = max(ideal.degrees) + 1
        bundle = syzygy_bundle(ideal, m)
        f0 = random_homogeneous(fermat5, m, cand_rng)
        modules = [bundle.module, forcing_data(ideal, f0, bundle).syz_prime]
        modules += [s.module for s in decompose_bundle(bundle)]
        for M in modules:
            _check_piece_dims(M)
            checked += 1
    assert checked >= 60


def test_rank_and_degree_fills_no_piece_matrix(fermat5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    assert M.rank_and_degree() == (2, 0)
    assert M._piece_cache == {}


def test_embedded_module_reuses_lead_table(fermat5, F5, monkeypatch):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "x^2"], 3), fermat5)
    dims = [M.piece_dim(t) for t in range(-1, 8)]
    F25 = make_field(5, 2)
    emb = lambda code: embed(F5.from_code(code), F25).code
    M2 = M.embedded(fermat5.embedded(F25, emb), emb)
    calls = []
    real = gradedmod.buchberger_module
    monkeypatch.setattr(gradedmod, "buchberger_module",
                        lambda *a: calls.append(1) or real(*a))
    for t, want in zip(range(-1, 8), dims):
        assert M2.piece_dim(t) == want == M2.piece_matrix(t).shape[0]
    assert calls == []


def test_twisted_module_is_the_shifted_module(fermat5, monkeypatch):
    """M.twisted(s) has the pieces of M shifted by s, against the module
    built at the shifted twists from scratch, and builds no Groebner
    basis."""
    for gens in (["x^2", "y^2", "x^2"], ["x", "y", "z^3"]):
        M = syzygy_of_map(syz_map(fermat5, gens, 0), fermat5)
        rank, degree = M.rank_and_degree()
        direct = {s: syzygy_of_map(syz_map(fermat5, gens, s), fermat5)
                  for s in (-1, 2, 3)}
        calls = []
        real = gradedmod.buchberger_module
        monkeypatch.setattr(gradedmod, "buchberger_module",
                            lambda *a: calls.append(1) or real(*a))
        for s, D in direct.items():
            T = M.twisted(s)
            assert T.gens == D.gens and T.ambient == D.ambient
            assert T.lift is M.lift and T._lead_table() is M._lead_table()
            assert T.rank_and_degree() == (rank, degree + 3 * rank * s)
            for t in range(-2, 6):
                assert T.piece_dim(t) == M.piece_dim(t + s)
                assert T.piece_matrix(t).tolist() == \
                    D.piece_matrix(t).tolist()
        assert calls == []
        monkeypatch.undo()


def test_nonlinear_hilbert_values_name_degrees(fermat5, monkeypatch):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    base = max(M.gen_degrees()) + M.ambient.rank + 3
    monkeypatch.setattr(M, "piece_dim", lambda t: t * t)
    with pytest.raises(ArithmeticError) as err:
        M.rank_and_degree()
    msg = str(err.value)
    h = [t * t for t in range(base, base + 3)]
    h2 = [t * t for t in range(2 * base, 2 * base + 3)]
    assert f"{h} at t = {base}..{base + 2}" in msg
    assert f"{h2} at t = {2 * base}..{2 * base + 2}" in msg


def _same_bases(got, want):
    """Same vectors in the same order, each with the same term-key order."""
    assert [list(g.items()) for g in got] == [list(g.items()) for g in want]


def _lift_inputs(curve, gens, m):
    """The buchberger_module inputs that syzygy_bundle builds (its LiftBasis)."""
    calls = []
    real = gradedmod.buchberger_module
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gradedmod, "buchberger_module",
                   lambda vecs, field: calls.append(
                       [dict(v) for v in vecs]) or real(vecs, field))
        syzygy_bundle(IdealData(curve, [pp(g, curve.field) for g in gens]), m)
    assert calls
    return calls


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_buchberger_module_matches_every_pair_reference(p, k):
    field = make_field(p, k)
    F = pp("x^3 + y^3 + z^3", field)
    rng = seeded(300 + p * 10 + k)
    for trial in range(24):
        rank = rng.randint(1, 3)
        if trial % 2:
            twists = [rng.randint(-1, 1) for _ in range(rank)]
            inputs = [_homogeneous_vec(rng, field, twists, rng.randint(1, 3),
                                       rng.randint(1, 4))
                      for _ in range(rng.randint(1, 4))]
        else:
            inputs = [_random_vec(rng, field, rank, (1, 2, 3),
                                  rng.randint(1, 3))
                      for _ in range(rng.randint(1, 3))]
        for extra in ([], closing_relations(F, rank)):
            vecs = inputs + extra
            _same_bases(buchberger_module(vecs, field),
                        _reference_buchberger_module(vecs, field))


@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (7, 4)])
def test_buchberger_module_reference_edge_cases(p, k):
    field = make_field(p, k)
    a = field.q - 1
    v = {(0, (2, 0, 0)): 1, (0, (0, 1, 1)): a, (1, (0, 0, 1)): 1}
    w = {(0, (2, 0, 0)): 1, (0, (1, 0, 1)): 1}            # equal lead to v
    u = {(1, (0, 1, 0)): 1, (0, (1, 1, 0)): a}
    scaled = {t: field.mul(c, a) for t, c in v.items()}  # a rescaled copy
    cases = [[], [{}], [{}, {}], [v, {}], [v, dict(v)], [v, scaled],
             [v, w], [w, v, scaled, {}], [v, w, u, dict(u)],
             [u, v, w, closing_relations(pp("x^3 + y^3 + z^3", field), 2)[1]]]
    for vecs in cases:
        _same_bases(buchberger_module(vecs, field),
                    _reference_buchberger_module(vecs, field))


@pytest.mark.parametrize("p", [5, 7])
def test_buchberger_module_reference_on_lift_inputs(p):
    field = make_field(p)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    for vecs in _lift_inputs(curve, ["x^2", "y^2", "z^2"], 3):
        _same_bases(buchberger_module(vecs, field),
                    _reference_buchberger_module(vecs, field))


def test_buchberger_module_pair_criteria_save_reductions():
    """vec_nf calls on syzygy_bundle's LiftBasis inputs, Fermat cubic."""
    problems = [(5, ["x^2", "y^2", "z^2"], 3, 40, 70),
                (7, ["x^3", "y^3", "z^3", "x*y*z"], 4, 61, 115)]
    total = total_ref = 0
    for p, gens, m, want, want_ref in problems:
        field = make_field(p)
        curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
        inputs = _lift_inputs(curve, gens, m)
        calls = []
        real = polyring.vec_nf
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polyring, "vec_nf",
                       lambda *a: calls.append(1) or real(*a))
            for vecs in inputs:
                buchberger_module(vecs, field)
            count = len(calls)
            calls.clear()
            for vecs in inputs:
                _reference_buchberger_module(vecs, field)
            count_ref = len(calls)
        assert (count, count_ref) == (want, want_ref)
        total += count
        total_ref += count_ref
    assert 3 * total <= 2 * total_ref
