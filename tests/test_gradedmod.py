import heapq
from pathlib import Path

import numpy as np
import pytest

import tcone.gradedmod as gradedmod
import tcone.polyring as polyring
from tcone.bundle import decompose_bundle, forcing_data, syzygy_bundle
from tcone.closure import _ideal_piece_rows
from tcone.cli import main
from tcone.field import Field, embed, make_field
from tcone.gradedmod import (GradedMap, ModuleHom, PieceFrame,
                             PresentedModule, TwistedFree, buchberger_module,
                             closing_relations, free_module, hom_space,
                             image_presentation, syzygy_of_map, vec_from_polys,
                             vec_lt, vec_nf, vec_reducer, vkey)
from tcone.linalg import SpanBasis
from tcone.polyring import (CubicCurve, IdealData, Polynomial,
                            format_polynomial, mono_deg, mono_div,
                            mono_divides, mono_lcm, mono_mul,
                            monomials_of_degree, vec_monic, vec_sub,
                            vec_term_mul)

from .conftest import (ideal_of, pp, random_homogeneous, random_primary_ideal,
                       seeded)
from .reference import (HomModule, apply_hom, apply_map, as_matrix,
                        contains, groebner_basis, piece_basis,
                        reference_image_conditions, reference_mult,
                        reference_multiples, reference_times)


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
    assert contains(M, (pp("x", F5), pp("y", F5), pp("z", F5)))
    assert M.rank_and_degree() == (2, 0)


def test_syzygy_of_zero_map(fermat5, F5):
    zero = Polynomial.zero(F5)
    phi = GradedMap(TwistedFree([0, 0]), TwistedFree([2]), [[zero, zero]])
    M = syzygy_of_map(phi, fermat5)
    # kernel is all of the source
    assert M.rank_and_degree() == (2, 0)
    one = Polynomial.constant(F5, 1)
    assert contains(M, (one, zero))
    assert contains(M, (zero, one))


def test_syzygies_compose_to_zero(fermat5):
    rng = seeded(7)
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        m = max(ideal.degrees) + 1
        phi = GradedMap(TwistedFree([m - d for d in ideal.degrees]),
                        TwistedFree([m]), [list(ideal.gens)])
        M = syzygy_of_map(phi, fermat5)
        for g in M.gens:
            img = apply_map(phi, g)
            assert fermat5.nf(img[0]).is_zero()


def test_graded_piece_examples(fermat5, F5):
    R = free_module(fermat5, [0])
    assert R.piece_dim(2) == 6
    assert R.piece_dim(0) == 1
    basis0 = piece_basis(R, 0)
    assert basis0 == [(Polynomial.constant(F5, 1),)]
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    basis = piece_basis(M, 0)
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
        assert M.piece_dim(t) == len(piece_basis(M, t))


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
    homs = hom_space(M, M)
    rng = seeded(31)
    for h in homs:
        # psi(a * g) == a * psi(g) for generator multiples
        for g, img in zip(M.gens, h.images):
            for var in ("x", "y", "z"):
                v = Polynomial.variable(F5, var)
                moved = tuple(fermat5.nf(v * p) for p in g)
                expect = tuple(fermat5.nf(v * p) for p in img)
                assert apply_hom(h, moved) == expect


def test_image_presentation_identity_and_zero(fermat5, F5):
    M = syzygy_of_map(syz_map(fermat5, ["x^2", "y^2", "z^2"], 3), fermat5)
    ident = ModuleHom(M, M, list(M.gens))
    img = image_presentation(ident, M)
    assert img.rank_and_degree() == M.rank_and_degree()
    assert groebner_basis(img) == groebner_basis(M)
    for t in range(0, 4):
        assert img.piece_dim(t) == M.piece_dim(t)
    for g in M.gens:
        assert contains(img, g)
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


@pytest.mark.parametrize("p,k", [(5, 1), (2, 2), (7, 1), (5, 2)])
def test_image_conditions_match_reference(p, k):
    """One matrix product per block and ambient position gives the columns
    nf(h * v) of the per-column reference.  Per degree t the blocks are a
    piece basis, random rows and an empty block, and the coefficients are
    random, zero, and of degree >= 3 with a multiple of lt(F), so not
    reduced modulo F; the free module's twist -2 makes d + a = 0 and
    d + a < 0 at block degrees 2 and 1."""
    field = make_field(p, k)
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    rng = seeded(71)
    syz = syzygy_of_map(syz_map(curve, ["x^2", "y^2", "z^2"], 3), curve)
    for N in (free_module(curve, [-2, 0, 1]), syz, syz.twisted(-2)):
        for t in range(6):
            coeffs, blocks, vectors = [], [], []
            for u, d in enumerate((t, t - 1, t - 2, t - 3, t - 1, t - 4)):
                frame = N.frame(d)
                if u == 2:
                    block = np.zeros((0, frame.width), dtype=np.int64)
                elif u % 2:
                    n = rng.randint(1, 3)
                    block = np.array([rng.randrange(field.q)
                                      for _ in range(n * frame.width)],
                                     dtype=np.int64).reshape(n, frame.width)
                else:
                    block = N.piece_matrix(d)
                terms = {m: rng.randrange(field.q)
                         for m in monomials_of_degree(t - d)}
                if t - d >= 3:
                    terms[(t - d, 0, 0)] = 1
                h = Polynomial(field, {m: c for m, c in terms.items() if c})
                coeffs.append(Polynomial.zero(field) if u == 1 else h)
                blocks.append(block)
                vectors.append([frame.polys(row) for row in block])
            got = gradedmod.image_conditions(N, coeffs, blocks, t)
            want = reference_image_conditions(N, coeffs, vectors, t)
            assert np.array_equal(got, want)


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


# a prime field, list tables, array tables only, and scalar ops
@pytest.mark.parametrize("p, k", [(5, 1), (2, 2), (5, 4), (7, 4)])
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
    modules += [image_presentation(h, syz) for h in hom_space(syz, syz)]
    modules.append(forcing_data(ideal, pp("x*y*z", field)).syz_prime)
    nonzero = sum(_check_piece_dims(M) for M in modules)
    assert nonzero > 40


def test_log_fields_never_map_scalar_ops(monkeypatch, capsys):
    """Fields of 257 to 2^20 elements run every array op on their exp/log
    tables: with `Field._map` raising, the F_2401 piece test above and tc
    check, decompose and info on the F_625 demos (one of which splits over
    F_(5^8)) still run."""
    def refuse(self, op, *arrays):
        raise AssertionError(f"scalar ops mapped over {self}")

    monkeypatch.setattr(Field, "_map", refuse)
    test_piece_dim_counts_match_rref_reference(7, 4)
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    for name in ("ordinary_f625", "f625_splits_over_f5_8"):
        path = str(demo / f"{name}.tc")
        for argv in (["check", path], ["decompose", path, "--degree", "0"],
                     ["decompose", path, "--degree", "3"], ["info", path]):
            assert main(argv) in (0, 1)
    assert "summands" in capsys.readouterr().out


def test_characteristic_2_fields_never_read_add_tables(monkeypatch, capsys):
    """Extension fields of characteristic 2 add by XOR on every route:
    with add, neg and add-list tables that raise when read installed on
    F_4 to F_256, the F_4 piece test above and tc closure, decompose and
    info on the F_4 demo still run."""
    class Refuse:
        def __getitem__(self, key):
            raise AssertionError("an add or neg table was read")

    for k in range(2, 9):
        field = make_field(2, k)
        monkeypatch.setattr(field, "_add_table", Refuse())
        monkeypatch.setattr(field, "_neg_table", Refuse())
        monkeypatch.setattr(field, "list_tables",
                            (field.list_tables[0], Refuse()))
    polyring._addmul.cache_clear()
    try:
        test_piece_dim_counts_match_rref_reference(2, 2)
        path = str(Path(__file__).resolve().parent.parent / "demos"
                   / "problems" / "closure_f4.tc")
        for argv in (["closure", path], ["decompose", path, "--degree", "0"],
                     ["decompose", path, "--degree", "3"], ["info", path]):
            assert main(argv) == 0
    finally:
        polyring._addmul.cache_clear()
    assert "y^2*z^2" in capsys.readouterr().out


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
    real = polyring.buchberger_module
    monkeypatch.setattr(polyring, "buchberger_module",
                        lambda *a: calls.append(1) or real(*a))
    for t, want in zip(range(-1, 8), dims):
        assert M2.piece_dim(t) == want == M2.piece_matrix(t).shape[0]
    assert calls == []


def test_twisted_module_is_the_shifted_module(fermat5, monkeypatch):
    """M.twisted(s) has the pieces of M shifted by s, against the module
    built at the shifted twists from scratch, and builds no Groebner
    basis: it shares the leading terms that the map's augmented basis
    gave M, and neither has a lift of its own."""
    for gens in (["x^2", "y^2", "x^2"], ["x", "y", "z^3"]):
        M = syzygy_of_map(syz_map(fermat5, gens, 0), fermat5)
        rank, degree = M.rank_and_degree()
        direct = {s: syzygy_of_map(syz_map(fermat5, gens, s), fermat5)
                  for s in (-1, 2, 3)}
        calls = []
        real = polyring.buchberger_module
        monkeypatch.setattr(polyring, "buchberger_module",
                            lambda *a: calls.append(1) or real(*a))
        for s, D in direct.items():
            T = M.twisted(s)
            assert T.gens == D.gens and T.ambient == D.ambient
            assert T._lead_table() is M._lead_table()
            assert T._lift is None and M._lift is None
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
    """The buchberger_module inputs of an ideal and its syzygy bundle: the
    ideal's augmented basis (`IdealData.lift`), which the bundle reuses."""
    calls = []
    real = polyring.buchberger_module
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyring, "buchberger_module",
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
    """vec_nf calls on the ideal's augmented-basis inputs, Fermat cubic."""
    problems = [(5, ["x^2", "y^2", "z^2"], 3, 18, 32),
                (7, ["x^3", "y^3", "z^3", "x*y*z"], 4, 33, 66)]
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


# -- one augmented basis per ideal, against the reference routes ----------------

def _differential_cases():
    """(ideal, m) pairs over F_2, F_4, F_5, F_7 and F_25.

    The window ideals at twist 0 and one more, duplicate generators, the
    quadratic-extension ideals, splitting_extension.tc, the rank-3 shape
    (x^3, y^3, z^3, x*y*z) over F_7 (End algebra of dimension 11), and
    random ideals, F_25 among them.
    """
    from pathlib import Path

    from tcone.cli import parse_problem

    from .test_closure import EXTENSION_IDEALS, WINDOW_CASES, _fermat

    for p, k, gens in WINDOW_CASES:
        ideal = ideal_of(_fermat(p, k), *gens)
        yield ideal, 0
        yield ideal, max(ideal.degrees) + 1
    for p, k in ((2, 1), (5, 1), (5, 2)):
        yield ideal_of(_fermat(p, k), "x^2", "y^2", "x^2"), 3
        yield ideal_of(_fermat(p, k), "x^2", "y^2", "y^2", "x*y"), 2
    for gens in EXTENSION_IDEALS:
        yield ideal_of(_fermat(5), *gens), 3
    demo = Path(__file__).resolve().parent.parent / "demos" / "problems"
    problem = parse_problem((demo / "splitting_extension.tc").read_text())
    yield problem.ideal, 0
    yield problem.ideal, 3
    wide7 = ideal_of(_fermat(7), "x^3", "y^3", "z^3", "x*y*z")
    yield wide7, 0
    yield wide7, 4
    rng = seeded(911)
    for p, k in ((2, 1), (2, 2), (5, 1), (7, 1), (5, 2)):
        for _ in range(14):
            ideal = random_primary_ideal(_fermat(p, k), rng, n_max=4,
                                         max_deg=3)
            yield ideal, rng.randint(0, max(ideal.degrees) + 1)


def _reference_nullspace(M, N):
    """Nullspace of the relation-by-relation Hom system, its columns over
    the same blocks as `hom_system`'s."""
    from tcone.linalg import nullspace

    from .reference import reference_hom_system
    blocks, rows = reference_hom_system(M, N)
    total = sum(len(b) for b in blocks)
    return nullspace(np.concatenate(
        [np.zeros((0, total), dtype=np.int64)] + rows), M.field)


def test_ideal_lift_serves_gb_leads_and_homs():
    """On every differential case: the ideal's `gb` is `buchberger` of
    (gens, F); the bundle module's leading terms, read off the ideal's
    lift, are those of the module's own lift; its twists' are shared; and
    the one-degree Hom system has the same solutions as the reference's
    relation-by-relation system, for End(M) and for Hom(M, M(1))."""
    from tcone.linalg import nullspace

    fields, cases, homs = set(), 0, 0
    for ideal, m in _differential_cases():
        cases += 1
        curve = ideal.curve
        assert ideal.gb == tuple(polyring.buchberger(
            list(ideal.gens) + [curve.F]))
        M = syzygy_bundle(ideal, m).module
        assert M._lift is None
        assert M._lead_table() == M.lift.lead_table(0, M.ambient.rank)
        assert M.twisted(2)._lead_table() is M._lead_table()
        for N in (M, M.twisted(1)):
            blocks, rows = gradedmod.hom_system(M, N)
            total = sum(len(b) for b in blocks)
            got = nullspace(np.concatenate(
                [np.zeros((0, total), dtype=np.int64)] + rows), M.field)
            assert got.tolist() == _reference_nullspace(M, N).tolist(), \
                (ideal, m, N.ambient)
            homs += 1
        fields.add(curve.field.q)
    assert fields == {2, 4, 5, 7, 25}
    assert cases >= 100 and homs == 2 * cases


def test_reference_relations_lie_in_degrees_up_to_max_b_plus_2():
    """The minimal relations among a bundle module's generators, from its
    own lift, have degree at most max b + 2, the degree `hom_system` uses;
    some reach it, so max b + 1 would not do."""
    from .reference import relations
    top = 0
    for ideal, m in _differential_cases():
        M = syzygy_bundle(ideal, m).module
        gdegs = M.gen_degrees()
        rels = PresentedModule(M.curve, TwistedFree([-d for d in gdegs]),
                               relations(M), minimalize=True)
        excess = [d - max(gdegs) for d in rels.gen_degrees()]
        assert all(e <= 2 for e in excess), (ideal, m, excess)
        top = max([top] + excess)
    assert top == 2


def test_generator_multiples_match_per_row_normal_forms():
    """`PresentedModule.multiples(t)`, gathered from the normal-form
    tables, equals the per-row route (one normal form per row) entry for
    entry: bundles, twisted bundles, summands and enlarged modules."""
    pairs = 0
    for n, (ideal, m) in enumerate(_differential_cases()):
        if n % 5:
            continue
        B = syzygy_bundle(ideal, m)
        modules = [B.module, B.module.twisted(-1)]
        if ideal.curve.field.q != 25:
            # (a random F_25 case splits only over F_(5^6), where the
            # idempotent search takes seconds)
            modules += [s.module for s in decompose_bundle(B)]
        modules.append(forcing_data(ideal, ideal.gens[0]).syz_prime)
        for M in modules:
            degs = M.gen_degrees()
            for t in range(min(degs) - 1, max(degs) + 3):
                want = reference_multiples(M.frame(t), M.vectors)
                assert M.multiples(t).tolist() == want.tolist()
                pairs += 1
    assert pairs >= 200


def test_times_matches_nf_row_by_row():
    """Row r of `PieceFrame.times(h)` is nf(h * e_r): against the per-row
    reference and, on one position, against the gather term by term of
    the unreduced form.  Forms not reduced modulo F and multiples of F
    are included, frames at t = -1 and 0, cubics whose leading monomial
    is not x^3, and a frame whose positions repeat a twist."""
    rng = seeded(67)
    for p, k in [(5, 1), (2, 2), (7, 1), (5, 2)]:
        field = make_field(p, k)
        for text in ("x^3 + y^3 + z^3", "y^2*z + x*y*z + x^3 + z^3",
                     "x^2*y + y^2*z + z^2*x"):
            curve = CubicCurve(pp(text, field), field, check_smooth=False)
            lt = curve.F.leading_monomial()
            for e in range(5):
                for d in range(-1, 5):
                    terms = {m: rng.randrange(field.q)
                             for m in monomials_of_degree(e)}
                    if e >= 3:
                        terms[(lt[0] + e - 3, lt[1], lt[2])] = 1
                    h = Polynomial(field, {m: c for m, c in terms.items()
                                           if c})
                    if not h:
                        continue
                    frame = PieceFrame(curve, (0,), d)
                    got = frame.times(h)
                    assert got.shape == (curve.piece_dim(d),
                                         curve.piece_dim(d + e))
                    assert np.array_equal(got, reference_times(frame, h))
                    assert np.array_equal(got, reference_mult(curve, h, d))
                wide = PieceFrame(curve, (0, 1, 0, -2), 1)
                forms = [h, curve.F.term_mul((0, 0, e), 1)]
                for form in forms:
                    got = wide.times(form)
                    assert np.array_equal(got, reference_times(wide, form))
                assert not got.any()


def test_express_round_trips_and_refuses_non_members():
    """express writes a random element of M_t as sum beta_k g_k, and
    returns None for a vector of the ambient piece outside M_t; it agrees
    with the lift-based reference on membership."""
    from tcone.linalg import rref

    from .reference import express as reference_express
    rng = seeded(4711)
    outside = inside = 0
    for n, (ideal, m) in enumerate(_differential_cases()):
        if n % 2:
            continue
        M = syzygy_bundle(ideal, m).module
        field, curve = M.field, M.curve
        for t in (max(M.gen_degrees()), max(M.gen_degrees()) + 1):
            frame = M.frame(t)
            piece = M.piece_matrix(t)
            coeffs = np.array([rng.randrange(field.q) for _ in piece])
            v = frame.polys(field.matmul(coeffs[None, :], piece)[0])
            beta = M.express(v)
            acc = [Polynomial.zero(field) for _ in v]
            for b, g in zip(beta, M.gens):
                acc = [a + b * p for a, p in zip(acc, g)]
            assert tuple(curve.nf(a) for a in acc) == v
            assert reference_express(M, v) is not None
            inside += 1
            if len(piece) < frame.width:
                row = np.array([rng.randrange(field.q)
                                for _ in range(frame.width)])
                if len(rref(np.vstack([piece, row]), field)[1]) > len(piece):
                    w = frame.polys(row)
                    assert M.express(w) is None
                    assert reference_express(M, w) is None
                    outside += 1
    assert inside >= 40 and outside >= 20


def test_vec_nf_list_tables_only_on_table_fields():
    """`vec_nf`'s tail update, `_addmul`, is a + f * c on every field; it
    reads list tables only on table fields of at most `_LIST_TABLE_LIMIT`
    elements.  F_625 and F_(7^4) have exp/log tables and no q x q tables;
    both use the `Field` scalar ops, and an ideal's augmented basis over
    F_(7^4) matches the every-pair reference."""
    from tcone.field import _LIST_TABLE_LIMIT
    rng = seeded(77)
    for p, k in ((5, 1), (2, 2), (5, 2), (5, 4), (7, 4)):
        field = make_field(p, k)
        addmul = polyring._addmul(field)
        tables = [cell.cell_contents for cell in addmul.__closure__]
        assert any(isinstance(t, list) for t in tables) == (
            k > 1 and field.q <= _LIST_TABLE_LIMIT)
        for _ in range(50):
            a, f, c = (rng.randrange(field.q) for _ in range(3))
            assert addmul(a, f, c) == field.add(a, field.mul(f, c))
    field = make_field(7, 4)
    assert field._mul_table is None and field._exp is not None
    curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
    for gens in (["x^2", "y^2", "z^2"], ["t*x^2 + y*z", "y^2", "x*y", "z^3"]):
        for vecs in _lift_inputs(curve, gens, 3):
            _same_bases(buchberger_module(vecs, field),
                        _reference_buchberger_module(vecs, field))


def test_hom_system_kernel_holds_every_minimal_relation(monkeypatch):
    """The relations `hom_system` imposes, the left kernel of the generator
    multiples at its one degree T, contain x^(T - d) rho for every minimal
    reference relation rho of degree d: T is at least every such d."""
    from tcone.linalg import row_space_contains

    from .reference import relations
    kernels = []
    real = gradedmod.nullspace
    monkeypatch.setattr(gradedmod, "nullspace", lambda mat, field:
                        kernels.append(real(mat, field)) or kernels[-1])
    checked = 0
    for n, (ideal, m) in enumerate(_differential_cases()):
        if n % 2:
            continue
        M = syzygy_bundle(ideal, m).module
        field, curve = M.field, M.curve
        kernels.clear()
        gradedmod.hom_system(M, M)
        (kernel,) = kernels
        gdegs = M.gen_degrees()
        T = next(t for t in range(max(gdegs), max(gdegs) + 4)
                 if M.multiples(t).shape[0] == kernel.shape[1])
        rel_twists = [-d for d in gdegs]
        rels = PresentedModule(curve, TwistedFree(rel_twists), relations(M),
                               minimalize=True)
        xf = Polynomial.variable(field, "x")
        for rho, d in zip(rels.gens, rels.gen_degrees()):
            assert d <= T, (ideal, m, d, T)
            up = tuple(curve.nf(p * xf ** (T - d)) for p in rho)
            vec = PieceFrame(curve, rel_twists, T).coords(up)
            assert not field.matmul(vec[None, :], M.multiples(T)).any()
            assert row_space_contains(kernel.copy(), vec, field)
            checked += 1
    assert checked >= 50


def test_hom_space_out_of_a_non_reflexive_module(monkeypatch):
    """M = (x^3, y^3) in R is not reflexive: its one relation, the Koszul
    pair, has degree 6 > max b + 2.  hom_space reads that degree off the
    relations and finds the one degree-0 hom M -> R (the inclusion), where
    conditions at max b + 2 alone would allow all of R_3 x R_3; it agrees
    with the relation-by-relation reference on such modules."""
    from tcone.linalg import nullspace
    for p in (2, 5, 7):
        field = make_field(p)
        curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
        R = free_module(curve, [0])
        M = PresentedModule(curve, TwistedFree([0]),
                            [(pp("x^3", field),), (pp("y^3", field),)])
        assert not M.reflexive and M.relation_degree() == 6
        homs = hom_space(M, R)
        assert len(homs) == 1
        assert homs[0].images == M.gens
        for N in (R, M, R.twisted(1)):
            blocks, rows = gradedmod.hom_system(M, N)
            total = sum(len(b) for b in blocks)
            got = nullspace(np.concatenate(
                [np.zeros((0, total), dtype=np.int64)] + rows), field)
            assert got.tolist() == _reference_nullspace(M, N).tolist()
    # a reflexive module's bound costs no Groebner basis
    calls = []
    real = polyring.buchberger_module
    monkeypatch.setattr(polyring, "buchberger_module",
                        lambda *a: calls.append(1) or real(*a))
    ideal = ideal_of(curve, "x^2", "y^2", "z^2")
    B = syzygy_bundle(ideal, 3).module
    calls.clear()
    for module in (B, B.twisted(1), free_module(curve, [0, -1])):
        assert module.reflexive
        degs = module.gen_degrees()
        assert module.relation_degree() == max(degs) + 2
    assert calls == []


def test_non_reflexive_hom_spaces_match_reference():
    """On random ideals M of R, in general not reflexive: the one-degree
    Hom system at `relation_degree` has the reference's nullspace, for
    Hom(M, R) and End(M)."""
    from tcone.linalg import nullspace
    rng = seeded(2024)
    checked = 0
    for p, k in ((2, 1), (5, 1), (2, 2)):
        field = make_field(p, k)
        curve = CubicCurve(pp("x^3 + y^3 + z^3", field), field)
        R = free_module(curve, [0])
        for _ in range(6):
            gens = [(random_homogeneous(curve, rng.randint(1, 3), rng),)
                    for _ in range(rng.randint(1, 3))]
            M = PresentedModule(curve, TwistedFree([0]), gens)
            for N in (R, M):
                blocks, rows = gradedmod.hom_system(M, N)
                total = sum(len(b) for b in blocks)
                got = nullspace(np.concatenate(
                    [np.zeros((0, total), dtype=np.int64)] + rows), field)
                assert got.tolist() == _reference_nullspace(M, N).tolist()
                checked += 1
    assert checked >= 30
