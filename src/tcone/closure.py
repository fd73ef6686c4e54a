"""Tight closure operations on primary ideals in cubic cone rings.

The membership criterion: a homogeneous candidate of degree m lies in the
tight closure exactly when its obstruction class has vanishing component
on every negative-degree indecomposable summand of the syzygy sheaf at
total degree m.  In positive characteristic tight closure and (graded)
plus closure agree for these ideals, so every certificate carries that
equality note.

The class is computed by Cech cohomology on a system of parameters
(Brodmann-Sharp, Local Cohomology, ch. 5).  Linear forms l, l' through a
K-point off the curve C cut out no point of C, so D(l), D(l') cover it and
l, l' are a regular sequence on R, on Syz = ker(⊕ R(m - d_i) -> R(m)) and
on each summand (depth 2, as I is primary).  With I_(m+N) = R_(m+N),
solve sum g_i f_i = l^N f0 and sum h_i f_i = l'^N f0; then c = l'^N g -
l^N h is a syzygy of degree 2N, and [c / (l l')^N] is the class of f0 in
H^1(Syz(m)) = H^2_m(Syz)_0.  By regularity it vanishes exactly when c lies
in l^N Syz_N + l'^N Syz_N, and its component on a summand S_j vanishes
exactly when c lies in that plus the other summands' degree-2N pieces.
The class is K-linear in f0, so a whole graded piece is decided by one
solve and one kernel (`_obstruction_map`, `_criterion_piece`).

Degree thresholds: with k = (d_1 + ... + d_n)/(n - 1) and the slopes of
the dual syzygy sheaf at twist zero, everything of degree at least
mu_max/3 is in the closure and nothing new appears below mu_min/3; the
window in between is resolved degree by degree with the criterion.

The Frobenius oracle tests f0^(p^e) against the generator p^e-th powers;
on supersingular curves (Hasse invariant zero) the Frobenius closure
equals the tight closure, making the oracle a differential test for the
criterion.  Its normal forms come one p-th power at a time.  A K-point
off the curve is moved to (1:0:0) first (`_moved_off_curve`), so lt(F) =
x^3 and R is a free K[y, z]-module on 1, x, x^2: the rows of each power
are (y, z)-shifts of three normal forms, and monomial rows fix their
columns, which leave the system (`_frobenius_system`).  The system stays
sparse, rows keyed by their leads, and no normal-form table is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import UndecidedError
from .bundle import decompose_bundle, syzygy_bundle
from .gradedmod import PieceFrame, TwistedFree, _minimal_generators
from .linalg import (nullspace, row_space_contains, rref, solve,
                     sparse_row_space_contains)
from .polyring import (CubicCurve, IdealData, Polynomial,
                       format_polynomial, grevlex_key, ideal_membership,
                       mono_divides)


@dataclass(frozen=True)
class SummandEvidence:
    rank: int
    degree: int
    class_vanishes: bool


@dataclass(frozen=True)
class ClosureCertificate:
    """Verdict with the per-summand evidence that produced it."""

    verdict: str                      # "member" | "non-member"
    in_ideal: bool
    summands: tuple                   # of SummandEvidence
    formula_degree: int               # -3 (sum d_i - (n-1) m)
    m: int
    candidate: str
    extension_degree: int
    notes: str = "tight closure = plus closure (positive characteristic)"

    @property
    def is_member(self):
        return self.verdict == "member"


@dataclass(frozen=True)
class SlopeReport:
    """Slope data of the dual syzygy sheaf at twist zero."""

    mu_min: Fraction
    mu_max: Fraction
    k: Fraction
    semistable: bool
    summand_shape: tuple              # ((rank, degree) of twist-0 summands)


@dataclass(frozen=True)
class FrobeniusResult:
    found: bool
    e: int | None
    e_max: int
    inconclusive_at: tuple | None = None   # (e, D) whose matrix is too big

    def __str__(self):
        if self.found:
            return f"found at e = {self.e}"
        if self.inconclusive_at is not None:
            e, D = self.inconclusive_at
            return (f"inconclusive: stopped at e = {e}, D = {D}, where the "
                    f"membership matrix would exceed "
                    f"{_MATRIX_BYTES >> 20} MiB")
        return f"not found for e <= {self.e_max}"


@dataclass(frozen=True)
class DegreeRegime:
    degree: int
    regime: str                       # "ideal" | "criterion" | "all"
    dim_ideal: int
    dim_closure: int


@dataclass(frozen=True)
class ClosureIdeal:
    """Generators of the tight closure plus the threshold report."""

    generators: tuple                 # of Polynomial
    k: Fraction
    slope: SlopeReport
    bound_degree: int                 # from this degree on, everything is in
    per_degree: tuple                 # of DegreeRegime


def tight_closure_member(ideal: IdealData, f0: Polynomial) -> ClosureCertificate:
    """Decide tight-closure membership of a homogeneous candidate.

    Builds the syzygy bundle at the candidate degree, decomposes it, and
    tests the class component on every summand by the candidate's Cech
    cocycle (`_obstruction_map`); only negative-degree summands can
    obstruct.
    """
    curve = ideal.curve
    if not f0.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    f0 = curve.nf(f0)
    if f0.is_zero():
        raise ValueError("candidate must be nonzero in the cone")
    m = f0.degree()
    in_ideal = ideal_membership(f0, ideal)
    dec = decompose_bundle(syzygy_bundle(ideal, m))
    C, cob, t = _obstruction_map(
        ideal, dec, PieceFrame(curve, (0,), m).coords((f0,))[None, :],
        "class test")
    pieces = [s.module.piece_matrix(t) for s in dec]
    evidence = []
    obstructed = False
    for j, s in enumerate(dec):
        # the class component on S_j vanishes iff c lies in the
        # coboundaries plus the other summands' degree-t pieces
        vanishes = row_space_contains(
            np.vstack([cob] + pieces[:j] + pieces[j + 1:]), C[0], dec.field)
        evidence.append(SummandEvidence(s.rank, s.degree, vanishes))
        if s.degree < 0 and not vanishes:
            obstructed = True
    n = ideal.n
    formula_degree = -3 * (sum(ideal.degrees) - (n - 1) * m)
    verdict = "non-member" if obstructed else "member"
    if in_ideal and verdict != "member":
        raise ArithmeticError("ideal member judged outside its tight closure")
    return ClosureCertificate(
        verdict=verdict, in_ideal=in_ideal, summands=tuple(evidence),
        formula_degree=formula_degree, m=m,
        candidate=format_polynomial(f0),
        extension_degree=dec.extension_degree)


# ---------------------------------------------------------------------------
# Frobenius oracle
# ---------------------------------------------------------------------------

# The oracle refuses a degree whose full dense membership matrix (int64
# codes; its sparse rows hold at most that many entries) would take more
# than this, and the obstruction map a degree whose solve or span-test
# matrix, with its largest normal-form table, would; each size is
# predicted before allocation.
_MATRIX_BYTES = 512 << 20


def _ideal_piece_rows(curve: CubicCurve, gens, D: int) -> np.ndarray:
    """Spanning rows of the degree-D piece of the R-ideal of gens."""
    return PieceFrame(curve, (0,), D).multiples([(g,) for g in gens])


@lru_cache(maxsize=256)
def _column_table(D: int) -> np.ndarray:
    """(3, D + 1) array: entry (a, c) is the column of x^a y^(D-a-c) z^c
    in `piece_monomials(D)`, or -1 where that monomial is not in the basis.

    Meant for lt(F) = x^3, where the basis monomials are those of x-degree
    at most 2, listed z ascending and then x descending: the ones with z^c
    are x^top .. x^0 with top = min(2, D - c), from column start(c).  The
    same few degrees recur in every search, so tables are cached, and read
    only.
    """
    top = np.minimum(D - np.arange(D + 1), 2)
    start = np.cumsum(top + 1) - (top + 1)
    a = np.arange(3)[:, None]
    table = np.where(a <= top, start + top - a, -1)
    table.flags.writeable = False
    return table


def _frobenius_system(curve: CubicCurve, powered, target: Polynomial,
                      D: int):
    """The oracle's degree-D membership system, for lt(F) = x^3.

    Returns (rows, vec): target lies in the degree-D piece of the ideal of
    the reduced forms powered exactly when the dense vector vec lies in
    the row space of the sparse rows, as `linalg.sparse_row_space_contains`
    takes them.  With lt(F) = x^3 every tail term of F has x-degree at
    most 2, so a basis monomial of R times y or z is again one, and
    nf(y^b z^c P) = y^b z^c nf(P): R is free over K[y, z] on 1, x, x^2.
    The row of a multiplier x^a y^b z^c of a power h is therefore
    base_a = nf(x^a h) shifted by z^c (the y-exponent follows from the
    degree), and each power needs three normal forms, whatever D is.
    A base with one term makes each of its shifts a unit row c e_j; as e_j
    is then in the row space, those rows are left out and their columns j
    dropped from the other rows and from the target, which changes no
    answer and no rank beyond the count of the dropped columns.

    The entries of the remaining rows are gathered as (row, column,
    value) triplets, and no dense array is built.  Rows are numbered power
    by power, then by a, then by c.  The columns keep `piece_monomials`
    order, or are reversed (in vec too) when more rows then have distinct
    leads, that is, distinct first columns; the more rows with a new lead,
    the fewer the elimination reduces.  The rows are then sorted by lead,
    rows with equal leads in their numbered order, and rows left empty by
    the dropped columns come last.
    """
    col = _column_table(D)
    fixed = np.zeros(curve.piece_dim(D), dtype=bool)
    parts = []                    # (at, coeffs) of each base of 2+ terms
    for h in powered:
        K = D - h.degree()
        for a in range(min(K, 2) + 1):    # none when K < 0
            base = curve.nf(h.term_mul((a, 0, 0), 1))
            terms = np.array(list(base.terms), dtype=np.int64)
            # at[c, k]: column of term k of base, shifted by z^c
            at = col[terms[:, 0], terms[:, 2] + np.arange(K - a + 1)[:, None]]
            if len(terms) == 1:
                fixed[at[:, 0]] = True
            else:
                parts.append(
                    (at, np.array(list(base.terms.values()), dtype=np.int64)))
    kept = ~fixed
    n_rows = sum(len(at) for at, _ in parts)
    n_cols = int(kept.sum())
    vec = PieceFrame(curve, (0,), D).coords((target,))[kept]
    r = c = v = np.zeros(0, dtype=np.int64)
    if parts:
        r = np.repeat(np.arange(n_rows),
                      np.repeat([at.shape[1] for at, _ in parts],
                                [len(at) for at, _ in parts]))
        c = np.concatenate([at.ravel() for at, _ in parts])
        v = np.concatenate([np.repeat(coeffs[None], len(at), axis=0).ravel()
                            for at, coeffs in parts])
        live = kept[c]
        r, c, v = r[live], (np.cumsum(kept) - 1)[c[live]], v[live]
    # each row's first and last column, its lead in either order
    first = np.full(n_rows, n_cols)
    np.minimum.at(first, r, c)
    last = np.full(n_rows, -1)
    np.maximum.at(last, r, c)
    filled = last >= 0
    if len(set(last[filled].tolist())) > len(set(first[filled].tolist())):
        c = n_cols - 1 - c
        vec = vec[::-1].copy()
        first[filled] = n_cols - 1 - last[filled]
    # rows by lead, stably, with empty rows (lead n_cols) last
    place = np.empty(n_rows, dtype=np.int64)
    place[np.argsort(first, kind="stable")] = np.arange(n_rows)
    r = place[r]
    order = np.argsort(r * n_cols + c)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=n_rows))))
    return (indptr, c[order], v[order]), vec


def frobenius_member(ideal: IdealData, f0: Polynomial,
                     e_max: int = 4) -> FrobeniusResult:
    """Smallest e <= e_max with f0^(p^e) in the p^e-th power ideal.

    Membership is tested inside the cone ring degree by degree with exact
    linear algebra.  Normal forms of f0^(p^e) and of each distinct monic
    generator's p^e-th power come one p-th power at a time: in
    characteristic p, nf(nf(h)^[p]) = nf(h^p), with h^[p] the exact
    single-term expansion, so no Groebner computation at large degree is
    needed.  At D = p^e deg(f0) the target is reduced against sparse rows
    spanning the powers' ideal in R_D (3D monomials, generated directly):
    shifts of three normal forms per power (`_frobenius_system`), after a
    change of coordinates to lt(F) = x^3 where needed (`_moved_off_curve`),
    whose leads key the pivots of `sparse_row_space_contains`.  Before
    each degree the size of the full dense matrix of all multiples is
    predicted; the sparse rows hold at most as many entries as it has
    cells.  Past 512 MiB the search stops, inconclusive, and the result
    names that e and D ("inconclusive: stopped at e = ..., D = ...").
    """
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    curve = ideal.curve
    if not f0.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    f0 = curve.nf(f0)
    if f0.is_zero():
        raise ValueError("candidate must be nonzero in the cone")
    p = curve.field.p
    m = f0.degree()
    # generators equal up to a scalar span the same rows
    gens = list(dict.fromkeys(g.monic() for g in ideal.gens))
    if curve.F.leading_monomial() != (3, 0, 0):
        curve, (f0, *gens) = _moved_off_curve(curve, [f0] + gens)
    target, powered = f0, [curve.nf(g) for g in gens]
    for e in range(e_max + 1):
        q = p ** e
        D = q * m
        n_rows = sum(curve.piece_dim(D - q * g.degree()) for g in gens)
        if n_rows * curve.piece_dim(D) * 8 > _MATRIX_BYTES:
            return FrobeniusResult(False, None, e_max, inconclusive_at=(e, D))
        if e:
            target = curve.nf(target.frobenius_power(1))
            powered = [curve.nf(h.frobenius_power(1)) for h in powered]
        rows, vec = _frobenius_system(curve, powered, target, D)
        if sparse_row_space_contains(rows, vec, curve.field):
            return FrobeniusResult(True, e, e_max)
    return FrobeniusResult(False, None, e_max)


# ---------------------------------------------------------------------------
# slopes, thresholds, and the full closure ideal
# ---------------------------------------------------------------------------

def slope_and_threshold(ideal: IdealData) -> SlopeReport:
    """Slopes of the dual syzygy sheaf at twist zero, with the threshold k.

    The summand slopes are the negated slopes of the twist-zero syzygy
    summands; semistable means one slope.  Exact rational arithmetic.
    """
    return _slope_report(ideal, decompose_bundle(syzygy_bundle(ideal, 0)))


def _slope_report(ideal: IdealData, dec) -> SlopeReport:
    """The slope report of the twist-zero decomposition dec."""
    mus = [Fraction(-s.degree, s.rank) for s in dec]
    n = ideal.n
    return SlopeReport(
        mu_min=min(mus), mu_max=max(mus),
        k=Fraction(sum(ideal.degrees), n - 1),
        semistable=(min(mus) == max(mus)),
        summand_shape=tuple((s.rank, s.degree) for s in dec))


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _evaluate(poly: Polynomial, point) -> int:
    """The code of poly at a point given by coordinate codes."""
    f = poly.field
    acc = 0
    for mono, c in poly.terms.items():
        for v, e in zip(point, mono):
            c = f.mul(c, f.pow(v, e))
        acc = f.add(acc, c)
    return acc


def _point_off_curve(curve: CubicCurve):
    """The first K-point P off the curve, as (P, i) with P_i = 1 its first
    nonzero coordinate.

    Points are tried in the fixed order (0:0:1), (0:1:c), (1:b:c), codes
    ascending.  Such a point exists, since #C(F_q) <= q + 1 + 2 sqrt(q) <
    q^2 + q + 1.
    """
    q = curve.field.q
    points = itertools.chain([(0, 0, 1)], ((0, 1, c) for c in range(q)),
                             ((1, b, c) for b in range(q) for c in range(q)))
    for point in points:
        if _evaluate(curve.F, point):
            return point, point.index(1)
    raise ArithmeticError("every K-point of the plane lies on the curve")


def _parameter_forms(curve: CubicCurve):
    """Linear forms l, l' through P = `_point_off_curve`: x_j - P_j x_i for
    the two coordinates j other than P's first nonzero one, i."""
    point, i = _point_off_curve(curve)
    xs = [Polynomial.variable(curve.field, v) for v in "xyz"]
    return [xs[j] - xs[i].scale(point[j]) for j in range(3) if j != i]


def _moved_off_curve(curve: CubicCurve, polys):
    """The curve, and polys reduced on it, after the linear change of
    coordinates x_i -> x, x_j -> P_j x + y, x_j' -> P_j' x + z (j < j')
    that moves P = `_point_off_curve` to (1:0:0).

    The new F has x^3 coefficient F(P) != 0, so lt(F) = x^3.  The change is
    a graded automorphism of S that takes (F) to the new (F), commutes with
    p-th powers and keeps smoothness (not checked again), so it keeps every
    degree and every membership of a form in the ideal of others.
    """
    field = curve.field
    point, i = _point_off_curve(curve)
    x = Polynomial.variable(field, "x")
    others = iter([Polynomial.variable(field, v) for v in "yz"])
    forms = [x if j == i else x.scale(point[j]) + next(others)
             for j in range(3)]

    def moved(poly):
        out = Polynomial.zero(field)
        for (a, b, c), code in poly.terms.items():
            term = forms[0] ** a * forms[1] ** b * forms[2] ** c
            out = out + term.scale(code)
        return out

    new = CubicCurve(moved(curve.F), field, check_smooth=False)
    return new, [new.nf(moved(poly)) for poly in polys]


def _full_degree(ideal: IdealData) -> int:
    """Smallest D with I_D = R_D.

    I_D = R_D exactly when no basis monomial of R_D is standard for the
    ideal's Groebner basis; as R is generated in degree 1, this then holds
    in every higher degree too.
    """
    curve = ideal.curve
    leads = [g.leading_monomial() for g in ideal.gb]
    D = 1
    while any(not any(mono_divides(lm, mu) for lm in leads)
              for mu in curve.piece_monomials(D)):
        D += 1
    return D


def _embedding_table(dec) -> np.ndarray:
    """dec.embed_code as an array indexed by the input field's codes."""
    return np.array([dec.embed_code(c)
                     for c in range(dec.base_bundle.field.q)], dtype=np.int64)


def _obstruction_map(ideal: IdealData, dec, cands: np.ndarray, stage: str):
    """Cech cocycles of candidates, with the coboundaries they are tested by.

    dec is the decomposition of the syzygy bundle at total degree m and
    cands holds candidates' coordinates in R_m, one per row.  With N =
    `_full_degree` - m (at least 0) and l, l' the `_parameter_forms`, one
    2-D `solve` gives g, h with sum g_i f_i = l^N f0 and sum h_i f_i =
    l'^N f0 for every row f0; its cocycle c = l'^N g - l^N h is a syzygy of
    degree t = 2N.  Returns (C, coboundaries, t): the rows c, and rows
    spanning l^N Syz_N + l'^N Syz_N, both over dec.field.  The rows of the
    solve and the multiplications by l^N and l'^N come from the curve's
    normal-form tables, up to degree T = max(m + N, 2N + m - min d_i).  The
    larger of the solve's and the span test's matrices, plus the degree-T
    table, are predicted first; past `_MATRIX_BYTES` the map is refused as
    undecided at the stage named, before any of them is built.
    """
    curve = ideal.curve
    field = curve.field
    module = dec.base_bundle.module
    m = dec.bundle.m
    N = max(_full_degree(ideal) - m, 0)
    D = m + N
    k = cands.shape[0]
    frame_N, frame_t = module.frame(N), module.frame(2 * N)
    n_rows = sum(curve.piece_dim(D - d) for d in ideal.degrees)
    # the rows come from normal-form tables up to degree T
    T = max(D, 2 * N + m - min(ideal.degrees))
    size = 8 * (max(curve.piece_dim(D) * (n_rows + 2 * k),
                    frame_t.width * (k + 2 * module.piece_dim(N)
                                     + module.piece_dim(2 * N)))
                + (T + 1) * (T + 2) // 2 * curve.piece_dim(T))
    if size > _MATRIX_BYTES:
        raise UndecidedError(
            f"degree {m}: the obstruction map's matrices would take {size} "
            f"bytes, beyond {_MATRIX_BYTES >> 20} MiB", stage=stage,
            size=size)
    l1, l2 = (curve.nf(form ** N) for form in _parameter_forms(curve))
    base = PieceFrame(curve, (0,), m)
    rhs = np.vstack([field.matmul(cands, base.times(l1)),
                     field.matmul(cands, base.times(l2))])
    # the rows of R_D's ideal piece are the coordinates of frame_N
    sols = solve(_ideal_piece_rows(curve, ideal.gens, D).T, rhs.T, field)
    if any(x is None for x in sols):
        raise ArithmeticError(f"l^{N} R_{m} is not in the ideal")
    G, H = np.array(sols[:k]), np.array(sols[k:])
    T1, T2 = frame_N.times(l1), frame_N.times(l2)
    C = field.vsub(field.matmul(G, T2), field.matmul(H, T1))
    syz = module.piece_matrix(N)
    cob = np.vstack([field.matmul(syz, T1), field.matmul(syz, T2)])
    if dec.extension_degree > 1:
        table = _embedding_table(dec)
        C, cob = table[C], table[cob]
    return C, cob, 2 * N


def _criterion_piece(ideal: IdealData, m: int, ideal_piece, dec0):
    """Degree-m piece of the tight closure in the criterion window.

    The piece contains the ideal piece, both given as (rows, pivots) of
    their canonical rref.  The degree-m bundle and its summands are the
    twist by m of the twist-zero decomposition dec0
    (`Decomposition.twisted`), so no End algebra is built here.  f0 is in
    the closure exactly when its cocycle lies in the span V of the
    coboundaries and the degree-t pieces of the summands of degree >= 0
    (`_obstruction_map`); with C the cocycles of R_m's basis, the piece is
    the first dim R_m coordinates of nullspace([C; V]^T), in rref.  Over an
    extension field that rref is rational over the base field (the piece
    is), and its codes are pulled back.

    Cross-check: f0 -> [c] embeds R_m / I_m into H^1(Syz(m)), and an
    indecomposable bundle of positive degree has h^1 = 0, one of degree 0
    has h^1 = h^0 (Atiyah).  So dim I*_m - dim I_m is at most the sum of
    h^0 over the degree-0 summands, with equality when m > max d_i, where
    the embedding is onto.
    """
    curve = ideal.curve
    width = curve.piece_dim(m)
    pivots = ideal_piece[1]
    if len(pivots) == width:
        return ideal_piece
    dec = dec0.twisted(m)
    field = dec.field
    C, cob, t = _obstruction_map(ideal, dec, np.eye(width, dtype=np.int64),
                                 "closure window")
    span = [s.module.piece_matrix(t) for s in dec if s.degree >= 0]
    kernel = nullspace(np.vstack([C, cob] + span).T, field)
    rows, piece_pivots = rref(kernel[:, :width], field)
    if dec.extension_degree > 1:
        back = np.full(field.q, -1, dtype=np.int64)
        back[_embedding_table(dec)] = np.arange(curve.field.q)
        rows = back[rows]
        if (rows < 0).any():
            raise ArithmeticError(
                f"degree {m}: the closure piece is not defined over "
                f"{curve.field}")
    gain = len(piece_pivots) - len(pivots)
    h0 = sum(s.module.piece_matrix(0).shape[0] for s in dec if s.degree == 0)
    if gain > h0 or (m > max(ideal.degrees) and gain != h0):
        raise ArithmeticError(
            f"degree {m}: the closure piece gains {gain} over the ideal, "
            f"against h^0 = {h0} of the degree-0 summands")
    return rows, piece_pivots


def tight_closure_ideal(ideal: IdealData) -> ClosureIdeal:
    """Minimal homogeneous generators of the tight closure, degree by degree.

    Three regimes per degree m: below mu_min/3 the closure piece equals the
    ideal piece; from mu_max/3 on it is all of R_m; in between it is cut
    out by the vanishing of the class components on the negative summands
    of the degree-m syzygy sheaf.  The pieces' rref rows, in degree order,
    are pruned to minimal generators by graded Nakayama
    (`gradedmod._minimal_generators`).
    """
    curve = ideal.curve
    dec0 = decompose_bundle(syzygy_bundle(ideal, 0))
    slope = _slope_report(ideal, dec0)
    bound = _ceil_fraction(slope.mu_max / 3)
    bound = max(bound, 1)
    per_degree = []
    candidates = []
    for m in range(1, bound + 1):
        ideal_piece = rref(_ideal_piece_rows(curve, ideal.gens, m),
                           curve.field)
        if m >= slope.mu_max / 3:
            regime = "all"
            rows = np.eye(curve.piece_dim(m), dtype=np.int64)
        elif m < slope.mu_min / 3:
            regime = "ideal"
            rows = ideal_piece[0]
        else:
            regime = "criterion"
            rows = _criterion_piece(ideal, m, ideal_piece, dec0)[0]
        frame = PieceFrame(curve, (0,), m)
        candidates += [frame.polys(row) for row in rows]
        per_degree.append(DegreeRegime(m, regime, len(ideal_piece[1]),
                                       rows.shape[0]))
    gens = [v[0] for v in _minimal_generators(curve, TwistedFree((0,)),
                                               candidates)]
    gens.sort(key=lambda g: (g.degree(),
                             tuple(grevlex_key(g.leading_monomial()))),
              reverse=False)
    return ClosureIdeal(generators=tuple(gens), k=slope.k, slope=slope,
                        bound_degree=bound, per_degree=tuple(per_degree))
