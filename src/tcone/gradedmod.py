"""Graded free modules and presented graded modules over the cubic cone.

Everything here lives over S = K[x,y,z] or R = S/(F): twisted free modules,
homogeneous maps between them, submodules given by generators, and the
sheaf-level invariants (graded pieces, Hilbert values, rank and degree)
that the bundle layer consumes.  Hilbert values are counts of leading
monomials of a module Groebner basis (Macaulay's theorem), not matrix
ranks.

Module Groebner bases come from the one engine in `tcone.polyring`
(`buchberger_module`, `vec_nf`, `LiftBasis`), in the position-over-term
extension of the fixed degrevlex order, with earlier positions dominant.
A kernel needs one augmented basis of the map's columns: its
coefficient-block elements generate the kernel over R and are the reduced
Groebner basis of its preimage, so they also give the kernel's leading
terms (`syzygy_module`).  For an ideal that basis is the ideal's own
(`IdealData.lift`), shared by every twist of its syzygy bundle.

Everything else is linear algebra in one coordinate frame, `PieceFrame`:
the degree-t piece of ⊕ R(a_i) with the monomial bases of the R_(t + a_i)
side by side.  Its rows (`shifts`, `multiples`, `times`) are gathered
from the curve's normal-form tables, never reduced one at a time.  A
module's generator multiples at degree t (`PresentedModule.multiples`)
give its graded piece (their rref), `express` (one solve) and, at the one
degree `relation_degree`, the relations that the Hom conditions need
(`hom_system`).  For a reflexive module, such as a syzygy module, that
degree is max b + 2, so no such module builds a second Groebner basis.
"""

from __future__ import annotations

from itertools import groupby

import numpy as np

from .linalg import nullspace, rref, solve
# buchberger_module, vec_nf and vec_reducer are the engine's, reached
# through this module by the tests and by perfbench/tracer.py
from .polyring import (CubicCurve, LiftBasis, Polynomial,
                       buchberger_module, closing_relations, mono_divides,
                       vec_lt, vec_nf, vec_reducer, vkey)


class TwistedFree:
    """A free module ⊕ R(a_i), recorded by its twist sequence."""

    __slots__ = ("twists",)

    def __init__(self, twists):
        self.twists = tuple(int(a) for a in twists)

    @property
    def rank(self):
        return len(self.twists)

    def __eq__(self, other):
        return isinstance(other, TwistedFree) and self.twists == other.twists

    def __hash__(self):
        return hash(self.twists)

    def __repr__(self):
        return "(+)R" + "".join(f"({a})" for a in self.twists)


# ---------------------------------------------------------------------------
# module vectors: dict {(position, monomial): coefficient code}
# ---------------------------------------------------------------------------

def vec_from_polys(polys):
    out = {}
    for pos, poly in enumerate(polys):
        if poly is None:
            continue
        for m, c in poly.terms.items():
            out[(pos, m)] = c
    return out


def vector_degree(polys, twists):
    """Degree of a homogeneous vector of ⊕ R(a_i), given as polynomials.

    A component of polynomial degree e at a position twisted by a sits in
    R(a)_(e-a), so the first nonzero component gives the vector degree.
    None for the zero vector.
    """
    for p, a in zip(polys, twists):
        if p:
            return p.degree() - a
    return None


class PieceFrame:
    """Coordinates on the degree-t piece of a twisted free module ⊕ R(a_i).

    Position i contributes the monomial basis of R_(t + a_i)
    (`CubicCurve.piece_monomials`), starting at column offsets[i]; a
    position with t + a_i < 0 contributes nothing.  Polynomials must be
    reduced modulo F and homogeneous of the matching degree.
    """

    __slots__ = ("curve", "twists", "t", "monos", "index", "offsets", "width")

    def __init__(self, curve: CubicCurve, twists, t: int):
        self.curve = curve
        self.twists = tuple(twists)
        self.t = t
        self.monos = [curve.piece_monomials(t + a) for a in self.twists]
        self.index = [curve.piece_index(t + a) for a in self.twists]
        self.offsets = []
        width = 0
        for ms in self.monos:
            self.offsets.append(width)
            width += len(ms)
        self.width = width

    def coords(self, polys) -> np.ndarray:
        """Coordinate row of a vector given as one polynomial per position."""
        row = np.zeros(self.width, dtype=np.int64)
        for off, index, poly in zip(self.offsets, self.index, polys):
            for m, c in poly.terms.items():
                row[off + index[m]] = c
        return row

    def polys(self, row):
        """The vector, one polynomial per position, of a coordinate row."""
        field = self.curve.field
        out = []
        for off, ms in zip(self.offsets, self.monos):
            terms = {}
            for i, m in enumerate(ms):
                c = int(row[off + i])
                if c:
                    terms[m] = c
            out.append(Polynomial(field, terms))
        return tuple(out)

    def multiples(self, vectors) -> np.ndarray:
        """Rows nf(mu * v) for each vector v and each mu in R_(t - deg v).

        The rows come vector by vector, mu in `piece_monomials` order; zero
        vectors and vectors of degree above t contribute none.  Each vector
        is reduced once, and each run of vectors of equal degree is one
        `shifts` of their coordinate rows into this frame.
        """
        curve = self.curve
        parts = [np.zeros((0, self.width), dtype=np.int64)]
        degrees = [(vector_degree(v, self.twists), v) for v in vectors]
        for d, run in groupby([dv for dv in degrees if dv[0] is not None],
                              key=lambda dv: dv[0]):
            frame = PieceFrame(curve, self.twists, d)
            rows = np.array([frame.coords([curve.nf(p) for p in v])
                             for _, v in run])
            shifted = frame.shifts(rows, self)
            parts.append(shifted.transpose(1, 0, 2).reshape(
                len(shifted) * len(rows), self.width))
        return np.concatenate(parts)

    def times(self, form: Polynomial) -> np.ndarray:
        """Matrix of multiplication by a homogeneous form.

        Row r is nf(form * e_r) for the r-th basis vector e_r of this frame
        (monomial mu in position i), in the coordinates of the frame of
        degree t + deg(form) on the same twists.  Per ambient position it
        is the reduced form's coordinates contracted with
        `CubicCurve.products`; positions of equal twist share one matrix.
        """
        curve, field = self.curve, self.curve.field
        e = form.degree()
        target = PieceFrame(curve, self.twists, self.t + e)
        out = np.zeros((self.width, target.width), dtype=np.int64)
        coords = PieceFrame(curve, (0,), e).coords((curve.nf(form),))
        mats = {}
        for a, start, ms, off in zip(self.twists, self.offsets, self.monos,
                                     target.offsets):
            if ms and coords.any():
                if a not in mats:
                    products = curve.products(e, self.t + a)
                    mats[a] = field.matmul(coords[None, :], products.reshape(
                        len(coords), -1)).reshape(len(ms), -1)
                out[start:start + len(ms), off:off + mats[a].shape[1]] = \
                    mats[a]
        return out

    def shifts(self, rows, target: "PieceFrame") -> np.ndarray:
        """Every monomial multiple of coordinate rows, in a higher frame.

        rows are coordinate rows of this frame, and target is the frame of
        degree t >= self.t on the same twists.  Entry [mu, r] of the
        returned (dim R_(t - self.t), len(rows), target.width) array is
        the coordinate row of mu * rows[r], mu in piece_monomials(t -
        self.t).  Per ambient position that is one gather of
        `CubicCurve.products` and one matmul; positions of equal twist
        share the gather.
        """
        curve = self.curve
        e = target.t - self.t
        out = np.zeros((curve.piece_dim(e), len(rows), target.width),
                       dtype=np.int64)
        if out.size:
            products = {}
            for a, start, ms, off in zip(self.twists, self.offsets,
                                         self.monos, target.offsets):
                if ms:
                    if a not in products:
                        products[a] = curve.products(e, self.t + a)
                    image = curve.field.matmul(
                        rows[:, start:start + len(ms)], products[a])
                    out[:, :, off:off + image.shape[2]] = image
        return out


def _minimal_generators(curve, ambient, vectors):
    """Prune a sorted homogeneous generator list to a minimal one.

    Graded Nakayama: a generator is redundant exactly when it lies in the
    span, at its own degree, of multiples of the generators kept so far and
    of the earlier generators of that degree.  Per degree that is one rref
    of the transposed stack [multiples; generators]: a generator is kept
    exactly when its column is a pivot, i.e. lies outside the span of the
    columns before it.
    """
    kept = []
    i = 0
    while i < len(vectors):
        d = vector_degree(vectors[i], ambient.twists)
        j = i
        while j < len(vectors) and \
                vector_degree(vectors[j], ambient.twists) == d:
            j += 1
        frame = PieceFrame(curve, ambient.twists, d)
        multiples = frame.multiples(kept)
        group = vectors[i:j]
        stack = np.vstack([multiples] + [frame.coords(v) for v in group])
        pivots = set(rref(stack.T, curve.field)[1])
        kept += [v for k, v in enumerate(group, len(multiples))
                 if k in pivots]
        i = j
    return kept


class GradedMap:
    """Homogeneous map between twisted free modules.

    Entry (i, j) multiplies source coordinate j into target coordinate i,
    so it is homogeneous of degree target.twists[i] - source.twists[j]
    (zero entries allowed).
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: TwistedFree, target: TwistedFree, matrix):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(row) for row in matrix)
        if len(self.matrix) != target.rank:
            raise ValueError("matrix row count must equal target rank")
        for i, row in enumerate(self.matrix):
            if len(row) != source.rank:
                raise ValueError("matrix column count must equal source rank")
            for j, entry in enumerate(row):
                if entry.is_zero():
                    continue
                want = target.twists[i] - source.twists[j]
                if not entry.is_homogeneous() or entry.degree() != want:
                    raise ValueError(
                        f"entry ({i},{j}) must be homogeneous of degree {want}")

    def columns(self):
        return [tuple(self.matrix[i][j] for i in range(self.target.rank))
                for j in range(self.source.rank)]


class PresentedModule:
    """A graded module over the cone R, as a submodule of a twisted free.

    Generators are honest vectors in the ambient free module; the module is
    their R-span.  Its graded pieces, `express` and the Hom conditions
    share one matrix per degree, the generator multiples (`multiples`).

    reflexive says that the module is known to be reflexive: free modules,
    kernels of maps between them (`syzygy_module`) and their twists and
    base changes are.  It only decides how `relation_degree` bounds the
    degrees of the relations among the generators.
    """

    def __init__(self, curve: CubicCurve, ambient: TwistedFree, vectors,
                 minimalize: bool = False, reflexive: bool = False):
        self.curve = curve
        self.field = curve.field
        self.ambient = ambient
        self.reflexive = reflexive
        cleaned = []
        for v in vectors:
            nf = tuple(curve.nf(p) for p in v)
            if any(nf):
                d = vector_degree(nf, ambient.twists)
                if any(p and (not p.is_homogeneous() or p.degree() - a != d)
                       for p, a in zip(nf, ambient.twists)):
                    raise ValueError("vector is not homogeneous")
                cleaned.append((d, vkey(vec_lt(vec_from_polys(nf))), nf))
        # canonical generator order: by degree, then leading term
        cleaned.sort(key=lambda k: k[:2])
        cleaned = [v for _, _, v in cleaned]
        if minimalize:
            cleaned = _minimal_generators(curve, ambient, cleaned)
        self.vectors = tuple(cleaned)
        self._lift = None
        self._frames = {}
        self._multiples = {}
        self._piece_cache = {}
        self._leads = None
        self._rank_degree = None
        self._relation_degree = None

    # -- structural helpers ------------------------------------------------------

    @property
    def gens(self):
        return self.vectors

    def gen_degrees(self):
        return tuple(vector_degree(v, self.ambient.twists)
                     for v in self.vectors)

    @property
    def lift(self) -> LiftBasis:
        """The module's own augmented basis.  Syzygy modules never build
        it (their leading terms come from the map's basis); it serves the
        leading-term table of other modules."""
        if self._lift is None:
            vecs = [vec_from_polys(v) for v in self.vectors]
            self._lift = LiftBasis(
                vecs, closing_relations(self.curve.F, self.ambient.rank),
                self.ambient.rank, self.field)
        return self._lift

    def relation_degree(self) -> int:
        """A degree T such that the relations among the generators, the
        kernel K of ⊕ R(-b_l) -> M, are generated in degrees <= T.

        max b + 2 for a reflexive module (`hom_system` proves it).  For
        any other module K need not be generated there: for M = (x^3, y^3)
        in R, K is R(-6), with max b + 2 = 5.  So its top degree is read
        off K's minimal generators, from one augmented basis of the
        generators (`syzygy_of_map`); max b when K is zero.
        """
        if self._relation_degree is None:
            gdegs = self.gen_degrees()
            if self.reflexive:
                T = max(gdegs, default=0) + 2
            else:
                rank = self.ambient.rank
                phi = GradedMap(TwistedFree(-d for d in gdegs), self.ambient,
                                [[v[i] for v in self.vectors]
                                 for i in range(rank)])
                T = max(syzygy_of_map(phi, self.curve).gen_degrees(),
                        default=max(gdegs, default=0))
            self._relation_degree = T
        return self._relation_degree

    def multiples(self, t: int) -> np.ndarray:
        """Rows mu * g for each generator g and each mu in R_(t - deg g):
        `frame(t).multiples(self.vectors)`, cached per degree."""
        mat = self._multiples.get(t)
        if mat is None:
            mat = self._multiples[t] = self.frame(t).multiples(self.vectors)
        return mat

    def express_rows(self, t: int, rows):
        """Solutions x of x @ multiples(t) = row for coordinate rows of
        frame(t): one `solve`, a list with None where a row is not in M_t."""
        return solve(self.multiples(t).T, np.asarray(rows).T, self.field)

    def express(self, polys):
        """Coefficients on the generators of a vector of M, or None.

        The vector is reduced modulo F and split into homogeneous parts.
        With x = `express_rows` at a part's degree t, generator g gets the
        sum of x_(g, mu) mu over its rows in `multiples(t)`.
        """
        field, twists = self.field, self.ambient.twists
        parts = {}
        for i, (p, a) in enumerate(zip(polys, twists)):
            for m, c in self.curve.nf(p).terms.items():
                comps = parts.setdefault(sum(m) - a, [{} for _ in twists])
                comps[i][m] = c
        coeffs = [{} for _ in self.vectors]
        for t, comps in sorted(parts.items()):
            row = self.frame(t).coords([Polynomial(field, c) for c in comps])
            (x,) = self.express_rows(t, row[None, :])
            if x is None:
                return None
            r = 0
            for terms, d in zip(coeffs, self.gen_degrees()):
                mus = self.curve.piece_monomials(t - d)
                terms.update((mu, int(c))
                             for mu, c in zip(mus, x[r:r + len(mus)]) if c)
                r += len(mus)
        return tuple(Polynomial(field, terms) for terms in coeffs)

    # -- graded pieces ------------------------------------------------------------

    def frame(self, t: int) -> PieceFrame:
        """Coordinate frame of the ambient degree-t piece."""
        frame = self._frames.get(t)
        if frame is None:
            frame = self._frames[t] = PieceFrame(self.curve,
                                                 self.ambient.twists, t)
        return frame

    def piece_matrix(self, t: int) -> np.ndarray:
        """Reduced row basis of the degree-t piece, in frame(t) coordinates:
        the rref of `multiples(t)`."""
        mat = self._piece_cache.get(t)
        if mat is None:
            mat, _ = rref(self.multiples(t), self.field)
            self._piece_cache[t] = mat
        return mat

    def _lead_table(self):
        """Leading monomials of the preimage's Groebner basis, per position.

        The preimage N of M in ⊕ S(a_i) is spanned by the generators and F
        times the units.  A syzygy module is given the leading terms of N
        by `syzygy_module`; for any other module they are read once off
        its own lift, from the reducers in positions below the coefficient
        block.
        """
        if self._leads is None:
            self._leads = self.lift.lead_table(0, self.ambient.rank)
        return self._leads

    def piece_dim(self, t: int) -> int:
        """dim M_t, counted from leading terms (Macaulay's theorem).

        dim M_t = Σ_i dim R_(t + a_i) − #(standard monomials of N of degree
        t + a_i in position i).  F times each unit lies in N, so every
        standard monomial is a basis monomial of R (`piece_monomials`), and
        position i contributes the basis monomials of R_(t + a_i) that some
        leading monomial in position i divides.  No matrix is built.
        """
        dim = 0
        for a, leads in zip(self.ambient.twists, self._lead_table()):
            for m in self.curve.piece_monomials(t + a):
                for lm in leads:
                    if mono_divides(lm, m):
                        dim += 1
                        break
        return dim

    # -- sheaf invariants -----------------------------------------------------------

    def rank_and_degree(self):
        """(rank, degree) of the associated sheaf from Hilbert linearity.

        Probes three consecutive degrees where dim M_t = 3*rank*t + degree
        must hold exactly; the starting point doubles once if linearity
        fails, after which a failure is an error.  The Hilbert values are
        leading-term counts (`piece_dim`), so the probe fills no
        `piece_matrix` cache.
        """
        if self._rank_degree is not None:
            return self._rank_degree
        degs = self.gen_degrees()
        base = (max(degs) if degs else 0) + self.ambient.rank + 3
        seen = []
        for t0 in (base, 2 * base):
            h = [self.piece_dim(t0 + i) for i in range(3)]
            d1, d2 = h[1] - h[0], h[2] - h[1]
            if d1 == d2 and d1 % 3 == 0:
                rank = d1 // 3
                degree = h[0] - 3 * rank * t0
                self._rank_degree = (rank, degree)
                return self._rank_degree
            seen.append(f"{h} at t = {t0}..{t0 + 2}")
        raise ArithmeticError(
            "Hilbert values are not linear at the probed degrees "
            f"({'; '.join(seen)}); module is not the section module of a "
            "locally free sheaf")

    # -- base change ------------------------------------------------------------------

    def embedded(self, curve2: CubicCurve, embed_fn) -> "PresentedModule":
        """The same module after coefficient embedding into a larger field.

        Generator vectors and the cached leading-term table stay valid
        verbatim because reduced Groebner bases are stable under base field
        extension; so do rank and degree.
        """
        vecs = [tuple(p.map_coefficients(curve2.field, embed_fn) for p in v)
                for v in self.vectors]
        other = PresentedModule(curve2, self.ambient, vecs,
                                reflexive=self.reflexive)
        other._leads = self._leads
        other._rank_degree = self._rank_degree
        return other

    def twisted(self, s: int) -> "PresentedModule":
        """M(s): the same generator vectors in ⊕ R(a_i + s).

        The order `vkey` is position over term with no twist weights, so
        the lift basis and the leading-term table are those of M; where M
        has them they are shared, not rebuilt.  Rank and degree are left
        to be counted (`rank_and_degree`); graded-piece caches start
        empty.
        """
        other = PresentedModule(self.curve, TwistedFree(
            a + s for a in self.ambient.twists), (),
                                reflexive=self.reflexive)
        other.vectors = self.vectors
        other._lift = self._lift
        other._leads = self._leads
        return other

    def __repr__(self):
        return (f"PresentedModule(ambient={self.ambient!r}, "
                f"{len(self.vectors)} vectors)")


# ---------------------------------------------------------------------------
# the module-level operations
# ---------------------------------------------------------------------------

def syzygy_module(lift: LiftBasis, source: TwistedFree,
                  curve: CubicCurve) -> PresentedModule:
    """The kernel over R read off an augmented basis of a map's columns.

    lift is the `LiftBasis` of the columns of a map into ⊕ R(b_i), closed
    by F times the target units, and source is the map's domain.  Its
    elements led in the coefficient block generate the kernel over R;
    they are pruned to a minimal generating set (`_minimal_generators`).
    They are also the reduced Groebner basis of N, the kernel's preimage
    in ⊕ S(a_j): N = {s : the image of s lies in F ⊕ S(b_i)}, and the
    coefficient block comes last in the elimination order.  So their
    leading monomials are the module's leading-term table, and its
    Hilbert values need no basis of its own.  A kernel of a map of free
    modules over the normal domain R is reflexive.
    """
    M = PresentedModule(curve, source, lift.syzygies(), minimalize=True,
                        reflexive=True)
    M._leads = lift.lead_table(lift.npos, source.rank)
    return M


def syzygy_of_map(phi: GradedMap, curve: CubicCurve) -> PresentedModule:
    """Kernel of a homogeneous map between twisted frees over R.

    Syzygies are computed over S for the columns together with F times the
    target units, in one augmented basis (`LiftBasis`); `syzygy_module`
    reads the kernel and its leading terms off it.
    """
    cols = [vec_from_polys(c) for c in phi.columns()]
    lift = LiftBasis(cols, closing_relations(curve.F, phi.target.rank),
                     phi.target.rank, curve.field)
    return syzygy_module(lift, phi.source, curve)


def free_module(curve: CubicCurve, twists) -> PresentedModule:
    """⊕ R(a_i) as a presented module (generated by the unit vectors)."""
    amb = TwistedFree(twists)
    one = Polynomial.constant(curve.field, 1)
    zero = Polynomial.zero(curve.field)
    gens = [tuple(one if j == i else zero for j in range(amb.rank))
            for i in range(amb.rank)]
    return PresentedModule(curve, amb, gens, reflexive=True)


class ModuleHom:
    """A degree-zero homomorphism between presented modules, by generator
    images; one of degree d into N is a degree-zero one into N.twisted(d)."""

    __slots__ = ("domain", "codomain", "images")

    def __init__(self, domain: PresentedModule, codomain: PresentedModule,
                 images):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)

    def __repr__(self):
        return f"ModuleHom({len(self.images)} generator images)"


def image_conditions(N: PresentedModule, coeffs, blocks, t: int) -> np.ndarray:
    """Matrix of the map (w_u) -> sum_u coeffs[u] * w_u into N_t.

    Each unknown w_u is a combination of the rows of blocks[u], coordinate
    rows in N.frame(d_u) with d_u = t - deg coeffs[u].  The columns stand
    for those rows, block after block: the column of a row v holds the
    frame(t) coordinates of nf(coeffs[u] * v), one product of the block
    with the matrix of multiplication by coeffs[u] (`PieceFrame.times`).
    """
    field = N.field
    cols = np.zeros((N.frame(t).width, sum(len(b) for b in blocks)),
                    dtype=np.int64)
    j = 0
    for h, block in zip(coeffs, blocks):
        if h and len(block):
            image = field.matmul(block, N.frame(t - h.degree()).times(h))
            cols[:, j:j + len(block)] = image.T
        j += len(block)
    return cols


def combine_vectors(N: PresentedModule, coeffs, vectors):
    """nf(Σ_k coeffs[k] · vectors[k]) for vectors of N's ambient module.

    Coefficients are field codes; the sum is taken position by position in
    the order of the vectors, and each position is then reduced modulo F.
    """
    acc = [Polynomial.zero(N.field) for _ in range(N.ambient.rank)]
    for c, vec in zip(coeffs, vectors):
        c = int(c)
        if c:
            for i, p in enumerate(vec):
                if p:
                    acc[i] = acc[i] + p.scale(c)
    return tuple(N.curve.nf(p) for p in acc)


def hom_system(M: PresentedModule, N: PresentedModule):
    """(blocks, rows): the linear system of degree-zero homs M -> N.

    The image w_l of M's generator g_l, of degree b_l, ranges over the
    span of blocks[l], the basis rows of N_(b_l) (`piece_matrix`).  The
    w_l define a hom exactly when sum_l rho_l w_l = 0 for every rho in K,
    the kernel of ⊕ R(-b_l) -> M.  rows holds these conditions at the one
    degree T = `M.relation_degree()`, where K_T is the left kernel of M's
    generator multiples (`PresentedModule.multiples`): a kernel row kappa
    asks sum_(l, mu) kappa_(l, mu) mu w_l = 0 in N_T, and mu w_l ranges
    over the shifted block (`PieceFrame.shifts`).  No condition is built
    when every block is empty.

    The conditions at T are those of all of K once K is generated in
    degrees <= T: a relation rho of degree t < T is killed once
    l^(T - t) rho is, for a linear form l nonzero in R, since
    l^(T - t) sum_l rho_l w_l = 0 in the torsion-free N and R is a domain.
    For a module not known to be reflexive, `relation_degree` reads T off
    K's generators.  For M reflexive, as syzygy modules are on the normal
    surface Spec R, T = max b + 2 suffices.  Let C be the curve.

    * K is reflexive too: a kernel into a torsion-free module has depth 2.
      So K = ⊕_t H^0(K~(t)), and likewise M_t = H^0(M~(t)).  This is where
      M must be reflexive: for M = (x^3, y^3), M_3 is not H^0(M~(3)) = R_3.
    * ⊕ R_(t - b_l) -> M_t is onto, so 0 -> K~ -> ⊕ O_C(-b_l) -> M~ -> 0
      embeds H^1(K~(t)) in ⊕ H^1(O_C(t - b_l)), which is 0 for
      t >= max b + 1 (genus 1).  So H^1(K~(T - 1)) = 0: K~ is
      T-regular in the sense of Castelnuovo-Mumford, H^0(K~(t)) times R_1
      spans H^0(K~(t + 1)) for t >= T, and K is generated in degrees <= T.
    """
    field = M.field
    gdegs = M.gen_degrees()
    blocks = [N.piece_matrix(dg) for dg in gdegs]
    rows = []
    if any(len(b) for b in blocks):
        T = M.relation_degree()
        kernel = nullspace(M.multiples(T).T, field)
        target = N.frame(T)
        parts = []
        r = 0
        for dg, block in zip(gdegs, blocks):
            n = M.curve.piece_dim(T - dg)
            shifted = N.frame(dg).shifts(block, target).reshape(n, -1)
            cond = field.matmul(kernel[:, r:r + n], shifted)
            parts.append(cond.reshape(len(kernel), len(block), target.width)
                         .transpose(0, 2, 1)
                         .reshape(len(kernel) * target.width, len(block)))
            r += n
        block = np.hstack(parts)
        if block.shape[0]:
            rows.append(block)
    return blocks, rows


def hom_space(M: PresentedModule, N: PresentedModule):
    """K-basis of the degree-zero homomorphisms M -> N: the nullspace of
    `hom_system`.  Hom(M, N)_d is hom_space(M, N.twisted(d)).

    Any M is allowed.  For a module not flagged reflexive
    (`PresentedModule.reflexive`) the relations' degree bound costs one
    augmented Groebner basis of M's generators (`relation_degree`); for
    syzygy modules and free modules it costs nothing.
    """
    if M.curve is not N.curve and M.curve.F != N.curve.F:
        raise ValueError("modules live over different cones")
    blocks, rows = hom_system(M, N)
    total = sum(len(b) for b in blocks)
    if total == 0:
        return []
    sols = nullspace(np.concatenate(
        [np.zeros((0, total), dtype=np.int64)] + rows), M.field)
    images = []
    j = 0
    for dg, block in zip(M.gen_degrees(), blocks):
        frame = N.frame(dg)
        images.append([frame.polys(row) for row in
                       M.field.matmul(sols[:, j:j + len(block)], block)])
        j += len(block)
    return [ModuleHom(M, N, imgs) for imgs in zip(*images)]


def image_presentation(e: ModuleHom, M: PresentedModule) -> PresentedModule:
    """Submodule of M's ambient generated by e(generators of M)."""
    if e.domain is not M:
        raise ValueError("endomorphism does not act on the given module")
    return PresentedModule(M.curve, e.codomain.ambient, list(e.images),
                           minimalize=True)
