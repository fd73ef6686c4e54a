"""Graded free modules and presented graded modules over the cubic cone.

Everything here lives over S = K[x,y,z] or R = S/(F): twisted free modules,
homogeneous maps between them, submodules given by generators, and the
sheaf-level invariants (graded pieces, Hilbert values, rank and degree)
that the bundle layer consumes.  Hilbert values are counts of leading
monomials of the module Groebner basis (Macaulay's theorem), not matrix
ranks.

Module Groebner bases come from the one engine in `tcone.polyring`
(`buchberger_module`, `vec_nf`), in the position-over-term extension of
the fixed degrevlex order, with earlier positions dominant.  The central
tool is an augmented basis ("lift basis") for a generator list: one
elimination computation yields membership tests, expressions of elements
in terms of the generators, and the full syzygy module of the generators.

Every graded piece is linear algebra in one coordinate frame, `PieceFrame`:
the degree-t piece of ⊕ R(a_i) with the monomial bases of the R_(t + a_i)
side by side.
"""

from __future__ import annotations

import numpy as np

from .linalg import nullspace, rref
from .polyring import (CubicCurve, Polynomial, buchberger_module,
                       mono_divides, mono_mul, vec_lt, vec_nf, vec_reducer,
                       vkey)


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


def vec_to_polys(vec, npos, field):
    polys = [dict() for _ in range(npos)]
    for (pos, m), c in vec.items():
        polys[pos][m] = c
    return tuple(Polynomial(field, t) for t in polys)


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


def closing_relations(F, rank):
    """F times each unit vector of a free module of the given rank."""
    return [{(i, m): c for m, c in F.terms.items()} for i in range(rank)]


class LiftBasis:
    """Augmented Groebner basis of a generator list inside a free module.

    For generators v_1..v_s in positions 0..npos-1 and closing relations
    (typically F times each unit vector), computes the basis of the module
    spanned by (v_j, e_j) and (rel, 0) with the generator-coefficient block
    in trailing positions.  Because leading positions dominate, this is an
    elimination order, giving in one computation:

    * membership of a vector in the span of the v_j (over R when the
      relations include F times the units),
    * the coefficients expressing a member in terms of the v_j,
    * a generating set for the syzygies of the v_j.

    The basis is compiled into reducers (vec_reducer) once, here; `reduce`
    and `member` reuse them.
    """

    def __init__(self, vectors, relations, npos, field):
        self.field = field
        self.npos = npos
        self.nvec = len(vectors)
        aug = []
        for j, v in enumerate(vectors):
            w = dict(v)
            w[(npos + j, (0, 0, 0))] = 1
            aug.append(w)
        for r in relations:
            aug.append(dict(r))
        self.basis = buchberger_module(aug, field)
        self.reducers = [vec_reducer(g, field) for g in self.basis]

    def reduce(self, vec):
        return vec_nf(vec, self.reducers, self.field)

    def member(self, vec):
        """Coefficients on the generators when vec lies in their span, else None."""
        r = self.reduce(vec)
        if any(pos < self.npos for (pos, _m) in r):
            return None
        coeffs = [dict() for _ in range(self.nvec)]
        for (pos, m), c in r.items():
            coeffs[pos - self.npos][m] = self.field.neg(c)
        return tuple(Polynomial(self.field, t) for t in coeffs)

    def block1_gb(self):
        """Reduced Groebner basis of the span itself (coefficient block
        dropped); elements led from the coefficient block are syzygies and
        do not contribute."""
        out = []
        for g in self.basis:
            b1 = {t: c for t, c in g.items() if t[0] < self.npos}
            if b1 and vec_lt(b1) == vec_lt(g):
                out.append(b1)
        return out

    def syzygies(self):
        """Coefficient vectors (h_1..h_s) with sum h_j v_j = 0 modulo the relations."""
        out = []
        for g in self.basis:
            if any(pos < self.npos for (pos, _m) in g):
                continue
            coeffs = [dict() for _ in range(self.nvec)]
            for (pos, m), c in g.items():
                coeffs[pos - self.npos][m] = c
            out.append(tuple(Polynomial(self.field, t) for t in coeffs))
        return out


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

    def _fill(self, row, polys):
        for off, index, poly in zip(self.offsets, self.index, polys):
            for m, c in poly.terms.items():
                row[off + index[m]] = c

    def coords(self, polys) -> np.ndarray:
        """Coordinate row of a vector given as one polynomial per position."""
        row = np.zeros(self.width, dtype=np.int64)
        self._fill(row, polys)
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

        The rows come vector by vector, mu in `piece_monomials` order, and
        are written into one preallocated array; zero vectors and vectors
        of degree above t contribute none.
        """
        curve = self.curve
        shifts = []
        for v in vectors:
            d = vector_degree(v, self.twists)
            if d is not None:
                shifts.append((v, curve.piece_monomials(self.t - d)))
        rows = np.zeros((sum(len(mus) for _, mus in shifts), self.width),
                        dtype=np.int64)
        r = 0
        for v, mus in shifts:
            for mu in mus:
                self._fill(rows[r], [curve.nf(p.term_mul(mu, 1)) if p else p
                                     for p in v])
                r += 1
        return rows


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

    def apply(self, polys):
        """Apply to a source vector given as a tuple of polynomials."""
        field = self.matrix[0][0].field if self.matrix else None
        out = []
        for i in range(self.target.rank):
            acc = Polynomial.zero(field)
            for j in range(self.source.rank):
                if self.matrix[i][j] and polys[j]:
                    acc = acc + self.matrix[i][j] * polys[j]
            out.append(acc)
        return tuple(out)

    def columns(self):
        return [tuple(self.matrix[i][j] for i in range(self.target.rank))
                for j in range(self.source.rank)]


class PresentedModule:
    """A graded module over the cone R, as a submodule of a twisted free.

    Generators are honest vectors in the ambient free module; the module is
    their R-span.
    """

    def __init__(self, curve: CubicCurve, ambient: TwistedFree, vectors,
                 minimalize: bool = False):
        self.curve = curve
        self.field = curve.field
        self.ambient = ambient
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
        self._piece_cache = {}
        self._leads = None
        self._rank_degree = None
        self._relations = None

    # -- structural helpers ------------------------------------------------------

    @property
    def gens(self):
        return self.vectors

    def gen_degrees(self):
        return tuple(vector_degree(v, self.ambient.twists)
                     for v in self.vectors)

    @property
    def lift(self) -> LiftBasis:
        if self._lift is None:
            vecs = [vec_from_polys(v) for v in self.vectors]
            self._lift = LiftBasis(
                vecs, closing_relations(self.curve.F, self.ambient.rank),
                self.ambient.rank, self.field)
        return self._lift

    def contains(self, polys) -> bool:
        return self.lift.member(vec_from_polys(polys)) is not None

    def express(self, polys):
        """Coefficients on the generators for a member vector, or None."""
        return self.lift.member(vec_from_polys(polys))

    def relations(self):
        """Generating syzygies of the generators, over R."""
        if self._relations is None:
            self._relations = tuple(self.lift.syzygies())
        return self._relations

    def groebner_basis(self):
        """Reduced module Groebner basis of the submodule.

        Over R this is the basis of the preimage in the free module, i.e.
        the span of the generators together with F times the ambient units;
        equal submodules produce identical bases.
        """
        gb = [vec_to_polys(v, self.ambient.rank, self.field)
              for v in self.lift.block1_gb()]
        return tuple(gb)

    # -- graded pieces ------------------------------------------------------------

    def frame(self, t: int) -> PieceFrame:
        """Coordinate frame of the ambient degree-t piece."""
        frame = self._frames.get(t)
        if frame is None:
            frame = self._frames[t] = PieceFrame(self.curve,
                                                 self.ambient.twists, t)
        return frame

    def piece_matrix(self, t: int) -> np.ndarray:
        """Reduced row basis of the degree-t piece, in frame(t) coordinates."""
        mat = self._piece_cache.get(t)
        if mat is None:
            mat, _ = rref(self.frame(t).multiples(self.vectors), self.field)
            self._piece_cache[t] = mat
        return mat

    def _lead_table(self):
        """Leading monomials of the preimage's Groebner basis, per position.

        The preimage N of M in ⊕ S(a_i) is spanned by the generators and F
        times the units; its reduced Groebner basis is `lift.block1_gb()`,
        whose leading terms are those of the lift reducers in positions
        below the coefficient block.  Read once and cached.
        """
        if self._leads is None:
            leads = [[] for _ in self.ambient.twists]
            for pos, lm, _, _ in self.lift.reducers:
                if pos < self.ambient.rank:
                    leads[pos].append(lm)
            self._leads = tuple(tuple(ms) for ms in leads)
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

    def piece_basis(self, t: int):
        """K-basis of the degree-t piece as ambient vectors of polynomials."""
        frame = self.frame(t)
        return [frame.polys(row) for row in self.piece_matrix(t)]

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
        other = PresentedModule(curve2, self.ambient, vecs)
        other._leads = self._leads
        other._rank_degree = self._rank_degree
        return other

    def twisted(self, s: int) -> "PresentedModule":
        """M(s): the same generator vectors in ⊕ R(a_i + s).

        The order `vkey` is position over term with no twist weights, so
        the lift basis and the leading-term table are those of M; where M
        has built them they are shared, not rebuilt.  Rank and degree are
        left to be counted (`rank_and_degree`); graded-piece caches start
        empty.
        """
        other = PresentedModule(self.curve, TwistedFree(
            a + s for a in self.ambient.twists), ())
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

def syzygy_of_map(phi: GradedMap, curve: CubicCurve) -> PresentedModule:
    """Kernel of a homogeneous map between twisted frees over R.

    Syzygies are computed over S for the columns together with F times the
    target units; the coefficient block of the elimination basis then
    generates the kernel over R.
    """
    cols = [vec_from_polys(c) for c in phi.columns()]
    lift = LiftBasis(cols, closing_relations(curve.F, phi.target.rank),
                     phi.target.rank, curve.field)
    gens = lift.syzygies()
    return PresentedModule(curve, phi.source, gens, minimalize=True)


def free_module(curve: CubicCurve, twists) -> PresentedModule:
    """⊕ R(a_i) as a presented module (generated by the unit vectors)."""
    amb = TwistedFree(twists)
    one = Polynomial.constant(curve.field, 1)
    zero = Polynomial.zero(curve.field)
    gens = [tuple(one if j == i else zero for j in range(amb.rank))
            for i in range(amb.rank)]
    return PresentedModule(curve, amb, gens)


class ModuleHom:
    """A degree-d homomorphism between presented modules, by generator images."""

    __slots__ = ("domain", "codomain", "images", "degree")

    def __init__(self, domain: PresentedModule, codomain: PresentedModule,
                 images, degree: int = 0):
        self.domain = domain
        self.codomain = codomain
        self.images = tuple(images)
        self.degree = degree

    def apply(self, polys):
        """Image of an ambient vector lying in the domain."""
        coeffs = self.domain.express(polys)
        if coeffs is None:
            raise ValueError("vector does not lie in the domain module")
        curve = self.codomain.curve
        out = [Polynomial.zero(curve.field)
               for _ in range(self.codomain.ambient.rank)]
        for c, img in zip(coeffs, self.images):
            if not c:
                continue
            for i, p in enumerate(img):
                if p:
                    out[i] = out[i] + c * p
        return tuple(curve.nf(p) for p in out)

    def compose(self, other: "ModuleHom") -> "ModuleHom":
        """self after other (other's codomain must be self's domain)."""
        images = [self.apply(img) for img in other.images]
        return ModuleHom(other.domain, self.codomain, images,
                         self.degree + other.degree)

    def __repr__(self):
        return (f"ModuleHom(deg {self.degree}, "
                f"{len(self.images)} generator images)")


def image_conditions(N: PresentedModule, coeffs, blocks, t: int) -> np.ndarray:
    """Matrix of the map (w_u) -> sum_u coeffs[u] * w_u into N_t.

    Each unknown w_u is a combination of the vectors blocks[u] of N.  The
    columns stand for those vectors, block after block: the column of
    v = blocks[u][b] holds the frame(t) coordinates of nf(coeffs[u] * v).
    """
    frame = N.frame(t)
    nf = N.curve.nf
    cols = np.zeros((frame.width, sum(len(b) for b in blocks)),
                    dtype=np.int64)
    j = 0
    for h, block in zip(coeffs, blocks):
        if h:
            for b, img in enumerate(block):
                cols[:, j + b] = frame.coords([nf(h * p) for p in img])
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


def hom_space(M: PresentedModule, N: PresentedModule, degree: int = 0):
    """K-basis of the degree-d homomorphisms M -> N.

    A homomorphism is a choice of images of M's generators in the matching
    graded pieces of N, compatible with every generating syzygy of M; the
    compatible choices form the nullspace of one exact linear system.
    """
    if M.curve is not N.curve and M.curve.F != N.curve.F:
        raise ValueError("modules live over different cones")
    field = M.field
    gdegs = M.gen_degrees()
    # per generator: basis of N_(deg + d)
    blocks = [N.piece_basis(dg + degree) for dg in gdegs]
    total = sum(len(b) for b in blocks)
    if total == 0:
        return []
    # a generating syzygy of M lies in ⊕ R(-deg g_l); its image must vanish
    rel_twists = [-dg for dg in gdegs]
    conditions = [np.zeros((0, total), dtype=np.int64)]
    for rel in M.relations():
        rel_deg = vector_degree(rel, rel_twists)
        if rel_deg is not None:
            conditions.append(image_conditions(N, rel, blocks,
                                               rel_deg + degree))
    homs = []
    for sol in nullspace(np.concatenate(conditions), field):
        images = []
        j = 0
        for block in blocks:
            images.append(combine_vectors(N, sol[j:j + len(block)], block))
            j += len(block)
        homs.append(ModuleHom(M, N, images, degree))
    return homs


class HomModule:
    """Hom_R(M, N) with an eager degree-0 basis and a lazy module presentation."""

    def __init__(self, M: PresentedModule, N: PresentedModule):
        self.domain = M
        self.codomain = N
        self.degree0 = hom_space(M, N, 0)
        self._module = None

    @property
    def module(self) -> PresentedModule:
        if self._module is None:
            self._module = self._build_module()
        return self._module

    def _build_module(self):
        """Present Hom(M, N) as a submodule of a twisted free module.

        A homomorphism is a tuple (w_1..w_s) of elements of N annihilated
        by M's syzygies; the kernel of that evaluation map is computed by
        one more syzygy elimination.
        """
        M, N = self.domain, self.codomain
        curve = M.curve
        field = M.field
        gdegs = M.gen_degrees()
        s = len(gdegs)
        rels = M.relations()
        namb = N.ambient.rank
        # ambient of the Hom module: one copy of N's ambient per M-generator,
        # twisted so that a degree-0 element sends g_l into N_(delta_l)
        twists = []
        for dg in gdegs:
            twists.extend(b + dg for b in N.ambient.twists)
        amb = TwistedFree(twists)
        # target free module: one copy of N's ambient per relation
        ntarget = len(rels) * namb
        # spanning vectors of ⊕_l N(-delta_l): iota_l(nu) over N's generators
        dom_vecs = []
        images = []
        for l in range(s):
            for nu in N.gens:
                dom = {}
                for i, p in enumerate(nu):
                    for m, c in p.terms.items():
                        dom[(l * namb + i, m)] = c
                dom_vecs.append(dom)
                img = {}
                for k, rel in enumerate(rels):
                    h = rel[l]
                    if not h:
                        continue
                    for i, p in enumerate(nu):
                        prod = curve.nf(h * p)
                        for m, c in prod.terms.items():
                            t = (k * namb + i, m)
                            img[t] = field.add(img.get(t, 0), c)
                images.append({t: c for t, c in img.items() if c})
        lift = LiftBasis(images, closing_relations(curve.F, ntarget),
                         max(ntarget, 1), field)
        gens = []
        for syz in lift.syzygies():
            vec = {}
            for idx, coeff in enumerate(syz):
                if not coeff:
                    continue
                for t, c in dom_vecs[idx].items():
                    pos, m = t
                    for mm, cc in coeff.terms.items():
                        key = (pos, mono_mul(m, mm))
                        s_ = field.add(vec.get(key, 0), field.mul(c, cc))
                        if s_:
                            vec[key] = s_
                        else:
                            vec.pop(key, None)
            if vec:
                gens.append(vec_to_polys(vec, amb.rank, field))
        return PresentedModule(curve, amb, gens)


def image_presentation(e: ModuleHom, M: PresentedModule) -> PresentedModule:
    """Submodule of M's ambient generated by e(generators of M)."""
    if e.domain is not M:
        raise ValueError("endomorphism does not act on the given module")
    return PresentedModule(M.curve, e.codomain.ambient, list(e.images),
                           minimalize=True)
