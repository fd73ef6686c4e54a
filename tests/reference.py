"""Reference implementations that the tests compare the library against.

Kept out of `tcone` because the pipeline never calls them:

* `HomModule` presents Hom(M, N) as a module by one syzygy elimination,
  building its evaluation map as nf(h * p) product by product; its degree
  pieces are an independent route to `hom_space`.
* `groebner_basis` reads the reduced module Groebner basis of a submodule
  off its lift basis (`block1_gb`), for comparing submodules.
* `reference_image_conditions` builds each column of
  `gradedmod.image_conditions` as nf(h * p) from polynomial blocks, where
  the library takes one matrix product per block and position.

* `relations`, `express` and `contains` answer from the module's own
  lift basis (a second module Groebner basis), and `reference_hom_system`
  imposes the Hom conditions relation by relation, at every generating
  relation's degree; the library uses the generator multiples and the
  relations at one degree instead.

* `apply_map`, `apply_hom`, `compose` and `piece_basis` evaluate maps
  and list graded pieces as polynomial vectors, for tests that check the
  library's matrices against the maps they stand for.
* `reference_multiples` and `reference_times` build
  `PieceFrame.multiples` and `PieceFrame.times` one normal form per row,
  where the library gathers them from the curve's normal-form tables;
  `reference_mult` gathers the matrix of multiplication by a form from
  R_d term by term of the unreduced form, where `PieceFrame.times`
  contracts the reduced form's coordinates with `CubicCurve.products`.
* `reference_products` is `CubicCurve.products` without its cached row
  indices: the monomials of both pieces are listed again on every call.
* `frobenius_system_reference` is `closure._frobenius_system` with
  full-length int64 index arrays: all (row, column, value) triplets are
  built, the fixed columns filtered out of them, and the rows sorted by
  one int64 key per entry; the target's coordinates come from a
  degree-D `PieceFrame`.
* `berlekamp_split_scan` splits off the factors of a squarefree
  polynomial by gcds with b - c over every scalar c of F_q, where
  `algebra._berlekamp_split` takes k * p gcds with traces.
* `as_matrix` stacks rows into a code matrix, also when there are none,
  and `is_local` tells a local End algebra by the dimension of its
  radical; the library needs neither.

`block1_gb`, `groebner_basis`, `relations`, `express`, `contains`,
`apply_map`, `apply_hom`, `compose`, `piece_basis` and `is_local` read as
methods of `LiftBasis`, `GradedMap`, `ModuleHom`, `PresentedModule` and
`EndAlgebra`: they take that object as `self`.
"""

import numpy as np

from tcone.bundle import EndAlgebra
from tcone.closure import _column_table
from tcone.field import udivmod, ugcd, umonic, umul, upowmod, usub, ustrip
from tcone.gradedmod import (GradedMap, LiftBasis, ModuleHom, PieceFrame,
                             PresentedModule, TwistedFree, closing_relations,
                             hom_space, image_conditions, vec_from_polys,
                             vector_degree)
from tcone.linalg import nullspace
from tcone.polyring import CubicCurve, Polynomial, mono_mul, vec_lt


def as_matrix(rows, ncols: int) -> np.ndarray:
    if len(rows) == 0:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64).reshape(len(rows), ncols)


def is_local(self: EndAlgebra) -> bool:
    """Local means no nontrivial idempotents: the quotient by the radical
    is 1-dimensional, a sufficient check."""
    return self.dim - self.radical_rows.shape[0] == 1


def vec_to_polys(vec, npos, field):
    polys = [dict() for _ in range(npos)]
    for (pos, m), c in vec.items():
        polys[pos][m] = c
    return tuple(Polynomial(field, t) for t in polys)


def block1_gb(self: LiftBasis):
    """Reduced Groebner basis of the span itself (coefficient block
    dropped); elements led from the coefficient block are syzygies and
    do not contribute."""
    out = []
    for g in self.basis:
        b1 = {t: c for t, c in g.items() if t[0] < self.npos}
        if b1 and vec_lt(b1) == vec_lt(g):
            out.append(b1)
    return out


def groebner_basis(self: PresentedModule):
    """Reduced module Groebner basis of the submodule.

    Over R this is the basis of the preimage in the free module, i.e.
    the span of the generators together with F times the ambient units;
    equal submodules produce identical bases.
    """
    gb = [vec_to_polys(v, self.ambient.rank, self.field)
          for v in block1_gb(self.lift)]
    return tuple(gb)


def contains(self: PresentedModule, polys) -> bool:
    return self.lift.member(vec_from_polys(polys)) is not None


def express(self: PresentedModule, polys):
    """Coefficients on the generators for a member vector, or None."""
    return self.lift.member(vec_from_polys(polys))


def relations(self: PresentedModule):
    """Generating syzygies of the generators, over R."""
    return tuple(self.lift.syzygies())


def reference_hom_system(M: PresentedModule, N: PresentedModule):
    """(blocks, rows): the linear system of degree-zero homs M -> N.

    The image of M's generator l ranges over the span of blocks[l], the
    basis rows of N in that generator's degree (`piece_matrix`); rows
    holds the nonempty condition matrices (`image_conditions`) for M's
    generating syzygies to map to zero.  No syzygy is computed when every
    block is empty.
    """
    gdegs = M.gen_degrees()
    blocks = [N.piece_matrix(dg) for dg in gdegs]
    rows = []
    if any(len(b) for b in blocks):
        rel_twists = [-dg for dg in gdegs]
        for rel in relations(M):
            rel_deg = vector_degree(rel, rel_twists)
            if rel_deg is not None:
                block = image_conditions(N, rel, blocks, rel_deg)
                if block.shape[0]:
                    rows.append(block)
    return blocks, rows


def reference_image_conditions(N: PresentedModule, coeffs, blocks,
                               t: int) -> np.ndarray:
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


class HomModule:
    """Hom_R(M, N) with an eager degree-0 basis and a lazy module presentation."""

    def __init__(self, M: PresentedModule, N: PresentedModule):
        self.domain = M
        self.codomain = N
        self.degree0 = hom_space(M, N)
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
        rels = relations(M)
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


def apply_map(self: GradedMap, polys):
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


def apply_hom(self: ModuleHom, polys):
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


def compose(self: ModuleHom, other: ModuleHom) -> ModuleHom:
    """self after other (other's codomain must be self's domain)."""
    images = [apply_hom(self, img) for img in other.images]
    return ModuleHom(other.domain, self.codomain, images)


def piece_basis(self: PresentedModule, t: int):
    """K-basis of the degree-t piece as ambient vectors of polynomials."""
    frame = self.frame(t)
    return [frame.polys(row) for row in self.piece_matrix(t)]


def reference_multiples(frame: PieceFrame, vectors) -> np.ndarray:
    """`PieceFrame.multiples`, one normal form per row: nf(mu * v) for
    each vector v and each mu in R_(t - deg v), vector by vector."""
    curve = frame.curve
    rows = []
    for v in vectors:
        d = vector_degree(v, frame.twists)
        if d is None:
            continue
        for mu in curve.piece_monomials(frame.t - d):
            rows.append(frame.coords([curve.nf(p.term_mul(mu, 1)) if p else p
                                      for p in v]))
    return np.array(rows, dtype=np.int64).reshape(len(rows), frame.width)


def reference_times(frame: PieceFrame, form: Polynomial) -> np.ndarray:
    """`PieceFrame.times`, one normal form per row: row r is
    nf(form * e_r), in the frame of degree t + deg(form)."""
    curve = frame.curve
    target = PieceFrame(curve, frame.twists, frame.t + form.degree())
    out = np.zeros((frame.width, target.width), dtype=np.int64)
    r = 0
    for off, index, ms in zip(target.offsets, target.index, frame.monos):
        for mu in ms:
            for m, c in curve.nf(form.term_mul(mu, 1)).terms.items():
                out[r, off + index[m]] = c
            r += 1
    return out


def reference_mult(curve: CubicCurve, h: Polynomial, d: int) -> np.ndarray:
    """Matrix of multiplication by a nonzero homogeneous form h, from R_d
    to R_(d + deg h), in `piece_index` coordinates.

    Row r is nf(h * mu_r) for the r-th monomial mu_r of
    piece_monomials(d); h need not be reduced modulo F.  It is the sum,
    over the terms c * m of h, of c times the rows of the monomials
    m * mu_r gathered from the degree-(d + deg h) normal-form table.
    """
    source = curve.piece_monomials(d)
    D = d + h.degree()
    if not source:
        return np.zeros((0, curve.piece_dim(D)), dtype=np.int64)
    table = curve._nf_table(D)
    mus = np.array(source, dtype=np.int64)
    ms = np.array(list(h.terms), dtype=np.int64)
    rows = curve._table_row(D, ms[:, :1] + mus[:, 0], ms[:, 2:] + mus[:, 2])
    coeffs = np.array([list(h.terms.values())], dtype=np.int64)
    return curve.field.matmul(
        coeffs, table[rows].reshape(len(ms), -1)).reshape(len(source), -1)


def reference_products(curve: CubicCurve, d1: int, d2: int) -> np.ndarray:
    """nf(mu * nu) for mu in R_d1 and nu in R_d2, gathered from the
    degree-(d1 + d2) normal-form table with the table rows recomputed."""
    D = d1 + d2
    mus = np.array(curve.piece_monomials(d1), dtype=np.int64).reshape(-1, 3)
    nus = np.array(curve.piece_monomials(d2), dtype=np.int64).reshape(-1, 3)
    if not len(mus) or not len(nus):
        return np.zeros((len(mus), len(nus), curve.piece_dim(D)),
                        dtype=np.int64)
    rows = curve._table_row(D, mus[:, None, 0] + nus[:, 0],
                            mus[:, None, 2] + nus[:, 2])
    return curve._nf_table(D)[rows]


def berlekamp_split_scan(g, f):
    """Factor a squarefree monic g into irreducibles: the kernel of the
    Frobenius map on F_q[t]/(g) counts the factors, and kernel elements b
    split them off by gcds with b - c over all q scalars c."""
    n = len(g) - 1
    if n <= 1:
        return [g]
    mat = np.zeros((n, n), dtype=np.int64)
    tq = upowmod([0, 1], f.q, g, f)
    cur = [1]
    for i in range(n):
        for j, c in enumerate(cur):
            mat[j, i] = c
        cur = udivmod(umul(cur, tq, f), g, f)[1]
    kernel = nullspace(f.vsub(mat, np.eye(n, dtype=np.int64)), f)
    r = kernel.shape[0]
    if r <= 1:
        return [g]
    factors = [g]
    for kv in kernel:
        b = ustrip([int(c) for c in kv])
        if len(b) <= 1:
            continue
        new_factors = []
        for i, fac in enumerate(factors):
            if len(fac) - 1 <= 1:
                new_factors.append(fac)
                continue
            pieces = []
            rest = fac
            for c in range(f.q):
                if len(rest) - 1 <= 1 or (len(new_factors) + len(pieces) + 1
                                          + len(factors) - i - 1 == r):
                    break
                h = ugcd(rest, usub(b, [c], f), f)
                if 1 <= len(h) - 1 < len(rest) - 1:
                    pieces.append(h)
                    rest = udivmod(rest, h, f)[0]
            if len(rest) > 1:
                pieces.append(umonic(rest, f))
            new_factors.extend(pieces if pieces else [fac])
        factors = new_factors
        if len(factors) == r:
            break
    return factors


def frobenius_system_reference(curve: CubicCurve, powered, target: Polynomial,
                               D: int):
    """`closure._frobenius_system` by full-length triplets: the same rows
    (indptr, cols, vals), as int64 arrays, and the same vec."""
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
