"""Syzygy-bundle analysis over the cone of a smooth plane cubic.

Builds the sheaf of syzygies of a primary ideal at a chosen total degree,
computes its endomorphism algebra, decomposes it into indecomposable
summands through a complete system of primitive idempotents (extending the
base field when the algebra is not split), and tests, for a candidate
element, whether the component of its obstruction class on a summand
vanishes.

Class-component vanishing is decided without any cohomology machinery: the
component on a summand is zero exactly when the projection onto that
summand extends, as a degree-zero homomorphism, from the syzygy module to
the enlarged syzygy module of the candidate.
"""

from __future__ import annotations

import numpy as np

from .algebra import (FiniteAlgebra, UndecidedError, lift_idempotents,
                      semisimple_primitive_idempotents)
from .field import Field, code_embedding, make_field
from .gradedmod import (GradedMap, ModuleHom, PresentedModule, TwistedFree,
                        combine_vectors, hom_space, image_conditions,
                        image_presentation, syzygy_of_map, vector_degree)
from .linalg import solve
from .polyring import IdealData, Polynomial


class SyzygyBundle:
    """Module of syzygies of the ideal generators at total degree m.

    The associated sheaf has rank n - 1 and degree
    -3 * (sum of generator degrees - (n - 1) * m); both are recomputed from
    Hilbert data and checked against the closed formulas on construction.
    """

    __slots__ = ("ideal", "m", "module", "rank", "degree")

    def __init__(self, ideal: IdealData, m: int, module: PresentedModule,
                 rank: int, degree: int):
        self.ideal = ideal
        self.m = m
        self.module = module
        self.rank = rank
        self.degree = degree

    @property
    def field(self):
        return self.ideal.curve.field

    def expected_rank_degree(self):
        n = self.ideal.n
        d_sum = sum(self.ideal.degrees)
        return n - 1, -3 * (d_sum - (n - 1) * self.m)

    def twisted(self, s: int) -> "SyzygyBundle":
        """The bundle at total degree m + s, the twist of this one by s.

        Its module is `module.twisted(s)`, with no new Groebner basis; rank
        and degree are counted on it afresh and checked against the degree
        formula, as `syzygy_bundle` does.
        """
        return _checked_bundle(self.ideal, self.m + s, self.module.twisted(s))

    def __repr__(self):
        return (f"SyzygyBundle(m={self.m}, rank={self.rank}, "
                f"degree={self.degree})")


def _checked_bundle(ideal: IdealData, m: int,
                    module: PresentedModule) -> SyzygyBundle:
    """The bundle of a degree-m syzygy module, its invariants checked."""
    rank, degree = module.rank_and_degree()
    bundle = SyzygyBundle(ideal, m, module, rank, degree)
    want = bundle.expected_rank_degree()
    if (rank, degree) != want:
        raise ArithmeticError(
            f"syzygy bundle invariants {rank, degree} disagree with the "
            f"degree formula {want}")
    return bundle


def syzygy_bundle(ideal: IdealData, m: int) -> SyzygyBundle:
    """Build the syzygy module of the ideal at total degree m."""
    source = TwistedFree([m - d for d in ideal.degrees])
    target = TwistedFree([m])
    phi = GradedMap(source, target, [list(ideal.gens)])
    return _checked_bundle(ideal, m, syzygy_of_map(phi, ideal.curve))


# ---------------------------------------------------------------------------
# endomorphism algebra
# ---------------------------------------------------------------------------

def _hom_coords(M: PresentedModule, images) -> np.ndarray:
    """Coordinates of a generator-image tuple in the graded piece frames."""
    parts = [M.frame(d).coords(img) for img, d in zip(images, M.gen_degrees())]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


class EndAlgebra:
    """Degree-zero endomorphism algebra of a syzygy bundle.

    Carries the basis of endomorphisms as generator-image maps, the
    structure constants over the base field and a basis of the radical.
    """

    __slots__ = ("bundle", "homs", "algebra", "radical_rows")

    def __init__(self, bundle: SyzygyBundle, homs, algebra: FiniteAlgebra,
                 radical_rows):
        self.bundle = bundle
        self.homs = homs
        self.algebra = algebra
        self.radical_rows = radical_rows

    @property
    def dim(self):
        return len(self.homs)

    def is_local(self):
        """Local means no nontrivial idempotents: quotient by radical is 1-dim
        over a division ring; cheap sufficient check used in reporting."""
        return self.dim - self.radical_rows.shape[0] == 1

    def __repr__(self):
        return f"EndAlgebra(dim={self.dim}, rad_dim={self.radical_rows.shape[0]})"


def end_algebra(bundle: SyzygyBundle) -> EndAlgebra:
    """Degree-0 Hom basis of the bundle module with multiplication table."""
    M = bundle.module
    field = bundle.field
    homs = hom_space(M, M, 0)
    if not homs:
        raise ArithmeticError("endomorphism algebra without identity")
    basis_T = np.stack([_hom_coords(M, h.images) for h in homs], axis=1)
    algebra = FiniteAlgebra.on_basis(
        field, basis_T,
        [_hom_coords(M, a.compose(b).images) for a in homs for b in homs],
        _hom_coords(M, M.gens),
        "endomorphism product left the basis span",
        "identity endomorphism missing from Hom basis")
    radical_rows = algebra.radical()
    return EndAlgebra(bundle, homs, algebra, radical_rows)


# ---------------------------------------------------------------------------
# decomposition
# ---------------------------------------------------------------------------

class Summand:
    """A direct summand: projection idempotent, module, rank and degree."""

    __slots__ = ("projection", "module", "rank", "degree")

    def __init__(self, projection: ModuleHom, module: PresentedModule,
                 rank: int, degree: int):
        self.projection = projection
        self.module = module
        self.rank = rank
        self.degree = degree

    @property
    def field(self):
        return self.module.field

    def sort_key(self):
        ser = []
        for img in self.projection.images:
            for poly in img:
                ser.append(tuple(sorted(poly.terms.items())))
        return (-self.degree, -self.rank, tuple(ser))

    def __repr__(self):
        return f"Summand(rank={self.rank}, degree={self.degree})"


class Decomposition:
    """The summand list of a bundle, with the field it was computed over.

    Iterates and indexes as the list of summands.  When splitting the
    endomorphism algebra required a base extension, `ideal`, `bundle` and
    every summand live over `field`, an extension of the input field, and
    `embed_code` maps input-field coefficient codes into it.  `base_bundle`
    is the decomposed bundle over the input field (`bundle` itself when no
    extension was needed).
    """

    def __init__(self, bundle: SyzygyBundle, summands, field: Field,
                 extension_degree: int, embed_code,
                 base_bundle: SyzygyBundle):
        self.bundle = bundle
        self.summands = list(summands)
        self.field = field
        self.extension_degree = extension_degree
        self.embed_code = embed_code
        self.base_bundle = base_bundle

    @property
    def ideal(self):
        return self.bundle.ideal

    def __iter__(self):
        return iter(self.summands)

    def __len__(self):
        return len(self.summands)

    def __getitem__(self, i):
        return self.summands[i]

    def shape(self):
        return [(s.rank, s.degree) for s in self.summands]

    def twisted(self, m: int) -> "Decomposition":
        """The decomposition of the bundle twisted by m, at degree bundle.m + m.

        Twisting keeps each summand indecomposable and shifts its degree by
        3 * rank * m.  Projections keep their generator images, modules
        become `PresentedModule.twisted(m)`, and the summands are sorted
        again; no End algebra is built.  The base bundle's twist is
        checked against the degree formula (`SyzygyBundle.twisted`).
        """
        base = self.base_bundle.twisted(m)
        bundle = base
        if self.bundle is not self.base_bundle:
            bundle = SyzygyBundle(self.ideal, base.m,
                                  self.bundle.module.twisted(m),
                                  base.rank, base.degree)
        M = bundle.module
        summands = [Summand(ModuleHom(M, M, s.projection.images),
                            s.module.twisted(m), s.rank,
                            s.degree + 3 * s.rank * m)
                    for s in self.summands]
        summands.sort(key=lambda s: s.sort_key())
        return Decomposition(bundle, summands, self.field,
                             self.extension_degree, self.embed_code, base)

    def __repr__(self):
        return f"Decomposition({self.shape()}, over {self.field})"


def _combine_hom(M: PresentedModule, homs, coords) -> ModuleHom:
    """Linear combination of endomorphisms given by algebra coordinates."""
    return ModuleHom(M, M, [combine_vectors(M, coords,
                                            [h.images[l] for h in homs])
                            for l in range(len(M.gens))])


def decompose_bundle(bundle: SyzygyBundle, ext_bound: int = 4,
                     min_extension: int = 1) -> Decomposition:
    """Split the bundle into indecomposable summands.

    Computes primitive idempotents of the endomorphism algebra modulo its
    radical, extending the base field until every simple factor is split
    (relative degree at most ext_bound, else the computation is refused as
    undecided), lifts them through the radical, and realises the summands
    as images.  Summands are ordered by (degree, rank) descending with a
    deterministic tiebreak on the projection data.

    min_extension forces at least that base extension first; it exists so
    the stability of the answer under enlarging the splitting field can be
    exercised directly.
    """
    base_field = bundle.field
    ideal = bundle.ideal
    module = bundle.module
    ea = None

    def build_over(ext):
        """(ideal, module, homs, algebra, embed, radical) over the degree-ext
        extension; at ext = 1 the radical is the one end_algebra stored."""
        nonlocal ea
        if ea is None:
            ea = end_algebra(bundle)
        homs0, alg0 = ea.homs, ea.algebra
        if ext == 1:
            return ideal, module, homs0, alg0, (lambda c: c), ea.radical_rows
        K = make_field(base_field.p, base_field.k * ext)
        emb = code_embedding(base_field, K)
        ideal2 = ideal.embedded(K, emb)
        module2 = module.embedded(ideal2.curve, emb)
        homs2 = [ModuleHom(module2, module2,
                           [tuple(p.map_coefficients(K, emb) for p in img)
                            for img in h.images])
                 for h in homs0]
        alg2, _ = alg0.extend_scalars(K)
        return ideal2, module2, homs2, alg2, emb, alg2.radical()

    rel_ext = max(1, min_extension)
    while True:
        ideal_x, module_x, homs_x, alg_x, emb, rad = build_over(rel_ext)
        quot, proj, sect = alg_x.quotient(rad)
        if quot.radical().shape[0] != 0:
            raise ArithmeticError("quotient by the radical is not semisimple")
        qidems, need = semisimple_primitive_idempotents(quot)
        if need == 1:
            break
        rel_ext *= need
        if rel_ext > ext_bound:
            raise UndecidedError(
                f"splitting the endomorphism algebra needs a degree-"
                f"{rel_ext} extension, beyond the bound {ext_bound}",
                stage="splitting extension", size=rel_ext)
    lifted = lift_idempotents(alg_x, rad, qidems, proj, sect)
    field_x = ideal_x.curve.field
    summands = []
    for e in lifted:
        ehom = _combine_hom(module_x, homs_x, e)
        smod = image_presentation(ehom, module_x)
        r, d = smod.rank_and_degree()
        summands.append(Summand(ehom, smod, r, d))
    summands.sort(key=lambda s: s.sort_key())
    n = ideal_x.n
    if sum(s.rank for s in summands) != n - 1:
        raise ArithmeticError("summand ranks do not add up to n - 1")
    if sum(s.degree for s in summands) != bundle.degree:
        raise ArithmeticError("summand degrees do not add up to the bundle degree")
    bundle_x = (bundle if rel_ext == 1 else
                SyzygyBundle(ideal_x, bundle.m, module_x, bundle.rank,
                             bundle.degree))
    return Decomposition(bundle_x, summands, field_x, rel_ext, emb, bundle)


# ---------------------------------------------------------------------------
# forcing data and class components
# ---------------------------------------------------------------------------

class ForcingData:
    """Candidate data: the enlarged syzygy module and the bundle module.

    For a homogeneous candidate f0 of degree m, syz_prime is the module of
    syzygies of (f0, f_1, ..., f_n) at total degree m; it contains the
    syzygies of (f_1, ..., f_n) (bundle_module) as those with vanishing
    first coordinate.
    """

    __slots__ = ("ideal", "f0", "m", "syz_prime", "bundle_module")

    def __init__(self, ideal: IdealData, f0: Polynomial, m: int,
                 syz_prime: PresentedModule, bundle_module: PresentedModule):
        self.ideal = ideal
        self.f0 = f0
        self.m = m
        self.syz_prime = syz_prime
        self.bundle_module = bundle_module

    @property
    def field(self):
        return self.ideal.curve.field

    def embedded(self, target_field: Field, embed_code) -> "ForcingData":
        ideal2 = self.ideal.embedded(target_field, embed_code)
        curve2 = ideal2.curve
        f02 = self.f0.map_coefficients(target_field, embed_code)
        syz2 = self.syz_prime.embedded(curve2, embed_code)
        bm2 = self.bundle_module.embedded(curve2, embed_code)
        return ForcingData(ideal2, f02, self.m, syz2, bm2)

    def __repr__(self):
        return f"ForcingData(f0={self.f0!r}, m={self.m})"


def forcing_data(ideal: IdealData, f0: Polynomial,
                 bundle: SyzygyBundle | None = None) -> ForcingData:
    """Syzygies of (f0, f_1, ..., f_n), with the bundle of (f_1, ..., f_n)."""
    if f0.is_zero():
        raise ValueError("candidate must be nonzero")
    if not f0.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    curve = ideal.curve
    f0 = curve.nf(f0)
    if f0.is_zero():
        raise ValueError("candidate must be nonzero in the cone")
    m = f0.degree()
    source = TwistedFree([0] + [m - d for d in ideal.degrees])
    target = TwistedFree([m])
    phi = GradedMap(source, target, [[f0] + list(ideal.gens)])
    syz_prime = syzygy_of_map(phi, curve)
    rank, degree = syz_prime.rank_and_degree()
    if rank != ideal.n:
        raise ArithmeticError(
            f"enlarged syzygy sheaf has rank {rank}, expected {ideal.n}")
    if bundle is None:
        bundle = syzygy_bundle(ideal, m)
    else:
        if bundle.m != m or bundle.ideal is not ideal:
            raise ValueError("bundle does not match the candidate degree")
    return ForcingData(ideal, f0, m, syz_prime, bundle.module)


def component_class_vanishes(forcing: ForcingData, summand: Summand) -> bool:
    """Whether the candidate's class component on the summand is zero.

    Equivalent formulation used here: the projection of the syzygy module
    onto the summand extends to a degree-zero homomorphism of the enlarged
    syzygy module.  The extension is one linear system: unknown images of
    the enlarged module's generators in the summand's graded pieces,
    constrained by the generating syzygies, with the restriction along the
    inclusion pinned to the projection.
    """
    field = summand.field
    if field != forcing.field:
        forcing = forcing.embedded(field, code_embedding(forcing.field, field))
    Mp = forcing.syz_prime
    Mj = summand.module
    proj = summand.projection
    gdegs = Mp.gen_degrees()
    blocks = [Mj.piece_basis(d) for d in gdegs]
    if not any(blocks):
        # every hom out of the enlarged module is zero; the projection must be
        return all(not p for img in proj.images for p in img)
    rows = []
    rhs_parts = []

    def add_condition(coeffs, target_degree, rhs_vec):
        """Condition sum_u coeffs[u] * w_u = rhs at the given degree."""
        block = image_conditions(Mj, coeffs, blocks, target_degree)
        if block.shape[0]:
            rows.append(block)
            rhs_parts.append(Mj.frame(target_degree).coords(rhs_vec))

    # homomorphism conditions from the generating syzygies of syz_prime,
    # which lie in ⊕ R(-deg g_l)
    rel_twists = [-dg for dg in gdegs]
    zero = Polynomial.zero(field)
    for rel in Mp.relations():
        rel_deg = vector_degree(rel, rel_twists)
        if rel_deg is not None:
            add_condition(rel, rel_deg, [zero] * Mj.ambient.rank)
    # restriction conditions: psi(iota(g_l)) = projection(g_l)
    for g, img in zip(forcing.bundle_module.gens, proj.images):
        iota = (zero,) + tuple(g)
        coeffs = Mp.express(iota)
        if coeffs is None:
            raise ArithmeticError("inclusion image escaped the enlarged module")
        add_condition(coeffs, vector_degree(iota, Mp.ambient.twists), img)
    if not rows:
        return True
    mat = np.concatenate(rows, axis=0)
    rhs = np.concatenate(rhs_parts, axis=0)
    return solve(mat, rhs, field) is not None


def cohomology_dims(M: PresentedModule, j: int):
    """(h0, h1) of the sheaf of M twisted by j, by Riemann-Roch at genus 1.

    h0 is the dimension of the degree-j piece, a leading-term count
    (`PresentedModule.piece_dim`); h1 follows from the Euler
    characteristic degree + 3 * rank * j.
    """
    h0 = M.piece_dim(j)
    rank, degree = M.rank_and_degree()
    h1 = h0 - (degree + 3 * rank * j)
    if h1 < 0:
        raise ArithmeticError(
            f"negative h1 = {h1}; module is not the section module "
            f"of a locally free sheaf")
    return h0, h1
