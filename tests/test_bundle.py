import numpy as np
import pytest

from tcone.bundle import (SyzygyBundle, cohomology_dims,
                          component_class_vanishes, decompose_bundle,
                          end_algebra, forcing_data, syzygy_bundle)
from tcone.field import make_field
from tcone.gradedmod import ModuleHom, free_module, hom_space
from tcone.linalg import as_matrix, solve
from tcone.polyring import Polynomial, ideal_membership

from .conftest import ideal_of, pp, random_homogeneous, random_primary_ideal, seeded


def test_syzygy_bundle_examples(fermat5):
    B = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3)
    assert (B.rank, B.degree) == (2, 0)
    B2 = syzygy_bundle(ideal_of(fermat5, "x", "y"), 2)
    assert (B2.rank, B2.degree) == (1, 0)
    B3 = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3)
    assert (B3.rank, B3.degree) == (2, 0)


def test_end_algebra_dimensions(fermat5):
    assert end_algebra(syzygy_bundle(ideal_of(fermat5, "x", "y"), 2)).dim == 1
    A = end_algebra(syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3))
    assert A.dim == 2
    assert A.is_local()
    assert A.radical_rows.shape[0] == 1
    A2 = end_algebra(syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3))
    assert A2.dim == 8
    assert A2.radical_rows.shape[0] == 6


def test_primitive_idempotents_counts(fermat5):
    B1 = syzygy_bundle(ideal_of(fermat5, "x", "y"), 2)
    assert len(decompose_bundle(B1)) == 1
    B2 = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3)
    assert len(decompose_bundle(B2)) == 1
    B3 = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3)
    assert len(decompose_bundle(B3)) == 2


def test_decompose_examples(fermat5):
    dec = decompose_bundle(syzygy_bundle(ideal_of(fermat5, "x^2", "y^2",
                                                  "z^2"), 3))
    assert dec.shape() == [(2, 0)]
    dec2 = decompose_bundle(syzygy_bundle(ideal_of(fermat5, "x^2", "y^2",
                                                   "x^2"), 3))
    assert dec2.shape() == [(1, 3), (1, -3)]
    dec3 = decompose_bundle(syzygy_bundle(ideal_of(fermat5, "x", "y",
                                                   "z^3"), 3))
    assert dec3.shape() == [(1, 3), (1, 0)]


def test_decompose_idempotent_system(fermat5):
    M0 = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3)
    dec = decompose_bundle(M0)
    M = dec.bundle.module
    # projections are idempotent and sum to the identity on generators
    for s in dec:
        for g_img in s.projection.images:
            assert s.projection.apply(g_img) == g_img
    for i, g in enumerate(M.gens):
        total = [Polynomial.zero(dec.field) for _ in range(M.ambient.rank)]
        for s in dec:
            for k, p in enumerate(s.projection.images[i]):
                total[k] = total[k] + p
        assert tuple(M.curve.nf(p) for p in total) == g


def test_summand_sums_on_random_ideals(fermat5):
    rng = seeded(71)
    for _ in range(6):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        m = max(ideal.degrees) + 1
        B = syzygy_bundle(ideal, m)
        dec = decompose_bundle(B)
        assert sum(s.rank for s in dec) == ideal.n - 1
        assert sum(s.degree for s in dec) == B.degree


def test_forcing_data_examples(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    fd = forcing_data(I, pp("x*y*z", F5))
    assert fd.syz_prime.rank_and_degree()[0] == 3
    I2 = ideal_of(fermat5, "x", "y")
    fd2 = forcing_data(I2, pp("z^2", F5))
    assert fd2.syz_prime.rank_and_degree()[0] == 2
    with pytest.raises(ValueError):
        forcing_data(I, Polynomial.zero(F5))
    with pytest.raises(ValueError):
        forcing_data(I, pp("x + x^2", F5))


def test_redundant_candidate_splits(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    B = syzygy_bundle(I, 2)
    dec = decompose_bundle(B)
    fd = forcing_data(I, pp("x^2", F5), B)
    assert all(component_class_vanishes(fd, s) for s in dec)


def test_component_class_examples(fermat5, F5):
    I = ideal_of(fermat5, "x^2", "y^2", "z^2")
    B = syzygy_bundle(I, 3)
    dec = decompose_bundle(B)
    fd = forcing_data(I, pp("x*y*z", F5), B)
    [s] = list(dec)
    assert (s.rank, s.degree) == (2, 0)
    assert component_class_vanishes(fd, s) is False

    I2 = ideal_of(fermat5, "x^2", "y^2", "x^2")
    B2 = syzygy_bundle(I2, 3)
    dec2 = decompose_bundle(B2)
    fd2 = forcing_data(I2, pp("x*y*z", F5), B2)
    flags = {(s.rank, s.degree): component_class_vanishes(fd2, s)
             for s in dec2}
    assert flags[(1, -3)] is False
    assert flags[(1, 3)] is True


def test_cohomology_dims_examples(fermat5):
    R = free_module(fermat5, [0])
    assert cohomology_dims(R, 0) == (1, 1)
    R1 = free_module(fermat5, [1])
    assert cohomology_dims(R1, 0) == (3, 0)
    M = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3).module
    assert cohomology_dims(M, 0) == (1, 1)


def test_euler_characteristic(fermat5):
    rng = seeded(83)
    for _ in range(4):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        m = max(ideal.degrees)
        B = syzygy_bundle(ideal, m)
        for j in range(0, 3):
            h0, h1 = cohomology_dims(B.module, j)
            assert h0 - h1 == B.degree + 3 * B.rank * j


def test_class_components_iff_membership(fermat5):
    rng = seeded(97)
    for _ in range(8):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f0 = random_homogeneous(fermat5, rng.randint(1, 3), rng)
        B = syzygy_bundle(ideal, f0.degree())
        dec = decompose_bundle(B)
        fd = forcing_data(ideal, f0, B)
        all_vanish = all(component_class_vanishes(fd, s) for s in dec)
        assert all_vanish == ideal_membership(f0, ideal)


# -- dual-route oracle for class component vanishing --------------------------
#
# The component on a summand vanishes exactly when, for every degree-zero
# homomorphism theta from the summand to R, theta composed with the
# projection extends from the syzygy module to the enlarged syzygy module.
# This dualises the library's test (which extends the projection itself).

def _extends_to_enlarged(fd, xi):
    Mp = fd.syz_prime
    curve = Mp.curve
    field = curve.field
    R = free_module(curve, [0])
    homs = hom_space(Mp, R, 0)
    zero = Polynomial.zero(field)
    include = lambda polys: (zero,) + tuple(polys)
    gens = fd.bundle_module.gens
    # coordinates of a hom on the bundle generators
    frames = []
    for g in gens:
        d = None
        for p, a in zip(g, fd.bundle_module.ambient.twists):
            if p:
                d = p.degree() - a
                break
        frames.append(d)

    def restriction_coords(h_apply):
        rows = []
        for g, d in zip(gens, frames):
            val = h_apply(g)[0]
            monos = curve.piece_monomials(d)
            index = {m: i for i, m in enumerate(monos)}
            row = np.zeros(len(monos), dtype=np.int64)
            for m, c in val.terms.items():
                row[index[m]] = c
            rows.append(row)
        return np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)

    target = restriction_coords(lambda g: xi.apply(g))
    mat_rows = [restriction_coords(lambda g, h=h: h.apply(include(g)))
                for h in homs]
    if not mat_rows:
        return not target.any()
    mat = as_matrix(mat_rows, target.shape[0])
    return solve(mat.T.copy(), target, field) is not None


def _dual_class_vanishes(fd, summand):
    curve = summand.module.curve
    R = free_module(curve, [0])
    thetas = hom_space(summand.module, R, 0)
    for theta in thetas:
        xi = theta.compose(summand.projection)
        if not _extends_to_enlarged(fd, xi):
            return False
    return True


def test_component_class_agrees_with_dual_route(fermat5):
    rng = seeded(113)
    cases = [
        (ideal_of(fermat5, "x^2", "y^2", "z^2"), "x*y*z"),
        (ideal_of(fermat5, "x^2", "y^2", "x^2"), "x*y*z"),
        (ideal_of(fermat5, "x", "y", "z^3"), "z^2"),
        (ideal_of(fermat5, "x^2", "y^2", "z^2"), "x^2"),
    ]
    for _ in range(3):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        f0 = random_homogeneous(fermat5, rng.randint(1, 2), rng)
        cases.append((ideal, f0))
    for ideal, f0 in cases:
        if isinstance(f0, str):
            f0 = pp(f0, fermat5.field)
        B = syzygy_bundle(ideal, f0.degree())
        dec = decompose_bundle(B)
        if dec.extension_degree != 1:
            continue  # the oracle is written for the base-field case
        fd = forcing_data(ideal, f0, B)
        for s in dec:
            assert component_class_vanishes(fd, s) == _dual_class_vanishes(fd, s)


def test_verdict_stable_under_base_extension(fermat5, F5):
    for gens, cand in [(("x^2", "y^2", "z^2"), "x*y*z"),
                       (("x^2", "y^2", "x^2"), "x*y*z"),
                       (("x", "y", "z^3"), "z^2")]:
        ideal = ideal_of(fermat5, *gens)
        f0 = pp(cand, F5)
        B = syzygy_bundle(ideal, f0.degree())
        base = decompose_bundle(B)
        ext = decompose_bundle(B, min_extension=2)
        assert ext.extension_degree >= 2
        assert sorted((s.rank, s.degree) for s in base) == \
            sorted((s.rank, s.degree) for s in ext)
        fd = forcing_data(ideal, f0, B)
        base_flags = sorted((s.rank, s.degree,
                             component_class_vanishes(fd, s)) for s in base)
        ext_flags = sorted((s.rank, s.degree,
                            component_class_vanishes(fd, s)) for s in ext)
        assert base_flags == ext_flags


def test_splitting_extension_occurs(F7):
    # a twist-zero decomposition over a curve where conjugate line bundles
    # force a base extension now and then; just exercise several ideals and
    # confirm the invariant sums hold whatever field was needed
    from tcone.polyring import CubicCurve, parse_polynomial
    curve = CubicCurve(parse_polynomial("x^3 + y^3 + z^3", F7), F7)
    rng = seeded(131)
    seen_ext = False
    for _ in range(10):
        ideal = random_primary_ideal(curve, rng, n_max=3, max_deg=2)
        B = syzygy_bundle(ideal, max(ideal.degrees) + 1)
        dec = decompose_bundle(B)
        if dec.extension_degree > 1:
            seen_ext = True
        assert sum(s.rank for s in dec) == ideal.n - 1
        assert sum(s.degree for s in dec) == B.degree
    # not asserting seen_ext: whether an extension is needed depends on the
    # random draws; the loop exercises both paths across the suite


def test_decomposition_reuses_end_algebra_radical(fermat5, monkeypatch):
    """At ext = 1 the radical comes from end_algebra; the only other radical
    is the semisimplicity check on the quotient."""
    from tcone.algebra import FiniteAlgebra
    calls = []
    real = FiniteAlgebra.radical
    monkeypatch.setattr(FiniteAlgebra, "radical",
                        lambda self: calls.append(self.dim) or real(self))
    B = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3)
    dec = decompose_bundle(B)
    assert dec.extension_degree == 1
    assert dec.shape() == [(1, 3), (1, -3)]
    assert calls == [8, 2]
