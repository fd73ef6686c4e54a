"""Independent cross-validation routes for the core machinery.

Each test checks one computation against a second, structurally different
derivation: Hilbert values of syzygy modules against ideal piece
dimensions, first cohomology against the dual Hom route, the Hom module
presentation against the direct degree solver, and base-change stability
of cached Groebner data.
"""

import numpy as np

from tcone.bundle import cohomology_dims, syzygy_bundle
from tcone.closure import _ideal_piece_rows, tight_closure_member
from tcone.field import embed, make_field
from tcone.gradedmod import (GradedMap, TwistedFree, free_module, hom_space,
                             syzygy_of_map)
from tcone.linalg import rref
from tcone.polyring import (CubicCurve, IdealData, buchberger,
                            parse_polynomial)

from .conftest import ideal_of, pp, random_primary_ideal, seeded
from .reference import HomModule, groebner_basis


def test_syzygy_hilbert_against_ideal_pieces(fermat5):
    """dim Syz(m)_t = sum dim R_{t+m-d_i} - dim I_{t+m}, exactly."""
    rng = seeded(7)
    field = fermat5.field
    for _ in range(5):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        m = max(ideal.degrees) + 1
        B = syzygy_bundle(ideal, m)
        for t in range(0, 4):
            free_dim = sum(fermat5.piece_dim(t + m - d)
                           for d in ideal.degrees)
            rows = _ideal_piece_rows(fermat5, list(ideal.gens), t + m)
            ideal_dim = rref(rows, field)[0].shape[0]
            assert B.module.piece_dim(t) == free_dim - ideal_dim


def test_h1_against_dual_hom_route(fermat5):
    """h1 of the sheaf at twist j equals dim Hom(M, R)_(-j) (duality)."""
    R0 = free_module(fermat5, [0])
    cases = [
        syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3).module,
        syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3).module,
        syzygy_bundle(ideal_of(fermat5, "x", "y", "z^3"), 2).module,
        free_module(fermat5, [-1]),
        free_module(fermat5, [0, 1]),
    ]
    for M in cases:
        for j in (0, 1):
            _h0, h1 = cohomology_dims(M, j)
            # Hom(M, R)_(-j) is the degree-zero Hom into R(-j)
            assert h1 == len(hom_space(M, R0.twisted(-j)))


def test_hom_module_presentation_matches_direct_solver(fermat5):
    """Graded pieces of the Hom presentation equal the per-degree solver."""
    M = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "z^2"), 3).module
    N = syzygy_bundle(ideal_of(fermat5, "x^2", "y^2", "x^2"), 3).module
    for dom, cod in ((M, M), (M, N), (N, M)):
        H = HomModule(dom, cod)
        for d in (0, 1):
            # Hom(dom, cod)_d is the degree-zero Hom into cod(d)
            assert H.module.piece_dim(d) == len(hom_space(dom, cod.twisted(d)))


def test_pipeline_over_extension_base_field():
    """The verdict machinery runs unchanged over an extension base field."""
    F4 = make_field(2, 2)
    curve = CubicCurve(parse_polynomial("x^3 + y^3 + z^3", F4), F4)
    ideal = IdealData(curve, [parse_polynomial(t, F4)
                              for t in ("x^2", "y^2", "z^2")])
    cert = tight_closure_member(ideal, parse_polynomial("x*y*z", F4))
    assert cert.verdict == "member"
    assert [(s.rank, s.degree) for s in cert.summands] == [(2, 0)]
    dup = IdealData(curve, [parse_polynomial(t, F4)
                            for t in ("x^2", "y^2", "x^2")])
    cert2 = tight_closure_member(dup, parse_polynomial("t*x*y*z", F4))
    assert cert2.verdict == "non-member"


def test_groebner_base_change_stability(fermat5):
    """The reduced basis over an extension equals the embedded basis."""
    F25 = make_field(5, 2)
    emb = lambda code: embed(fermat5.field.from_code(code), F25).code
    rng = seeded(19)
    for _ in range(4):
        ideal = random_primary_ideal(fermat5, rng, n_max=3)
        up = ideal.embedded(F25, emb)
        fresh = buchberger(list(up.gens) + [up.curve.F])
        assert tuple(fresh) == up.gb


def test_syzygy_module_base_change_stability(fermat5):
    """Kernel generators embedded upward still generate the kernel."""
    F25 = make_field(5, 2)
    emb = lambda code: embed(fermat5.field.from_code(code), F25).code
    ideal = ideal_of(fermat5, "x^2", "y^2", "z^2")
    M = syzygy_bundle(ideal, 3).module
    up_ideal = ideal.embedded(F25, emb)
    up = M.embedded(up_ideal.curve, emb)
    fresh = syzygy_of_map(
        GradedMap(TwistedFree([1, 1, 1]), TwistedFree([3]),
                  [list(up_ideal.gens)]), up_ideal.curve)
    assert groebner_basis(fresh) == groebner_basis(up)
    assert up.rank_and_degree() == fresh.rank_and_degree() == (2, 0)
