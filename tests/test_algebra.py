import numpy as np
import pytest

from tcone.algebra import (FiniteAlgebra, UndecidedError, lift_idempotents,
                           semisimple_primitive_idempotents, ufactor, umul,
                           usquarefree_decomposition)
from tcone.field import make_field


def _matrix_units_algebra(field, n):
    """M_n(field) on the basis e_11, e_12, ..., e_nn."""
    labels = [(i, j) for i in range(n) for j in range(n)]
    idx = {lab: k for k, lab in enumerate(labels)}
    dim = n * n
    table = []
    for (i, j) in labels:
        row = []
        for (k, l) in labels:
            out = [0] * dim
            if j == k:
                out[idx[(i, l)]] = 1
            row.append(out)
        table.append(row)
    unit = [0] * dim
    for i in range(n):
        unit[idx[(i, i)]] = 1
    return FiniteAlgebra(field, table, unit)


def _quotient_ring_algebra(field, modulus):
    """field[t]/(modulus) on the power basis."""
    from tcone.algebra import udivmod
    k = len(modulus) - 1
    table = []
    for i in range(k):
        row = []
        for j in range(k):
            prod = [0] * (i + j) + [1]
            rem = udivmod(prod, list(modulus), field)[1]
            row.append(list(rem) + [0] * (k - len(rem)))
        table.append(row)
    return FiniteAlgebra(field, table, [1] + [0] * (k - 1))


def test_charpoly_companion():
    F2 = make_field(2)
    A = _quotient_ring_algebra(F2, (1, 1, 1))  # F4 = F2[t]/(t^2+t+1)
    t = np.array([0, 1], dtype=np.int64)
    m = A.left_regular(t)
    assert A.charpoly(m) == [1, 1, 1]
    assert A.minpoly(t) == [1, 1, 1]


def test_charpoly_cayley_hamilton():
    F5 = make_field(5)
    A = _matrix_units_algebra(F5, 2)
    rng = np.random.RandomState(5)
    for _ in range(5):
        a = rng.randint(0, 5, size=4).astype(np.int64)
        m = A.left_regular(a)
        cp = A.charpoly(m)
        assert len(cp) == A.dim + 1 and cp[-1] == 1
        # evaluate cp at m over F5
        acc = np.zeros_like(m)
        power = np.eye(A.dim, dtype=np.int64)
        for c in cp:
            acc = (acc + c * power) % 5
            power = (power @ m) % 5
        assert not acc.any()
        # trace coefficient: cp[n-1] == -trace
        assert cp[A.dim - 1] % 5 == (-int(np.trace(m))) % 5


def test_radical_of_semisimple_is_zero():
    F2 = make_field(2)
    assert _quotient_ring_algebra(F2, (1, 1, 1)).radical().shape[0] == 0
    assert _matrix_units_algebra(F2, 2).radical().shape[0] == 0
    F5 = make_field(5)
    assert _matrix_units_algebra(F5, 2).radical().shape[0] == 0


def test_radical_of_local_ring():
    F2 = make_field(2)
    # F2[t]/(t^2 + 1) = F2[u]/(u^2): radical spanned by 1 + t
    A = _quotient_ring_algebra(F2, (1, 0, 1))
    rad = A.radical()
    assert rad.shape[0] == 1
    assert rad.tolist() == [[1, 1]]


def test_radical_of_nilpotent_power_ring():
    F5 = make_field(5)
    A = _quotient_ring_algebra(F5, (0, 0, 0, 1))  # F5[t]/(t^3)
    rad = A.radical()
    assert rad.shape[0] == 2  # spanned by t, t^2


def test_primitive_idempotents_product_of_fields():
    F5 = make_field(5)
    # t^2 - t = t(t-1): F5[t]/(t^2-t) = F5 x F5
    A = _quotient_ring_algebra(F5, (0, 4, 1))
    idems, need = semisimple_primitive_idempotents(A)
    assert need == 1
    assert len(idems) == 2
    total = A.zero()
    for e in idems:
        assert A.is_idempotent(e)
        total = A.add(total, e)
    assert np.array_equal(total, A.unit)


def test_primitive_idempotents_matrix_algebra():
    for p in (2, 5):
        field = make_field(p)
        A = _matrix_units_algebra(field, 2)
        idems, need = semisimple_primitive_idempotents(A)
        assert need == 1
        assert len(idems) == 2
        for i, e in enumerate(idems):
            assert A.is_idempotent(e)
            for j, f in enumerate(idems):
                if i != j:
                    assert not A.mul(e, f).any()


def test_nonsplit_field_detected():
    F2 = make_field(2)
    A = _quotient_ring_algebra(F2, (1, 1, 1))  # F4 over F2: residue degree 2
    idems, need = semisimple_primitive_idempotents(A)
    assert len(idems) == 1 and need == 2
    F3 = make_field(3)
    B = _quotient_ring_algebra(F3, (1, 0, 1))  # F9 over F3
    idems, need = semisimple_primitive_idempotents(B)
    assert need == 2


def test_lifting_through_radical_triangular():
    F5 = make_field(5)
    # upper triangular 2x2: basis e11, e22, e12
    labels = [(0, 0), (1, 1), (0, 1)]
    idx = {lab: k for k, lab in enumerate(labels)}

    def mm(a, b):
        out = [0] * 3
        (i, j), (k, l) = a, b
        if j == k and (i, l) in idx:
            out[idx[(i, l)]] = 1
        return out

    table = [[mm(a, b) for b in labels] for a in labels]
    A = FiniteAlgebra(F5, table, [1, 1, 0])
    rad = A.radical()
    assert rad.tolist() == [[0, 0, 1]]
    quot, proj, sect = A.quotient(rad)
    qidems, need = semisimple_primitive_idempotents(quot)
    assert need == 1 and len(qidems) == 2
    lifted = lift_idempotents(A, rad, qidems, proj, sect)
    total = A.zero()
    for e in lifted:
        assert A.is_idempotent(e)
        total = A.add(total, e)
    assert np.array_equal(total, A.unit)
    assert not A.mul(lifted[0], lifted[1]).any()
    assert not A.mul(lifted[1], lifted[0]).any()


def test_extend_scalars_preserves_structure():
    F2 = make_field(2)
    A = _quotient_ring_algebra(F2, (1, 1, 1))
    F4 = make_field(2, 2)
    A4, emb = A.extend_scalars(F4)
    assert A4.field is F4
    # over F4 the algebra F4 (x) F4 splits into two idempotents
    idems, need = semisimple_primitive_idempotents(A4)
    assert need == 1
    assert len(idems) == 2


def test_idempotent_from_nilpotent_left_ideal():
    from tcone.algebra import _idempotent_from_nilpotent
    F5 = make_field(5)
    A = _matrix_units_algebra(F5, 2)
    nu = np.array([0, 1, 0, 0], dtype=np.int64)  # e_12, nilpotent
    e = _idempotent_from_nilpotent(A, nu)
    assert e is not None
    assert A.is_idempotent(e)
    assert e.any() and not np.array_equal(e, A.unit)


def test_primitive_idempotents_mixed_product():
    # F_2 x M_2(F_2): one primitive idempotent from the field factor and
    # two from the matrix factor
    F2 = make_field(2)
    M = _matrix_units_algebra(F2, 2)
    dim = 1 + M.dim
    table = []
    for i in range(dim):
        row = []
        for j in range(dim):
            out = [0] * dim
            if i == 0 and j == 0:
                out[0] = 1
            elif i > 0 and j > 0:
                prod = M.mul(*(np.eye(M.dim, dtype=np.int64)[[k]].ravel()
                               for k in (i - 1, j - 1)))
                for k, c in enumerate(prod):
                    out[1 + k] = int(c)
            row.append(out)
        table.append(row)
    unit = [1] + [int(c) for c in M.unit]
    A = FiniteAlgebra(F2, table, unit)
    assert A.radical().shape[0] == 0
    idems, need = semisimple_primitive_idempotents(A)
    assert need == 1
    assert len(idems) == 3
    total = A.zero()
    for e in idems:
        assert A.is_idempotent(e)
        total = A.add(total, e)
    assert np.array_equal(total, A.unit)


# -- univariate factorisation --------------------------------------------------

def test_squarefree_decomposition():
    F5 = make_field(5)
    # (t+1)^2 * (t+2) over F5
    poly = umul(umul([1, 1], [1, 1], F5), [2, 1], F5)
    parts = usquarefree_decomposition(poly, F5)
    assert sorted((tuple(g), m) for g, m in parts) == [((1, 1), 2), ((2, 1), 1)]


def test_ufactor_reassembles():
    import random
    rng = random.Random(17)
    for field in (make_field(5), make_field(2), make_field(2, 2)):
        for _ in range(10):
            deg = rng.randint(1, 6)
            poly = [rng.randrange(field.q) for _ in range(deg)] + [1]
            fac = ufactor(poly, field)
            prod = [1]
            for g, m in fac:
                for _ in range(m):
                    prod = umul(prod, g, field)
            assert prod == poly
            for g, _m in fac:
                # each factor is irreducible: no root splitting further
                assert len(ufactor(g, field)) == 1


def test_ufactor_stops_once_the_factors_are_irreducible(monkeypatch):
    # (t - 1)(t - 2) over F_625: the first scalar that splits the product
    # leaves a linear rest, and the scan over the 625 scalars stops there
    # instead of taking a gcd for every one of them
    from tcone import algebra
    F = make_field(5, 4)
    calls = []
    real = algebra.ugcd
    monkeypatch.setattr(algebra, "ugcd",
                        lambda *args: calls.append(args) or real(*args))
    fac = ufactor(umul([F.neg(1), 1], [F.neg(2), 1], F), F)
    assert fac == [([F.neg(2), 1], 1), ([F.neg(1), 1], 1)]
    assert len(calls) <= 10


def test_ufactor_known_split():
    F5 = make_field(5)
    # t^2 - 1 = (t+1)(t+4)... i.e. (t-1)(t+1)
    fac = ufactor([4, 0, 1], F5)
    polys = sorted(tuple(g) for g, m in fac)
    assert polys == [(1, 1), (4, 1)]
    # t^2 + 1 is irreducible over F7
    F7 = make_field(7)
    assert len(ufactor([1, 0, 1], F7)) == 1


# -- level 0 of the radical chain: the trace form against charpolys -----------

def _level0_by_charpoly(A):
    """Level 0 the way it was computed before the trace form:
    cond[b][a] = coefficient of t^(n-1) in charpoly(L_{b_a b_b})."""
    n = A.dim
    eye = np.eye(n, dtype=np.int64)
    return [[A.charpoly(A.left_regular(A.mul(eye[a], eye[b])))[n - 1]
             for a in range(n)] for b in range(n)]


def _radical_by_charpoly_chain(A):
    """The radical chain with every level, level 0 included, read off
    characteristic polynomials (the route before the trace form)."""
    from tcone.algebra import _proot
    from tcone.linalg import nullspace, rref
    f, n = A.field, A.dim
    current = np.eye(n, dtype=np.int64)
    level, qexp = 0, 1
    while qexp <= n and current.shape[0]:
        cond = []
        for b in current:
            row = []
            for a in current:
                cp = A.charpoly(A.left_regular(A.mul(a, b)))
                idx = len(cp) - 1 - qexp
                c = cp[idx] if idx >= 0 else 0
                for _ in range(level):
                    c = _proot(c, f)
                row.append(c)
            cond.append(row)
        ker = nullspace(np.array(cond, dtype=np.int64), f)
        current, _ = rref(f.matmul(ker, current), f)
        level += 1
        qexp *= f.p
    return current


def _triangular_algebra(field, n):
    """Upper triangular n x n matrices on the basis e_ij, i <= j."""
    labels = [(i, j) for i in range(n) for j in range(i, n)]
    idx = {lab: k for k, lab in enumerate(labels)}
    table = [[[1 if j == k and idx[(i, l)] == c else 0
               for c in range(len(labels))]
              for (k, l) in labels] for (i, j) in labels]
    unit = [1 if i == j else 0 for (i, j) in labels]
    return FiniteAlgebra(field, table, unit)


def _associative_algebras(field, rng):
    """Quotient rings field[t]/(g^2 h) with random monic g and h, upper
    triangular algebras and M_2; each has a known associative table."""
    out = [_triangular_algebra(field, 2), _triangular_algebra(field, 3),
           _matrix_units_algebra(field, 2)]
    for _ in range(4):
        g = [rng.randrange(field.q) for _ in range(rng.randint(1, 2))] + [1]
        h = [rng.randrange(field.q) for _ in range(rng.randint(0, 2))] + [1]
        out.append(_quotient_ring_algebra(field, tuple(umul(umul(g, g, field),
                                                            h, field))))
    return out


@pytest.mark.parametrize("pk", [(2, 1), (2, 2), (5, 1), (7, 1), (5, 2)],
                         ids=lambda pk: f"F{pk[0]}^{pk[1]}")
def test_trace_form_matches_charpoly_level_zero(pk):
    import random
    field = make_field(*pk)
    rng = random.Random(f"trace-form:{field.q}")
    algebras = _associative_algebras(field, rng)
    # extend_scalars algebras: from the prime field up to F_{p^2}
    if field.k == 2:
        algebras += [B.extend_scalars(field)[0]
                     for B in _associative_algebras(make_field(field.p), rng)]
    for A in algebras:
        assert field.vneg(A.trace_form().T).tolist() == _level0_by_charpoly(A)
        assert A.radical().tolist() == _radical_by_charpoly_chain(A).tolist()
    # the identity is linear algebra on the table, so it holds for any
    # bilinear table, associative or not
    for n in (1, 2, 4, 6):
        table = [[[rng.randrange(field.q) for _ in range(n)]
                  for _ in range(n)] for _ in range(n)]
        A = FiniteAlgebra(field, table, [1] + [0] * (n - 1))
        assert field.vneg(A.trace_form().T).tolist() == _level0_by_charpoly(A)


def test_radical_beyond_the_characteristic_uses_charpolys():
    # F_2[t]/(t^4) has dim 4 >= p^2, so levels 1 and 2 run; the trace form
    # alone is zero here (every Tr(L_ab) vanishes in characteristic 2)
    F2 = make_field(2)
    A = _quotient_ring_algebra(F2, (0, 0, 0, 0, 1))
    assert not A.trace_form().any()
    assert A.radical().tolist() == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def _product_algebra(A, B):
    """A x B on the concatenated bases."""
    n, m = A.dim, B.dim
    table = np.zeros((n + m,) * 3, dtype=np.int64)
    table[:n, :n, :n] = A.table
    table[n:, n:, n:] = B.table
    return FiniteAlgebra(A.field, table, np.concatenate([A.unit, B.unit]))


def test_radical_where_the_trace_form_kernel_is_too_big(fermat2):
    # algebras whose level-0 ideal is not nilpotent, so that chain levels
    # p^i <= dim A run before the certificate holds
    from tcone.bundle import end_algebra, syzygy_bundle
    from tcone.linalg import nullspace

    from .conftest import ideal_of
    F2 = make_field(2)
    cases = [(_quotient_ring_algebra(F2, (0, 0, 0, 0, 1)), 3),  # F_2[t]/(t^4)
             (_product_algebra(_matrix_units_algebra(F2, 2),
                               _quotient_ring_algebra(F2, (0, 1))), 0),
             (end_algebra(syzygy_bundle(ideal_of(fermat2, "x^2", "y^2",
                                                 "z^3"), 0)).algebra, 3)]
    for A, rad_dim in cases:
        level0 = nullspace(A.trace_form().T, A.field)
        assert level0.shape[0] > rad_dim
        assert not A.is_nilpotent_ideal(level0)
        rad = A.radical()
        assert rad.shape[0] == rad_dim
        assert rad.tolist() == _radical_by_charpoly_chain(A).tolist()
        assert A.is_nilpotent_ideal(rad)


def test_is_nilpotent_ideal_needs_both_conditions():
    F5 = make_field(5)
    # upper triangular 2 x 2 on e11, e12, e22: e12 spans the radical; the
    # first row (e11, e12) is a two-sided ideal that is not nilpotent, and
    # e11 + e12 spans no ideal ((e11 + e12) e22 = e12)
    T = _triangular_algebra(F5, 2)
    assert T.is_nilpotent_ideal(np.array([[0, 1, 0]]))
    assert T.is_nilpotent_ideal(np.zeros((0, 3), dtype=np.int64))
    assert not T.is_nilpotent_ideal(np.array([[1, 0, 0], [0, 1, 0]]))
    assert not T.is_nilpotent_ideal(np.array([[1, 1, 0]]))
    # e12 of M_2 squares to 0 but generates all of M_2 as an ideal
    M = _matrix_units_algebra(F5, 2)
    assert not M.is_nilpotent_ideal(np.array([[0, 1, 0, 0]]))


def test_radical_refuses_a_chain_ending_in_a_non_nilpotent_ideal(
        monkeypatch):
    # F_2^3 is semisimple of dim 3 >= 2, so level 1 runs; with the trace
    # form forced to 0 and the level forced to keep its input, the chain
    # ends in all of A
    F2 = make_field(2)
    field = _quotient_ring_algebra(F2, (0, 1))
    A = _product_algebra(_product_algebra(field, field), field)
    assert A.radical().shape[0] == 0
    levels = []
    monkeypatch.setattr(FiniteAlgebra, "trace_form",
                        lambda self: np.zeros((self.dim, self.dim),
                                              dtype=np.int64))
    monkeypatch.setattr(FiniteAlgebra, "_chain_level",
                        lambda self, current, level: levels.append(level)
                        or current)
    with pytest.raises(ArithmeticError, match="not nilpotent"):
        A.radical()
    assert levels == [1]


def test_radical_over_an_extension_is_the_embedded_radical():
    # over a perfect field Rad(A (x) K) = Rad(A) (x) K, and the embedded
    # rref rows are already the canonical basis
    import random
    for p in (2, 5):
        base, K = make_field(p), make_field(p, 2)
        rng = random.Random(f"extension-radical:{p}")
        for A in _associative_algebras(base, rng):
            AK, emb = A.extend_scalars(K)
            embedded = np.vectorize(emb, otypes=[np.int64])(A.radical())
            assert AK.is_nilpotent_ideal(embedded)
            assert AK.radical().tolist() == embedded.tolist()


def test_charpolys_batch_matches_one_at_a_time():
    import random
    for field in (make_field(2), make_field(7), make_field(2, 2)):
        rng = random.Random(f"charpolys:{field.q}")
        A = FiniteAlgebra(field, np.zeros((1, 1, 1), dtype=np.int64), [1])
        for n in (0, 1, 3, 5):
            mats = np.array([[[rng.randrange(field.q) for _ in range(n)]
                              for _ in range(n)] for _ in range(4)],
                            dtype=np.int64).reshape(4, n, n)
            batch = A.charpolys(mats)
            assert batch.shape == (4, n + 1)
            for mat, row in zip(mats, batch):
                assert A.charpoly(mat) == row[::-1].tolist()
