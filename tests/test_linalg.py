"""The array ops of Field and the elimination built on them, against a
plain scalar Gauss-Jordan on Python lists, over a prime field, two
table-backed extension fields and one field past the table limit."""

import random

import numpy as np
import pytest

from tcone.algebra import FiniteAlgebra, _is_commutative
from tcone.field import _TABLE_LIMIT, make_field
import tcone.linalg as linalg
from tcone.linalg import (_DENSE_CELLS, SpanBasis, _eliminate, nullspace,
                          row_space_contains, rref, solve,
                          sparse_row_space_contains)

FIELDS = [(5, 1), (2, 2), (5, 2), (7, 4)]
SHAPES = [(0, 3), (3, 0), (1, 1), (4, 4), (3, 6), (6, 3), (5, 5)]


@pytest.fixture(params=FIELDS, ids=lambda pk: f"F{pk[0]}^{pk[1]}")
def field(request):
    return make_field(*request.param)


def test_fields_cover_every_representation():
    reps = {("prime" if F.k == 1 else
             "table" if F.q <= _TABLE_LIMIT else "scalar")
            for F in (make_field(*pk) for pk in FIELDS)}
    assert reps == {"prime", "table", "scalar"}
    # only scalar-mapped array ops are not vectorised
    assert [make_field(*pk).vectorised for pk in FIELDS] == \
        [True, True, True, False]


# ---------------------------------------------------------------------------
# scalar references
# ---------------------------------------------------------------------------

def ref_rref(rows, ncols, F):
    """Gauss-Jordan on lists with the scalar ops; (rows, pivots, det)."""
    m = [list(map(int, row)) for row in rows]
    pivots, det, r = [], 1, 0
    for c in range(ncols):
        if r >= len(m):
            break
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            det = F.neg(det)
        det = F.mul(det, m[r][c])
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    if r < ncols:
        det = 0
    return m[:r], pivots, det


def ref_matmul(A, B, F):
    """Product of two code matrices (numpy arrays) as a list of lists."""
    out = [[0] * B.shape[1] for _ in range(A.shape[0])]
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            for k in range(A.shape[1]):
                out[i][j] = F.add(out[i][j], F.mul(int(A[i, k]), int(B[k, j])))
    return out


def random_matrix(rng, shape, F, rank=None):
    rows, cols = shape
    if rank is None:
        return np.array([[rng.randrange(F.q) for _ in range(cols)]
                         for _ in range(rows)], dtype=np.int64).reshape(shape)
    left = random_matrix(rng, (rows, rank), F)
    right = random_matrix(rng, (rank, cols), F)
    return np.array(ref_matmul(left, right, F),
                    dtype=np.int64).reshape(shape)


def matrices(F, seed, large=True):
    rng = random.Random(f"{F.p}^{F.k}:{seed}")
    out = [np.zeros(shape, dtype=np.int64) for shape in SHAPES]
    out += [random_matrix(rng, shape, F) for shape in SHAPES]
    out += [random_matrix(rng, (5, 6), F, rank=2),
            random_matrix(rng, (6, 4), F, rank=3)]
    full = np.eye(4, dtype=np.int64)
    full[0] = [rng.randrange(1, F.q) for _ in range(4)]
    out.append(full)
    # sparse rows, whose updates touch only the pivot row's nonzero columns
    for shape in [(8, 24), (12, 16)]:
        sparse = random_matrix(rng, shape, F)
        sparse[[[rng.random() < 0.8 for _ in range(shape[1])]
                for _ in range(shape[0])]] = 0
        out.append(sparse)
    if large and F.vectorised:
        out += large_matrices(rng, F)
    return out


def large_matrices(rng, F):
    """Shapes on both sides of linalg._DENSE_CELLS, so that each update
    rule meets each test, on the fields with array arithmetic (the others
    always take the sparse rule): matrices of low rank, and banded
    ones shaped like the Frobenius oracle's systems (twice as many columns
    as rows, each row a short band shifted two columns down the row
    above, so each pivot column has few nonzeros)."""
    assert 64 * 64 <= _DENSE_CELLS < 66 * 64
    out = [random_matrix(rng, (64, 64), F, rank=6),
           random_matrix(rng, (66, 64), F, rank=7)]
    for rows in (44, 46):
        assert (rows * 2 * rows <= _DENSE_CELLS) == (rows == 44)
        band = np.zeros((rows, 2 * rows), dtype=np.int64)
        for i in range(rows):
            band[i, 2 * i:2 * i + 5] = [rng.randrange(F.q) for _ in range(5)
                                        ][:2 * rows - 2 * i]
        band[rows // 2] = band[rows // 3]   # a dependent row
        out.append(band)
    return out


# ---------------------------------------------------------------------------
# the array ops
# ---------------------------------------------------------------------------

def test_array_ops_match_scalar_ops(field):
    F = field
    rng = random.Random(F.q)
    a = np.array([rng.randrange(F.q) for _ in range(30)], dtype=np.int64)
    b = np.array([rng.randrange(F.q) for _ in range(30)], dtype=np.int64)
    c = rng.randrange(F.q)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert F.vadd(a, b).tolist() == [F.add(x, y) for x, y in pairs]
    assert F.vsub(a, b).tolist() == [F.sub(x, y) for x, y in pairs]
    assert F.vmul(a, b).tolist() == [F.mul(x, y) for x, y in pairs]
    assert F.vneg(a).tolist() == [F.neg(x) for x in a.tolist()]
    assert F.axpy(a, c, b).tolist() == \
        [F.sub(x, F.mul(c, y)) for x, y in pairs]
    for shape_a, shape_b in [((0, 3), (3, 2)), ((2, 0), (0, 3)),
                             ((1, 1), (1, 1)), ((3, 5), (5, 4)),
                             ((2, 7), (7, 1))]:
        A = random_matrix(rng, shape_a, F)
        B = random_matrix(rng, shape_b, F)
        got = F.matmul(A, B)
        assert got.shape == (shape_a[0], shape_b[1])
        assert got.tolist() == ref_matmul(A, B, F)


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------

def test_rref_matches_reference(field):
    for mat in matrices(field, 0):
        before = mat.copy()
        red, pivots = rref(mat, field)
        ref, ref_piv, _ = ref_rref(mat.tolist(), mat.shape[1], field)
        assert pivots == ref_piv
        assert red.shape == (len(ref), mat.shape[1])
        assert red.tolist() == ref
        assert np.array_equal(mat, before)  # input left untouched


def test_forward_elimination_matches_reference(field):
    for mat in matrices(field, 4):
        m = mat.copy()
        pivots = _eliminate(m, field, reduced=False)
        ref, ref_piv, _ = ref_rref(mat.tolist(), mat.shape[1], field)
        assert pivots == ref_piv
        assert not m[len(pivots):].any()
        for r, pc in enumerate(pivots):
            # echelon: zero left of and below each pivot, pivot 1
            assert not m[r, :pc].any() and m[r, pc] == 1
            assert not m[r + 1:, pc].any()
        # same row space as the reduced form
        assert rref(m[:len(pivots)], field)[0].tolist() == ref


def test_dense_and_sparse_rules_agree(field, monkeypatch):
    """With the cutoff at 0 every matrix takes the sparse rule, with a huge
    one every matrix on a vectorised field takes the dense rule: the same
    pivots, rref rows, forward-echelon matrix and row-space answers.  Tall
    and wide shapes past the default cutoff are added here only, since the
    rules are compared with each other and not with the scalar reference."""
    rng = random.Random(f"rules:{field.q}")
    mats = matrices(field, 5)
    if field.vectorised:
        mats += [random_matrix(rng, (700, 6), field),
                 random_matrix(rng, (120, 40), field, rank=30)]
    vecs = [np.array([rng.randrange(field.q) for _ in range(mat.shape[1])],
                     dtype=np.int64) for mat in mats]
    results = []
    for cutoff in (0, 10 ** 9):
        monkeypatch.setattr(linalg, "_DENSE_CELLS", cutoff)
        got = []
        for mat, vec in zip(mats, vecs):
            red, pivots = rref(mat, field)
            forward = mat.copy()
            fpiv = _eliminate(forward, field, reduced=False)
            inside = [row_space_contains(mat.copy(), v, field)
                      for v in (vec, mat[-1] if len(mat) else vec)]
            got.append((red.tolist(), pivots, forward.tolist(), fpiv, inside))
        results.append(got)
    assert results[0] == results[1]


def sparse_systems(rng, F):
    """Matrices of sparse rows: no rows, zero rows, and rows of one to four
    nonzeros of which about half are combinations of two or three others,
    so that leads are shared, reductions fill in and some rows vanish; the
    last two shapes are past `_DENSE_CELLS`."""
    out = [np.zeros((0, 6), dtype=np.int64), np.zeros((0, 80), dtype=np.int64),
           np.zeros((3, 6), dtype=np.int64)]
    for rows, cols in [(6, 10), (20, 30), (40, 120), (70, 90)]:
        base = np.zeros((rows // 2, cols), dtype=np.int64)
        for row in base:
            at = rng.sample(range(cols), rng.randint(1, 4))
            row[at] = [rng.randrange(1, F.q) for _ in at]
        mixed = []
        for _ in range(rows - len(base) - 1):
            mix = np.zeros(cols, dtype=np.int64)
            for i in rng.sample(range(len(base)), rng.randint(2, 3)):
                mix = F.vadd(mix, F.vmul(rng.randrange(1, F.q), base[i]))
            mixed.append(mix)
        mat = np.vstack([base, mixed, np.zeros((1, cols), dtype=np.int64)])
        out.append(mat[rng.sample(range(rows), rows)])
    assert [m.size > _DENSE_CELLS for m in out[-2:]] == [True, True]
    return out


def sparse_form(mat):
    """mat's rows as (indptr, cols, vals), the input of
    `sparse_row_space_contains`."""
    r, c = np.nonzero(mat)
    counts = np.count_nonzero(mat, axis=1)
    return np.concatenate(([0], np.cumsum(counts))), c, mat[r, c]


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (5, 1), (7, 1), (5, 2)])
def test_sparse_row_space_contains_matches_dense(p, k, monkeypatch):
    """Against `row_space_contains`, in both column orders, with a zero
    target, a combination of the rows, a random sparse vector and a
    combination plus a unit vector; with the cutoff at 0 even the small
    systems and those with no rows take the sparse route."""
    F = make_field(p, k)
    rng = random.Random(f"sparse:{p}^{k}")
    answers = set()
    for mat in sparse_systems(rng, F):
        for m in (mat, np.ascontiguousarray(mat[:, ::-1])):
            rows, cols = m.shape
            comb = np.zeros(cols, dtype=np.int64)
            for row in m:
                comb = F.vadd(comb, F.vmul(rng.randrange(F.q), row))
            unit = np.zeros(cols, dtype=np.int64)
            unit[rng.randrange(cols)] = rng.randrange(1, F.q)
            loose = np.zeros(cols, dtype=np.int64)
            at = rng.sample(range(cols), min(cols, 3))
            loose[at] = [rng.randrange(1, F.q) for _ in at]
            for vec in (np.zeros(cols, dtype=np.int64), comb, loose,
                        F.vadd(comb, unit)):
                expect = row_space_contains(m.copy(), vec, F)
                answers.add(expect)
                for cutoff in (_DENSE_CELLS, 0):
                    monkeypatch.setattr(linalg, "_DENSE_CELLS", cutoff)
                    assert sparse_row_space_contains(sparse_form(m), vec,
                                                     F) == expect
                monkeypatch.setattr(linalg, "_DENSE_CELLS", _DENSE_CELLS)
    assert answers == {True, False}


def test_nullspace_matches_reference(field):
    for mat in matrices(field, 1):
        rows, cols = mat.shape
        basis = nullspace(mat, field)
        _, ref_piv, _ = ref_rref(mat.tolist(), cols, field)
        assert basis.shape == (cols - len(ref_piv), cols)
        if rows and basis.shape[0]:
            prod = ref_matmul(mat, basis.T, field)
            assert not np.array(prod).any()
        # canonical: row i is 1 at its free column, 0 at the other free ones
        free = [c for c in range(cols) if c not in ref_piv]
        assert basis[:, free].tolist() == np.eye(len(free),
                                                  dtype=np.int64).tolist()


def test_solve_and_row_space_contains(field):
    rng = random.Random(f"solve:{field.q}")
    for mat in matrices(field, 2):
        rows, cols = mat.shape
        if rows == 0:
            continue
        x = random_matrix(rng, (cols, 1), field)
        rhs = np.array(ref_matmul(mat, x, field), dtype=np.int64)[:, 0]
        sol = solve(mat, rhs, field)
        assert sol is not None
        assert ref_matmul(mat, sol[:, None], field) == rhs[:, None].tolist()
        # canonical: free variables are zero
        _, ref_piv, _ = ref_rref(mat.tolist(), cols, field)
        assert all(sol[c] == 0 for c in range(cols) if c not in ref_piv)
        # a right-hand side outside the column space has no solution
        aug = np.concatenate([mat, rhs[:, None]], axis=1)
        for trial in range(3):
            bad = np.array([rng.randrange(field.q) for _ in range(rows)],
                           dtype=np.int64)
            aug[:, -1] = bad
            consistent = len(ref_rref(aug.tolist(), cols + 1, field)[1]) \
                == len(ref_piv)
            assert (solve(mat, bad, field) is not None) == consistent
        # row space membership of a combination and of a random vector
        if cols:
            comb = ref_matmul(random_matrix(rng, (1, rows), field), mat,
                              field)[0]
            assert row_space_contains(mat.copy(),
                                      np.array(comb, dtype=np.int64), field)
            vec = [rng.randrange(field.q) for _ in range(cols)]
            inside = len(ref_rref(mat.tolist() + [vec], cols, field)[1]) \
                == len(ref_piv)
            assert row_space_contains(mat.copy(),
                                      np.array(vec, dtype=np.int64),
                                      field) == inside


def test_solve_columns_match_one_column_solves(field):
    """A 2-D right-hand side gives, column by column, what solve gives for
    that column alone: the same canonical solution or the same None.  Zero,
    zero-row, rank-deficient and full-rank matrices; consistent columns,
    random (mostly inconsistent) ones and zero columns side by side."""
    rng = random.Random(f"solve-2d:{field.q}")
    for mat in matrices(field, 4):
        rows, cols = mat.shape
        consistent = random_matrix(rng, (rows, 3), field) if cols == 0 else \
            np.array(ref_matmul(mat, random_matrix(rng, (cols, 3), field),
                                field), dtype=np.int64).reshape(rows, 3)
        if cols == 0:
            consistent[:] = 0
        rhs = np.concatenate([consistent[:, :2],
                              random_matrix(rng, (rows, 3), field),
                              np.zeros((rows, 1), dtype=np.int64),
                              consistent[:, 2:]], axis=1)
        got = solve(mat, rhs, field)
        assert len(got) == rhs.shape[1]
        for j in range(rhs.shape[1]):
            one = solve(mat, rhs[:, j].copy(), field)
            assert (got[j] is None) == (one is None)
            if one is not None:
                assert got[j].tolist() == one.tolist()
        for j in (0, 1, 5, 6):
            assert got[j] is not None
    assert solve(np.zeros((0, 3), dtype=np.int64),
                 np.zeros((0, 2), dtype=np.int64), field)[1].tolist() \
        == [0, 0, 0]


def test_span_basis_matches_reference(field):
    # SpanBasis runs no `_eliminate`, so the shapes around its cutoff would
    # only slow the prefix-rank reference down
    for mat in matrices(field, 3, large=False):
        rows, cols = mat.shape
        span = SpanBasis(cols, field)
        prev = 0
        for i in range(rows):
            grew = span.add(mat[i])
            prefix_rank = len(ref_rref(mat[:i + 1].tolist(), cols, field)[1])
            assert grew == (prefix_rank > prev)
            assert span.dim == prefix_rank
            assert span.contains(mat[i])
            prev = prefix_rank
        ref, ref_piv, _ = ref_rref(mat.tolist(), cols, field)
        assert span.pivots == ref_piv
        assert span.matrix().tolist() == ref


# ---------------------------------------------------------------------------
# FiniteAlgebra arithmetic
# ---------------------------------------------------------------------------

def random_algebra(field, n, rng):
    table = [[[rng.randrange(field.q) for _ in range(n)] for _ in range(n)]
             for _ in range(n)]
    unit = [1] + [0] * (n - 1) if n else []
    return FiniteAlgebra(field, table, unit), table


def test_algebra_mul_matches_reference(field):
    rng = random.Random(f"mul:{field.q}")
    for n in (1, 2, 3, 5):
        A, table = random_algebra(field, n, rng)
        for _ in range(4):
            a = [rng.randrange(field.q) for _ in range(n)]
            b = [rng.randrange(field.q) for _ in range(n)]
            ref = [0] * n
            for i in range(n):
                for j in range(n):
                    coef = field.mul(a[i], b[j])
                    for k in range(n):
                        ref[k] = field.add(ref[k],
                                           field.mul(coef, table[i][j][k]))
            got = A.mul(np.array(a, dtype=np.int64),
                        np.array(b, dtype=np.int64))
            assert got.tolist() == ref
            # column j of the left regular matrix is a * b_j
            L = A.left_regular(np.array(a, dtype=np.int64))
            for j in range(n):
                e = np.zeros(n, dtype=np.int64)
                e[j] = 1
                assert L[:, j].tolist() == \
                    A.mul(np.array(a, dtype=np.int64), e).tolist()


def test_algebra_table_reads_match_one_hot_products(field):
    """_is_commutative, center and quotient read products of basis
    elements from the table; the one-hot `mul` route gives the same."""
    rng = random.Random(f"table:{field.q}")
    for n in (1, 2, 3, 4):
        A, table = random_algebra(field, n, rng)
        sym = [[table[min(i, j)][max(i, j)] for j in range(n)]
               for i in range(n)]
        for B in (A, FiniteAlgebra(field, sym, A.unit)):
            eye = np.eye(n, dtype=np.int64)
            prods = [[B.mul(eye[i], eye[j]) for j in range(n)]
                     for i in range(n)]
            assert _is_commutative(B) == all(
                np.array_equal(prods[i][j], prods[j][i])
                for i in range(n) for j in range(n))
            conds = [np.stack([B.sub(prods[i][j], prods[j][i])
                               for i in range(n)], axis=1) for j in range(n)]
            assert np.array_equal(B.center(),
                                  nullspace(np.concatenate(conds), field))
            rad = random_matrix(rng, (1, n), field)
            quot, project, section = B.quotient(rad)
            want = [[project(B.mul(a, b)) for b in section] for a in section]
            assert np.array_equal(quot.table,
                                  np.array(want, dtype=np.int64).reshape(
                                      quot.table.shape))


def test_charpoly_matches_reference_determinant(field):
    """charpoly(M)(t) = det(t - M) at n or more points determines the
    monic degree-n polynomial."""
    rng = random.Random(f"charpoly:{field.q}")
    A, _ = random_algebra(field, 1, rng)
    assert A.charpoly(np.zeros((0, 0), dtype=np.int64)) == [1]
    for n in (1, 2, 3, 4):
        mat = random_matrix(rng, (n, n), field)
        cp = A.charpoly(mat)
        assert len(cp) == n + 1 and cp[-1] == 1
        points = range(min(field.q, 2 * n + 1))
        assert len(points) >= n
        for t in points:
            shifted = [[field.sub(t if i == j else 0, int(mat[i, j]))
                        for j in range(n)] for i in range(n)]
            det = ref_rref(shifted, n, field)[2]
            value = 0
            for c in reversed(cp):
                value = field.add(field.mul(value, t), c)
            assert value == det
