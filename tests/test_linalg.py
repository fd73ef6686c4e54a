"""The array ops of Field and the elimination built on them, against a
plain scalar Gauss-Jordan on Python lists, over a prime field, two
extension fields with q x q list tables, two with exp/log tables and one
past the log-table limit, whose array ops map the scalar ops."""

import random
import tracemalloc

import numpy as np
import pytest

from tcone.algebra import FiniteAlgebra, _is_commutative
from tcone.field import _LIST_TABLE_LIMIT, _LOG_TABLE_LIMIT, make_field
import tcone.linalg as linalg
from tcone.linalg import (_DENSE_CELLS, SpanBasis, _eliminate, nullspace,
                          row_space_contains, rref, solve,
                          sparse_row_space_contains)
from tcone.polyring import vec_nf, vec_reducer

FIELDS = [(5, 1), (2, 2), (5, 2), (5, 4), (7, 4), (5, 9)]
# more exp/log-table fields, for the representation and rules-agree tests:
# odd and even characteristic, k = 2 to 8, up to 390,625 elements
LOG_FIELDS = [(3, 6), (31, 2), (2, 10), (5, 8)]
# more list-table fields of characteristic 2, whose sums are XORs, for the
# rules-agree test: the smallest past F_4 and the largest with list tables
XOR_FIELDS = [(2, 3), (2, 8)]
SHAPES = [(0, 3), (3, 0), (1, 1), (4, 4), (3, 6), (6, 3), (5, 5)]


@pytest.fixture(params=FIELDS, ids=lambda pk: f"F{pk[0]}^{pk[1]}")
def field(request):
    return make_field(*request.param)


@pytest.fixture(params=FIELDS + LOG_FIELDS + XOR_FIELDS,
                ids=lambda pk: f"F{pk[0]}^{pk[1]}")
def rules_field(request):
    return make_field(*request.param)


def array_arithmetic(F):
    """Whether F's array ops are numpy arithmetic, not mapped scalar ops."""
    return F.k == 1 or F.q <= _LOG_TABLE_LIMIT


def test_fields_cover_every_representation():
    reps = [("prime" if F.k == 1 else
             "list tables" if F.q <= _LIST_TABLE_LIMIT else
             "log tables" if F.q <= _LOG_TABLE_LIMIT else "scalar")
            for F in (make_field(*pk) for pk in FIELDS + LOG_FIELDS)]
    assert reps == ["prime", "list tables", "list tables", "log tables",
                    "log tables", "scalar"] + ["log tables"] * len(LOG_FIELDS)
    # only small table fields have q x q tables, and lend them out as lists;
    # the others past the log-table limit have no tables at all
    for pk, rep in zip(FIELDS + LOG_FIELDS, reps):
        F = make_field(*pk)
        assert (F.list_tables is not None) == (F._mul_table is not None) \
            == (rep == "list tables")
        assert (F._exp is not None) == (rep in ("list tables", "log tables"))


def test_large_table_fields_allocate_no_list_tables():
    """An rref and a vec_nf over F_1024 allocate less than 2 MB: no copy
    of the field's tables, no q x q table (64 MB as Python lists)."""
    F = make_field(2, 10)
    rng = random.Random("F1024")
    mat = random_matrix(rng, (6, 8), F)
    vec = {(0, (3, 1, 0)): 5, (0, (1, 1, 2)): 700, (1, (2, 0, 0)): 3}
    reducers = [vec_reducer({(0, (1, 1, 0)): 9, (0, (0, 1, 1)): 1000,
                             (1, (0, 0, 0)): 1}, F)]
    tracemalloc.start()
    try:
        red, pivots = rref(mat, F)
        rest = vec_nf(vec, reducers, F)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pivots == ref_rref(mat.tolist(), 8, F)[1]
    assert rest and (0, (3, 1, 0)) not in rest
    assert peak < 2 << 20


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
    if large and array_arithmetic(F):
        out += large_matrices(rng, F)
    return out


def large_matrices(rng, F):
    """Shapes on both sides of linalg._DENSE_CELLS, so that each update
    rule meets each test, on the fields with array arithmetic (the
    scalar-mapped ones are too slow at this size): matrices of low rank, and banded
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


def test_dense_and_sparse_rules_agree(rules_field, monkeypatch):
    """With the cutoff at -1 every matrix, even an empty one, takes the
    numpy sparse rule; with a huge one every matrix over a prime field or a
    field with list tables takes the list rule, and the others still the
    sparse rule: the same pivots, rref rows, forward-echelon matrix and
    row-space answers.  Tall and wide shapes past the default cutoff are
    added here only, since the rules are compared with each other and not
    with the scalar reference."""
    field = rules_field
    rng = random.Random(f"rules:{field.q}")
    mats = matrices(field, 5)
    if array_arithmetic(field):
        mats += [random_matrix(rng, (700, 6), field),
                 random_matrix(rng, (120, 40), field, rank=30)]
    vecs = [np.array([rng.randrange(field.q) for _ in range(mat.shape[1])],
                     dtype=np.int64) for mat in mats]
    list_rule = linalg._eliminate_lists
    results, list_calls = [], []
    for cutoff in (-1, 10 ** 9):
        calls = []
        monkeypatch.setattr(linalg, "_DENSE_CELLS", cutoff)
        monkeypatch.setattr(linalg, "_eliminate_lists",
                            lambda *args: calls.append(1) or list_rule(*args))
        got = []
        for mat, vec in zip(mats, vecs):
            red, pivots = rref(mat, field)
            forward = mat.copy()
            fpiv = _eliminate(forward, field, reduced=False)
            inside = [row_space_contains(mat.copy(), v, field)
                      for v in (vec, mat[-1] if len(mat) else vec)]
            got.append((red.tolist(), pivots, forward.tolist(), fpiv, inside))
        results.append(got)
        list_calls.append(len(calls))
    assert results[0] == results[1]
    takes_lists = field.k == 1 or field.q <= _LIST_TABLE_LIMIT
    assert list_calls == [0, 4 * len(mats) if takes_lists else 0]


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


@pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (5, 1), (7, 1), (5, 2),
                                  (5, 4)])
def test_sparse_row_space_contains_matches_dense(p, k, monkeypatch):
    """Against `row_space_contains`, in both column orders, with a zero
    target, a combination of the rows, a random sparse vector and a
    combination plus a unit vector; with the cutoff at 0 even the small
    systems and those with no rows take the sparse route.  The rows go in
    with int64 and with int32 indices, and the call leaves them and vec
    as they were on either route.  Past F_2 some leads are not 1, and some
    system has more independent rows than distinct leads, so rows that
    share a lead are reduced into pivots of their own."""
    F = make_field(p, k)
    rng = random.Random(f"sparse:{p}^{k}")
    answers = set()
    other_leads = reduced_pivots = False
    for mat in sparse_systems(rng, F):
        for m in (mat, np.ascontiguousarray(mat[:, ::-1])):
            rows, cols = m.shape
            filled = m[m.any(axis=1)]
            leads = (filled != 0).argmax(axis=1)
            other_leads |= bool((filled[np.arange(len(leads)), leads] != 1)
                                .any())
            reduced_pivots |= len(rref(m, F)[1]) > len(set(leads.tolist()))
            indptr, at, vals = sparse_form(m)
            forms = [(indptr, at, vals),
                     (indptr.astype(np.int32), at.astype(np.int32), vals)]
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
                kept = vec.copy()
                for cutoff in (_DENSE_CELLS, 0):
                    monkeypatch.setattr(linalg, "_DENSE_CELLS", cutoff)
                    for form in forms:
                        before = [a.copy() for a in form]
                        assert sparse_row_space_contains(form, vec,
                                                         F) == expect
                        for a, b in zip(form, before):
                            assert a.dtype == b.dtype
                            assert np.array_equal(a, b)
                        assert np.array_equal(vec, kept)
                monkeypatch.setattr(linalg, "_DENSE_CELLS", _DENSE_CELLS)
    assert answers == {True, False}
    assert other_leads == (F.q > 2)
    assert reduced_pivots


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
