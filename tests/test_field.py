import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tcone.field import (_LOG_TABLE_LIMIT, Field, FieldElem, FieldError,
                         _root_of_modulus, embed, find_irreducible,
                         make_field)


# -- independent oracle: smallest irreducible by exhaustive trial division --

def _naive_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _naive_divides(d, f, p):
    f = list(f)
    inv = pow(d[-1], -1, p)
    while len(f) >= len(d):
        if f[-1] == 0:
            f.pop()
            continue
        c = f[-1] * inv % p
        off = len(f) - len(d)
        for i, di in enumerate(d):
            f[off + i] = (f[off + i] - c * di) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return not f


def _naive_irreducible(f, p):
    k = len(f) - 1
    if k == 1:
        return True
    for deg in range(1, k // 2 + 1):
        for code in range(p ** deg):
            coeffs, c = [], code
            for _ in range(deg):
                coeffs.append(c % p)
                c //= p
            d = tuple(coeffs) + (1,)
            if _naive_divides(d, f, p):
                return False
    return True


def _oracle_smallest_irreducible(p, k):
    for code in range(p ** k):
        coeffs, c = [], code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if _naive_irreducible(f, p):
            return f
    raise AssertionError("no irreducible found")


def test_find_irreducible_trivial_cases():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(5, 1) == (0, 1)
    assert find_irreducible(2, 2) == (1, 1, 1)


def test_find_irreducible_derived_cases():
    # frozen values confirmed by the exhaustive oracle below
    assert find_irreducible(3, 2) == (1, 0, 1)
    assert find_irreducible(2, 3) == (1, 1, 0, 1)
    assert find_irreducible(7, 2) == (1, 0, 1)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3),
                                 (5, 2), (7, 2), (11, 2)])
def test_find_irreducible_matches_oracle(p, k):
    assert find_irreducible(p, k) == _oracle_smallest_irreducible(p, k)


def test_make_field_errors():
    with pytest.raises(FieldError):
        make_field(4, 1)
    with pytest.raises(FieldError):
        make_field(1, 1)
    with pytest.raises(FieldError):
        make_field(5, 0)
    with pytest.raises(FieldError):
        make_field(65537, 1)  # past the 2^16 bound


def test_field_orders_past_int64_codes_are_refused():
    """Element codes are int64, so q >= 2^63 is refused before the modulus
    search; the largest powers below the bound are accepted by the same
    test."""
    for p, k in [(2, 63), (5, 28), (3, 40), (65521, 4)]:
        assert p ** k >= 1 << 63
        with pytest.raises(FieldError, match="2\\^63"):
            make_field(p, k)
    for p, k in [(2, 62), (5, 27), (3, 39), (65521, 3)]:
        assert p ** k < 1 << 63
    assert make_field(65521, 3).q == 65521 ** 3


def test_make_field_shares_one_object_per_field():
    # the default extension degree and an explicit k = 1 are the same field
    assert make_field(5) is make_field(5, 1) is make_field(p=5, k=1)
    assert make_field(2, 2) is make_field(2, k=2)
    assert (make_field(5).one() + make_field(5, 1).one()).code == 2


def test_modulus_of_make_field():
    assert make_field(3, 2).modulus == (1, 0, 1)
    assert make_field(2, 2).modulus == (1, 1, 1)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
def test_field_axioms_f9(a, b, c):
    F9 = make_field(3, 2)
    x, y, z = F9.from_code(a), F9.from_code(b), F9.from_code(c)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    if a:
        assert x * x.inverse() == F9.one()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7))
def test_frobenius_additive_f8(a, b):
    F8 = make_field(2, 3)
    x, y = F8.from_code(a), F8.from_code(b)
    assert (x + y).frobenius() == x.frobenius() + y.frobenius()


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2)])
def test_frobenius_fixed_points_are_prime_field(p, k):
    F = make_field(p, k)
    fixed = [a for a in F.elements() if F.frobenius(a) == a]
    assert len(fixed) == p
    assert fixed == list(range(p))  # prime-field codes are 0..p-1


def _naive_rem(f, m, p):
    """Remainder of f modulo the monic m, as a list of len(m) - 1 digits."""
    f = list(f) + [0] * max(0, len(m) - 1 - len(f))
    for off in range(len(f) - len(m), -1, -1):
        c = f[off + len(m) - 1]
        for i, mi in enumerate(m):
            f[off + i] = (f[off + i] - c * mi) % p
    return f[:len(m) - 1]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 5), (5, 2),
                                 (7, 2), (3, 4), (5, 3)])
def test_tables_match_scalar_reference(p, k):
    """Every entry of the add, neg, mul and inv tables, against digit
    arithmetic and polynomial products reduced by the modulus; in
    characteristic 2, which has no add or neg table, the XOR of codes and
    the code itself against digit-wise addition and negation."""
    F = make_field(p, k)
    q = F.q
    digits = [[(a // p ** i) % p for i in range(k)] for a in range(q)]
    code = lambda ds: sum(d * p ** i for i, d in enumerate(ds))
    if p == 2:
        assert F._add_table is F._neg_table is F.list_tables[1] is None
        add, neg = (lambda a, b: a ^ b), (lambda a: a)
    else:
        add, neg = (lambda a, b: F._add_table[a, b]), F._neg_table.__getitem__
    for a in range(q):
        assert neg(a) == code([-d % p for d in digits[a]])
        for b in range(q):
            assert add(a, b) == code(
                [(x + y) % p for x, y in zip(digits[a], digits[b])])
            prod = _naive_mul(digits[a], digits[b], p)
            assert F._mul_table[a, b] == code(_naive_rem(prod, F.modulus, p))
        if a:
            assert F._mul_table[a, F._inv_table[a]] == 1
    assert F._inv_table[0] == 0


# -- reference: the tuple-based F_p[t] arithmetic field.py used to keep ------
#
# Kept verbatim as an independent oracle for the shared univariate helpers
# that now carry the irreducibility search and the table-less multiply.

def _pstrip(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _pmul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pstrip(tuple(out))


def _pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and a:
        if a[-1] == 0:
            a.pop()
            continue
        q = a[-1] * inv_lead % p
        off = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[off + i] = (a[off + i] - q * mi) % p
        a.pop()
    return _pstrip(tuple(a))


def _ppowmod(a, e, m, p):
    result = (1,)
    a = _pmod(a, m, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, a, p), m, p)
        a = _pmod(_pmul(a, a, p), m, p)
        e >>= 1
    return result


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _psub(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _pstrip(tuple(out))


def _ref_is_irreducible(f, p):
    k = len(f) - 1
    if k == 1:
        return True
    x = (0, 1)
    if _pmod(_psub(_ppowmod(x, p ** k, f, p), x, p), f, p):
        return False
    for ell in (l for l in range(2, k + 1)
                if k % l == 0 and all(l % d for d in range(2, l))):
        g = _pgcd(f, _psub(_ppowmod(x, p ** (k // ell), f, p), x, p), p)
        if len(g) - 1 != 0:
            return False
    return True


def _ref_find_irreducible(p, k):
    for code in range(p ** k):
        coeffs, c = [], code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if _ref_is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible found")


def _ref_mul(F, a, b):
    """a * b in F by the reference product and remainder, on codes."""
    prod = _pmod(_pmul(tuple(F._decode(a)), tuple(F._decode(b)), F.p),
                 F.modulus, F.p)
    return sum(c * F.p ** i for i, c in enumerate(prod))


@pytest.mark.parametrize("p,k", [(p, k) for p in (2, 3, 5, 7, 11, 13)
                                 for k in range(1, 13) if p ** k <= 5000])
def test_find_irreducible_matches_reference_arithmetic(p, k):
    assert find_irreducible(p, k) == _ref_find_irreducible(p, k)


@pytest.mark.parametrize("p,k", [(7, 4), (2, 11), (3, 7), (5, 9), (2, 21)])
def test_tableless_mul_matches_reference(p, k):
    # exp/log tables up to 2^20 elements, digit-list products beyond
    F = make_field(p, k)
    assert F._mul_table is None  # beyond the q x q table limit
    assert (F._exp is None) == (F.q > _LOG_TABLE_LIMIT)
    rng = random.Random(p * 100 + k)
    for _ in range(300):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        assert F.mul(a, b) == _ref_mul(F, a, b)


@pytest.mark.parametrize("p,k,count", [(7, 4, 200), (5, 27, 12), (2, 40, 12)])
def test_tableless_inverse_matches_fermat_power(p, k, count):
    # the extended Euclidean inverse against a^(q - 2), about 2 log2(q)
    # digit-list products each, on constants, the generator t (code p),
    # t^(k - 1) and random elements
    F = make_field(p, k)
    assert F._inv_table is None
    rng = random.Random(p * 100 + k)
    for a in [1, p - 1, p, p ** (k - 1)] + [rng.randrange(1, F.q)
                                         for _ in range(count)]:
        inv = F.inv(a)
        assert inv == F.pow(a, F.q - 2)
        assert F.mul(a, inv) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 4), (5, 2), (7, 2), (5, 4)])
def test_tables_match_reference_multiply(p, k):
    """exp lists the powers of one primitive element by the reference
    multiply, log inverts it and Zech's logarithm is log(1 + g^n) by
    digit-wise addition; and the add, neg, mul, sub and inv ops, on the
    q x q tables up to 256 elements and on these tables beyond, equal
    tables built from the reference multiply.  Multiplication by a is
    F_p-linear, so row a of the mul table is the digit matrix of b times
    the reference products of a with the power basis t^0, ..., t^(k-1)."""
    F = make_field(p, k)
    q = F.q
    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p
    g = int(F._exp[1])
    powers = [1]
    for _ in range(q - 2):
        powers.append(_ref_mul(F, powers[-1], g))
    assert F._exp.tolist() == powers
    assert sorted(powers) == list(range(1, q))
    assert [F._log[x] for x in powers] == list(range(q - 1))
    if p == 2:
        assert F._zech is None
    else:
        unit = np.eye(k, dtype=np.int64)[0]
        one_plus = [int((digits[x] + unit) % p @ place) for x in powers]
        half = (q - 1) // 2
        assert one_plus.index(0) == half
        assert [F._exp[z] for n, z in enumerate(F._zech) if n != half] == \
            [x for x in one_plus if x]
    assert (F._add_table is None) == (q > 256 or p == 2)
    A, B = np.arange(q)[:, None], np.arange(q)[None, :]
    add = (digits[:, None, :] + digits[None, :, :]) % p @ place
    neg = -digits % p @ place
    assert np.array_equal(F.vadd(A, B), add)
    assert np.array_equal(F.vneg(np.arange(q)), neg)
    assert np.array_equal(F.vsub(A, B), add[:, neg])
    products = F.vmul(A, B)
    for a in range(q):
        by_a = np.array([F._decode(_ref_mul(F, a, p ** j)) for j in range(k)])
        row = digits @ by_a % p @ place
        assert np.array_equal(products[a], row)
        if a:
            assert F.inv(a) == np.flatnonzero(row == 1)[0]
        for b in (0, 1, a, q - 1 - a):
            assert F.add(a, b) == add[a, b] and F.mul(a, b) == row[b]
            assert F.sub(a, b) == add[a, neg[b]] and F.neg(b) == neg[b]


def _ref_pow(F, x, e):
    result = 1
    while e:
        if e & 1:
            result = _ref_mul(F, result, x)
        x = _ref_mul(F, x, x)
        e >>= 1
    return result


@pytest.mark.parametrize("p,k", [(5, 4), (3, 6), (31, 2), (2, 10), (7, 4),
                                 (5, 8)])
def test_log_table_fields_match_reference_arithmetic(p, k):
    """Fields of 257 to 2^20 elements: their scalar and array ops against
    the reference multiply and digit-wise addition, on random pairs and on
    pairs with a zero, a one, a repeat or a negative; and exp[n + 1] is
    exp[n] times g, with log inverting exp, at random n."""
    F = make_field(p, k)
    assert F._mul_table is None and F.list_tables is None
    rng = random.Random(f"log:{p}^{k}")
    xs = [rng.randrange(F.q) for _ in range(400)]
    ys = [rng.randrange(F.q) for _ in range(400)]
    for x in xs[:20]:
        neg = F._encode([-d for d in F._decode(x)])
        xs += [x, 0, x, 1, x]
        ys += [0, x, x, x, neg]
    def add(x, y):
        return F._encode([a + b for a, b in zip(F._decode(x), F._decode(y))])
    neg = [F._encode([-d for d in F._decode(y)]) for y in ys]
    want = {"mul": [_ref_mul(F, x, y) for x, y in zip(xs, ys)],
            "add": [add(x, y) for x, y in zip(xs, ys)],
            "sub": [add(x, y) for x, y in zip(xs, neg)]}
    a, b = np.array(xs), np.array(ys)
    assert F.vmul(a, b).tolist() == want["mul"]
    assert F.vadd(a, b).tolist() == want["add"]
    assert F.vsub(a, b).tolist() == want["sub"]
    assert F.vneg(b).tolist() == neg
    assert [F.mul(x, y) for x, y in zip(xs, ys)] == want["mul"]
    assert [F.add(x, y) for x, y in zip(xs, ys)] == want["add"]
    assert [F.sub(x, y) for x, y in zip(xs, ys)] == want["sub"]
    assert [F.neg(y) for y in ys] == neg
    for x in xs[:50]:
        if x:
            assert _ref_mul(F, x, F.inv(x)) == 1
            e = rng.randrange(2 * F.q)
            assert F.pow(x, e) == _ref_pow(F, x, e)
    g = int(F._exp[1])
    for n in [0, F.q - 3] + [rng.randrange(F.q - 2) for _ in range(50)]:
        assert F._exp[n + 1] == _ref_mul(F, int(F._exp[n]), g)
        assert F._log[F._exp[n]] == n


def _ref_add(F, a, b):
    """a + b in F by digit-wise addition mod p, on codes."""
    return F._encode([x + y for x, y in zip(F._decode(a), F._decode(b))])


def _ref_matmul(F, A, B):
    """numpy's matmul broadcasting over the stacks, with every entry a sum
    of reference products by reference additions."""
    batch = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, batch + A.shape[-2:])
    B = np.broadcast_to(B, batch + B.shape[-2:])
    out = np.zeros(batch + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for *at, i, j in np.ndindex(*out.shape):
        acc = 0
        for t in range(A.shape[-1]):
            acc = _ref_add(F, acc, _ref_mul(F, int(A[(*at, i, t)]),
                                            int(B[(*at, t, j)])))
        out[(*at, i, j)] = acc
    return out


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 8), (2, 9), (2, 10),
                                 (2, 21)])
def test_characteristic_2_sums_are_xor_on_every_route(p, k):
    """On q x q tables (F_4, F_8, F_256), exp/log tables (F_512, F_1024)
    and scalar-mapped digit lists (F_(2^21)) alike: the scalar and array
    add, sub and neg against digit-wise addition, axpy against it and the
    reference multiply, and matmul against sums of reference products, on
    broadcast stacks and with odd, unit and zero inner dimensions."""
    F = make_field(p, k)
    assert F._add_table is F._neg_table is None
    rng = random.Random(f"xor:{k}")
    xs = [rng.randrange(F.q) for _ in range(60)] + [0, 1, F.q - 1, 0]
    ys = [rng.randrange(F.q) for _ in range(60)] + [5 % F.q, 0, F.q - 1, 0]
    want = [_ref_add(F, x, y) for x, y in zip(xs, ys)]
    assert want == [x ^ y for x, y in zip(xs, ys)]
    a, b = np.array(xs), np.array(ys)
    for op, vop in ((F.add, F.vadd), (F.sub, F.vsub)):
        assert [op(x, y) for x, y in zip(xs, ys)] == want
        assert vop(a, b).tolist() == want
    assert [F.neg(x) for x in xs] == xs and F.vneg(a).tolist() == xs
    neg = F.vneg(a)
    neg[0] ^= 1
    assert a[0] != neg[0]  # vneg returns a copy
    c = rng.randrange(1, F.q)
    assert F.axpy(a, c, b).tolist() == [_ref_add(F, x, _ref_mul(F, c, y))
                                        for x, y in zip(xs, ys)]
    cs = np.array(ys[:5])[:, None]
    rows = np.array(xs[:15]).reshape(5, 3)
    assert F.axpy(rows, cs, np.array(xs[20:23])).tolist() == [
        [_ref_add(F, x, _ref_mul(F, int(cs[i, 0]), y))
         for x, y in zip(rows[i].tolist(), xs[20:23])] for i in range(5)]
    for shape_a, shape_b in [((2, 3, 5), (5, 4)), ((3, 1, 2, 3), (2, 3, 2)),
                             ((4, 7), (7, 1)), ((1, 1), (1, 1)),
                             ((2, 0), (0, 3)), ((2, 2, 0), (0, 4))]:
        A = np.array([rng.randrange(F.q) for _ in range(np.prod(shape_a))],
                     dtype=np.int64).reshape(shape_a)
        B = np.array([rng.randrange(F.q) for _ in range(np.prod(shape_b))],
                     dtype=np.int64).reshape(shape_b)
        got = F.matmul(A, B)
        assert got.dtype == np.int64
        assert np.array_equal(got, _ref_matmul(F, A, B))


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 5), (5, 2),
                                 (7, 2), (3, 4), (2, 8)])
def test_list_table_scalar_ops_match_array_ops(p, k):
    """On the fields with list tables, the scalar ops read the lists and
    the array ops the arrays (or XOR in characteristic 2): the two agree
    on all q x q pairs, and each scalar result is a Python int."""
    F = make_field(p, k)
    assert F.list_tables is not None
    q = F.q
    A, B = np.arange(q)[:, None], np.arange(q)[None, :]
    for op, vop in ((F.add, F.vadd), (F.sub, F.vsub), (F.mul, F.vmul)):
        got = [[op(a, b) for b in range(q)] for a in range(q)]
        assert got == vop(A, B).tolist()
        assert {type(x) for row in got for x in row} == {int}
    assert [F.neg(a) for a in range(q)] == F.vneg(np.arange(q)).tolist()
    invs = [F.inv(a) for a in range(1, q)]
    assert F.vmul(np.arange(1, q), np.array(invs)).tolist() == [1] * (q - 1)


def test_log_tables_stay_within_their_budget():
    """F_1024 keeps under 0.5 MiB of tables (its q x q tables took 16 MiB
    as arrays); F_(1021^2), the largest field with exp/log tables and one
    of odd characteristic, so with Zech's logarithm too, keeps 16 bytes per
    element, under 16 MiB, and at most twice that while building them."""
    for (p, k), budget in (((2, 10), 1 << 19), ((1021, 2), 16 << 20)):
        tracemalloc.start()
        try:
            F = Field(p, k)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert F._exp is not None and F._mul_table is None
        assert kept < budget and peak < 2 * budget
    assert (1021 ** 2 <= _LOG_TABLE_LIMIT < 1031 ** 2
            and 2 ** 20 <= _LOG_TABLE_LIMIT < 3 ** 13)
    assert make_field(5, 9)._exp is None


def test_elem_coeffs_roundtrip():
    F8 = make_field(2, 3)
    for code in range(8):
        e = F8.from_code(code)
        assert F8._encode(list(e.coeffs)) == code
        assert len(e.coeffs) == 3


# -- embeddings -------------------------------------------------------------

def test_embed_identity_and_prime_subfield():
    F2, F4 = make_field(2), make_field(2, 2)
    one = F2.one()
    assert embed(one, F4) == F4.one()
    assert embed(F2.zero(), F4) == F4.zero()
    for c in range(2):
        assert embed(F2.from_code(c), F4).code == c


def test_embed_generator_smallest_root():
    # derived by root enumeration: images of the F4 generator in F16 are the
    # roots of t^2+t+1; the embedding picks the smallest code
    F4, F16 = make_field(2, 2), make_field(2, 4)
    g = F4.generator()
    roots = []
    for code in range(16):
        x = F16.from_code(code)
        if x * x + x + F16.one() == F16.zero():
            roots.append(code)
    assert roots  # the quadratic splits in F16
    assert embed(g, F16).code == min(roots)


@pytest.mark.parametrize("p,ks,kt", [(2, 2, 4), (2, 3, 6), (3, 2, 4),
                                     (5, 2, 4)])
def test_embed_is_ring_embedding(p, ks, kt):
    src, tgt = make_field(p, ks), make_field(p, kt)
    rng_codes = range(src.q)
    for a in rng_codes:
        for b in (1, 2, min(5, src.q - 1)):
            x, y = src.from_code(a), src.from_code(b)
            assert embed(x * y, tgt) == embed(x, tgt) * embed(y, tgt)
            assert embed(x + y, tgt) == embed(x, tgt) + embed(y, tgt)
    images = {embed(src.from_code(a), tgt).code for a in rng_codes}
    assert len(images) == src.q  # injective


@pytest.mark.parametrize("p,ks,kt", [(2, 2, 4), (2, 2, 8), (5, 2, 4),
                                     (3, 2, 6), (2, 3, 6), (7, 2, 4)])
def test_root_of_modulus_is_smallest_root_in_whole_target(p, ks, kt):
    src, tgt = make_field(p, ks), make_field(p, kt)

    def value_at(code):
        x, acc = tgt.from_code(code), tgt.zero()
        for c in reversed(src.modulus):
            acc = acc * x + tgt.elem(c)
        return acc

    roots = [code for code in range(tgt.q) if value_at(code).is_zero()]
    assert len(roots) == ks
    assert _root_of_modulus(src, tgt) == min(roots)


def test_embed_is_deterministic_within_process():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    g = F4.generator()
    assert embed(g, F16).code == embed(g, F16).code


def test_embed_rejects_bad_degrees():
    F4, F8 = make_field(2, 2), make_field(2, 3)
    with pytest.raises(FieldError):
        embed(F4.generator(), F8)


def test_mixed_field_arithmetic_rejected():
    F5, F7 = make_field(5), make_field(7)
    with pytest.raises(FieldError):
        F5.one() + F7.one()
