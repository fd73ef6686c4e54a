"""Exact arithmetic in prime fields F_p and their extensions F_{p^k}.

Elements of F_{p^k} are encoded as integers ("codes") in [0, p^k): the
element sum(c_i * t^i) with 0 <= c_i < p has code sum(c_i * p^i), where t
is the class of the variable modulo the defining polynomial.  The defining
polynomial is always the irreducible monic polynomial of degree k over F_p
whose code (leading coefficient dropped) is smallest, so every field built
from the same (p, k) is identical across runs and machines.

The code order doubles as the canonical order on field elements; "smallest
root" choices elsewhere in the library refer to it.

Arithmetic on codes takes one of four routes, chosen by the order q:

* prime fields: integers mod p;
* extension fields of at most `_LIST_TABLE_LIMIT` = 256 elements: a full
  q x q mul table, and in odd characteristic an add table, as numpy arrays
  and as nested Python lists;
* extension fields of at most `_LOG_TABLE_LIMIT` = 2^20 elements: tables
  of O(q) entries on a primitive element g, exp (the codes of g^i) and log,
  where a product is exp[log a + log b]; in odd characteristic a sum goes
  through Zech's logarithm log(1 + g^n); at most 16 bytes per element, so
  16 MiB for the largest such field;
* larger extension fields: digit-list products reduced by the modulus,
  mapped over arrays by np.vectorize.

On every extension field of characteristic 2 the digits of a code are its
bits, so a sum or difference is the XOR of codes and -a is a, whatever the
route: no add or neg table is built there, and a matrix product sums its
terms with one XOR reduction.

All routes give the same codes, so the route never shows in a result.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

from .linalg import nullspace


class FieldError(ValueError):
    """Invalid field construction or incompatible field operation."""


# extension fields with at most this many elements get a full q x q mul
# table, and in odd characteristic an add table, as arrays for the array
# ops and as nested Python lists (`Field.list_tables`) for the scalar ops
# and loops over single elements, where indexing a list is cheaper than
# numpy lookups; as lists the two tables of F_625 would take 20 MB and the
# mul table of F_1024 32 MB
_LIST_TABLE_LIMIT = 256

# extension fields with at most this many elements get exp/log tables:
# exp as int64 codes, log and Zech's logarithm as int32, at most 16 bytes
# per element, so that the tables of the largest such field, F_(2^20) or
# F_(1021^2), stay within 16 MiB, while the quadratic extensions of every
# input field of up to 1024 elements fit; the fields of at most
# _LIST_TABLE_LIMIT elements build their q x q tables from them, the others
# compute on them, and past this limit every product is a digit-list
# product (F_(5^9), F_(5^27))
_LOG_TABLE_LIMIT = 1 << 20

# the exp table is built by multiplying rows of this many digit vectors by
# a k x k matrix, so that its temporaries stay small next to the table
_EXP_BLOCK = 1 << 12

# matrices hold element codes as int64, so every code, and the order, must
# stay below this
_ORDER_LIMIT = 1 << 63


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# univariate polynomials over a Field, as little-endian lists of codes
# ---------------------------------------------------------------------------

def ustrip(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def usub(a, b, f):
    n = max(len(a), len(b))
    return ustrip([f.sub(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0)
                   for i in range(n)])


def umul(a, b, f):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = f.add(out[i + j], f.mul(ai, bj))
    return ustrip(out)


def umonic(a, f):
    if not a:
        return a
    inv = f.inv(a[-1])
    return [f.mul(inv, c) for c in a]


def udivmod(a, b, f):
    a = list(a)
    if not b:
        raise ZeroDivisionError("univariate division by zero")
    db = len(b) - 1
    inv = f.inv(b[-1])
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        if a[-1] == 0:
            a.pop()
            continue
        c = f.mul(a[-1], inv)
        off = len(a) - 1 - db
        q[off] = c
        for i, bi in enumerate(b):
            a[off + i] = f.sub(a[off + i], f.mul(c, bi))
        a.pop()
    return ustrip(q), ustrip(a)


def ugcd(a, b, f):
    a, b = list(a), list(b)
    while b:
        a, b = b, udivmod(a, b, f)[1]
    return umonic(a, f)


def upowmod(a, e, m, f):
    result = [1]
    a = udivmod(a, m, f)[1]
    while e:
        if e & 1:
            result = udivmod(umul(result, a, f), m, f)[1]
        a = udivmod(umul(a, a, f), m, f)[1]
        e >>= 1
    return result


def _prime_factors(n: int):
    fs = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            fs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        fs.append(n)
    return fs


def _is_irreducible(f, p):
    """Deterministic irreducibility test for monic f over F_p.

    Checks x^(p^k) == x mod f and gcd(x^(p^(k/l)) - x, f) == 1 for every
    prime l dividing k = deg f.
    """
    k = len(f) - 1
    if k <= 0:
        return False
    if k == 1:
        return True
    Fp = make_field(p)
    x = [0, 1]
    if usub(upowmod(x, p ** k, f, Fp), x, Fp):
        return False
    for ell in _prime_factors(k):
        g = ugcd(f, usub(upowmod(x, p ** (k // ell), f, Fp), x, Fp), Fp)
        if len(g) - 1 != 0:
            return False
    return True


def find_irreducible(p: int, k: int) -> tuple:
    """Smallest monic irreducible polynomial of degree k over F_p.

    "Smallest" compares the non-leading coefficient vectors by their integer
    code sum(c_i * p^i); the result is a little-endian coefficient tuple of
    length k + 1 ending in 1.  Deterministic by construction.
    """
    if not _is_prime(p):
        raise FieldError(f"characteristic {p} is not prime")
    if k < 1:
        raise FieldError(f"extension degree must be >= 1, got {k}")
    if k == 1:
        return (0, 1)
    for code in range(p ** k):
        coeffs = []
        c = code
        for _ in range(k):
            coeffs.append(c % p)
            c //= p
        f = tuple(coeffs) + (1,)
        if _is_irreducible(f, p):
            return f
    raise FieldError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class Field:
    """The finite field F_{p^k} with its canonical defining polynomial.

    Immutable; obtain instances through :func:`make_field` so that equal
    parameters share one object (embeddings are memoised per field pair).
    `list_tables` is the pair (mul, add) of lookup tables as nested Python
    lists on extension fields of at most `_LIST_TABLE_LIMIT` elements, else
    None; add is None in characteristic 2, where a sum is an XOR.
    """

    __slots__ = ("p", "k", "q", "modulus", "_exp", "_log", "_zech",
                 "_mul_table", "_inv_table", "_add_table", "_neg_table",
                 "list_tables", "_embed_cache")

    def __init__(self, p: int, k: int):
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if p >= 1 << 16:
            raise FieldError(f"characteristic {p} exceeds the 2^16 bound")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        if p ** k >= _ORDER_LIMIT:
            raise FieldError(f"field order {p}^{k} exceeds the 2^63 bound "
                             f"of int64 element codes")
        self.p = p
        self.k = k
        self.q = p ** k
        self.modulus = find_irreducible(p, k)
        self._exp = None
        self._log = None
        self._zech = None
        self._mul_table = None
        self._inv_table = None
        self._add_table = None
        self._neg_table = None
        self.list_tables = None
        self._embed_cache = {}
        if k > 1 and self.q <= _LOG_TABLE_LIMIT:
            self._build_log_tables()
            if self.q <= _LIST_TABLE_LIMIT:
                self._build_tables()

    # -- code-level arithmetic ------------------------------------------------

    def _decode(self, code):
        c, out = code, []
        for _ in range(self.k):
            out.append(c % self.p)
            c //= self.p
        return out

    def _encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + (c % self.p)
        return code

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self.list_tables is not None:
            return self.list_tables[1][a][b]
        if self._exp is not None:
            if not a or not b:
                return int(a or b)
            n = self.q - 1
            la = int(self._log[a])
            d = (int(self._log[b]) - la) % n
            # 1 + g^d = 0 exactly when g^d = -1, that is d = n / 2
            return 0 if 2 * d == n else int(
                self._exp[(la + int(self._zech[d])) % n])
        ca, cb = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        if self.p == 2:
            return a
        if self.list_tables is not None:
            return self.list_tables[0][self.p - 1][a]
        if self._exp is not None:
            return self.mul(a, self.p - 1)
        return self._encode([(-x) % self.p for x in self._decode(a)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        if self.list_tables is not None:
            return self.list_tables[0][a][b]
        if self._exp is not None:
            if not a or not b:
                return 0
            return int(self._exp[(int(self._log[a]) + int(self._log[b]))
                                 % (self.q - 1)])
        Fp = make_field(self.p)
        return self._encode(udivmod(umul(self._decode(a), self._decode(b), Fp),
                                    self.modulus, Fp)[1])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.k == 1:
            return pow(a, -1, self.p)
        if self._inv_table is not None:
            return self._inv_table[a]
        if self._exp is not None:
            return int(self._exp[-int(self._log[a]) % (self.q - 1)])
        # extended Euclid on the digit polynomials: s * a = r mod modulus,
        # until r is a nonzero constant
        Fp = make_field(self.p)
        r0, r1 = list(self.modulus), self._decode(a)
        s0, s1 = [], [1]
        while len(ustrip(r1)) > 1:
            quo, rem = udivmod(r0, r1, Fp)
            r0, r1 = r1, rem
            s0, s1 = s1, usub(s0, umul(quo, s1, Fp), Fp)
        c = pow(r1[0], -1, self.p)
        return self._encode([x * c for x in s1])

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a: int) -> int:
        return self.pow(a, self.p)

    def elements(self):
        return range(self.q)

    def _build_log_tables(self):
        """exp, the codes of g^0, ..., g^(q-2) for the smallest primitive
        element g; log, its inverse (log 0 = 0 is never read); and, for
        odd p, zech[n] = log(1 + g^n) (Zech's logarithm).

        exp is built by doubling: with g^0, ..., g^(m-1) known, the next m
        powers are their digit vectors times the matrix of multiplication
        by g^m, which is squared for the next round.
        """
        p, k, q = self.p, self.k, self.q
        n = q - 1
        factors = _prime_factors(n)
        # the elements of F_p have orders dividing p - 1, so none is primitive
        g = next(g for g in range(p, q)
                 if all(self.pow(g, n // ell) != 1 for ell in factors))
        place = p ** np.arange(k, dtype=np.int64)
        # column j: the digits of g * t^j
        by_g = np.array([self._decode(self.mul(g, p ** j)) for j in range(k)],
                        dtype=np.int64).T
        exp = np.empty(n, dtype=np.int64)
        exp[0] = 1
        done = 1
        while done < n:
            step = min(done, n - done)
            for s in range(0, step, _EXP_BLOCK):
                e = min(s + _EXP_BLOCK, step)
                digits = exp[s:e, None] // place % p
                exp[done + s:done + e] = digits @ by_g.T % p @ place
            by_g = by_g @ by_g % p
            done += step
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(n, dtype=np.int32)
        if p > 2:
            # 1 + g^n adds 1 to the lowest digit; at n = (q - 1)/2 it is 0
            one_plus = exp + 1
            one_plus[exp % p == p - 1] -= p
            self._zech = log[one_plus]
        self._exp, self._log = exp, log

    def _build_tables(self):
        """The q x q mul table and the inv table, from the exp/log tables,
        and in odd characteristic the q x q add table and the neg table,
        from the digits; the q x q tables also as lists, and inv as a list
        only, since only the scalar `inv` reads it."""
        p, q = self.p, self.q
        exp, log = self._exp, self._log
        mul = np.zeros((q, q), dtype=np.int64)
        for a in range(1, q):
            mul[a, 1:] = exp[(log[a] + log[1:]) % (q - 1)]
        self._mul_table = mul
        self._inv_table = [0] + exp[-log[1:] % (q - 1)].tolist()
        add_list = None
        if p > 2:
            place = p ** np.arange(self.k, dtype=np.int64)
            digits = np.arange(q, dtype=np.int64)[:, None] // place % p
            add = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                add[a] = (digits[a] + digits) % p @ place
            self._add_table, self._neg_table = add, -digits % p @ place
            add_list = add.tolist()
        self.list_tables = (mul.tolist(), add_list)

    # -- array arithmetic -------------------------------------------------------
    # Elementwise (numpy-broadcasting) ops on int64 arrays of codes, the one
    # place that knows how elements are stored: mod-p numpy for prime fields,
    # q x q tables up to _LIST_TABLE_LIMIT elements, exp/log tables up to
    # _LOG_TABLE_LIMIT, and the scalar ops above mapped over the entries
    # beyond that; on every extension field of characteristic 2 a sum or
    # difference is an XOR of codes and negation a copy, and `matmul` sums
    # its terms with one XOR reduction.

    def _map(self, op, *arrays):
        return np.vectorize(op, otypes=[np.int64])(*arrays)

    def _log_mul(self, a, b):
        out = self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def _zech_add(self, a, b, negate):
        """a + b, or a - b with negate, for odd p: g^i + g^j is
        g^(i + zech[j - i]), or 0 when g^(j - i) = -1 = g^((q - 1)/2)."""
        n = self.q - 1
        half = n // 2
        la = self._log[a]
        lb = self._log[b] + half if negate else self._log[b]
        d = (lb - la) % n
        out = np.where(d == half, 0, self._exp[(la + self._zech[d]) % n])
        out = np.where(a == 0, self._exp[lb % n], out)
        return np.where(b == 0, a, out)

    def vadd(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a, b]
        if self._exp is not None:
            return self._zech_add(a, b, False)
        return self._map(self.add, a, b)

    def vneg(self, a):
        if self.k == 1:
            return -a % self.p
        if self.p == 2:
            return np.copy(a)
        if self._neg_table is not None:
            return self._neg_table[a]
        if self._exp is not None:
            return self._log_mul(a, self.p - 1)
        return self._map(self.neg, a)

    def vsub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a, self._neg_table[b]]
        if self._exp is not None:
            return self._zech_add(a, b, True)
        return self._map(self.sub, a, b)

    def vmul(self, a, b):
        if self.k == 1:
            return a * b % self.p
        if self._mul_table is not None:
            return self._mul_table[a, b]
        if self._exp is not None:
            return self._log_mul(a, b)
        return self._map(self.mul, a, b)

    def axpy(self, y, c, x):
        """y - c*x elementwise, where c*x has the shape of the result.

        On prime fields this is one fused reduction, computed in the buffer
        of c*x so that elimination holds no third matrix-sized temporary.
        """
        if self.k == 1:
            out = c * x
            np.subtract(y, out, out=out)
            out %= self.p
            return out
        return self.vsub(y, self.vmul(c, x))

    def matmul(self, A, B):
        """Product of code matrices A (r x n) and B (n x c), or of stacks
        of them (..., r, n) and (..., n, c), as numpy's matmul."""
        if self.k == 1:
            return A @ B % self.p
        terms = self.vmul(A[..., :, :, None], B[..., None, :, :])
        if self.p == 2:
            return np.bitwise_xor.reduce(terms, axis=-2)
        if terms.shape[-2] == 0:
            return np.zeros(terms.shape[:-2] + terms.shape[-1:],
                            dtype=np.int64)
        # sum over the inner index by pairwise folding: log2(n) array ops
        while terms.shape[-2] > 1:
            half = terms.shape[-2] // 2
            folded = self.vadd(terms[..., :half, :],
                               terms[..., half:2 * half, :])
            if terms.shape[-2] % 2:
                folded[..., 0, :] = self.vadd(folded[..., 0, :],
                                              terms[..., -1, :])
            terms = folded
        return terms[..., 0, :]

    # -- element construction --------------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elem(self, value) -> "FieldElem":
        """Coerce an integer (reduced mod p), code, or FieldElem into this field."""
        if isinstance(value, FieldElem):
            if value.field is self:
                return value
            if value.field.p == self.p and self.k % value.field.k == 0:
                return embed(value, self)
            raise FieldError("cannot coerce element between unrelated fields")
        return FieldElem(self, value % self.p)

    def from_code(self, code: int) -> "FieldElem":
        if not 0 <= code < self.q:
            raise FieldError(f"code {code} out of range for F_{self.p}^{self.k}")
        return FieldElem(self, code)

    def generator(self) -> "FieldElem":
        """The class of t (for k = 1 this is 0, the root of the modulus t)."""
        return FieldElem(self, self.p if self.k > 1 else 0)

    def __repr__(self):
        if self.k == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.k}"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))


class FieldElem:
    """An element of a :class:`Field`, stored by its integer code."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self):
        """Little-endian coefficients over F_p in the modulus root."""
        return tuple(self.field._decode(self.code))

    def is_zero(self):
        return self.code == 0

    def _check(self, other):
        if isinstance(other, int):
            return FieldElem(self.field, other % self.field.p)
        if not isinstance(other, FieldElem) or other.field is not self.field:
            raise FieldError("mixed-field arithmetic")
        return other

    def __add__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field.add(self.code, other.code))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field.sub(self.code, other.code))

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return FieldElem(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field.mul(self.code, other.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        return FieldElem(self.field, self.field.mul(self.code, self.field.inv(other.code)))

    def __pow__(self, e):
        return FieldElem(self.field, self.field.pow(self.code, e))

    def inverse(self):
        return FieldElem(self.field, self.field.inv(self.code))

    def frobenius(self):
        return FieldElem(self.field, self.field.frobenius(self.code))

    def __eq__(self, other):
        if isinstance(other, int):
            # integers compare through the prime subfield
            return self.code == other % self.field.p
        return (isinstance(other, FieldElem) and other.field == self.field
                and other.code == self.code)

    def __hash__(self):
        return hash((self.field.p, self.field.k, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.field.k == 1:
            return str(self.code)
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append("t" if c == 1 else f"{c}*t")
            else:
                parts.append(f"t^{i}" if c == 1 else f"{c}*t^{i}")
        return " + ".join(parts) if parts else "0"


def make_field(p: int, k: int = 1) -> Field:
    """Build (or fetch) F_{p^k} with the canonical smallest modulus.

    The cache is keyed on the normalised pair (p, k), so every call with
    equal parameters, k passed or defaulted, returns the same object.
    """
    return _cached_field(operator.index(p), operator.index(k))


@lru_cache(maxsize=None)
def _cached_field(p: int, k: int) -> Field:
    return Field(p, k)


def _root_of_modulus(source: Field, target: Field) -> int:
    """Smallest root (in code order) of source.modulus inside target.

    The roots form a subset of the fixed field of Frobenius^source.k, an
    F_p-subspace of the target enumerated through a nullspace basis, so the
    search space is p^source.k elements rather than the whole target.  The
    minimum is over the whole subspace, so it does not depend on the basis.
    """
    p, ks, kt = source.p, source.k, target.k
    if p ** ks > 4_000_000:
        raise FieldError("embedding search space too large for desk scale")
    # Frobenius^ks - id on the target, over F_p: column i is the image of
    # the i-th power-basis element
    cols = []
    for i in range(kt):
        e = target._encode([0] * i + [1] + [0] * (kt - i - 1))
        col = target._decode(target.pow(e, p ** ks))
        col[i] = (col[i] - 1) % p
        cols.append(col)
    kernel = nullspace(np.array(cols, dtype=np.int64).T, make_field(p))
    basis = [target._encode([int(c) for c in row]) for row in kernel]
    # enumerate the fixed subfield, collect roots of the source modulus
    root = None
    mod = source.modulus
    count = p ** len(basis)
    for idx in range(count):
        cand, rem = 0, idx
        for b in basis:
            d = rem % p
            rem //= p
            if d:
                cand = target.add(cand, target.mul(b, d))
        # evaluate modulus at cand by Horner on codes
        acc = 0
        for c in reversed(mod):
            acc = target.add(target.mul(acc, cand), c % p)
        if acc == 0 and (root is None or cand < root):
            root = cand
    if root is None:
        raise FieldError("modulus has no root in target (degree mismatch)")
    return root


def embed(x: FieldElem, target: Field) -> FieldElem:
    """Canonical ring embedding F_{p^k} -> F_{p^(k*m)} applied to x.

    The generator goes to the smallest root of the source modulus in the
    target under the code order; the choice is cached per field pair, so all
    embeddings used in one process agree.
    """
    source = x.field
    if source is target or source == target:
        return FieldElem(target, x.code)
    if source.p != target.p:
        raise FieldError("embedding must preserve the characteristic")
    if target.k % source.k != 0:
        raise FieldError(
            f"no embedding F_{source.p}^{source.k} -> F_{target.p}^{target.k}")
    if source.k == 1:
        return FieldElem(target, x.code)
    key = (source.p, source.k, target.k)
    root = target._embed_cache.get(key)
    if root is None:
        root = _root_of_modulus(source, target)
        target._embed_cache[key] = root
    acc = 0
    for c in reversed(source._decode(x.code)):
        acc = target.add(target.mul(acc, root), c)
    return FieldElem(target, acc)


def code_embedding(source: Field, target: Field):
    """`embed` on element codes: a map from source codes to target codes."""
    return lambda code: embed(source.from_code(int(code)), target).code
