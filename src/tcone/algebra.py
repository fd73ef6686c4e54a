"""Finite-dimensional associative algebras over small finite fields.

Supplies the decomposition machinery for endomorphism algebras of graded
modules: radical computation by the characteristic-p chain of trace forms
(level 0 is the ordinary trace form Tr(L_ab), read off the structure
constants with two matrix products; levels p^i <= dim A use iterated
characteristic-polynomial coefficients), refinement of the semisimple
quotient into a complete system of orthogonal primitive idempotents
(extending the base field when a simple factor is not split), and Newton
lifting of idempotents through the radical.

Elements are coordinate vectors over a fixed basis; the multiplication
table is the only structural input.  A table built from products in a
larger algebra (`FiniteAlgebra.on_basis`) is one elimination, whatever
its size.  Everything is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .field import Field, code_embedding
from .linalg import as_matrix, nullspace, reduce_against, rref, solve


class UndecidedError(RuntimeError):
    """Decomposition could not be certified within the configured bounds.

    `stage` names the step that gave up and `size` the measure of its input
    that stopped it: the dimension of the algebra or corner being split,
    the extension degree a splitting needs, or the number of candidate
    lines of a closure-window degree.  The message text is unchanged by
    them.
    """

    def __init__(self, message, *, stage=None, size=None):
        super().__init__(message)
        self.stage = stage
        self.size = size


# ---------------------------------------------------------------------------
# univariate polynomials over an arbitrary Field, little-endian code lists
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


def uderiv(a, f):
    return ustrip([f.mul(c, i % f.p) for i, c in enumerate(a)][1:])


def upowmod(a, e, m, f):
    result = [1]
    a = udivmod(a, m, f)[1]
    while e:
        if e & 1:
            result = udivmod(umul(result, a, f), m, f)[1]
        a = udivmod(umul(a, a, f), m, f)[1]
        e >>= 1
    return result


def _proot(code, f):
    """p-th root in a perfect finite field: x^(p^(k-1)) when q = p^k."""
    return f.pow(code, f.p ** (f.k - 1)) if f.k > 1 else code


def _upth_root(a, f):
    """p-th root of a polynomial all of whose exponents are multiples of p."""
    out = []
    for i in range(0, len(a), f.p):
        out.append(_proot(a[i], f))
    return ustrip(out)


def usquarefree_decomposition(a, f):
    """List of (squarefree factor, multiplicity), characteristic-p aware."""
    a = umonic(list(a), f)
    out = []
    if len(a) <= 1:
        return out
    d = uderiv(a, f)
    if not d:
        # a = b^p
        for g, m in usquarefree_decomposition(_upth_root(a, f), f):
            out.append((g, m * f.p))
        return out
    g = ugcd(a, d, f)
    w = udivmod(a, g, f)[0]
    mult = 1
    while len(w) > 1:
        y = ugcd(w, g, f)
        fac = udivmod(w, y, f)[0]
        if len(fac) > 1:
            out.append((fac, mult))
        w = y
        g = udivmod(g, y, f)[0]
        mult += 1
    if len(g) > 1:
        # leftover factors all have multiplicity divisible by p, so the
        # leftover is a perfect p-th power; recurse on its root
        for gg, m in usquarefree_decomposition(_upth_root(g, f), f):
            out.append((gg, m * f.p))
    return out


def _berlekamp_split(g, f):
    """Factor a squarefree monic g into irreducibles (deterministic).

    Kernel of the Frobenius map on F_q[t]/(g) counts the factors; kernel
    elements are split off by gcds with b - c over all scalars c.
    """
    n = len(g) - 1
    if n <= 1:
        return [g]
    # matrix of x -> x^q on the power basis of F_q[t]/(g)
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
            continue  # constants split nothing
        new_factors = []
        for fac in factors:
            if len(fac) - 1 <= 1:
                new_factors.append(fac)
                continue
            pieces = []
            rest = fac
            for c in range(f.q):
                if len(rest) - 1 <= 0:
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


def ufactor(a, f):
    """Full factorisation of a monic univariate polynomial: [(irr, mult)]."""
    out = []
    for g, m in usquarefree_decomposition(a, f):
        for irr in _berlekamp_split(g, f):
            out.append((umonic(irr, f), m))
    out.sort(key=lambda gm: (len(gm[0]), gm[0]))
    return out


def ueval_in_algebra(poly, elem, algebra):
    """Evaluate a univariate polynomial at an algebra element (Horner)."""
    acc = algebra.zero()
    for c in reversed(poly):
        acc = algebra.add(algebra.mul(acc, elem), algebra.scale(algebra.unit, c))
    return acc


# ---------------------------------------------------------------------------
# the algebra class
# ---------------------------------------------------------------------------

class FiniteAlgebra:
    """Associative unital algebra by structure constants over a Field."""

    def __init__(self, field: Field, table, unit):
        self.field = field
        self.dim = len(table)
        # table[i, j] = coordinates of b_i * b_j
        self.table = np.array(table, dtype=np.int64).reshape(
            (self.dim,) * 3)
        self.unit = np.array(unit, dtype=np.int64)

    @classmethod
    def on_basis(cls, field: Field, basis_cols, products, unit,
                 product_error: str, unit_error: str):
        """The algebra spanned by the columns of basis_cols in a larger one.

        products lists the products of basis elements i and j at index
        i * dim + j, and unit is the identity, all in the larger algebra's
        coordinates.  Their coordinates on the basis, the structure
        constants, come from one elimination (a 2-D `solve`).  A product or
        a unit outside the span raises ArithmeticError with the matching
        message.
        """
        dim = basis_cols.shape[1]
        coords = solve(basis_cols, np.stack(list(products) + [unit], axis=1),
                       field)
        if any(c is None for c in coords[:-1]):
            raise ArithmeticError(product_error)
        if coords[-1] is None:
            raise ArithmeticError(unit_error)
        return cls(field, np.stack(coords[:-1]).reshape(dim, dim, dim),
                   coords[-1])

    # -- element arithmetic on coordinate vectors --------------------------------

    def zero(self):
        return np.zeros(self.dim, dtype=np.int64)

    def add(self, a, b):
        return self.field.vadd(a, b)

    def sub(self, a, b):
        return self.field.vsub(a, b)

    def scale(self, a, c):
        return self.field.vmul(a, c)

    def mul(self, a, b):
        n = self.dim
        coefs = self.field.vmul(a[:, None], b[None, :]).reshape(1, n * n)
        return self.field.matmul(coefs, self.table.reshape(n * n, n))[0]

    def power(self, a, e):
        result = self.unit.copy()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def is_idempotent(self, a):
        return np.array_equal(self.mul(a, a), a)

    def left_regular(self, a):
        """Matrix of left multiplication by a on the coordinate basis."""
        n = self.dim
        prods = self.field.matmul(a[None, :], self.table.reshape(n, n * n))
        return prods.reshape(n, n).T

    def charpoly(self, mat):
        """Characteristic polynomial of a square matrix, division-free.

        Berkowitz' method; returns little-endian monic coefficients.
        """
        f = self.field
        n = mat.shape[0]
        if n == 0:
            return [1]

        # coefficient vectors are kept highest-degree first
        poly = np.array([[1], [f.neg(int(mat[0, 0]))]], dtype=np.int64)
        for r in range(1, n):
            a = int(mat[r, r])
            row = mat[r, :r].reshape(1, r)
            col = mat[:r, r].reshape(r, 1)
            block = mat[:r, :r]
            # Toeplitz column: [1, -a, -row@col, -row@block@col, ...]
            krylov = [col]
            for _ in range(r - 1):
                krylov.append(f.matmul(block, krylov[-1]))
            products = f.matmul(row, np.concatenate(krylov, axis=1))[0]
            entries = [1, f.neg(a)] + [int(c) for c in f.vneg(products)]
            toep = np.zeros((r + 2, r + 1), dtype=np.int64)
            for j in range(r + 1):
                for i in range(j, r + 2):
                    toep[i, j] = entries[i - j]
            poly = f.matmul(toep, poly)
        coeffs = [int(c) for c in poly[:, 0]]
        return list(reversed(coeffs))

    def minpoly(self, a):
        """Monic minimal polynomial of an element (little-endian codes)."""
        f = self.field
        rows = [self.unit.copy()]
        power = self.unit.copy()
        while True:
            power = self.mul(power, a)
            mat = np.stack(rows + [power], axis=0)
            red, piv = rref(mat, f)
            if red.shape[0] < len(rows) + 1:
                # dependence: solve power = combo of previous rows
                coeffs = solve(np.stack(rows, axis=0).T.copy(), power, f)
                poly = [int(c) for c in f.vneg(coeffs)] + [1]
                return ustrip(poly)
            rows.append(power)

    # -- radical -----------------------------------------------------------------

    def trace_form(self):
        """Matrix T[a, b] = Tr(L_{b_a b_b}) of the regular trace form.

        The trace is linear, so Tr(L_{b_a b_b}) = Σ_k c_ab^k τ_k with
        τ_k = Tr(L_{b_k}) = Σ_i c_ki^i: two matrix products on the
        structure constants, no characteristic polynomial.
        """
        f = self.field
        n = self.dim
        diag = np.arange(n)
        tau = f.matmul(self.table[:, diag, diag],
                       np.ones((n, 1), dtype=np.int64))
        return f.matmul(self.table.reshape(n * n, n), tau).reshape(n, n)

    def radical(self):
        """Basis of the Jacobson radical (rows), by the characteristic-p
        chain of trace forms.

        Level 0 is the ordinary trace form Tr(L_ab) of the left regular
        representation (`trace_form`, with no `charpoly`); by Dickson's
        criterion it is the whole chain when p > dim A (Cohen, Ivanyos and
        Wales 1997).  Each level p^i <= dim A from level 1 on refines with
        the coefficient of index p^i of the characteristic polynomial,
        linearised through p^i-th roots.  The result is verified:
        nilpotency of the span and vanishing radical of the quotient.
        """
        f = self.field
        n = self.dim
        # level 0 on the identity basis: the charpoly coefficient is
        # cond[b][a] = -Tr(L_{b_a b_b}), whose kernel (sum_a x_a cond[b][a]
        # = 0 for all b) is that of the trace form's transpose
        ker = nullspace(self.trace_form().T, f)
        current, _ = rref(ker, f)
        regs = {}

        def reg(coords):
            key = tuple(int(c) for c in coords)
            m = regs.get(key)
            if m is None:
                m = self.left_regular(np.array(key, dtype=np.int64))
                regs[key] = m
            return m

        level = 1
        qexp = f.p  # p^level
        while qexp <= n:
            basis = [current[i] for i in range(current.shape[0])]
            if not basis:
                break
            cond = []
            for b in basis:
                row = []
                for a in basis:
                    prod = self.mul(a, b)
                    cp = self.charpoly(reg(prod))
                    deg = len(cp) - 1
                    idx = deg - qexp  # coefficient of t^(deg - p^level)
                    c = cp[idx] if idx >= 0 else 0
                    # linearise: p^level-th root
                    for _ in range(level):
                        c = _proot(c, f)
                    row.append(c)
                cond.append(row)
            mat = as_matrix(cond, len(basis))
            ker = nullspace(mat, f)
            current, _ = rref(f.matmul(ker, current), f)
            level += 1
            qexp *= f.p
        rad = current
        # verification: every radical element nilpotent, ideal property
        for i in range(rad.shape[0]):
            m = self.left_regular(rad[i])
            power = m
            for _ in range(n + 1):
                power = f.matmul(power, m)
            if power.any():
                raise ArithmeticError("radical verification failed: "
                                      "non-nilpotent element")
        return rad

    # -- quotient by the radical ---------------------------------------------------

    def quotient(self, rad):
        """(quotient algebra, projection, section) modulo a radical basis."""
        f = self.field
        n = self.dim
        red, pivots = rref(rad, f)
        free = [c for c in range(n) if c not in pivots]
        # section: basis vectors of the complement (unit coordinate rows)
        section_rows = np.eye(n, dtype=np.int64)[free]

        def project(vec):
            """Coordinates in the quotient basis (reduce by rad, take free)."""
            return reduce_against(red, pivots, vec, f)[free]

        table = [[project(self.table[i, j]) for j in free] for i in free]
        quot = FiniteAlgebra(f, table, project(self.unit))
        return quot, project, section_rows

    def center(self):
        """Row basis of the centre."""
        f = self.field
        n = self.dim
        # z is central when sum_i z_i (b_i b_j - b_j b_i) = 0 for every j:
        # row (j, k), column i holds coordinate k of b_i b_j - b_j b_i
        comm = f.vsub(self.table, self.table.transpose(1, 0, 2))
        return nullspace(comm.transpose(1, 2, 0).reshape(n * n, n), f)

    def extend_scalars(self, target: Field):
        """The same structure constants over a larger field."""
        emb = code_embedding(self.field, target)
        to_target = np.vectorize(emb, otypes=[np.int64])
        return (FiniteAlgebra(target, to_target(self.table),
                              to_target(self.unit)), emb)


# ---------------------------------------------------------------------------
# idempotent refinement on a semisimple algebra
# ---------------------------------------------------------------------------

class _Corner:
    """A corner e*A*e of an algebra, with its own coordinate system."""

    def __init__(self, parent: FiniteAlgebra, e):
        self.parent = parent
        self.e = e
        f = parent.field
        rows = []
        for j in range(parent.dim):
            ej = np.zeros(parent.dim, dtype=np.int64)
            ej[j] = 1
            rows.append(parent.mul(parent.mul(e, ej), e))
        span, _ = rref(np.stack(rows, axis=0), f)
        self.rows = span  # basis of the corner inside the parent

    @property
    def dim(self):
        return self.rows.shape[0]

    def algebra(self):
        rows, mul = self.rows, self.parent.mul
        return FiniteAlgebra.on_basis(
            self.parent.field, rows.T,
            [mul(a, b) for a in rows for b in rows], self.e,
            "corner is not closed under product", "corner unit missing")

    def to_parent(self, coords):
        return self.parent.field.matmul(coords[None, :], self.rows)[0]


def _split_by_element(B: FiniteAlgebra, z):
    """Orthogonal idempotents of B from an element whose minimal polynomial
    has at least two coprime primary components; None if it has one."""
    f = B.field
    mp = B.minpoly(z)
    fac = ufactor(mp, f)
    if len(fac) <= 1:
        return None, fac
    idems = []
    for g, m in fac:
        primary = [1]
        for _ in range(m):
            primary = umul(primary, g, f)
        rest = udivmod(mp, primary, f)[0]
        # u*primary + v*rest = 1; idempotent is (v*rest)(z)
        u, v = _uxgcd(primary, rest, f)
        idem_poly = umul(v, rest, f)
        e = ueval_in_algebra(idem_poly, z, B)
        idems.append(e)
    return idems, fac


def _uxgcd(a, b, f):
    """u, v with u*a + v*b = gcd(a, b) (gcd expected to be 1 here)."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = udivmod(r0, r1, f)
        r0, r1 = r1, r
        s0, s1 = s1, usub(s0, umul(q, s1, f), f)
        t0, t1 = t1, usub(t0, umul(q, t1, f), f)
    if len(r0) != 1:
        raise ArithmeticError("expected coprime inputs in xgcd")
    inv = f.inv(r0[0])
    return [f.mul(inv, c) for c in s0], [f.mul(inv, c) for c in t0]


def _commutative_splitter(B: FiniteAlgebra):
    """For commutative semisimple B: a splitting element, or None when B
    is a field.  Uses the Frobenius-fixed subalgebra, which is split."""
    f = B.field
    n = B.dim
    cols = []
    for j in range(n):
        e = np.zeros(n, dtype=np.int64)
        e[j] = 1
        cols.append(B.sub(B.power(e, f.q), e))
    # careful: x -> x^q is not linear on sums of basis vectors unless we
    # build the matrix from images of basis vectors, which is what we do;
    # q-power IS additive here because q is a power of the characteristic
    mat = np.stack(cols, axis=1)
    fixed = nullspace(mat, f)
    if fixed.shape[0] <= 1:
        return None
    # pick the first fixed vector independent of the unit
    unit_row = B.unit.reshape(1, -1)
    for i in range(fixed.shape[0]):
        cand = np.concatenate([unit_row, fixed[i].reshape(1, -1)], axis=0)
        if rref(cand, f)[0].shape[0] == 2:
            return fixed[i]
    return None


def _is_commutative(B: FiniteAlgebra):
    return np.array_equal(B.table, B.table.transpose(1, 0, 2))


def _idempotent_from_nilpotent(B: FiniteAlgebra, nu):
    """A nontrivial idempotent from a nonzero nilpotent in semisimple B.

    The left ideal B*nu is generated by an idempotent; it is found as the
    solution of the linear right-identity conditions on that ideal.
    """
    f = B.field
    rows = []
    for j in range(B.dim):
        ej = np.zeros(B.dim, dtype=np.int64)
        ej[j] = 1
        rows.append(B.mul(ej, nu))
    ideal, _ = rref(np.stack(rows, axis=0), f)
    r = ideal.shape[0]
    if r == 0:
        return None
    # unknowns: coefficients of e on the ideal basis; conditions l*e = l
    conds = []
    rhs = []
    for i in range(r):
        l = ideal[i]
        block = []
        for jj in range(r):
            block.append(B.mul(l, ideal[jj]))
        conds.append(np.stack(block, axis=1))
        rhs.append(l)
    mat = np.concatenate(conds, axis=0)
    b = np.concatenate(rhs, axis=0)
    sol = solve(mat, b, f)
    if sol is None:
        return None
    e = f.matmul(sol[None, :], ideal)[0]
    if not B.is_idempotent(e) or not e.any():
        return None
    if np.array_equal(e, B.unit):
        return None
    return e


# candidates _find_splitter_scan tries before giving up
_SCAN_LIMIT = 4000


def _find_splitter_scan(B: FiniteAlgebra):
    """Deterministic scan for an element splitting a simple corner: its
    orthogonal idempotents, or None."""
    f = B.field
    eye = np.eye(B.dim, dtype=np.int64)
    candidates = list(eye)
    for i in range(B.dim):
        for j in range(B.dim):
            if i != j:
                candidates.append(eye[i] + eye[j])
                candidates.append(B.table[i, j].copy())
    state = 0x9E3779B97F4A7C15
    tried = 0
    idx = 0
    while tried < _SCAN_LIMIT:
        if idx < len(candidates):
            z = candidates[idx]
            idx += 1
        else:
            # deterministic pseudo-random combination
            coords = []
            for _ in range(B.dim):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                coords.append((state >> 33) % f.q)
            z = np.array(coords, dtype=np.int64)
        tried += 1
        if not z.any():
            continue
        idems, fac = _split_by_element(B, z)
        if idems is not None:
            return idems
        if fac and fac[0][1] >= 2:
            g, _m = fac[0]
            nu = ueval_in_algebra(g, z, B)
            if nu.any():
                e = _idempotent_from_nilpotent(B, nu)
                if e is not None:
                    return [e, B.sub(B.unit, e)]
    return None


def semisimple_primitive_idempotents(B: FiniteAlgebra):
    """Complete orthogonal primitive idempotents of a semisimple algebra.

    Returns (idempotents, residue_degree_lcm); residue_degree_lcm > 1 means
    the algebra is not split and must be recomputed after extending the
    base field by that degree.
    """
    f = B.field
    work = [B.unit.copy()]
    primitive = []
    residues = []
    guard = 0
    while work:
        guard += 1
        if guard > 64 * max(B.dim, 1):
            raise UndecidedError("idempotent refinement did not terminate",
                                 stage="idempotent refinement", size=B.dim)
        e = work.pop(0)
        corner = _Corner(B, e)
        if corner.dim == 1:
            primitive.append(e)
            residues.append(1)
            continue
        CB = corner.algebra()
        if _is_commutative(CB):
            z = _commutative_splitter(CB)
            if z is None:
                # a genuine field of degree corner.dim: not split over f
                primitive.append(e)
                residues.append(corner.dim)
                continue
            idems, _ = _split_by_element(CB, z)
            if idems is None:
                raise UndecidedError("fixed-subalgebra splitter failed",
                                     stage="fixed-subalgebra splitter",
                                     size=corner.dim)
            for ie in idems:
                work.append(corner.to_parent(ie))
            continue
        # noncommutative corner: try the centre first, then scan
        zc = CB.center()
        split_done = False
        if zc.shape[0] > 1:
            # centre is a commutative semisimple subalgebra containing 1
            ZA = FiniteAlgebra.on_basis(
                f, zc.T, [CB.mul(a, b) for a in zc for b in zc], CB.unit,
                "centre is not closed under product", "centre unit missing")
            z = _commutative_splitter(ZA)
            if z is not None:
                idems, _ = _split_by_element(ZA, z)
                if idems:
                    for ie in idems:
                        back = f.matmul(ie[None, :], zc)[0]
                        work.append(corner.to_parent(back))
                    split_done = True
        if split_done:
            continue
        idems = _find_splitter_scan(CB)
        if idems is None:
            raise UndecidedError(
                "could not split a noncommutative simple corner",
                stage="noncommutative corner", size=corner.dim)
        for ie in idems:
            work.append(corner.to_parent(ie))
    return primitive, math.lcm(*residues)


def lift_idempotents(A: FiniteAlgebra, rad, quotient_idems, project, section_rows):
    """Lift a complete orthogonal idempotent system through the radical.

    Newton iteration e <- 3e^2 - 2e^3 with orthogonality corrections; the
    last idempotent is taken as 1 minus the sum of the others, preserving
    completeness exactly.
    """
    f = A.field

    def section(qcoords):
        return f.matmul(qcoords[None, :], section_rows)[0]

    c2, c3 = f.elem(2).code, f.elem(3).code

    def newton(x):
        for _ in range(64):
            if A.is_idempotent(x):
                return x
            x2 = A.mul(x, x)
            x3 = A.mul(x2, x)
            x = A.sub(A.scale(x2, c3), A.scale(x3, c2))
        raise ArithmeticError("idempotent lifting did not converge")

    lifted = []
    total = A.zero()
    for qe in quotient_idems[:-1]:
        x = newton(section(qe))
        one_minus = A.sub(A.unit, total)
        h = A.mul(A.mul(one_minus, x), one_minus)
        e = newton(h)
        lifted.append(e)
        total = A.add(total, e)
    last = A.sub(A.unit, total)
    if not A.is_idempotent(last):
        raise ArithmeticError("completeness correction is not idempotent")
    lifted.append(last)
    # verify orthogonality
    for i in range(len(lifted)):
        for j in range(len(lifted)):
            if i != j and A.mul(lifted[i], lifted[j]).any():
                raise ArithmeticError("lifted idempotents are not orthogonal")
    return lifted
