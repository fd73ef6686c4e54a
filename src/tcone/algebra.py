"""Finite-dimensional associative algebras over small finite fields.

Supplies the decomposition machinery for endomorphism algebras of graded
modules: the radical, by the characteristic-p chain of trace forms, stopped
at the first level that a nilpotent-ideal certificate (`is_nilpotent_ideal`,
eliminations on the structure constants) shows to be the radical;
refinement of the semisimple quotient into a complete system of orthogonal
primitive idempotents (extending the base field when a simple factor is not
split); and Newton lifting of idempotents through the radical.

Level 0 of the chain is the ordinary trace form Tr(L_ab), read off the
structure constants with two matrix products.  A level p^i <= dim A that
still has to run reads one coefficient of the characteristic polynomials of
all products of two basis elements, from one batched Berkowitz kernel
(`charpolys`).

Elements are coordinate vectors over a fixed basis; the multiplication
table is the only structural input.  A table built from products in a
larger algebra (`FiniteAlgebra.on_basis`) is one elimination, whatever
its size.  Everything is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .field import (Field, code_embedding, udivmod, ugcd, umonic, umul,
                    upowmod, usub, ustrip)
from .linalg import nullspace, reduce_against, rref, solve


class UndecidedError(RuntimeError):
    """Decomposition could not be certified within the configured bounds.

    `stage` names the step that gave up and `size` the measure of its input
    that stopped it: the dimension of the algebra or corner being split,
    the extension degree a splitting needs, or the predicted bytes of the
    Cech obstruction map's matrices (stage "closure window" or "class
    test").  The message text is unchanged by them.
    """

    def __init__(self, message, *, stage=None, size=None):
        super().__init__(message)
        self.stage = stage
        self.size = size


# ---------------------------------------------------------------------------
# univariate polynomials over a Field beyond field.py's arithmetic:
# derivative, p-th roots, squarefree decomposition and factoring
# ---------------------------------------------------------------------------

def uderiv(a, f):
    return ustrip([f.mul(c, i % f.p) for i, c in enumerate(a)][1:])


def _proot(code, f, level=1):
    """p^level-th root in a perfect finite field: x^(p^((k-1) level))
    when q = p^k."""
    return f.pow(code, f.p ** ((f.k - 1) * level)) if f.k > 1 else code


def _upth_root(a, f):
    """p-th root of a polynomial all of whose exponents are multiples of p."""
    return ustrip([_proot(a[i], f) for i in range(0, len(a), f.p)])


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
        for i, fac in enumerate(factors):
            if len(fac) - 1 <= 1:
                new_factors.append(fac)
                continue
            pieces = []
            rest = fac
            for c in range(f.q):
                # rest is irreducible once it is linear, or once the
                # factors found so far, rest among them, number r
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
        """Matrix of left multiplication by a on the coordinate basis; for a
        stack of elements (..., dim), the stack of their matrices."""
        n = self.dim
        prods = self.field.matmul(a.reshape(-1, n),
                                  self.table.reshape(n, n * n))
        return prods.reshape(a.shape[:-1] + (n, n)).swapaxes(-1, -2)

    def _products(self, xs, ys):
        """All products x * y of rows xs (s, dim) and ys (r, dim), as the
        rows (s * r, dim) with x_i * y_j at index i * r + j."""
        # row l of left_regular(x_i) transposed is x_i * b_l
        return self.field.matmul(
            ys, self.left_regular(xs).swapaxes(-1, -2)).reshape(-1, self.dim)

    def charpolys(self, mats):
        """Characteristic polynomials of a stack of square matrices
        (count, n, n), division-free.

        Berkowitz' method, run on the whole stack at once: O(n^2) array
        operations however many matrices there are.  Row b holds the monic
        coefficients of det(t - mats[b]), highest degree first.
        """
        f = self.field
        count, n = mats.shape[0], mats.shape[-1]
        if n == 0:
            return np.ones((count, 1), dtype=np.int64)
        # coefficient columns are kept highest-degree first
        poly = np.stack([np.ones(count, dtype=np.int64),
                         f.vneg(mats[:, 0, 0])], axis=1)[:, :, None]
        for r in range(1, n):
            block = mats[:, :r, :r]
            krylov = [mats[:, :r, r:r + 1]]
            for _ in range(r - 1):
                krylov.append(f.matmul(block, krylov[-1]))
            products = f.matmul(mats[:, r:r + 1, :r],
                                np.concatenate(krylov, axis=2))[:, 0]
            # Toeplitz column: [1, -a, -row@col, -row@block@col, ...]
            entries = np.concatenate(
                [np.ones((count, 1), dtype=np.int64),
                 f.vneg(mats[:, r, r:r + 1]), f.vneg(products)], axis=1)
            lag = np.subtract.outer(np.arange(r + 2), np.arange(r + 1))
            toep = np.where(lag >= 0, entries[:, np.maximum(lag, 0)], 0)
            poly = f.matmul(toep, poly)
        return poly[:, :, 0]

    def charpoly(self, mat):
        """Characteristic polynomial of one square matrix, as little-endian
        monic coefficients: `charpolys` on a stack of one."""
        return [int(c) for c in self.charpolys(mat[None])[0, ::-1]]

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

    def is_nilpotent_ideal(self, rows):
        """Whether the span I of rows is a two-sided ideal with I^k = 0 for
        some k.

        Eliminations on the structure constants decide it: A*I + I*A lies
        in I (one `rref`), and the powers I > I^2 > ... (one `rref` each)
        strictly decrease until they reach 0 (once a power equals the one
        before, every later power does).  A nilpotent two-sided ideal lies
        in the radical.
        """
        f, n = self.field, self.dim
        ideal, _ = rref(rows, f)
        if not ideal.shape[0]:
            return True
        eye = np.eye(n, dtype=np.int64)
        sides = np.concatenate([ideal, self._products(eye, ideal),
                                self._products(ideal, eye)])
        if rref(sides, f)[0].shape[0] > ideal.shape[0]:
            return False
        power = ideal
        while power.shape[0]:
            lower, _ = rref(self._products(power, ideal), f)
            if lower.shape[0] == power.shape[0]:
                return False
            power = lower
        return True

    def _chain_level(self, current, level):
        """Level `level` >= 1 of the radical chain, inside the ideal with
        row basis current.

        The condition on x in the span is that the coefficient of index
        p^level of charpoly(L_{x b}), linearised by its p^level-th root,
        vanishes for every b in the span.  The characteristic polynomials
        of all products of two basis rows come from one `charpolys` call.
        """
        f = self.field
        r = current.shape[0]
        products = self._products(current, current)
        coeffs = self.charpolys(self.left_regular(products))[:, f.p ** level]
        cond = np.array([_proot(int(c), f, level) for c in coeffs],
                        dtype=np.int64).reshape(r, r)
        # cond[a, b] belongs to current[a] * current[b]; x = sum x_a a
        ker = nullspace(cond.T, f)
        return rref(f.matmul(ker, current), f)[0]

    def radical(self):
        """Basis of the Jacobson radical (rows, canonical rref), by the
        characteristic-p chain of trace forms of Cohen, Ivanyos and Wales
        (J. Symb. Comp. 1997), stopped by a certificate.

        Every level of the chain is a two-sided ideal containing the
        radical, so the first level that `is_nilpotent_ideal` certifies is
        the radical itself.  Level 0 is the kernel of the ordinary trace
        form Tr(L_ab) (`trace_form`, with no characteristic polynomial);
        by Dickson's criterion it is the radical when p > dim A.  Each
        further level p^i <= dim A is `_chain_level`, run only while the
        certificate fails.  If it still fails after the last level,
        ArithmeticError is raised.
        """
        f = self.field
        current, _ = rref(nullspace(self.trace_form().T, f), f)
        level = 1
        while not self.is_nilpotent_ideal(current):
            if f.p ** level > self.dim:
                raise ArithmeticError("radical verification failed: the "
                                      "chain ends in an ideal that is not "
                                      "nilpotent")
            current = self._chain_level(current, level)
            level += 1
        return current

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
