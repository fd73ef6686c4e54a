"""Multivariate polynomials in x, y, z over a finite field.

The monomial order is fixed throughout the library: graded reverse
lexicographic with x > y > z.  Every Groebner basis, normal form and
certificate is taken with respect to this one order, which keeps all
outputs bit-reproducible.

It also holds the library's one Groebner engine, for vectors of a free
module over K[x, y, z] (`buchberger_module`, with the Gebauer-Moeller
pair criteria, `vec_nf`, and the augmented basis `LiftBasis`);
`buchberger` and `normal_form` run polynomial ideals through it at rank 1.
An ideal (`IdealData`) builds one augmented basis, which gives both its
Groebner basis and its syzygies.

Alongside the ring arithmetic this module carries the curve-level checks:
smoothness of a plane cubic, the irrelevant-primary test for ideals in the
cone, and the Hasse invariant (supersingularity) of the curve; `make_curve`
memoises curves per process.
"""

from __future__ import annotations

import heapq
from functools import cache, lru_cache
from itertools import chain

import numpy as np

from .algebra import UndecidedError
from .field import Field, FieldElem, FieldError

VARS = ("x", "y", "z")


def grevlex_key(e):
    """Sort key: larger key means larger monomial in degrevlex, x > y > z."""
    return (e[0] + e[1] + e[2], -e[2], -e[1])


def mono_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def mono_divides(a, b):
    return a[0] <= b[0] and a[1] <= b[1] and a[2] <= b[2]


def mono_div(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def mono_lcm(a, b):
    return (max(a[0], b[0]), max(a[1], b[1]), max(a[2], b[2]))


def mono_deg(a):
    return a[0] + a[1] + a[2]


def monomials_of_degree(d):
    """All degree-d monomials, in descending degrevlex order."""
    out = []
    for i in range(d, -1, -1):
        for j in range(d - i, -1, -1):
            out.append((i, j, d - i - j))
    out.sort(key=grevlex_key, reverse=True)
    return out


class Polynomial:
    """Sparse polynomial: dict from exponent triple to nonzero coefficient code."""

    __slots__ = ("field", "terms", "_lt")

    def __init__(self, field: Field, terms=None):
        self.field = field
        self.terms = {} if terms is None else terms
        self._lt = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, value):
        code = value.code if isinstance(value, FieldElem) else value % field.p
        return cls(field, {(0, 0, 0): code} if code else {})

    @classmethod
    def monomial(cls, field, mono, coeff=1):
        code = coeff.code if isinstance(coeff, FieldElem) else coeff % field.p
        return cls(field, {tuple(mono): code} if code else {})

    @classmethod
    def variable(cls, field, name):
        i = VARS.index(name)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return cls(field, {mono: 1})

    # -- basic structure --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def leading_monomial(self):
        if self._lt is None and self.terms:
            self._lt = max(self.terms, key=grevlex_key)
        return self._lt

    def leading_coeff_code(self):
        lm = self.leading_monomial()
        return self.terms[lm] if lm is not None else 0

    def leading_coeff(self):
        return FieldElem(self.field, self.leading_coeff_code())

    def degree(self):
        if not self.terms:
            return -1
        return max(mono_deg(m) for m in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {mono_deg(m) for m in self.terms}
        return len(degs) == 1

    def coefficient(self, mono) -> FieldElem:
        return FieldElem(self.field, self.terms.get(tuple(mono), 0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]),
                      reverse=True)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        f = self.field
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = f.add(res.get(m, 0), c)
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial(f, res)

    def __sub__(self, other):
        f = self.field
        res = dict(self.terms)
        for m, c in other.terms.items():
            s = f.sub(res.get(m, 0), c)
            if s:
                res[m] = s
            else:
                res.pop(m, None)
        return Polynomial(f, res)

    def __neg__(self):
        f = self.field
        return Polynomial(f, {m: f.neg(c) for m, c in self.terms.items()})

    def __mul__(self, other):
        f = self.field
        if isinstance(other, FieldElem):
            return self.scale(other.code)
        if isinstance(other, int):
            return self.scale(other % f.p)
        res = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for m1, c1 in a.terms.items():
            for m2, c2 in b.terms.items():
                m = mono_mul(m1, m2)
                s = f.add(res.get(m, 0), f.mul(c1, c2))
                if s:
                    res[m] = s
                else:
                    res.pop(m, None)
        return Polynomial(f, res)

    __rmul__ = __mul__

    def scale(self, code):
        f = self.field
        if code == 0:
            return Polynomial.zero(f)
        if code == 1:
            return self
        return Polynomial(f, {m: f.mul(c, code) for m, c in self.terms.items()})

    def term_mul(self, mono, code):
        """Multiply by the single term code * mono."""
        f = self.field
        if code == 0:
            return Polynomial.zero(f)
        return Polynomial(f, {mono_mul(m, mono): f.mul(c, code)
                              for m, c in self.terms.items()})

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial.constant(self.field, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def monic(self):
        lc = self.leading_coeff_code()
        if lc in (0, 1):
            return self
        return self.scale(self.field.inv(lc))

    def frobenius_power(self, e: int):
        """self ** (p^e), using additivity of the Frobenius in char p."""
        f = self.field
        q = f.p ** e
        return Polynomial(f, {(m[0] * q, m[1] * q, m[2] * q): f.pow(c, q)
                              for m, c in self.terms.items()})

    def derivative(self, var: str):
        f = self.field
        i = VARS.index(var)
        res = {}
        for m, c in self.terms.items():
            if m[i] == 0:
                continue
            cc = f.mul(c, m[i] % f.p)
            if cc:
                mm = list(m)
                mm[i] -= 1
                res[tuple(mm)] = cc
        return Polynomial(f, res)

    def map_coefficients(self, target: Field, fn):
        """Apply fn to every coefficient code, producing a polynomial over target."""
        return Polynomial(target, {m: fn(c) for m, c in self.terms.items()})

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field.p, self.field.k,
                     tuple(sorted(self.terms.items()))))

    def __repr__(self):
        return format_polynomial(self)


# ---------------------------------------------------------------------------
# parsing and formatting
# ---------------------------------------------------------------------------

class PolynomialSyntaxError(ValueError):
    pass


# The parser refuses a product or power of higher degree before expanding
# it: the cost of a normal form grows steeply with the degree, and an
# exponent like x^99999999999999999999 would never finish.
_MAX_PARSE_DEGREE = 64


def _check_degree(degree):
    if degree > _MAX_PARSE_DEGREE:
        raise PolynomialSyntaxError(
            f"degree {degree} exceeds the bound {_MAX_PARSE_DEGREE}")


class _Parser:
    def __init__(self, text, field):
        self.toks = self._lex(text)
        self.pos = 0
        self.field = field

    @staticmethod
    def _lex(text):
        toks = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                toks.append(("int", int(text[i:j])))
                i = j
            elif ch in "xyzt":
                toks.append(("var", ch))
                i += 1
            elif ch in "+-*^()":
                toks.append((ch, ch))
                i += 1
            else:
                raise PolynomialSyntaxError(f"unexpected character {ch!r}")
        return toks

    def peek(self):
        return self.toks[self.pos][0] if self.pos < len(self.toks) else None

    def take(self, kind=None):
        if self.pos >= len(self.toks):
            raise PolynomialSyntaxError("unexpected end of polynomial")
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise PolynomialSyntaxError(f"expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.take()[0] == "-" else 1
        acc = self.term().scale(self.field.neg(1)) if sign < 0 else self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self):
        acc = self.factor()
        while self.peek() == "*":
            self.take()
            other = self.factor()
            _check_degree(acc.degree() + other.degree())
            acc = acc * other
        return acc

    def factor(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take("int")[1]
            _check_degree(base.degree() * e)
            base = base ** e
        return base

    def atom(self):
        kind = self.peek()
        if kind == "int":
            return Polynomial.constant(self.field, self.take()[1])
        if kind == "var":
            v = self.take()[1]
            if v == "t":
                if self.field.k == 1:
                    raise PolynomialSyntaxError(
                        "t is only available over extension fields")
                return Polynomial.constant(self.field,
                                           self.field.generator())
            return Polynomial.variable(self.field, v)
        if kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise PolynomialSyntaxError("expected a coefficient, variable or (")


def parse_polynomial(text: str, field: Field) -> Polynomial:
    """Parse 'c*x^a*y^b*z^c + ...' syntax; t denotes the extension generator."""
    parser = _Parser(text, field)
    poly = parser.expr()
    if parser.pos != len(parser.toks):
        raise PolynomialSyntaxError("trailing input after polynomial")
    return poly


def _format_coeff(field, code, alone):
    if field.k == 1:
        return str(code)
    coeffs = field._decode(code)
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            stem = "t" if i == 1 else f"t^{i}"
            parts.append(stem if c == 1 else f"{c}*{stem}")
    s = " + ".join(parts) if parts else "0"
    if not alone and len(parts) > 1:
        return f"({s})"
    return s


def format_polynomial(poly: Polynomial) -> str:
    if not poly.terms:
        return "0"
    parts = []
    for m, c in poly.sorted_terms():
        factors = []
        for name, e in zip(VARS, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            parts.append(_format_coeff(poly.field, c, alone=True))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append("*".join([_format_coeff(poly.field, c, alone=False)]
                                  + factors))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# division and Buchberger
# ---------------------------------------------------------------------------

# Module vectors are dicts {(position, monomial): coefficient code}, ordered
# position-over-term: earlier positions dominate, then degrevlex.  This is
# the one Groebner engine of the library; a polynomial is the vector with
# its terms at position 0, so ideals run through it at rank 1.

def vkey(term):
    pos, mono = term
    return (-pos, grevlex_key(mono))


def vec_sub(a, b, field):
    res = dict(a)
    for t, c in b.items():
        s = field.sub(res.get(t, 0), c)
        if s:
            res[t] = s
        else:
            res.pop(t, None)
    return res


def vec_scale(a, code, field):
    if code == 0:
        return {}
    if code == 1:
        return dict(a)
    return {t: field.mul(c, code) for t, c in a.items()}


def vec_term_mul(a, mono, code, field):
    if code == 0:
        return {}
    return {(pos, mono_mul(m, mono)): field.mul(c, code)
            for (pos, m), c in a.items()}


def vec_lt(a):
    return max(a, key=vkey) if a else None


def vec_monic(vec, field):
    t = vec_lt(vec)
    if t is None:
        return vec
    lc = vec[t]
    if lc == 1:
        return vec
    return vec_scale(vec, field.inv(lc), field)


def vec_reducer(g, field):
    """A nonzero vector compiled for reduction: (pos, lm, inv_lc, tail).

    (pos, lm) is the leading term, inv_lc the inverse of its coefficient
    and tail the remaining terms as (pos, mono, coeff) in g's own order.
    """
    pos, lm = vec_lt(g)
    tail = tuple((p, m, c) for (p, m), c in g.items() if p != pos or m != lm)
    return pos, lm, field.inv(g[(pos, lm)]), tail


@cache
def _addmul(field: Field):
    """(a, f, c) -> a + f * c in field, for `vec_nf`'s inner loop: on the
    list tables of small table fields (`Field.list_tables`), with the sum
    an XOR in characteristic 2, else on the `Field` scalar ops."""
    tables = field.list_tables
    if tables is not None:
        mul, add = tables
        if field.p == 2:
            return lambda a, f, c: a ^ mul[f][c]
        return lambda a, f, c: add[a][mul[f][c]]
    fadd, fmul = field.add, field.mul
    return lambda a, f, c: fadd(a, fmul(f, c))


def vec_nf(vec, reducers, field):
    """Full reduction of a module vector by a list of reducers (vec_reducer).

    Terms are popped from a heap in descending vkey order; each is reduced
    by the first reducer in list order with the same position whose leading
    monomial divides it, or else moved to the remainder.  Contributions
    land only on smaller terms, so each term is handled once and the
    remainder's keys come out in descending order.

    The reducers are grouped by position once per call, the monomial
    operations are inlined, and a tail update is one `_addmul` call.
    """
    by_pos = {}
    for pos, lm, inv_lc, tail in reducers:
        by_pos.setdefault(pos, []).append((lm, inv_lc, tail))
    addmul = _addmul(field)
    work = dict(vec)
    heap = [(pos, -(m[0] + m[1] + m[2]), m[2], m[1], m) for pos, m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    remainder = {}
    while heap:
        pos, _, _, _, m = pop(heap)
        c = work.pop((pos, m), 0)
        if not c:
            continue
        m0, m1, m2 = m
        for lm, inv_lc, tail in by_pos.get(pos, ()):
            if lm[0] <= m0 and lm[1] <= m1 and lm[2] <= m2:
                break
        else:
            remainder[(pos, m)] = c
            continue
        s0, s1, s2 = m0 - lm[0], m1 - lm[1], m2 - lm[2]
        factor = field.neg(field.mul(c, inv_lc))
        for gpos, gm, gc in tail:
            mm = (gm[0] + s0, gm[1] + s1, gm[2] + s2)
            tt = (gpos, mm)
            prev = work.get(tt, 0)
            s = addmul(prev, factor, gc)
            if s:
                if not prev:
                    push(heap, (gpos, -(mm[0] + mm[1] + mm[2]),
                                mm[2], mm[1], mm))
                work[tt] = s
            elif prev:
                del work[tt]
    return remainder


def buchberger_module(vectors, field):
    """Reduced module Groebner basis, position-over-term degrevlex.

    The result is monic, inter-reduced and sorted by ascending vkey of the
    leading term.  Each basis vector is compiled into a reducer once, when
    it joins the basis; `reducers` stays index-aligned with `basis`.

    Pairs are popped by (lcm degree, i, j) and only equal-position pairs
    are formed.  When vector k joins with leading term (pos_k, m_k), the
    Gebauer-Moeller update prunes them:

    * B_k: a queued pair (i, j) at pos_k goes when m_k divides lcm_ij and
      neither lcm(m_i, m_k) nor lcm(m_j, m_k) equals lcm_ij;
    * M: a new pair (i, k) goes when another new pair's lcm strictly
      divides its lcm;
    * F: of the new pairs with equal lcm only the first (lowest i) stays.

    These are chain criteria and hold for submodules of free modules; the
    product criterion does not, so it is not used, at rank 1 either.  The
    inter-reduction is one pass: drop the vectors whose leading term is
    divisible by another's at the same position (of equal ones the earlier
    stays), then reduce each survivor once by the others.
    """
    basis = [vec_monic(v, field) for v in vectors if v]
    basis.sort(key=lambda v: vkey(vec_lt(v)), reverse=True)
    # drop exact duplicates
    seen = set()
    inputs = []
    for v in basis:
        key = tuple(sorted(v.items()))
        if key not in seen:
            seen.add(key)
            inputs.append(v)
    basis, reducers = [], []
    pairs = []      # heap of (deg lcm, i, j); dropped pairs are skipped
    live = {}       # (i, j) -> (position, lcm) of the pairs still queued

    def add(g):
        k = len(basis)
        basis.append(g)
        reducers.append(vec_reducer(g, field))
        pk, mk = reducers[k][:2]
        for (i, j), (pos, l) in list(live.items()):
            if (pos == pk and mono_divides(mk, l)
                    and mono_lcm(reducers[i][1], mk) != l
                    and mono_lcm(reducers[j][1], mk) != l):
                del live[(i, j)]
        new = [(mono_lcm(mi, mk), i)
               for i, (pi, mi, _, _) in enumerate(reducers[:k]) if pi == pk]
        kept = {}
        for l, i in new:
            if l not in kept and not any(
                    l2 != l and mono_divides(l2, l) for l2, _ in new):
                kept[l] = i
        for l, i in kept.items():
            live[(i, k)] = (pk, l)
            heapq.heappush(pairs, (mono_deg(l), i, k))

    for g in inputs:
        add(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        if live.pop((i, j), None) is None:
            continue
        gi, gj = basis[i], basis[j]
        _, mi, inv_i, _ = reducers[i]
        _, mj, inv_j, _ = reducers[j]
        l = mono_lcm(mi, mj)
        s = vec_sub(vec_term_mul(gi, mono_div(l, mi), inv_i, field),
                    vec_term_mul(gj, mono_div(l, mj), inv_j, field),
                    field)
        r = vec_nf(s, reducers, field)
        if r:
            add(vec_monic(r, field))
    # minimal basis, then one reduction of each survivor by the others
    keep = [k for k, (pk, mk, _, _) in enumerate(reducers)
            if not any(pi == pk and mono_divides(mi, mk)
                       and (mi != mk or i < k)
                       for i, (pi, mi, _, _) in enumerate(reducers) if i != k)]
    red = [reducers[k] for k in keep]
    basis = [vec_monic(vec_nf(basis[k], red[:n] + red[n + 1:], field), field)
             for n, k in enumerate(keep)]
    basis.sort(key=lambda v: vkey(vec_lt(v)))
    return basis


def closing_relations(F, rank):
    """F times each unit vector of a free module of the given rank."""
    return [{(i, m): c for m, c in F.terms.items()} for i in range(rank)]


class LiftBasis:
    """Augmented Groebner basis of a generator list inside a free module.

    For generators v_1..v_s in positions 0..npos-1 and closing relations
    (typically F times each unit vector), computes the basis of the module
    spanned by (v_j, e_j) and (rel, 0) with the generator-coefficient block
    in trailing positions.  Because leading positions dominate, this is an
    elimination order, giving in one computation:

    * membership of a vector in the span of the v_j (over R when the
      relations include F times the units),
    * the coefficients expressing a member in terms of the v_j,
    * a generating set for the syzygies of the v_j.

    The basis is compiled into reducers (vec_reducer) once, here; `reduce`
    and `member` reuse them.
    """

    def __init__(self, vectors, relations, npos, field):
        self.field = field
        self.npos = npos
        self.nvec = len(vectors)
        aug = []
        for j, v in enumerate(vectors):
            w = dict(v)
            w[(npos + j, (0, 0, 0))] = 1
            aug.append(w)
        for r in relations:
            aug.append(dict(r))
        self.basis = buchberger_module(aug, field)
        self.reducers = [vec_reducer(g, field) for g in self.basis]

    def reduce(self, vec):
        return vec_nf(vec, self.reducers, self.field)

    def member(self, vec):
        """Coefficients on the generators when vec lies in their span, else None."""
        r = self.reduce(vec)
        if any(pos < self.npos for (pos, _m) in r):
            return None
        coeffs = [dict() for _ in range(self.nvec)]
        for (pos, m), c in r.items():
            coeffs[pos - self.npos][m] = self.field.neg(c)
        return tuple(Polynomial(self.field, t) for t in coeffs)

    def syzygies(self):
        """Coefficient vectors (h_1..h_s) with sum h_j v_j = 0 modulo the relations."""
        out = []
        for g in self.basis:
            if any(pos < self.npos for (pos, _m) in g):
                continue
            coeffs = [dict() for _ in range(self.nvec)]
            for (pos, m), c in g.items():
                coeffs[pos - self.npos][m] = c
            out.append(tuple(Polynomial(self.field, t) for t in coeffs))
        return out

    def lead_table(self, first, rank):
        """Leading monomials of the basis elements led in positions first,
        ..., first + rank - 1, one tuple per position, in basis order."""
        leads = [[] for _ in range(rank)]
        for pos, lm, _, _ in self.reducers:
            if first <= pos < first + rank:
                leads[pos - first].append(lm)
        return tuple(tuple(ms) for ms in leads)


def _rank1(f: Polynomial):
    return {(0, m): c for m, c in f.terms.items()}


def _from_rank1(vec, field) -> Polynomial:
    return Polynomial(field, {m: c for (_, m), c in vec.items()})


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Unique remainder of f on division by a (Groebner) basis.

    `vec_nf` at rank 1: every term is reduced by the first reducer in the
    given ordering, so the result is deterministic; for a reduced Groebner
    basis it is the canonical normal form.
    """
    field = f.field
    reducers = [vec_reducer(_rank1(g), field) for g in basis if g]
    return _from_rank1(vec_nf(_rank1(f), reducers, field), field)


def buchberger(gens) -> list:
    """The reduced Groebner basis of the ideal, degrevlex x > y > z.

    `buchberger_module` at rank 1.  The output is monic and sorted by
    ascending leading monomial.
    """
    gens = [g for g in gens if g]
    if not gens:
        return []
    field = gens[0].field
    return [_from_rank1(v, field)
            for v in buchberger_module([_rank1(g) for g in gens], field)]


def ideal_contains_variable_powers(gb) -> bool:
    """True when the leading ideal contains a power of each of x, y, z.

    For a homogeneous ideal this certifies that the zero set is at most the
    origin, i.e. the ideal is irrelevant-primary.
    """
    for i in range(3):
        if not any(all(g.leading_monomial()[j] == 0 for j in range(3) if j != i)
                   and g.leading_monomial()[i] > 0
                   for g in gb):
            # constant 1 in the basis also certifies (unit ideal)
            if any(g.leading_monomial() == (0, 0, 0) for g in gb):
                continue
            return False
    return True


def is_smooth_cubic(F: Polynomial, field: Field) -> bool:
    """Smoothness of the projective plane cubic F = 0.

    Uses the full Jacobian ideal (F, dF/dx, dF/dy, dF/dz); including F
    keeps the test correct in characteristics 2 and 3.  The curve is smooth
    exactly when this ideal cuts out at most the origin in affine 3-space.
    """
    if not F.is_homogeneous() or F.degree() != 3:
        raise ValueError("curve equation must be homogeneous of degree 3")
    gens = [F, F.derivative("x"), F.derivative("y"), F.derivative("z")]
    gb = buchberger(gens)
    return ideal_contains_variable_powers(gb)


# term products that hasse_invariant_of may take before it refuses: about
# 10 s for a ten-term cubic at p = 170 on a 2-core machine
_HASSE_TERMS = 5 * 10**7


def hasse_invariant_of(F: Polynomial, field: Field):
    """Coefficient of (xyz)^(p-1) in F^(p-1); zero means supersingular.

    F^(p-1) is built one factor at a time, and after each product only the
    terms with every exponent at most p - 1 are kept: exponents never
    decrease under multiplication, so no dropped term reaches (xyz)^(p-1),
    and at most p^2 terms survive each step instead of the full power's.
    So the p - 1 products take at most (p - 1) p^2 |F| term products; past
    _HASSE_TERMS that raises UndecidedError before any is taken.
    """
    e = field.p - 1
    size = e * field.p ** 2 * len(F.terms)
    if size > _HASSE_TERMS:
        raise UndecidedError(
            f"the Hasse invariant would take {size} term products, beyond "
            f"the bound {_HASSE_TERMS}", stage="hasse invariant", size=size)
    power = Polynomial.constant(field, 1)
    for _ in range(e):
        power = Polynomial(field, {m: c for m, c in (power * F).terms.items()
                                   if max(m) <= e})
    return FieldElem(field, power.terms.get((e, e, e), 0))


class CubicCurve:
    """A smooth plane cubic over a finite field, with its cone R = S/(F).

    Carries the monic F as a reducer (lt(F) and the negated tail, for `nf`)
    and caches the monomial bases of the graded pieces of R and, per degree
    asked for, the normal forms of all monomials of that degree, from which
    `products` gathers every product of two pieces' basis monomials (its
    table rows cached per pair of degrees).
    """

    __slots__ = ("F", "field", "_reducer", "_hasse", "_piece_cache",
                 "_index_cache", "_nf_tables", "_product_rows")

    def __init__(self, F: Polynomial, field: Field, check_smooth: bool = True):
        if F.field != field:
            raise FieldError("curve equation not over the given field")
        if not F.is_homogeneous() or F.degree() != 3:
            raise ValueError("curve equation must be homogeneous of degree 3")
        if check_smooth and not is_smooth_cubic(F, field):
            raise ValueError("cubic is singular")
        self.F = F.monic()
        self.field = field
        lt = self.F.leading_monomial()
        self._reducer = (lt, tuple((m, field.neg(c)) for m, c
                                   in self.F.terms.items() if m != lt))
        self._hasse = None
        self._piece_cache = {}
        self._index_cache = {}
        self._nf_tables = {}
        self._product_rows = {}

    @property
    def hasse(self) -> FieldElem:
        if self._hasse is None:
            self._hasse = hasse_invariant_of(self.F, self.field)
        return self._hasse

    @property
    def supersingular(self) -> bool:
        return self.hasse.is_zero()

    def nf(self, f: Polynomial) -> Polynomial:
        """Normal form modulo (F): the canonical representative in R.

        Single-reducer reduction is confluent, so terms are processed off a
        worklist instead of in monomial order; this keeps the large-degree
        Frobenius computations linear in the number of reduction events.
        """
        lt, tail = self._reducer
        field = self.field
        work = {}
        out = {}
        heap = []

        def heap_key(m):
            # min-heap pops the grevlex-largest monomial first
            return (-(m[0] + m[1] + m[2]), m[2], m[1])

        for m, c in f.terms.items():
            if mono_divides(lt, m):
                work[m] = c
                heapq.heappush(heap, (heap_key(m), m))
            else:
                out[m] = c
        # descending processing: every contribution to a monomial arrives
        # from a strictly larger one, so each monomial is handled once
        while heap:
            _, m = heapq.heappop(heap)
            c = work.pop(m, 0)
            if not c:
                continue
            shift = mono_div(m, lt)
            for tm, tc in tail:
                mm = mono_mul(tm, shift)
                contrib = field.mul(c, tc)
                if mono_divides(lt, mm):
                    prev = work.get(mm, 0)
                    if prev == 0:
                        heapq.heappush(heap, (heap_key(mm), mm))
                    s = field.add(prev, contrib)
                    if s:
                        work[mm] = s
                    else:
                        work.pop(mm, None)
                else:
                    s = field.add(out.get(mm, 0), contrib)
                    if s:
                        out[mm] = s
                    else:
                        out.pop(mm, None)
        return Polynomial(field, out)

    def piece_monomials(self, d: int):
        """Monomial basis of R_d: degree-d monomials outside the leading ideal.

        With lt(F) = x^a y^b z^c these are the (x, y, z) of degree d with
        x < a, y < b or z < c, 3d of them for d >= 1.  They are generated in
        descending degrevlex order (z ascending, then y ascending) one
        y-range at a time, without enumerating all of S_d.
        """
        if d < 0:
            return ()
        cached = self._piece_cache.get(d)
        if cached is None:
            a, b, c = self.F.leading_monomial()
            out = []
            for z in range(d + 1):
                top = d - z                       # x = top - y
                if z < c:
                    ys = range(top + 1)
                else:                             # y < b, or x < a
                    ys = chain(range(min(b, top + 1)),
                               range(max(b, top - a + 1), top + 1))
                out.extend((top - y, y, z) for y in ys)
            cached = tuple(out)
            self._piece_cache[d] = cached
        return cached

    def piece_index(self, d: int):
        """{monomial: column} for the basis piece_monomials(d)."""
        cached = self._index_cache.get(d)
        if cached is None:
            cached = {m: i for i, m in enumerate(self.piece_monomials(d))}
            self._index_cache[d] = cached
        return cached

    def piece_dim(self, d: int) -> int:
        """dim R_d = dim S_d - dim S_(d-3): 1 at d = 0, 3d beyond."""
        if d < 0:
            return 0
        return max(3 * d, 1)

    @staticmethod
    def _table_row(D, a, c):
        """Row of the degree-D monomial x^a y^(D-a-c) z^c in the normal-form
        table: j(j + 1)/2 + c with j = D - a (also on arrays of a and c)."""
        j = D - a
        return j * (j + 1) // 2 + c

    def _nf_table(self, D: int) -> np.ndarray:
        """nf of every degree-D monomial of S, in piece_index(D) coordinates.

        Rows are indexed by `_table_row`, so the table is (D + 1)(D + 2)/2
        by 3D codes, about 12 D^3 bytes.  Rows are
        filled in ascending degrevlex order: a basis monomial of R_D is its
        own unit row, and lt(F) * s is the sum of the rows of the tail
        multiples tm * s, all smaller and so already final.  Built once per
        degree.
        """
        table = self._nf_tables.get(D)
        if table is None:
            lt, tail = self._reducer
            coeffs = np.array([[c for _, c in tail]], dtype=np.int64)
            index = self.piece_index(D)

            def row(m):
                return self._table_row(D, m[0], m[2])

            table = np.zeros(((D + 1) * (D + 2) // 2, len(index)),
                             dtype=np.int64)
            for m in reversed(monomials_of_degree(D)):
                if m in index:
                    table[row(m), index[m]] = 1
                else:
                    shift = mono_div(m, lt)
                    rows = [row(mono_mul(tm, shift)) for tm, _ in tail]
                    table[row(m)] = self.field.matmul(coeffs, table[rows])[0]
            self._nf_tables[D] = table
        return table

    def products(self, d1: int, d2: int) -> np.ndarray:
        """nf(mu * nu) for every mu in piece_monomials(d1) and nu in
        piece_monomials(d2): a (dim R_d1, dim R_d2, dim R_(d1 + d2)) array
        in piece_index(d1 + d2) coordinates, one gather from the
        degree-(d1 + d2) normal-form table.  The table rows of the products
        are kept per (d1, d2); the gathered array is new on every call."""
        D = d1 + d2
        rows = self._product_rows.get((d1, d2))
        if rows is None:
            mus = np.array(self.piece_monomials(d1),
                           dtype=np.int64).reshape(-1, 3)
            nus = np.array(self.piece_monomials(d2),
                           dtype=np.int64).reshape(-1, 3)
            rows = self._table_row(D, mus[:, None, 0] + nus[:, 0],
                                   mus[:, None, 2] + nus[:, 2])
            self._product_rows[(d1, d2)] = rows
        if not rows.size:
            return np.zeros(rows.shape + (self.piece_dim(D),), dtype=np.int64)
        return self._nf_table(D)[rows]

    def embedded(self, target_field: Field, embed_fn) -> "CubicCurve":
        F2 = self.F.map_coefficients(target_field, embed_fn)
        return CubicCurve(F2, target_field, check_smooth=False)

    def __repr__(self):
        return f"CubicCurve({format_polynomial(self.F)} over {self.field})"


def make_curve(F: Polynomial, field: Field) -> CubicCurve:
    """Build (or fetch) the smooth plane cubic F = 0 over field.

    Memoised on (field, monic F), as `make_field` memoises fields, so a
    process pays the smoothness basis, the Hasse invariant and the
    normal-form and piece caches once per curve, for at most
    `_CURVE_CACHE` curves.  A singular or malformed cubic raises
    ValueError, and is not memoised.
    """
    return _cached_curve(field, F.monic())


_CURVE_CACHE = 32


@lru_cache(maxsize=_CURVE_CACHE)
def _cached_curve(field: Field, F: Polynomial) -> CubicCurve:
    return CubicCurve(F, field)


def is_irrelevant_primary(gens, F: Polynomial) -> bool:
    """True when (gens, F) contains a power of each variable."""
    gb = buchberger(list(gens) + [F])
    return ideal_contains_variable_powers(gb)


class IdealData:
    """A homogeneous irrelevant-primary ideal in the cone over a cubic.

    Duplicate generators are allowed: they do not change the ideal but do
    change the syzygy sheaf, which several invariants exploit.

    The ideal owns one augmented Groebner basis, `lift`: the `LiftBasis` of
    the generators f_j (reduced modulo F) with unit coefficients e_j,
    closed by F e_0.  Position 0 dominates the position-over-term order,
    and the basis is reduced, so it is read two ways:

    * the position-0 parts of its elements led in position 0 are the
      reduced Groebner basis of (f_1, ..., f_n, F) in S (`gb`), which
      serves the primary check, `contains` and `closure._full_degree`;
    * its elements led in the coefficient block are the reduced Groebner
      basis of N = {s : sum s_j f_j in (F)}, the preimage in ⊕ S(m - d_j)
      of the syzygies over R.  `vkey` ignores twists, so this one basis
      serves `syzygy_bundle(ideal, m)` for every m.
    """

    __slots__ = ("curve", "gens", "degrees", "_lift", "_gb")

    def __init__(self, curve: CubicCurve, gens, check_primary: bool = True):
        gens = list(gens)
        if len(gens) < 2:
            raise ValueError("need at least two generators")
        degrees = []
        for g in gens:
            if g.is_zero():
                raise ValueError("zero generator")
            if not g.is_homogeneous():
                raise ValueError("generators must be homogeneous")
            if g.degree() < 1:
                raise ValueError("generators must have positive degree")
            degrees.append(g.degree())
        self.curve = curve
        self.gens = tuple(curve.nf(g) for g in gens)
        self.degrees = tuple(degrees)
        self._lift = None
        self._gb = None
        # (nf(gens), F) is the ideal (gens, F), so `gb` is its basis
        if check_primary and not ideal_contains_variable_powers(self.gb):
            raise ValueError("ideal is not primary to the irrelevant ideal")
        if any(g.is_zero() for g in self.gens):
            raise ValueError("generator is a multiple of the curve equation")

    @property
    def n(self):
        return len(self.gens)

    @property
    def lift(self) -> LiftBasis:
        if self._lift is None:
            self._lift = LiftBasis([_rank1(g) for g in self.gens],
                                   [_rank1(self.curve.F)], 1,
                                   self.curve.field)
        return self._lift

    @property
    def gb(self):
        if self._gb is None:
            field = self.curve.field
            self._gb = tuple(
                _from_rank1({t: c for t, c in g.items() if t[0] == 0}, field)
                for g, (pos, _, _, _) in zip(self.lift.basis,
                                             self.lift.reducers)
                if pos == 0)
        return self._gb

    def contains(self, f: Polynomial) -> bool:
        return normal_form(f, self.gb).is_zero()

    def embedded(self, target_field: Field, embed_fn) -> "IdealData":
        curve2 = self.curve.embedded(target_field, embed_fn)
        gens2 = [g.map_coefficients(target_field, embed_fn) for g in self.gens]
        other = IdealData(curve2, gens2, check_primary=False)
        if self._gb is not None:
            other._gb = tuple(g.map_coefficients(target_field, embed_fn)
                              for g in self._gb)
        return other

    def __repr__(self):
        gens = ", ".join(format_polynomial(g) for g in self.gens)
        return f"IdealData(({gens}) over {self.curve!r})"


def ideal_membership(f: Polynomial, ideal: IdealData) -> bool:
    """Membership of homogeneous f in (f_1, ..., f_n) inside the cone R."""
    if not f.is_homogeneous():
        raise ValueError("membership test expects a homogeneous element")
    return ideal.contains(f)
