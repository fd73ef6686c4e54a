"""Seeded problem corpora for the three benchmark workloads.

Every problem is a `.tc` text plus the facts known when it was drawn.
Problem `i` of a workload is drawn from its own generator, seeded with
`(workload, seed, i)`, so it does not depend on how many problems came
before it.  After the demo heads, problems follow fixed slots (field,
curve, shape; see `slot_of`), so every seed sees the same mix and only the
drawn coefficients, scalars and variable order differ.

Draws are validated with `tcone` itself before they are used (primary
ideal, candidate nonzero in the cone, closure window within the line
cap).  That work is done while the clock is stopped; the program under
test only ever sees the finished problem text.

Why each workload exists, and which layers it stresses or bypasses, is
written beside it below and in NOTES.md.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction

ORDINARY = "y^2*z + x*y*z + x^3 + z^3"
FERMAT = "x^3 + y^3 + z^3"

# The demo problems the workloads include, copied so that the benchmark
# keeps measuring the same inputs if the demos change.
DUPLICATE_GENERATOR = """\
# the syzygy sheaf of a redundant generating set splits
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "x^2"]
candidate = "x*y*z"
"""
FERMAT5_CHECK = """\
# is x*y*z in the tight closure of (x^2, y^2, z^2)?
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
candidate = "x*y*z"
"""
FERMAT2_FROBENIUS = """\
# supersingular differential test over F_2
char = 2
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
candidate = "x*y*z"
e_max = 4
"""
FERMAT5_CLOSURE = """\
# full tight closure of (x^2, y^2, z^2)
char = 5
cubic = "x^3 + y^3 + z^3"
generators = ["x^2", "y^2", "z^2"]
"""

# membership: ordinary curves, so `tc check` skips the Frobenius oracle and
# the time goes to module Groebner bases, the End algebra, decomposition
# and one class test per candidate.
MEMBERSHIP_STRATA = ((2, 1, ORDINARY), (2, 2, ORDINARY), (5, 1, ORDINARY),
                     (5, 2, ORDINARY), (7, 1, ORDINARY), (7, 1, FERMAT))
# (generator degrees, candidate degree minus ceil(k)), k = sum(d)/(n-1).
# Every slot has a fixed shape, so the cost mix is the same on every seed;
# the seed draws the coefficients.
MEMBERSHIP_SHAPES = (((2, 3), -1), ((2, 2), 0), ((1, 2, 3), -1),
                     ((2, 2, 2), 0), ((2, 2, 3), -1))
# The tail: (x^3, y^3, z^3, xyz) over F_7 with candidate x^2*y^2 and seeded
# scalars.  Its rank-3 syzygy bundle has the largest End algebra of the
# corpus (about 1 s).  Sixteen of these lead every run, so that the run's
# tail percentile (its 11th-largest time) is the 6th-smallest of them on
# every seed, not an extreme of a few; random shapes this costly vary too
# much from draw to draw to hold it steady.
MEMBERSHIP_TAIL = (["x^3", "y^3", "z^3", "x*y*z"], "x^2*y^2")

# closure: (near-)monomial ideals with unbalanced degrees, because generic
# ideals have semistable syzygy bundles and no criterion window.  One
# decomposition per degree serves every candidate line of the window.
CLOSURE_FIELDS = ((2, 1), (2, 2), (5, 1), (7, 1))
CLOSURE_KINDS = ("free", "small", "near", "deep")
# Exponents (a, b, c) of x, y, z in the Fermat-curve slots.  Each slot has
# one ideal up to scalars, in one generator order: variable placement and
# generator order alone move the cost of a window by up to 2x, which would
# make the run's cost depend on the seed.  "small" has 3-8 candidate lines;
# "near" turns one of its generators into a seeded binomial whose window
# stays open; "deep" is a one-line window over a deeper bundle; "large"
# (7-31 lines, about 0.3-1.5 s each) only leads the stream.  "free" draws
# unbalanced exponents on the ordinary cubic that leave no window.
CLOSURE_SHAPES = {"small": (1, 3, 3), "near": (1, 3, 3), "deep": (1, 1, 4),
                  "large": (2, 2, 3)}
# Candidate lines allowed per problem; each line costs one forcing_data
# and class test (about 0.05 s here).  Draws over the cap are drawn again.
LINE_CAP = 32

# frobenius: supersingular Fermat curves, so `tc check` runs the oracle
# after the criterion.  Seeded problems keep the oracle degree
# D = p^e * m at most D_CAP (D_CAP_DRAWN where the verdict is drawn); the
# D = 1875 case is the demo problem at the head of the stream.
FROBENIUS_FIELDS = ((2, 1), (2, 2), (5, 1), (5, 2))
# Slot kinds: a known member with a witness at small e, a known
# non-member searched to e_max (these lead the stream), and two random
# dense shapes (generator degrees, candidate degree) whose verdict is drawn.
FROBENIUS_KINDS = ("witness", "random", "line")
FROBENIUS_SHAPES = {"random": ((1, 1, 2), 2), "line": ((1, 2), 3)}
D_CAP = 400
D_CAP_DRAWN = 100

HEADS = {
    "membership": (),
    "closure": (("fermat5_closure", "closure", FERMAT5_CLOSURE),),
    "frobenius": (("duplicate_generator", "check", DUPLICATE_GENERATOR),
                  ("fermat5_check", "check", FERMAT5_CHECK),
                  ("fermat2_frobenius", "check", FERMAT2_FROBENIUS)),
}
WORKLOADS = tuple(HEADS)
# Frobenius does a fixed amount of work sized to `--seconds` instead of
# filling a time budget: the heads, then SEEDED_PER_S seeded problems per
# second of `--seconds` beyond HEAD_ALLOWANCE_S.  Its time is dominated by
# the 19-s duplicate_generator head, and machine speed drifts during that
# call where no calibration sample sees it; a time budget would pass that
# drift on to the number of problems, and from there to problems_per_s.
# Both constants are the measured values at the commit that defined the
# benchmark (about 19 s for the heads, 7 seeded problems per second).
HEAD_ALLOWANCE_S = {"frobenius": 19.0}
SEEDED_PER_S = {"frobenius": 7.0}

# Seeded problems are drawn slot by slot: first the lead slots, then a
# cycle over fields (fastest) and kinds.  The costliest kinds lead, so
# that every run has the same number of them however many problems it
# finishes; otherwise the run's tail percentile would fall between cost
# clusters on some seeds and inside one on others.
CYCLES = {"membership": (MEMBERSHIP_STRATA, MEMBERSHIP_SHAPES),
          "closure": (CLOSURE_FIELDS, CLOSURE_KINDS),
          "frobenius": (FROBENIUS_FIELDS, FROBENIUS_KINDS)}
LEADS = {"membership": ((7, 1, FERMAT, "tail"),) * 16,
         "closure": ((2, 1, "large"), (2, 2, "large"), (5, 1, "large")) * 2,
         "frobenius": tuple((p, k, "searched") for p, k in FROBENIUS_FIELDS)}


def slot_of(workload, j):
    """(field..., kind) of the j-th seeded problem of a workload."""
    lead = LEADS[workload]
    if j < len(lead):
        return lead[j]
    j -= len(lead)
    fields, kinds = CYCLES[workload]
    return tuple(fields[j % len(fields)]) + (kinds[(j // len(fields))
                                                   % len(kinds)],)


@dataclass(frozen=True)
class Problem:
    workload: str
    index: int
    command: str                      # "check" or "closure"
    text: str
    facts: dict = field(default_factory=dict)

    @property
    def sha(self):
        return hashlib.sha256(self.text.encode()).hexdigest()[:16]


def curves_used(workload):
    """(p, k, cubic) of every base field and curve the workload uses."""
    if workload == "membership":
        return MEMBERSHIP_STRATA
    if workload == "closure":
        return tuple((p, k, c) for p, k in CLOSURE_FIELDS
                     for c in (FERMAT, ORDINARY))
    return tuple((p, k, FERMAT) for p, k in FROBENIUS_FIELDS)


def fields_used(workload):
    """(p, k) of the base fields and of their quadratic extensions, which
    is as far as a decomposition of these rank <= 2 bundles can split."""
    base = sorted({(p, k) for p, k, _ in curves_used(workload)})
    return tuple(sorted(set(base) | {(p, 2 * k) for p, k in base}))


# ---------------------------------------------------------------------------
# polynomial text
# ---------------------------------------------------------------------------

def _monomials(d):
    return [(i, j, d - i - j) for i in range(d, -1, -1)
            for j in range(d - i, -1, -1)]


def _coeff_text(code, p, k):
    if k == 1:
        return str(code)
    parts = []
    for i in range(k):
        c = code % p
        code //= p
        if c:
            stem = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
            parts.append(str(c) if not stem else
                         (stem if c == 1 else f"{c}*{stem}"))
    return "(" + " + ".join(parts) + ")"


def _mono_text(m):
    out = []
    for name, e in zip("xyz", m):
        if e == 1:
            out.append(name)
        elif e > 1:
            out.append(f"{name}^{e}")
    return "*".join(out)


def _poly_text(terms, p, k):
    parts = []
    for mono, code in terms:
        mt = _mono_text(mono)
        if not mt:
            parts.append(_coeff_text(code, p, k))
        elif code == 1:
            parts.append(mt)
        else:
            parts.append(_coeff_text(code, p, k) + "*" + mt)
    return " + ".join(parts)


def _random_terms(rng, d, q):
    """A sparse random form of degree d: each monomial with chance 1/2."""
    monos = _monomials(d)
    chosen = [m for m in monos if rng.random() < 0.5] or [rng.choice(monos)]
    return [(m, rng.randrange(1, q)) for m in chosen]


def _dense_terms(rng, d, q):
    """A random form of degree d: every coefficient uniform in F_q."""
    while True:
        terms = [(m, c) for m in _monomials(d) if (c := rng.randrange(q))]
        if terms:
            return terms


def _problem_text(p, k, cubic, gens, candidate=None, e_max=None):
    lines = [f"char = {p}"]
    if k > 1:
        lines.append(f"ext_degree = {k}")
    lines.append(f'cubic = "{cubic}"')
    lines.append("generators = [" + ", ".join(f'"{g}"' for g in gens) + "]")
    if candidate is not None:
        lines.append(f'candidate = "{candidate}"')
    if e_max is not None:
        lines.append(f"e_max = {e_max}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the corpus
# ---------------------------------------------------------------------------

class Corpus:
    """The endless, seeded problem stream of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in HEADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._curves = {}
        self._lines = {}
        import tcone.closure
        import tcone.field
        import tcone.linalg
        import tcone.polyring
        self._tc = tcone

    def __iter__(self):
        i = 0
        for name, command, text in HEADS[self.workload]:
            yield Problem(self.workload, i, command, text, {"demo": name})
            i += 1
        heads = i
        while True:
            yield self.draw(i, slot_of(self.workload, i - heads))
            i += 1

    def draw(self, index, slot):
        rng = random.Random(f"{self.workload}:{self.seed}:{index}")
        return getattr(self, "_" + self.workload)(rng, index, *slot)

    # -- validation through tcone, off the clock --------------------------

    def _curve(self, p, k, cubic):
        key = (p, k, cubic)
        if key not in self._curves:
            ring = self._tc.polyring
            K = self._tc.field.make_field(p, k)
            self._curves[key] = ring.CubicCurve(
                ring.parse_polynomial(cubic, K), K)
        return self._curves[key]

    def _ideal(self, curve, gen_texts):
        ring = self._tc.polyring
        gens = [ring.parse_polynomial(t, curve.field) for t in gen_texts]
        try:
            return ring.IdealData(curve, gens)
        except ValueError:
            return None

    def _nonzero_in_cone(self, curve, text):
        ring = self._tc.polyring
        f = ring.parse_polynomial(text, curve.field)
        return f.is_homogeneous() and not curve.nf(f).is_zero()

    def _window_lines(self, ideal):
        """Candidate lines of the criterion window, from slopes and ideal
        piece dimensions: sum over window degrees m of (q^t-1)/(q-1),
        t = dim R_m - dim I_m."""
        tc = self._tc
        curve = ideal.curve
        slope = tc.closure.slope_and_threshold(ideal)
        q = curve.field.q
        lines = 0
        m = 1
        while m < slope.mu_max / 3:
            if m >= slope.mu_min / 3:
                t = 3 * m - _ideal_piece_dim(tc, curve, ideal.gens, m)
                lines += (q ** t - 1) // (q - 1)
            m += 1
        return lines

    # -- workloads ---------------------------------------------------------

    def _membership(self, rng, index, p, k, cubic, shape):
        q = p ** k
        curve = self._curve(p, k, cubic)
        if shape == "tail":
            monos, cand = MEMBERSHIP_TAIL
            gens = [f"{_coeff_text(rng.randrange(1, q), p, k)}*{mo}"
                    for mo in monos]
            cand = f"{_coeff_text(rng.randrange(1, q), p, k)}*{cand}"
            return Problem("membership", index, "check",
                           _problem_text(p, k, cubic, gens, cand),
                           {"p": p, "k": k, "cubic": cubic, "m": 4,
                            "kind": "tail"})
        degs, offset = shape
        kk = Fraction(sum(degs), len(degs) - 1)
        m = -(-kk.numerator // kk.denominator) + offset
        while True:
            pairs = [(_poly_text(_random_terms(rng, d, q), p, k), d)
                     for d in degs]
            rng.shuffle(pairs)
            gens = [g for g, _ in pairs]
            if self._ideal(curve, gens) is None:
                continue
            constructed = rng.random() < 0.125
            if constructed:
                parts = []
                for g, d in pairs:
                    if m - d >= 0:
                        h = _poly_text(_random_terms(rng, m - d, q), p, k)
                        parts.append(f"({h})*({g})")
                cand = " + ".join(parts)
            else:
                cand = _poly_text(_random_terms(rng, m, q), p, k)
            if self._nonzero_in_cone(curve, cand):
                break
        text = _problem_text(p, k, cubic, gens, cand)
        return Problem("membership", index, "check", text,
                       {"p": p, "k": k, "cubic": cubic, "m": m,
                        "kind": "random",
                        "constructed_in_ideal": constructed})

    def _closure(self, rng, index, p, k, kind):
        q = p ** k
        over_cap = []
        while True:
            if kind == "free":
                cubic = ORDINARY
                exps = [rng.randint(1, 4) for _ in range(3)]
                if len(set(exps)) == 1:
                    continue
            else:
                cubic = FERMAT
                exps = list(CLOSURE_SHAPES[kind])
            curve = self._curve(p, k, cubic)
            gens = [_poly_text([(tuple(e if j == v else 0 for j in range(3)),
                                 rng.randrange(1, q))], p, k)
                    for v, e in enumerate(exps)]
            if kind == "near":
                # one generator becomes a binomial with a mixed term
                v = rng.randrange(3)
                mixed = [m for m in _monomials(exps[v]) if sorted(m)[1] > 0]
                if not mixed:
                    continue
                gens[v] += " + " + _poly_text([(rng.choice(mixed),
                                                rng.randrange(1, q))], p, k)
            if kind == "free":
                rng.shuffle(gens)
            ideal = self._ideal(curve, gens)
            if ideal is None:
                continue
            # Scalars do not change a monomial ideal, and the Fermat cubic
            # is symmetric in x, y, z, so monomial counts are reused.
            key = None
            if kind != "near":
                key = (p, k, cubic,
                       tuple(sorted(exps)) if cubic == FERMAT else tuple(exps))
            lines = self._lines.get(key)
            if lines is None:
                lines = self._window_lines(ideal)
                if key is not None:
                    self._lines[key] = lines
            if lines > LINE_CAP:
                over_cap.append(lines)
                continue
            if (kind == "free") == (lines > 0):
                continue
            break
        text = _problem_text(p, k, cubic, gens)
        return Problem("closure", index, "closure", text,
                       {"p": p, "k": k, "cubic": cubic, "kind": kind,
                        "lines": lines, "over_cap": over_cap})

    def _frobenius(self, rng, index, p, k, kind):
        q = p ** k
        curve = self._curve(p, k, FERMAT)
        expect = None
        while True:
            if kind in ("witness", "searched"):
                # (x^2, y^2, z^2) holds xyz in its closure with a witness at
                # e = 1 (p = 5) or 2 (p = 2); (x^2, y^2) with a repeated
                # generator does not.  Scalars, variable order and an added
                # ideal element change the text, not the answer.
                expect = "member" if kind == "witness" else "non-member"
                perm = rng.sample(range(3), 3)
                powers = [tuple(2 if j == v else 0 for j in range(3))
                          for v in perm]
                if kind == "searched":
                    powers[2] = powers[rng.randrange(2)]
                degs = (2, 2, 2)
                gens = [_poly_text([(mo, rng.randrange(1, q))], p, k)
                        for mo in powers]
                m = 3
                parts = [_poly_text([((1, 1, 1), rng.randrange(1, q))], p, k)]
                for g in gens[:2]:
                    h = _dense_terms(rng, 1, q)
                    parts.append(f"({_poly_text(h, p, k)})*({g})")
                cand = " + ".join(parts)
            else:
                degs, m = FROBENIUS_SHAPES[kind]
                gens = [_poly_text(_dense_terms(rng, d, q), p, k)
                        for d in degs]
                cand = _poly_text(_dense_terms(rng, m, q), p, k)
            rng.shuffle(gens)
            if self._ideal(curve, gens) is not None and \
                    self._nonzero_in_cone(curve, cand):
                break
        # a drawn verdict may be a non-member searched to e_max, so the
        # random shapes get the smaller cap: their cost must not depend on
        # which verdict the seed draws
        cap = D_CAP if expect else D_CAP_DRAWN
        e_max = 0
        while p ** (e_max + 1) * m <= cap:
            e_max += 1
        text = _problem_text(p, k, FERMAT, gens, cand, e_max)
        return Problem("frobenius", index, "check", text,
                       {"p": p, "k": k, "cubic": FERMAT, "m": m,
                        "e_max": e_max, "kind": kind,
                        "expect_verdict": expect})


def _ideal_piece_dim(tc, curve, gens, m):
    """dim of the degree-m piece of the ideal, by elimination over K."""
    import numpy as np
    monos = curve.piece_monomials(m)
    index = {mo: i for i, mo in enumerate(monos)}
    span = tc.linalg.SpanBasis(len(monos), curve.field)
    for g in gens:
        for mu in curve.piece_monomials(m - g.degree()):
            row = np.zeros(len(monos), dtype=np.int64)
            for mo, c in curve.nf(g.term_mul(mu, 1)).terms.items():
                row[index[mo]] = c
            span.add(row)
    return span.dim
