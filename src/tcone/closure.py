"""Tight closure operations on primary ideals in cubic cone rings.

The membership criterion: a homogeneous candidate of degree m lies in the
tight closure exactly when its obstruction class has vanishing component
on every negative-degree indecomposable summand of the syzygy sheaf at
total degree m.  In positive characteristic tight closure and (graded)
plus closure agree for these ideals, so every certificate carries that
equality note.

Degree thresholds: with k = (d_1 + ... + d_n)/(n - 1) and the slopes of
the dual syzygy sheaf at twist zero, everything of degree at least
mu_max/3 is in the closure and nothing new appears below mu_min/3; the
window in between is resolved degree by degree with the criterion.

The Frobenius oracle tests f0^(p^e) against the generator p^e-th powers;
on supersingular curves (Hasse invariant zero) the Frobenius closure
equals the tight closure, making the oracle a differential test for the
criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import UndecidedError
from .bundle import (component_class_vanishes, decompose_bundle,
                     forcing_data, syzygy_bundle)
from .gradedmod import PieceFrame, TwistedFree, _minimal_generators
from .linalg import reduce_against, row_space_contains, rref
from .polyring import (CubicCurve, IdealData, Polynomial,
                       format_polynomial, grevlex_key, ideal_membership)


@dataclass(frozen=True)
class SummandEvidence:
    rank: int
    degree: int
    class_vanishes: bool


@dataclass(frozen=True)
class ClosureCertificate:
    """Verdict with the per-summand evidence that produced it."""

    verdict: str                      # "member" | "non-member"
    in_ideal: bool
    summands: tuple                   # of SummandEvidence
    formula_degree: int               # -3 (sum d_i - (n-1) m)
    m: int
    candidate: str
    extension_degree: int
    notes: str = "tight closure = plus closure (positive characteristic)"

    @property
    def is_member(self):
        return self.verdict == "member"


@dataclass(frozen=True)
class SlopeReport:
    """Slope data of the dual syzygy sheaf at twist zero."""

    mu_min: Fraction
    mu_max: Fraction
    k: Fraction
    semistable: bool
    summand_shape: tuple              # ((rank, degree) of twist-0 summands)


@dataclass(frozen=True)
class FrobeniusResult:
    found: bool
    e: int | None
    e_max: int
    inconclusive_at: tuple | None = None   # (e, D) whose matrix is too big

    def __str__(self):
        if self.found:
            return f"found at e = {self.e}"
        if self.inconclusive_at is not None:
            e, D = self.inconclusive_at
            return (f"inconclusive: stopped at e = {e}, D = {D}, where the "
                    f"membership matrix would exceed "
                    f"{_ORACLE_MATRIX_BYTES >> 20} MiB")
        return f"not found for e <= {self.e_max}"


@dataclass(frozen=True)
class DegreeRegime:
    degree: int
    regime: str                       # "ideal" | "criterion" | "all"
    dim_ideal: int
    dim_closure: int


@dataclass(frozen=True)
class ClosureIdeal:
    """Generators of the tight closure plus the threshold report."""

    generators: tuple                 # of Polynomial
    k: Fraction
    slope: SlopeReport
    bound_degree: int                 # from this degree on, everything is in
    per_degree: tuple                 # of DegreeRegime


def tight_closure_member(ideal: IdealData, f0: Polynomial) -> ClosureCertificate:
    """Decide tight-closure membership of a homogeneous candidate.

    Builds the syzygy bundle at the candidate degree, decomposes it, and
    tests the class component on every summand; only negative-degree
    summands can obstruct.
    """
    curve = ideal.curve
    if not f0.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    f0 = curve.nf(f0)
    if f0.is_zero():
        raise ValueError("candidate must be nonzero in the cone")
    m = f0.degree()
    in_ideal = ideal_membership(f0, ideal)
    bundle = syzygy_bundle(ideal, m)
    decomposition = decompose_bundle(bundle)
    fd = forcing_data(ideal, f0, bundle)
    evidence = []
    obstructed = False
    for s in decomposition:
        vanishes = component_class_vanishes(fd, s)
        evidence.append(SummandEvidence(s.rank, s.degree, vanishes))
        if s.degree < 0 and not vanishes:
            obstructed = True
    n = ideal.n
    formula_degree = -3 * (sum(ideal.degrees) - (n - 1) * m)
    verdict = "non-member" if obstructed else "member"
    if in_ideal and verdict != "member":
        raise ArithmeticError("ideal member judged outside its tight closure")
    return ClosureCertificate(
        verdict=verdict, in_ideal=in_ideal, summands=tuple(evidence),
        formula_degree=formula_degree, m=m,
        candidate=format_polynomial(f0),
        extension_degree=decomposition.extension_degree)


# ---------------------------------------------------------------------------
# Frobenius oracle
# ---------------------------------------------------------------------------

# The oracle refuses a degree whose dense membership matrix (int64 codes)
# would take more than this; it is allocated once and eliminated in place.
_ORACLE_MATRIX_BYTES = 512 << 20


def _ideal_piece_rows(curve: CubicCurve, gens, D: int) -> np.ndarray:
    """Spanning rows of the degree-D piece of the R-ideal of gens."""
    return PieceFrame(curve, (0,), D).multiples([(g,) for g in gens])


def frobenius_member(ideal: IdealData, f0: Polynomial,
                     e_max: int = 4) -> FrobeniusResult:
    """Smallest e <= e_max with f0^(p^e) in the p^e-th power ideal.

    Membership is tested inside the cone ring degree by degree with exact
    linear algebra; Frobenius powers are exact single-term expansions in
    characteristic p, so no Groebner computation at large degree is needed.
    At D = p^e deg(f0) the rows are the monomial multiples of each distinct
    monic generator's p^e-th power in the basis of R_D (3D monomials,
    generated directly), and the target is reduced against their forward
    echelon form.  Before each degree the size of that matrix is predicted;
    past 512 MiB the search stops, inconclusive, and the result names that
    e and D ("inconclusive: stopped at e = ..., D = ...").
    """
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    curve = ideal.curve
    if not f0.is_homogeneous():
        raise ValueError("candidate must be homogeneous")
    f0 = curve.nf(f0)
    if f0.is_zero():
        raise ValueError("candidate must be nonzero in the cone")
    p = curve.field.p
    m = f0.degree()
    # generators equal up to a scalar span the same rows
    gens = list(dict.fromkeys(g.monic() for g in ideal.gens))
    for e in range(e_max + 1):
        q = p ** e
        D = q * m
        n_rows = sum(curve.piece_dim(D - q * g.degree()) for g in gens)
        if n_rows * curve.piece_dim(D) * 8 > _ORACLE_MATRIX_BYTES:
            return FrobeniusResult(False, None, e_max, inconclusive_at=(e, D))
        target = curve.nf(f0.frobenius_power(e))
        powered = [curve.nf(g.frobenius_power(e)) for g in gens]
        # the rows are built here, so they are eliminated in place
        if row_space_contains(_ideal_piece_rows(curve, powered, D),
                              PieceFrame(curve, (0,), D).coords((target,)),
                              curve.field):
            return FrobeniusResult(True, e, e_max)
    return FrobeniusResult(False, None, e_max)


# ---------------------------------------------------------------------------
# slopes, thresholds, and the full closure ideal
# ---------------------------------------------------------------------------

def slope_and_threshold(ideal: IdealData) -> SlopeReport:
    """Slopes of the dual syzygy sheaf at twist zero, with the threshold k.

    The summand slopes are the negated slopes of the twist-zero syzygy
    summands; semistable means one slope.  Exact rational arithmetic.
    """
    return _slope_report(ideal, decompose_bundle(syzygy_bundle(ideal, 0)))


def _slope_report(ideal: IdealData, dec) -> SlopeReport:
    """The slope report of the twist-zero decomposition dec."""
    mus = [Fraction(-s.degree, s.rank) for s in dec]
    n = ideal.n
    return SlopeReport(
        mu_min=min(mus), mu_max=max(mus),
        k=Fraction(sum(ideal.degrees), n - 1),
        semistable=(min(mus) == max(mus)),
        summand_shape=tuple((s.rank, s.degree) for s in dec))


def _ceil_fraction(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


_LINE_LIMIT = 100_000


def _criterion_piece(ideal: IdealData, m: int, ideal_piece, dec0):
    """Degree-m piece of the tight closure in the criterion window.

    The piece is a subspace of R_m containing the ideal piece, both given
    as (rows, pivots) of their canonical rref; it is reconstructed exactly
    by testing one representative of every line of the quotient space with
    the summand criterion.  The degree-m bundle and its summands are the
    twist by m of the twist-zero decomposition dec0
    (`Decomposition.twisted`), so no End algebra is built here.
    """
    curve = ideal.curve
    field = curve.field
    frame = PieceFrame(curve, (0,), m)
    width = frame.width
    rows, pivots = ideal_piece
    free_cols = [c for c in range(width) if c not in pivots]
    t = len(free_cols)
    if t == 0:
        return ideal_piece
    q = field.q
    n_lines = (q ** t - 1) // (q - 1)
    if n_lines > _LINE_LIMIT:
        raise UndecidedError(
            f"degree {m}: quotient has {n_lines} candidate lines, beyond "
            f"the testing limit", stage="closure window", size=n_lines)
    dec = dec0.twisted(m)
    negatives = [s for s in dec if s.degree < 0]
    # canonical line representatives: leading coordinate 1
    for lead in range(t):
        tail = t - lead - 1
        for code in range(q ** tail):
            coeffs = [0] * lead + [1]
            c = code
            for _ in range(tail):
                coeffs.append(c % q)
                c //= q
            vec = np.zeros(width, dtype=np.int64)
            vec[free_cols] = coeffs
            if not reduce_against(rows, pivots, vec, field).any():
                # already known to be in the closure piece
                continue
            fd = forcing_data(ideal, frame.polys(vec)[0], dec.base_bundle)
            if all(component_class_vanishes(fd, s) for s in negatives):
                rows, pivots = rref(np.vstack([rows, vec]), field)
    return rows, pivots


def tight_closure_ideal(ideal: IdealData) -> ClosureIdeal:
    """Minimal homogeneous generators of the tight closure, degree by degree.

    Three regimes per degree m: below mu_min/3 the closure piece equals the
    ideal piece; from mu_max/3 on it is all of R_m; in between it is cut
    out by the vanishing of the class components on the negative summands
    of the degree-m syzygy sheaf.  The pieces' rref rows, in degree order,
    are pruned to minimal generators by graded Nakayama
    (`gradedmod._minimal_generators`).
    """
    curve = ideal.curve
    dec0 = decompose_bundle(syzygy_bundle(ideal, 0))
    slope = _slope_report(ideal, dec0)
    bound = _ceil_fraction(slope.mu_max / 3)
    bound = max(bound, 1)
    per_degree = []
    candidates = []
    for m in range(1, bound + 1):
        ideal_piece = rref(_ideal_piece_rows(curve, ideal.gens, m),
                           curve.field)
        if m >= slope.mu_max / 3:
            regime = "all"
            rows = np.eye(curve.piece_dim(m), dtype=np.int64)
        elif m < slope.mu_min / 3:
            regime = "ideal"
            rows = ideal_piece[0]
        else:
            regime = "criterion"
            rows = _criterion_piece(ideal, m, ideal_piece, dec0)[0]
        frame = PieceFrame(curve, (0,), m)
        candidates += [frame.polys(row) for row in rows]
        per_degree.append(DegreeRegime(m, regime, len(ideal_piece[1]),
                                       rows.shape[0]))
    gens = [v[0] for v in _minimal_generators(curve, TwistedFree((0,)),
                                               candidates)]
    gens.sort(key=lambda g: (g.degree(),
                             tuple(grevlex_key(g.leading_monomial()))),
              reverse=False)
    return ClosureIdeal(generators=tuple(gens), k=slope.k, slope=slope,
                        bound_degree=bound, per_degree=tuple(per_degree))
