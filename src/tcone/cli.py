"""Command line front end: parse problem files, run, emit certificates.

Problem files are flat `key = value` text:

    char = 5
    ext_degree = 1
    cubic = "x^3 + y^3 + z^3"
    generators = ["x^2", "y^2", "z^2"]
    candidate = "x*y*z"
    e_max = 4

Commands: `tc check`, `tc closure`, `tc decompose`, `tc info`; every
command accepts --json for a stable-schema document.  Exit codes: 0 for
member/success, 1 for a non-member `check`, 2 for input errors, 3 when a
decomposition is undecided within the configured splitting bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache

from .algebra import UndecidedError
from .bundle import cohomology_dims, decompose_bundle, syzygy_bundle
from .closure import (frobenius_member, tight_closure_ideal,
                      tight_closure_member)
from .field import FieldError, make_field
from .polyring import (CubicCurve, IdealData, Polynomial,
                       PolynomialSyntaxError, format_polynomial, make_curve,
                       parse_polynomial)

SCHEMA_VERSION = 1

E_CHAR = "E_CHAR"
E_SYNTAX = "E_SYNTAX"
E_MISSING_FIELD = "E_MISSING_FIELD"
E_CUBIC = "E_CUBIC"
E_SINGULAR = "E_SINGULAR"
E_NOT_PRIMARY = "E_NOT_PRIMARY"
E_CANDIDATE = "E_CANDIDATE"


class ProblemError(ValueError):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


@dataclass
class ProblemFile:
    """A parsed and validated problem: field, curve, ideal, candidate."""

    char: int
    ext_degree: int
    cubic_text: str
    generator_texts: list
    candidate_text: str | None
    e_max: int | None
    field: object
    curve: CubicCurve
    ideal: IdealData
    candidate: Polynomial | None


def _parse_value(raw, lineno):
    raw = raw.strip()
    if raw.startswith("[") and raw.endswith("]"):
        inner = raw[1:-1].strip()
        items = []
        if inner:
            for part in inner.split(","):
                part = part.strip()
                if not (part.startswith('"') and part.endswith('"')):
                    raise ProblemError(
                        E_SYNTAX, f"line {lineno}: list items must be quoted")
                items.append(part[1:-1])
        return items
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1]
    try:
        return int(raw)
    except ValueError:
        raise ProblemError(
            E_SYNTAX, f"line {lineno}: value {raw!r} is not an integer, "
            f"quoted string or bracketed list")


_KNOWN_KEYS = ("char", "ext_degree", "cubic", "generators", "candidate",
               "e_max")


def parse_problem(text: str) -> ProblemFile:
    """Parse and validate a problem file; diagnostics name the bad line."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ProblemError(E_SYNTAX,
                               f"line {lineno}: expected `key = value`")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ProblemError(E_SYNTAX, f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ProblemError(E_SYNTAX, f"line {lineno}: duplicate key {key!r}")
        values[key] = (_parse_value(raw, lineno), lineno)

    def want(key, kind, required=False, default=None):
        if key not in values:
            if required:
                raise ProblemError(E_MISSING_FIELD, f"missing key {key!r}")
            return default
        val, lineno = values[key]
        if not isinstance(val, kind):
            raise ProblemError(
                E_SYNTAX, f"line {lineno}: key {key!r} has the wrong type")
        return val

    char = want("char", int, required=True)
    ext_degree = want("ext_degree", int, default=1)
    cubic_text = want("cubic", str, required=True)
    generator_texts = want("generators", list, required=True)
    candidate_text = want("candidate", str)
    e_max = want("e_max", int)
    if e_max is not None and e_max < 0:
        raise ProblemError(E_SYNTAX, f"line {values['e_max'][1]}: "
                           f"e_max must be nonnegative, got {e_max}")

    try:
        field = make_field(char, ext_degree)
    except FieldError as exc:
        raise ProblemError(E_CHAR, str(exc))

    def parse_poly(text, what):
        try:
            return parse_polynomial(text, field)
        except PolynomialSyntaxError as exc:
            raise ProblemError(E_SYNTAX, f"{what}: {exc}")

    F = parse_poly(cubic_text, "cubic")
    if not F.is_homogeneous() or F.degree() != 3:
        raise ProblemError(E_CUBIC, "cubic must be homogeneous of degree 3")
    try:
        curve = make_curve(F, field)
    except ValueError:
        raise ProblemError(E_SINGULAR, "cubic is singular")
    gens = [parse_poly(t, f"generator {i + 1}")
            for i, t in enumerate(generator_texts)]
    try:
        ideal = IdealData(curve, gens)
    except ValueError as exc:
        raise ProblemError(E_NOT_PRIMARY, str(exc))
    candidate = None
    if candidate_text is not None:
        candidate = parse_poly(candidate_text, "candidate")
        if candidate.is_zero() or not candidate.is_homogeneous():
            raise ProblemError(
                E_CANDIDATE, "candidate must be nonzero and homogeneous")
        if curve.nf(candidate).is_zero():
            raise ProblemError(
                E_CANDIDATE, "candidate is a multiple of the curve equation")
    return ProblemFile(char, ext_degree, cubic_text, generator_texts,
                       candidate_text, e_max, field, curve, ideal, candidate)


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _frac(x):
    return str(x)


def _bool(b):
    return "yes" if b else "no"


def run_check(problem: ProblemFile, e_max_flag=None, as_json=False):
    if problem.candidate is None:
        raise ProblemError(E_CANDIDATE, "`check` needs a candidate")
    if e_max_flag is not None and e_max_flag < 0:
        raise ProblemError(
            E_SYNTAX, f"--emax must be nonnegative, got {e_max_flag}")
    cert = tight_closure_member(problem.ideal, problem.candidate)
    supersingular = problem.curve.supersingular
    frob = None
    if supersingular:
        e_max = e_max_flag if e_max_flag is not None else (
            problem.e_max if problem.e_max is not None else 4)
        frob = frobenius_member(problem.ideal, problem.candidate, e_max)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "check",
        "verdict": cert.verdict,
        "in_ideal": cert.in_ideal,
        "candidate": cert.candidate,
        "degree": cert.m,
        "formula_degree": cert.formula_degree,
        "extension_degree": cert.extension_degree,
        "summands": [
            {"rank": s.rank, "degree": s.degree,
             "class_vanishes": s.class_vanishes}
            for s in cert.summands],
        "plus_closure_equals_tight_closure": True,
        "supersingular": supersingular,
    }
    if frob is not None:
        doc["frobenius"] = {"found": frob.found, "e": frob.e,
                            "e_max": frob.e_max}
        if frob.inconclusive_at is not None:
            e, D = frob.inconclusive_at
            doc["frobenius"]["inconclusive_at"] = {"e": e, "D": D}
    if as_json:
        text = json.dumps(doc, indent=2)
    else:
        lines = [
            f"verdict: {cert.verdict}",
            f"in ideal: {_bool(cert.in_ideal)}",
            f"candidate: {cert.candidate} (degree {cert.m})",
            f"bundle degree: {cert.formula_degree}",
            f"splitting extension degree: {cert.extension_degree}",
            "summands:",
            "  rank  degree  class_vanishes",
        ]
        for s in cert.summands:
            lines.append(f"  {s.rank:<4}  {s.degree:<6}  "
                         f"{_bool(s.class_vanishes)}")
        lines.append("tight closure = plus closure (positive characteristic)")
        if frob is not None:
            lines.append(f"frobenius oracle (supersingular curve): {frob}")
        text = "\n".join(lines)
    return text, (0 if cert.is_member else 1)


def run_decompose(problem: ProblemFile, degree=None, as_json=False):
    if degree is None:
        if problem.candidate is not None:
            degree = problem.candidate.degree()
        else:
            raise ProblemError(
                E_MISSING_FIELD,
                "`decompose` needs --degree or a candidate to take it from")
    bundle = syzygy_bundle(problem.ideal, degree)
    dec = decompose_bundle(bundle)
    rows = []
    for s in dec:
        h0, h1 = cohomology_dims(s.module, 0)
        # the summand's own Groebner basis, built for h0, cross-checks the
        # rank and degree that decompose_bundle read off two pieces
        if s.module.rank_and_degree() != (s.rank, s.degree):
            raise ArithmeticError(
                f"summand (rank, degree) {(s.rank, s.degree)} disagrees with "
                f"{s.module.rank_and_degree()} from its Groebner basis")
        rows.append({"rank": s.rank, "degree": s.degree, "h0": h0, "h1": h1})
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "decompose",
        "twist": degree,
        "bundle": {"rank": bundle.rank, "degree": bundle.degree},
        "extension_degree": dec.extension_degree,
        "summands": rows,
    }
    if as_json:
        text = json.dumps(doc, indent=2)
    else:
        lines = [
            f"twist: {degree}",
            f"bundle: rank {bundle.rank}, degree {bundle.degree}",
            f"splitting extension degree: {dec.extension_degree}",
            "summands:",
            "  rank  degree  h0  h1",
        ]
        for r in rows:
            lines.append(f"  {r['rank']:<4}  {r['degree']:<6}  "
                         f"{r['h0']:<2}  {r['h1']}")
        text = "\n".join(lines)
    return text, 0


def run_closure(problem: ProblemFile, as_json=False):
    if problem.candidate is not None:
        raise ProblemError(E_CANDIDATE, "`closure` takes no candidate")
    ci = tight_closure_ideal(problem.ideal)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "closure",
        "generators": [format_polynomial(g) for g in ci.generators],
        "threshold_k": _frac(ci.k),
        "mu_min": _frac(ci.slope.mu_min),
        "mu_max": _frac(ci.slope.mu_max),
        "semistable": ci.slope.semistable,
        "all_of_R_from_degree": ci.bound_degree,
        "degrees": [
            {"degree": d.degree, "regime": d.regime,
             "dim_ideal": d.dim_ideal, "dim_closure": d.dim_closure}
            for d in ci.per_degree],
    }
    if as_json:
        text = json.dumps(doc, indent=2)
    else:
        lines = [
            "tight closure generators: "
            + ", ".join(format_polynomial(g) for g in ci.generators),
            f"threshold k: {_frac(ci.k)}",
            f"mu_min: {_frac(ci.slope.mu_min)}  mu_max: "
            f"{_frac(ci.slope.mu_max)}  semistable: "
            f"{_bool(ci.slope.semistable)}",
            f"every element of degree >= {ci.bound_degree} is in the closure",
            "degrees:",
            "  m  regime     dim_ideal  dim_closure",
        ]
        for d in ci.per_degree:
            lines.append(f"  {d.degree:<2} {d.regime:<9}  "
                         f"{d.dim_ideal:<9}  {d.dim_closure}")
        text = "\n".join(lines)
    return text, 0


def run_info(problem: ProblemFile, as_json=False):
    hasse = problem.curve.hasse
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "info",
        "char": problem.char,
        "ext_degree": problem.ext_degree,
        "cubic": format_polynomial(problem.curve.F),
        "smooth": True,
        "hasse": repr(hasse),
        "supersingular": problem.curve.supersingular,
        "generators": [format_polynomial(g) for g in problem.ideal.gens],
        "generator_degrees": list(problem.ideal.degrees),
    }
    if as_json:
        text = json.dumps(doc, indent=2)
    else:
        lines = [
            f"char: {problem.char}",
            f"ext_degree: {problem.ext_degree}",
            f"cubic: {doc['cubic']}",
            "smooth: yes",
            f"hasse: {doc['hasse']}",
            f"supersingular: {_bool(problem.curve.supersingular)}",
            f"ideal: ({', '.join(doc['generators'])})",
            f"generator degrees: {doc['generator_degrees']}",
        ]
        text = "\n".join(lines)
    return text, 0


@cache
def _build_parser():
    """The `tc` argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="tc",
        description="Tight closure of primary ideals in cones over smooth "
                    "plane cubics.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_check = sub.add_parser("check", help="membership certificate")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.add_argument("--emax", type=int, default=None,
                         help="Frobenius search bound on supersingular curves")
    p_closure = sub.add_parser("closure", help="generators of the closure")
    p_closure.add_argument("file")
    p_closure.add_argument("--json", action="store_true")
    p_dec = sub.add_parser("decompose", help="summand table of the bundle")
    p_dec.add_argument("file")
    p_dec.add_argument("--json", action="store_true")
    p_dec.add_argument("--degree", type=int, default=None)
    p_info = sub.add_parser("info", help="curve data")
    p_info.add_argument("file")
    p_info.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start]
        print(f"error [{E_SYNTAX}]: {args.file}: not UTF-8 text "
              f"({exc.reason}: byte 0x{bad:02x})", file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
        if args.command == "check":
            out, code = run_check(problem, e_max_flag=args.emax,
                                  as_json=args.json)
        elif args.command == "closure":
            out, code = run_closure(problem, as_json=args.json)
        elif args.command == "decompose":
            out, code = run_decompose(problem, degree=args.degree,
                                      as_json=args.json)
        else:
            out, code = run_info(problem, as_json=args.json)
    except ProblemError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return 3
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
