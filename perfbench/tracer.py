"""Per-layer tracing of `tcone` from outside the program.

While a `Tracer` is installed, each listed public function or method is
replaced by a timing wrapper in every `tcone` module namespace that binds
it (and on its class, for methods); `uninstall` puts the originals back,
so untraced calls run the program exactly as shipped.
Nothing in `tcone` is edited.

Stage-level functions keep one span per call: name, start, end, parent
span and problem index.  The hot functions (HOT) keep only aggregate
counters, because a span per call would cost more than the call.
Everything stays in memory until `write_spans` at the end of the run.

`calls` and `busy_s` are inclusive (a recursive call adds its time once);
`self_s` is the wrapped call's time minus the time of its traced children.
Time in untraced code (scalar `Field.mul`/`add`, for instance) is thereby
attributed to the traced caller.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("cli", "main"), ("cli", "parse_problem"),
    ("closure", "tight_closure_member"), ("closure", "tight_closure_ideal"),
    ("closure", "slope_and_threshold"), ("closure", "frobenius_member"),
    ("bundle", "syzygy_bundle"), ("bundle", "end_algebra"),
    ("bundle", "decompose_bundle"), ("bundle", "forcing_data"),
    ("bundle", "component_class_vanishes"),
    ("algebra", "FiniteAlgebra.radical"), ("algebra", "FiniteAlgebra.charpoly"),
    ("algebra", "semisimple_primitive_idempotents"),
    ("algebra", "lift_idempotents"), ("algebra", "FiniteAlgebra.extend_scalars"),
    ("gradedmod", "syzygy_of_map"), ("gradedmod", "hom_space"),
    ("gradedmod", "image_presentation"), ("gradedmod", "buchberger_module"),
    ("gradedmod", "vec_nf"),
    ("linalg", "rref"), ("linalg", "solve"), ("linalg", "SpanBasis.add"),
    ("linalg", "row_space_contains"),
    ("polyring", "CubicCurve.nf"), ("polyring", "buchberger"),
    ("polyring", "monomials_of_degree"), ("polyring", "CubicCurve.piece_monomials"),
    ("field", "make_field"), ("field", "embed"),
)
HOT = {"gradedmod.vec_nf", "polyring.CubicCurve.nf",
       "polyring.CubicCurve.piece_monomials", "linalg.rref", "linalg.solve",
       "linalg.SpanBasis.add"}
LAYERS = ("cli", "closure", "bundle", "algebra", "gradedmod", "linalg",
          "polyring", "field")


def rref_path(field):
    """The elimination path `linalg.rref` takes for this field."""
    if field.k == 1:
        return "prime"
    return "table" if getattr(field, "_mul_table", None) is not None \
        else "generic"


class Tracer:
    """Installs timing wrappers around TARGETS and accumulates counters."""

    def __init__(self):
        self.problem = -1
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.spans = []
        self._frames = []             # [child_time] per open wrapped call
        self._span_stack = []         # ids of open span-keeping calls
        self._depth = defaultdict(int)
        self._verdict = None          # criterion verdict of the current check
        self._patches = None          # (owner, key, original, wrapper)

    def start_problem(self, index):
        self.problem = index
        self._verdict = None

    # -- install / restore --------------------------------------------------

    def _collect(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "tcone" or name.startswith("tcone.")]
        patches = []
        for modname, attr in TARGETS:
            module = sys.modules[f"tcone.{modname}"]
            name = f"{modname}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                patches.append((owner, meth, orig, self._wrap(name, orig)))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for key, val in vars(m).items():
                    if val is orig:
                        patches.append((m, key, orig, wrapper))
        return patches

    def install(self):
        if self._patches is None:
            self._patches = self._collect()
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, orig, _ in reversed(self._patches or ()):
            setattr(owner, key, orig)

    # -- the wrapper --------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        hot = name in HOT
        post = _POST.get(name)
        is_rref = name == "linalg.rref"

        def wrapper(*args, **kwargs):
            key = name
            if is_rref:
                key = f"linalg.rref.{rref_path(args[1])}"
                tracer.counts[key + ".cells"] += args[0].shape[0] * \
                    args[0].shape[1]
            frame = [0.0]
            frames = tracer._frames
            depth = tracer._depth
            outer = depth[key] == 0
            depth[key] += 1
            if not hot:
                span_id = len(tracer.spans)
                parent = tracer._span_stack[-1] if tracer._span_stack else None
                tracer.spans.append([name, 0.0, 0.0, parent, tracer.problem])
                tracer._span_stack.append(span_id)
            frames.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                depth[key] -= 1
                dur = end - start
                if frames:
                    frames[-1][0] += dur
                tracer.calls[key] += 1
                if outer:
                    tracer.busy[key] += dur
                tracer.self_time[key] += dur - frame[0]
                if not hot:
                    tracer._span_stack.pop()
                    span = tracer.spans[span_id]
                    span[1], span[2] = start, end
            if post is not None:
                post(tracer, args, kwargs, result, dur)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def open(self, name):
        """Whether a call of `name` is currently on the stack."""
        return self._depth[name] > 0

    # -- results ------------------------------------------------------------

    def layer_self(self, layer):
        return sum(v for k, v in self.self_time.items()
                   if k.split(".")[0] == layer)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# -- per-function counters computed from arguments and results --------------

def _buchberger_module(tr, args, kwargs, result, dur):
    tr.counts["gradedmod.buchberger_module.in_vectors"] += len(args[0])
    tr.counts["gradedmod.buchberger_module.out_vectors"] += len(result)


def _charpoly(tr, args, kwargs, result, dur):
    n = len(args[1])
    tr.counts["algebra.FiniteAlgebra.charpoly.ops"] += n ** 3


def _decompose(tr, args, kwargs, result, dur):
    if result.extension_degree > 1:
        tr.counts["bundle.decompose_bundle.extended"] += 1


def _forcing_data(tr, args, kwargs, result, dur):
    if tr.open("closure.tight_closure_ideal"):
        tr.counts["closure.window.criterion_tests"] += 1


def _tight_closure_member(tr, args, kwargs, result, dur):
    tr._verdict = result.verdict


def _tight_closure_ideal(tr, args, kwargs, result, dur):
    q = args[0].curve.field.q
    for d in result.per_degree:
        if d.regime == "criterion":
            t = 3 * d.degree - d.dim_ideal
            tr.counts["closure.window.lines"] += (q ** t - 1) // (q - 1)


def _frobenius_member(tr, args, kwargs, result, dur):
    ideal, f0 = args[0], args[1]
    p = ideal.curve.field.p
    e = result.e if result.found else result.e_max
    D = p ** e * f0.degree()
    tr.counts["closure.frobenius.max_D"] = max(
        tr.counts["closure.frobenius.max_D"], D)
    tr.counts["closure.frobenius.calls"] += 1
    if result.found:
        tr.counts["closure.frobenius.witnesses"] += 1
    if tr._verdict == "non-member":
        tr.counts["closure.frobenius.wasted_s"] += dur


def _row_space_contains(tr, args, kwargs, result, dur):
    if tr.open("closure.frobenius_member"):
        tr.counts["closure.frobenius.degrees_searched"] += 1


def _monomials_of_degree(tr, args, kwargs, result, dur):
    tr.counts["polyring.monomials_of_degree.max_degree"] = max(
        tr.counts["polyring.monomials_of_degree.max_degree"], args[0])


_POST = {
    "gradedmod.buchberger_module": _buchberger_module,
    "algebra.FiniteAlgebra.charpoly": _charpoly,
    "bundle.decompose_bundle": _decompose,
    "bundle.forcing_data": _forcing_data,
    "closure.tight_closure_member": _tight_closure_member,
    "closure.tight_closure_ideal": _tight_closure_ideal,
    "closure.frobenius_member": _frobenius_member,
    "linalg.row_space_contains": _row_space_contains,
    "polyring.monomials_of_degree": _monomials_of_degree,
}
