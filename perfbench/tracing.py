"""Per-layer tracing, installed from outside the program.

Two passes over the same operations give the per-layer numbers (measure.py
interleaves them operation by operation with an untraced pass, each on its
own presentations):

- the span pass wraps the public functions of each layer (and the private
  ones the layer metrics name) and records one span per call: name, start,
  end, parent span and operation id. Self time is a span's duration minus
  the time its children cover;
- the counting pass wraps the high-frequency calls (`Scalar` operators,
  `_insert_var`) and the S-pair, completion, nullspace and point-ideal
  calls whose outcomes the metrics count. Keeping these out of the span
  pass stops their wrappers from inflating span self times.

A wrapper replaces the function in every module namespace that bound it,
so `groebner._mono_times_dict` and `nullstellensatz.vanishing_set` are
traced along with the originals.
"""

import json
import os
import statistics
import sys
import time
from array import array
from fractions import Fraction

perf_counter = time.perf_counter

# (module, attribute, span name)
SPAN_TARGETS = (
    ("skewpbw.presentation", "load_presentation", "presentation.load"),
    ("skewpbw.poly", "multiply", "poly.multiply"),
    ("skewpbw.poly", "_mono_times_dict", "poly.mono_times"),
    ("skewpbw.groebner", "divide", "groebner.divide"),
    ("skewpbw.groebner", "_completion", "groebner.completion"),
    ("skewpbw.groebner", "left_groebner", "groebner.left_groebner"),
    ("skewpbw.groebner", "two_sided_saturate", "groebner.saturate"),
    ("skewpbw.groebner", "intersect_left", "groebner.intersect"),
    ("skewpbw.linalg", "nullspace", "linalg.nullspace"),
    ("skewpbw.geometry", "point_ideal", "geometry.point_ideal"),
    ("skewpbw.geometry", "vanishing_set", "geometry.vanishing_set"),
    ("skewpbw.geometry", "ideal_of_points", "geometry.ideal_of_points"),
    ("skewpbw.geometry", "algebraic_witness", "geometry.algebraic_witness"),
    ("skewpbw.nullstellensatz", "contract_to_center", "nullstellensatz.contract"),
    ("skewpbw.nullstellensatz", "commutative_points_ideal", "nullstellensatz.points_ideal"),
    ("skewpbw.nullstellensatz", "radical_membership_commutative", "nullstellensatz.radical"),
    ("skewpbw.nullstellensatz", "central_nilpotency", "nullstellensatz.nilpotency"),
    ("skewpbw.nullstellensatz", "verify_sandwich", "nullstellensatz.sandwich"),
    ("skewpbw.normality", "central_probe", "normality.central_probe"),
)

SCALAR_METHODS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__neg__", "__truediv__", "inv", "__pow__",
)


def _namespaces():
    """Modules whose globals may hold a traced function: the program's and
    the benchmark's own engine."""
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "skewpbw" or name.startswith("skewpbw.") or name == "engine")
    ]


class _Patches:
    """Function replacements in module namespaces, found once, then
    switched on and off as often as the passes interleave."""

    def __init__(self):
        self._sites = []  # (owner, key, original, wrapper)

    def replace(self, module_name, attr, make):
        orig = getattr(sys.modules[module_name], attr)
        wrapper = make(orig)
        for mod in _namespaces():
            for key, value in vars(mod).items():
                if value is orig:
                    self._sites.append((mod, key, orig, wrapper))

    def replace_attr(self, owner, attr, wrapper):
        self._sites.append((owner, attr, owner.__dict__[attr], wrapper))

    def apply(self):
        for owner, key, _, wrapper in self._sites:
            setattr(owner, key, wrapper)

    def undo(self):
        for owner, key, orig, _ in reversed(self._sites):
            setattr(owner, key, orig)


class SpanTracer:
    """Records spans in memory around the layer functions."""

    def __init__(self):
        self.names = [name for _, _, name in SPAN_TARGETS]
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("l")
        self.op = array("l")
        self.op_id = -1
        self._stack = []
        self._child = []
        self._patches = _Patches()
        for nid, (mod, attr, _) in enumerate(SPAN_TARGETS):
            self._patches.replace(mod, attr, self._make(nid))

    def _make(self, nid):
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack, child, calls, self_s = self._stack, self._child, self.calls, self.self_s

        def make(fn):
            def wrapper(*args, **kwargs):
                idx = len(start)
                start.append(0.0)
                end.append(0.0)
                parent.append(stack[-1] if stack else -1)
                name.append(nid)
                op.append(self.op_id)
                stack.append(idx)
                child.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    covered = child.pop()
                    start[idx] = t0
                    end[idx] = t1
                    calls[nid] += 1
                    self_s[nid] += (t1 - t0) - covered
                    if child:
                        child[-1] += t1 - t0

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def install(self):
        self._patches.apply()

    def uninstall(self):
        self._patches.undo()

    def write(self, directory):
        """Spans as raw arrays plus a JSON index of the span names."""
        os.makedirs(directory, exist_ok=True)
        for field in ("start", "end", "parent", "name", "op"):
            with open(os.path.join(directory, field + ".bin"), "wb") as fh:
                getattr(self, field).tofile(fh)
        with open(os.path.join(directory, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "count": len(self.start),
                    "arrays": {
                        "start": "d", "end": "d", "parent": "q", "name": "l", "op": "l",
                    },
                    "byteorder": sys.byteorder,
                },
                fh,
            )


class Counters:
    """Counts made where the work happens, in their own pass."""

    def __init__(self):
        self.scalar_ops = 0
        self.insert_calls = 0
        self.insert_misses = 0
        self.presentations = {}
        self.spairs = 0
        self.spair_zero = 0
        self.basis_max_len = 0
        self.nullspace_cells = 0
        self.point_ideal_calls = 0
        self.point_ideal_hits = 0
        self._pending_s = None
        self._patches = _Patches()
        import skewpbw.scalars

        scalar = skewpbw.scalars.Scalar
        for attr in SCALAR_METHODS:
            self._patches.replace_attr(scalar, attr, self._count_scalar(scalar.__dict__[attr]))
        p = self._patches
        p.replace("skewpbw.poly", "_insert_var", self._insert_var)
        p.replace("skewpbw.groebner", "_s_element", self._s_element)
        p.replace("skewpbw.groebner", "_reduce_with_cert", self._reduce)
        p.replace("skewpbw.groebner", "_completion", self._completion)
        p.replace("skewpbw.linalg", "nullspace", self._nullspace)
        p.replace("skewpbw.geometry", "point_ideal", self._point_ideal)

    def install(self):
        self._patches.apply()

    def uninstall(self):
        self._patches.undo()

    def _count_scalar(self, fn):
        def wrapper(*args):
            self.scalar_ops += 1
            return fn(*args)

        return wrapper

    def _insert_var(self, fn):
        def wrapper(pres, i, exp):
            self.insert_calls += 1
            if (i, exp) not in pres._insert_cache:
                self.insert_misses += 1
                self.presentations[id(pres)] = pres
            return fn(pres, i, exp)

        return wrapper

    def _s_element(self, fn):
        def wrapper(*args):
            s, cert = fn(*args)
            self.spairs += 1
            if s.is_zero():
                self.spair_zero += 1
            else:
                self._pending_s = s
            return s, cert

        return wrapper

    def _reduce(self, fn):
        def wrapper(f, *args):
            rem, cert = fn(f, *args)
            if f is self._pending_s:
                self._pending_s = None
                if rem.is_zero():
                    self.spair_zero += 1
            return rem, cert

        return wrapper

    def _completion(self, fn):
        def wrapper(*args):
            status, items, note = fn(*args)
            self.basis_max_len = max(self.basis_max_len, len(items))
            return status, items, note

        return wrapper

    def _nullspace(self, fn):
        def wrapper(rows, field, ncols=None):
            width = ncols if ncols is not None else (len(rows[0]) if rows else 0)
            self.nullspace_cells += len(rows) * width
            return fn(rows, field, ncols)

        return wrapper

    def _point_ideal(self, fn):
        def wrapper(pres, Z, *args, **kwargs):
            before = pres._point_ideals.get(Z.coords)
            out = fn(pres, Z, *args, **kwargs)
            self.point_ideal_calls += 1
            if before is not None and pres._point_ideals.get(Z.coords) is before:
                self.point_ideal_hits += 1
            return out

        return wrapper

    def insert_cache_entries(self):
        return sum(len(p._insert_cache) for p in self.presentations.values())


# ---------------------------------------------------------------------------
# scalar microbenchmark, through the public `Scalar` operators

MICRO_FIELDS = (("gf5", "gf:5"), ("q", "Q"), ("qi", "Q(i)"), ("cyc5", "cyclotomic:5"))
MICRO_BATCH = 256
MICRO_MIN_S = 0.02
MICRO_REPEATS = 5


def _micro_elements(field, rng):
    prim = field.primitive()
    out = []
    while len(out) < MICRO_BATCH:
        c = field.from_fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        if prim is not None:
            for k in range(1, field.prime_dim):
                c = c + field.from_int(rng.randint(-3, 3)) * prim ** k
        if not c.is_zero():
            out.append(c)
    return out


def _ns_per_op(run):
    per_op = []
    for _ in range(MICRO_REPEATS):
        count = 0
        t0 = perf_counter()
        while True:
            run()
            count += MICRO_BATCH
            elapsed = perf_counter() - t0
            if elapsed >= MICRO_MIN_S:
                break
        per_op.append(elapsed / count * 1e9)
    return statistics.median(per_op)


def scalar_microbench(rng):
    """ns per add, mul and inv for each field, medians of repeated batches."""
    from skewpbw import FieldSpec, make_field

    out = {}
    for tag, spec in MICRO_FIELDS:
        field = make_field(FieldSpec.from_string(spec))
        xs = _micro_elements(field, rng)
        ys = _micro_elements(field, rng)
        pairs = list(zip(xs, ys))
        sink = []

        def add():
            sink[:] = [a + b for a, b in pairs]

        def mul():
            sink[:] = [a * b for a, b in pairs]

        def inv():
            sink[:] = [a.inv() for a in xs]

        out[f"scalars.{tag}.add_ns"] = _ns_per_op(add)
        out[f"scalars.{tag}.mul_ns"] = _ns_per_op(mul)
        out[f"scalars.{tag}.inv_ns"] = _ns_per_op(inv)
    return out
