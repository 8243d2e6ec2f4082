"""Outside-in tracing of one ddforms operation, and the per-layer metrics.

``install`` runs inside the child process, after ``import ddforms.cli`` and
before ``cli.main``.  It replaces the public functions of the six modules
(mesh, polyforms, assembly, hilbert, distrib, cli) and a few named methods
by wrappers that record one span per call: name, start, end and parent.
The wrapper is bound both to the defining module's attribute and to every
``from ... import`` copy of it in the other ddforms modules, since those
are separate names.  The ``numpy.linalg`` kernels the modules call form a
seventh layer, ``linalg``; they are leaves, so they are aggregated per name
(calls, time, computed flops and operand bytes) and their time is charged
to the enclosing span.  The wrappers only observe: arguments and results
pass through unchanged.

``layer_metrics`` turns the spans of a run's traced operations into the
per-layer metrics named in ``PER_LAYER``.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time

MODULES = ("mesh", "polyforms", "assembly", "hilbert", "distrib", "cli")

# Methods to wrap besides the public module-level functions.
METHODS = (
    ("polyforms", "ElementSpace", "gram"),
    ("polyforms", "SimplexGeometry", "inner_product"),
    ("polyforms", "Family", "space"),
    ("polyforms", "Family", "d_matrix"),
    ("polyforms", "Family", "trace_matrix"),
    ("assembly", "BrokenSpace", "gram"),
    ("hilbert", "ComplexInstance", "__init__"),
    ("hilbert", "ComplexInstance", "whitened_diff"),
)

# The numpy.linalg kernels the modules call; norm stays with its caller.
LINALG = ("svd", "solve", "cholesky", "pinv", "qr", "matrix_rank", "det",
          "inv", "lstsq")
LINALG_REPORTED = ("svd", "solve", "cholesky", "pinv", "qr", "matrix_rank")

# The element tables: lru-cached in polyforms, keyed by family and shape.
TABLE_SPANS = ("polyforms.Family.space", "polyforms.Family.d_matrix",
               "polyforms.Family.trace_matrix")
TABLE_CACHES = ("_family_space", "_d_matrix", "_trace_matrix")


def _flops(name, args, kwargs):
    """Textbook flop count of a dense kernel from its operand shapes
    (Golub and Van Loan); a computed figure, not a measured one."""
    a = args[0]
    shape = getattr(a, "shape", ())
    if len(shape) < 2:
        return 0.0
    m, n = shape[-2], shape[-1]
    big, small = max(m, n), min(m, n)
    if name == "svd":
        if not kwargs.get("compute_uv", True):
            return 4 * big * small ** 2 - 4 * small ** 3 / 3
        if kwargs.get("full_matrices", True):
            return 4 * big ** 2 * small + 8 * big * small ** 2 + 9 * small ** 3
        return 6 * big * small ** 2 + 20 * small ** 3
    if name == "solve":
        b = args[1] if len(args) > 1 else kwargs.get("b")
        rhs = b.shape[1] if getattr(b, "ndim", 1) == 2 else 1
        return 2 * n ** 3 / 3 + 2 * n ** 2 * rhs
    if name == "cholesky":
        return n ** 3 / 3
    if name == "pinv":
        return 6 * big * small ** 2 + 20 * small ** 3 + 2 * m * n * small
    if name == "qr":
        return 4 * big * small ** 2 - 4 * small ** 3 / 3
    if name in ("matrix_rank", "lstsq"):
        return 4 * big * small ** 2 - 4 * small ** 3 / 3
    return 0.0


def _operand_mb(args):
    return sum(getattr(a, "nbytes", 0) for a in args[:2]) / 2 ** 20


class Tracer:
    """Spans and leaf aggregates of one operation, kept in memory."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.enabled = True
        self.spans = []      # [name, start, end, parent, leaf_s, extra]
        self.stack = []
        self.leaf = {}       # name -> [calls, seconds, gflop, max_mb]
        self.pair = None
        self._keep = []      # complexes whose id() keys a harmonic span

    def span(self, name, fn, before=None, after=None):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                   before(args) if before else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def linalg(self, name, fn, costed):
        spans, stack, leaf = self.spans, self.stack, self.leaf
        clock = time.perf_counter
        agg = leaf.setdefault(f"linalg.{name}", [0, 0.0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                agg[0] += 1
                agg[1] += dt
                if stack:
                    spans[stack[-1]][4] += dt
                if costed:
                    agg[2] += _flops(name, args, kwargs) / 1e9
                    agg[3] = max(agg[3], _operand_mb(args))

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, name):
        if name == "mesh.integer_rank":
            return (lambda a: {"entries": len(a[0]) * (len(a[0][0]) if a[0] else 0)},
                    None)
        if name == "hilbert.harmonic_space":
            def key(a):
                self._keep.append(a[0])
                return {"key": f"{id(a[0])}:{a[1]}"}
            return key, None
        if name == "assembly.BrokenSpace.gram":
            return (lambda a: {"dim": a[0].dim}), None
        if name == "cli.resolve_mesh":
            return None, lambda pair: setattr(self, "pair", pair)
        return None, None

    def install(self):
        """Wrap every target in the loaded ddforms modules."""
        import numpy as np

        mods = {name: sys.modules[f"ddforms.{name}"] for name in MODULES}
        bindings = [m for key, m in sys.modules.items()
                    if key == "ddforms" or key.startswith("ddforms.")]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) \
                        or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped = self.span(name, obj, *self._hooks(name))
                for other in bindings:
                    for alias, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, alias, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{short}.{cls_name}.{meth.strip('_')}"
            raw = vars(cls)[meth]
            if isinstance(raw, property):
                setattr(cls, meth, property(
                    self.span(name, raw.fget, *self._hooks(name))))
            else:
                setattr(cls, meth, self.span(name, raw, *self._hooks(name)))
        for name in LINALG:
            setattr(np.linalg, name, self.linalg(
                name, getattr(np.linalg, name), name not in ("det", "inv")))

    def table_stats(self):
        """Hits and misses of the polyforms element-table caches."""
        poly = sys.modules["ddforms.polyforms"]
        hits = misses = 0
        for attr in TABLE_CACHES:
            info = getattr(poly, attr).cache_info()
            hits += info.hits
            misses += info.misses
        return {"hits": hits, "misses": misses}

    def dump(self):
        return {
            "op": self.op_id,
            "fields": ["name", "start", "end", "parent", "leaf_s", "extra"],
            "spans": self.spans,
            "leaf": self.leaf,
            "tables": self.table_stats(),
            "pair_cache": len(self.pair._cache) if self.pair is not None else 0,
        }


# -- per-layer metrics ------------------------------------------------------


def _m(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _m("mesh.integer_rank.self_s", "s"),
    _m("mesh.integer_rank.calls", "count"),
    _m("mesh.integer_rank.entries", "count"),
    _m("mesh.betti_numbers.calls", "count"),
    _m("mesh.check_local_patch_condition.self_s", "s"),
    _m("mesh.patch_pair.calls", "count"),
    _m("mesh.build_complex.self_s", "s"),
    _m("polyforms.ElementSpace.gram.self_s", "s"),
    _m("polyforms.ElementSpace.gram.total_s", "s"),
    _m("polyforms.ElementSpace.gram.calls", "count"),
    _m("polyforms.SimplexGeometry.inner_product.calls", "count"),
    _m("linalg.det.calls", "count"),
    _m("polyforms.tables.self_s", "s"),
    _m("polyforms.tables.hit_ratio", "ratio", "higher"),
    _m("polyforms.check_local_exactness.self_s", "s"),
    _m("polyforms.check_geometric_decomposition.self_s", "s"),
    _m("assembly.BrokenSpace.gram.self_s", "s"),
    _m("assembly.BrokenSpace.gram.calls", "count"),
    _m("assembly.BrokenSpace.gram.max_dim", "count"),
    _m("assembly.operator_D.self_s", "s"),
    _m("assembly.operator_T.self_s", "s"),
    _m("assembly.derivative_operator.self_s", "s"),
    _m("assembly.matrix_nullspace.self_s", "s"),
    _m("assembly.matrix_nullspace.calls", "count"),
    _m("assembly.kernel_space.self_s", "s"),
    _m("assembly.adjoint.self_s", "s"),
    _m("assembly.gram_orthonormalize.self_s", "s"),
    _m("hilbert.harmonic_space.calls", "count"),
    _m("hilbert.harmonic_space.distinct", "count"),
    _m("hilbert.harmonic_space.repeat_frac", "ratio"),
    _m("hilbert.harmonic_space.self_s", "s"),
    _m("hilbert.ComplexInstance.whitened_diff.calls", "count"),
    _m("hilbert.ComplexInstance.whitened_diff.self_s", "s"),
    _m("hilbert.ComplexInstance.init.self_s", "s"),
    _m("hilbert.laplace_solve.self_s", "s"),
    _m("hilbert.hodge_laplacian.self_s", "s"),
    _m("hilbert.pseudoinverse.self_s", "s"),
    _m("distrib.redirected_lambda.calls", "count"),
    _m("distrib.redirected_lambda.self_s", "s"),
    _m("distrib.redirected_gamma.calls", "count"),
    _m("distrib.redirected_gamma.self_s", "s"),
    _m("distrib.iso_step.self_s", "s"),
    _m("distrib.regularizer_R.self_s", "s"),
    _m("distrib.regularizer_S.self_s", "s"),
    _m("distrib.check_conditions.total_s", "s"),
    _m("distrib.pair_cache.entries", "count"),
]
for _k in LINALG_REPORTED:
    PER_LAYER += [_m(f"linalg.{_k}.calls", "count"),
                  _m(f"linalg.{_k}.self_s", "s"),
                  _m(f"linalg.{_k}.gflop_computed", "GFLOP")]
PER_LAYER += [
    _m("linalg.max_operand_mb_computed", "MB"),
    _m("cli.resolve_mesh.total_s", "s"),
    _m("cli.mesh_summary.total_s", "s"),
    _m("cli.main.self_s", "s"),
    _m("cli.main.cpu_s", "s"),
]
PER_LAYER += [_m(f"share.{layer}", "ratio")
              for layer in MODULES + ("linalg",)]
PER_LAYER += [_m("trace.verdict_s_p50", "s"), _m("trace.op_s_mean", "s")]


def op_profile(trace, op_s):
    """Per-name calls, self and inclusive time of one traced operation.

    Self time is a span's duration minus its child spans and the linalg
    calls made directly inside it.  Inclusive time counts only outermost
    spans of a name.  The returned closure is the gap between the summed
    self times (negative ones counted as zero) plus the untraced remainder
    and the measured operation time; it is zero up to rounding exactly
    when every span holds its children."""
    spans = trace["spans"]
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _leaf, _extra in spans:
        if parent >= 0:
            child_s[parent] += end - start
    prof = {}
    layer_self = dict.fromkeys(MODULES + ("linalg",), 0.0)
    roots_s = 0.0
    overlap = 0.0
    for i, (name, start, end, parent, leaf, _extra) in enumerate(spans):
        self_s = end - start - child_s[i] - leaf
        overlap += max(-self_s, 0.0)
        entry = prof.setdefault(name, {"calls": 0, "self_s": 0.0,
                                       "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += self_s
        layer_self[name.split(".", 1)[0]] += self_s
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["total_s"] += end - start
        if parent < 0:
            roots_s += end - start
    for name, (calls, secs, gflop, mb) in trace["leaf"].items():
        prof[name] = {"calls": calls, "self_s": secs, "total_s": secs,
                      "gflop": gflop, "max_mb": mb}
        layer_self["linalg"] += secs
    remainder = op_s - roots_s
    closure = sum(layer_self.values()) + overlap + remainder - op_s
    return prof, layer_self, closure


def layer_metrics(traced):
    """Per-layer metrics of a run from its traced operations.

    ``traced`` holds (trace, op_s, cpu_s) per operation.  Counts and times
    are means per operation; ratios are pooled over the run; maxima are
    taken over the run; shares are layer self time over operation time."""
    ops = len(traced)
    sums = {}
    layer = dict.fromkeys(MODULES + ("linalg",), 0.0)
    harm_keys = set()
    harm_calls = 0
    rank_entries = 0
    hits = misses = 0
    max_dim = max_mb = 0.0
    op_total = cpu_total = pair_cache = 0.0
    for trace, op_s, cpu_s in traced:
        prof, layer_self, _closure = op_profile(trace, op_s)
        for name, entry in prof.items():
            acc = sums.setdefault(name, {"calls": 0, "self_s": 0.0,
                                         "total_s": 0.0, "gflop": 0.0})
            for key in acc:
                acc[key] += entry.get(key, 0)
            max_mb = max(max_mb, entry.get("max_mb", 0.0))
        for key in layer:
            layer[key] += layer_self[key]
        for name, _s, _e, _p, _l, extra in trace["spans"]:
            if name == "hilbert.harmonic_space":
                harm_calls += 1
                harm_keys.add((trace["op"], extra["key"]))
            elif name == "assembly.BrokenSpace.gram":
                max_dim = max(max_dim, extra["dim"])
            elif name == "mesh.integer_rank":
                rank_entries += extra["entries"]
        hits += trace["tables"]["hits"]
        misses += trace["tables"]["misses"]
        op_total += op_s
        cpu_total += cpu_s
        pair_cache += trace["pair_cache"]

    def per_op(name, key):
        return sums.get(name, {}).get(key, 0) / ops

    out = {}
    for spec in PER_LAYER:
        name = spec["name"]
        base, _, stat = name.rpartition(".")
        if stat in ("self_s", "total_s", "calls"):
            value = per_op(base, stat)
        elif stat == "gflop_computed":
            value = per_op(base, "gflop")
        else:
            continue
        out[name] = value
    out["mesh.integer_rank.entries"] = rank_entries / ops
    out["polyforms.tables.self_s"] = sum(per_op(n, "self_s") for n in TABLE_SPANS)
    out["polyforms.tables.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["assembly.BrokenSpace.gram.max_dim"] = float(max_dim)
    out["hilbert.harmonic_space.distinct"] = len(harm_keys) / ops
    out["hilbert.harmonic_space.repeat_frac"] = \
        1.0 - len(harm_keys) / harm_calls if harm_calls else 0.0
    out["distrib.pair_cache.entries"] = pair_cache / ops
    out["linalg.max_operand_mb_computed"] = max_mb
    out["cli.main.cpu_s"] = cpu_total / ops
    for key, secs in layer.items():
        out[f"share.{key}"] = secs / op_total
    out["trace.verdict_s_p50"] = statistics.median(o for _t, o, _c in traced)
    out["trace.op_s_mean"] = op_total / ops
    return {spec["name"]: {"value": out[spec["name"]], "unit": spec["unit"]}
            for spec in PER_LAYER}
