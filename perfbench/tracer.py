"""Outside-in tracer for the vftk layers.

The tracer wraps the public functions listed in ``TRACED`` by replacing
every ``vftk.*`` module attribute that is the function object, so calls
made through ``from .x import f`` bindings are seen too.  Each call
records a span ``[name, start, end, parent, op]`` in memory; the op runner
writes the spans out when its op ends.  ``self_times`` turns spans into
per-function call counts and self times (duration minus the part of the
interval covered by child spans).

``bits``, ``budget`` and ``IntegralLattice.inner`` run once per search
node, so they are not wrapped: a wrapper would distort them.  Their time
stays in their callers' self time.
"""

import importlib
import sys
import time
from collections import defaultdict

# module -> traced public functions; one metric layer per module
TRACED = {
    "cli": ("main",),
    "fileio": ("load_gram", "load_frame"),
    "lattices": ("short_vectors", "discriminant_group", "e8_lattice", "lattice_from_code"),
    "frames": (
        "e8_frame_representatives",
        "classify_e8_frames",
        "frame_invariants",
        "frame_stabilizer",
        "glue_code",
        "abelian_type",
        "frame_torus_divisors",
        "frame_group_order",
    ),
    "stabsearch": ("stabilizer",),
    "f2codes": ("classify_markings", "code_automorphisms"),
    "f2quad": ("enumerate_odd_lagrangians", "orbit_census", "orbit_partition", "stabilizer_structure"),
    "intmat": ("hnf", "snf", "det", "inverse"),
    "abelian": ("quotient_divisors", "rational_row_basis"),
    "hatgroup": (
        "standard_cocycle",
        "lift_automorphism",
        "all_lifts",
        "miyamoto_involutions",
        "involution_class",
        "weight_one_dim",
    ),
    "unimodular": (
        "unimodularize",
        "hyperbolic_unimodularize",
        "prime_power_twist",
        "dirichlet_prime",
        "isotropic_subgroup",
        "overlattice_from_isotropic",
        "first_block_primitive",
    ),
}

# work counts read from a traced function's return value
ITEM_COUNTS = {
    "lattices.short_vectors": ("vectors", len),
    "frames.classify_e8_frames": ("frames", lambda census: census.total),
    "f2quad.enumerate_odd_lagrangians": ("members", len),
}

# functions whose public cache_info() gives a hit count
CACHED = ("frames.e8_frame_representatives", "lattices.e8_lattice")


def layer_metric_names():
    """Every per-layer metric name the traced run reports, in order."""
    names = []
    for mod, funcs in TRACED.items():
        for fn in funcs:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
        names.append(f"{mod}.self_s")
    names += [f"{fn}.{item}" for fn, (item, _) in ITEM_COUNTS.items()]
    names += [f"{fn}.cache_hits" for fn in CACHED]
    names.append("trace.overhead_ratio")
    return names


class Tracer:
    """Span recorder that patches a package's module attributes in place."""

    def __init__(self, op_id=0, clock=time.perf_counter):
        self.op_id = op_id
        self.clock = clock
        self.spans = []
        self.items = defaultdict(int)
        self._stack = []
        self._patched = []
        self._originals = {}

    def _wrap(self, name, fn):
        spans, stack, clock, op_id = self.spans, self._stack, self.clock, self.op_id
        item = ITEM_COUNTS.get(name)
        items = self.items

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = [name, start, clock(), parent, op_id]
                stack.pop()
            if item is not None:
                items[f"{name}.{item[0]}"] += item[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package="vftk", traced=TRACED):
        """Wrap every listed function wherever a package module binds it."""
        wrappers = {}
        for mod, funcs in traced.items():
            module = importlib.import_module(f"{package}.{mod}")
            for fn in funcs:
                orig = getattr(module, fn)
                self._originals[f"{mod}.{fn}"] = orig
                wrappers[id(orig)] = (orig, self._wrap(f"{mod}.{fn}", orig))
        prefix = package + "."
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(prefix)):
                continue
            for attr, val in list(vars(module).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, val))

    def remove(self):
        """Put every original function object back."""
        while self._patched:
            module, attr, orig = self._patched.pop()
            setattr(module, attr, orig)

    def cache_hits(self):
        return {
            f"{name}.cache_hits": self._originals[name].cache_info().hits
            for name in CACHED
            if name in self._originals
        }


def _covered(start, end, intervals):
    """Length of [start, end] covered by the union of intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """{name: [calls, self_s]} for the spans of one op."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = defaultdict(lambda: [0, 0.0])
    for idx, (name, start, end, _parent, _op) in enumerate(spans):
        acc = out[name]
        acc[0] += 1
        acc[1] += (end - start) - _covered(start, end, children[idx])
    return dict(out)
