"""Spans around the calls into each layer, recorded from outside the library.

A :class:`Tracer` replaces public functions and methods of the library
with timing wrappers, under the names their callers look up: a function
that another module imported by name is replaced in that module too.
:meth:`Tracer.remove` puts every original back.

Each wrapped call is a span with a name, start, end, parent span and
request id.  Spans stay in memory until the run ends.  A span's self time
is its duration minus the time its child spans cover.

Ring arithmetic on ideal generators (the ``gen_*`` methods) runs tens of
millions of times, at a fraction of a microsecond a call, so timing every
call would cost more than the calls.  Those calls are counted, one in
SAMPLE_EVERY is timed, and their total time is estimated as count times
sampled mean.  The spans they run inside lose that estimate plus the
counting wrapper's own cost.  What the counting and the timer add to a
call is measured once, on a trivial function, by :func:`calibrate`, and
taken off both.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

LAYERS = ("graph", "rings", "laurent", "groebner", "ideals", "concrete", "cli")

# (module, name or Class.method, keep single spans).  Calls that the
# crosscheck makes once per pair of ideals are only aggregated.
TARGETS = [
    ("graph", "pair_lattice", True),
    ("graph", "PairLattice.__init__", True),
    ("graph", "PairLattice.leq_table", True),
    ("graph", "PairLattice.join_table", False),
    ("graph", "PairLattice.star_join_irreducibles", True),
    ("graph", "PairLattice.hasse_edges", True),
    ("graph", "cycles", True),
    ("graph", "exclusive_cycles", True),
    ("graph", "exit_closure", True),
    ("graph", "cycle_vertex_closure", True),
    ("graph", "find_cycle", True),
    ("rings", "parse_ring", True),
    ("rings", "is_prime_int", False),
    ("laurent", "parse_poly", True),
    ("laurent", "LaurentIdeal.from_polys", True),
    ("laurent", "LaurentIdeal.parse", True),
    ("laurent", "LaurentIdeal.zero", True),
    ("laurent", "LaurentIdeal.unit", True),
    ("laurent", "LaurentIdeal.extend", True),
    ("laurent", "LaurentIdeal.generators", True),
    ("laurent", "LaurentIdeal.__contains__", True),
    ("laurent", "LaurentIdeal.__le__", True),
    ("laurent", "LaurentIdeal.__add__", True),
    ("laurent", "LaurentIdeal.__mul__", True),
    ("laurent", "LaurentIdeal.intersect", True),
    ("laurent", "LaurentIdeal.scale", True),
    ("laurent", "LaurentIdeal.divide_exact", True),
    ("laurent", "LaurentIdeal.contract", True),
    ("laurent", "LaurentIdeal.coefficient_ideal", True),
    ("laurent", "LaurentIdeal.is_graded", True),
    ("groebner", "strong_groebner", True),
    ("groebner", "gb_dense", True),
    ("groebner", "member_dense", True),
    ("groebner", "intersect_dense", True),
    ("groebner", "colon_x_dense", True),
    ("groebner", "saturate_x_dense", True),
    ("ideals", "context", True),
    ("ideals", "Context.__init__", True),
    ("ideals", "validate_tables", True),
    ("ideals", "SaturatedFunction.__init__", True),
    ("ideals", "saturate_function", True),
    ("ideals", "ClassifiedIdeal.join", False),
    ("ideals", "ClassifiedIdeal.meet", False),
    ("ideals", "ClassifiedIdeal.product", False),
    ("ideals", "ClassifiedIdeal.leq", False),
    ("ideals", "ClassifiedIdeal.graded", False),
    ("ideals", "ClassifiedIdeal.is_graded", True),
    ("ideals", "ClassifiedIdeal.largest_graded", True),
    ("ideals", "from_generators", True),
    ("ideals", "atom_pair", True),
    ("ideals", "to_generators", True),
    ("ideals", "graded_lattice", True),
    ("ideals", "prime_report", True),
    ("concrete", "crosscheck", True),
    ("concrete", "FinitePathAlgebra.__init__", True),
    ("concrete", "enumerate_concrete_ideals", True),
    ("concrete", "ConcreteIdeal.product", False),
]

RING_CLASSES = ("RingSpec", "IntegerRing", "RationalField", "IntegersMod", "PrimeField")
SAMPLE_EVERY = 16

ROOT_SPAN = "cli.main"


def _bits(values) -> int:
    return max((abs(int(v)).bit_length() for v in values), default=0)


class Tracer:
    """Wrappers, spans and counters of one traced run."""

    def __init__(self, package: str = "lpalattice"):
        self.package = package
        self.stack = []  # one [child seconds, span id, gen_* calls] per active call
        self.stats = {}  # span name -> [calls, total s, self s, max s]
        self.spans = []  # (id, name, start, end, parent id, request id)
        self.counters = {
            "graph.pairs.max": 0,
            "ideals.graded_lattice.functions": 0,
            "laurent.max_coeff_bits": 0,
            "groebner.max_coeff_bits": 0,
            "groebner.colon_x_dense.max_per_saturate": 0,
            "concrete.dim.max": 0,
        }
        self.leaf = [0, 0, 0.0, 0]  # gen_* calls, sampled, sampled seconds, nested
        self.leaf_under = {}  # span name -> gen_* calls made directly inside it
        self.costs = {"outer": 0.0, "nested": 0.0, "timer": 0.0}
        self._inside_leaf = [False]
        self.missing = []  # targets the library does not have
        self.request = None
        self._next_id = 0
        self._undo = []  # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn, keep: bool = True, before=None, after=None):
        """fn timed as span `name`; before(args) gives a token that
        after(args, result, token) receives once the call returns."""
        tracer = self
        stack = self.stack
        leaf_under = self.leaf_under
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = [0.0, 0, 0]  # child seconds, span id, gen_* calls inside
            if keep:
                tracer._next_id += 1
                frame[1] = tracer._next_id
                parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                stat[0] += 1
                stat[1] += took
                stat[2] += took - frame[0]
                if took > stat[3]:
                    stat[3] = took
                if stack:
                    stack[-1][0] += took
                if frame[2]:
                    leaf_under[name] = leaf_under.get(name, 0) + frame[2]
                if keep:
                    tracer.spans.append((frame[1], name, start, end, parent, tracer.request))
            if after:
                after(args, result, token)
            return result

        return traced

    def count(self, fn):
        """fn counted, and timed one call in SAMPLE_EVERY; a call made from
        inside another counted call is part of that one."""
        leaf, stack = self.leaf, self.stack
        inside = self._inside_leaf

        @functools.wraps(fn)
        def counted(*args):
            if inside[0]:
                leaf[3] += 1
                return fn(*args)
            leaf[0] += 1
            if stack:
                stack[-1][2] += 1
            inside[0] = True
            try:
                if leaf[0] % SAMPLE_EVERY:
                    return fn(*args)
                start = perf_counter()
                result = fn(*args)
                leaf[2] += perf_counter() - start
                leaf[1] += 1
                return result
            finally:
                inside[0] = False

        return counted

    def _hooks(self, qual: str):
        c = self.counters
        stats = self.stats

        def raise_to(key, value):
            if value > c[key]:
                c[key] = value

        if qual == "graph.PairLattice.__init__":
            return None, lambda a, r, t: raise_to("graph.pairs.max", len(getattr(a[0], "pairs", ())))
        if qual == "concrete.FinitePathAlgebra.__init__":
            return None, lambda a, r, t: raise_to("concrete.dim.max", getattr(a[0], "dim", 0))
        if qual == "ideals.graded_lattice":
            def count(a, r, t):
                c["ideals.graded_lattice.functions"] += len(r)
            return None, count
        if qual == "groebner.strong_groebner":
            return None, lambda a, r, t: raise_to(
                "groebner.max_coeff_bits", _bits(v for p in r for v in p.values()))
        if qual == "groebner.saturate_x_dense":
            colon = stats.setdefault("groebner.colon_x_dense", [0, 0.0, 0.0, 0.0])
            return (lambda a: colon[0]), (lambda a, r, t: raise_to(
                "groebner.colon_x_dense.max_per_saturate", colon[0] - t))
        if qual.startswith("laurent.LaurentIdeal."):
            def coeffs(a, r, t):
                if hasattr(r, "basis"):
                    raise_to("laurent.max_coeff_bits", _bits(v for d in r.basis for v in d))
            return None, coeffs
        return None, None

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target at its definition and at every import site.

        A target the library no longer has is skipped and listed in
        self.missing; its metrics read zero."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if name == self.package or name.startswith(self.package + ".")
        }
        self.missing = []
        for modname, target, keep in TARGETS:
            mod = modules.get(f"{self.package}.{modname}")
            qual = f"{modname}.{target}"
            owner_name, _, attr = target.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(qual)
                continue
            before, after = self._hooks(qual)
            if owner_name:
                self._wrap_method(owner, attr, qual, keep, before, after)
                continue
            original = vars(owner)[attr]
            traced = self.wrap(qual, original, keep, before, after)
            for site in modules.values():
                if vars(site).get(attr) is original:
                    self._replace(site, attr, traced)
        rings = modules.get(f"{self.package}.rings")
        for cls_name in RING_CLASSES:
            cls = getattr(rings, cls_name, None)
            for attr in list(vars(cls)) if cls is not None else ():
                if attr.startswith("gen_"):
                    self._replace(cls, attr, self.count(vars(cls)[attr]))
        self.costs = calibrate()
        return self

    def _wrap_method(self, cls, attr, qual, keep, before, after):
        raw = vars(cls)[attr]
        if isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(qual, raw.__func__, keep, before, after))
        else:
            new = self.wrap(qual, raw, keep, before, after)
        self._replace(cls, attr, new)

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------
    def calls(self, *names) -> int:
        return sum(self.stats.get(n, (0,))[0] for n in names)

    def leaf_mean_s(self) -> float:
        """Mean time inside one gen_* call, counted calls nested in it included."""
        if not self.leaf[1]:
            return 0.0
        return max(0.0, self.leaf[2] / self.leaf[1] - self.costs["timer"])

    def leaf_s(self) -> float:
        """Estimated time inside gen_* calls, without the counting."""
        return max(0.0, self.leaf[0] * self.leaf_mean_s() - self.leaf[3] * self.costs["nested"])

    def self_s(self, *names) -> float:
        per_call = self.leaf_mean_s() + self.costs["outer"]
        return sum(
            max(0.0, self.stats[n][2] - self.leaf_under.get(n, 0) * per_call)
            for n in names if n in self.stats
        )

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name in self.stats:
            out[name.split(".")[0]] += self.self_s(name)
        out["rings"] += self.leaf_s()
        return out

    def write_spans(self, path: str):
        with gzip.open(path, "wt") as fh:
            for span_id, name, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "request": request,
                }) + "\n")


def calibrate(n: int = 200_000) -> dict:
    """Seconds that Tracer.count adds to a trivial call: made from outside
    ("outer", sampling included), made inside another counted call
    ("nested"), and what the sampled timing measures beyond the call
    itself ("timer").  Each figure is the best of three loops."""

    def nothing(a, b):
        return a

    probe = Tracer()
    counted = probe.count(nothing)

    def loop(fn):
        start = perf_counter()
        for i in range(n):
            fn(i, i)
        return perf_counter() - start

    def empty():
        start = perf_counter()
        for i in range(n):
            pass
        return perf_counter() - start

    best = {"empty": [], "direct": [], "outer": [], "nested": []}
    for _ in range(3):
        best["empty"].append(empty())
        best["direct"].append(loop(nothing))
        best["outer"].append(loop(counted))
        probe._inside_leaf[0] = True
        best["nested"].append(loop(counted))
        probe._inside_leaf[0] = False
    t = {k: min(v) / n for k, v in best.items()}
    sampled = probe.leaf[2] / probe.leaf[1]
    return {
        "outer": max(0.0, t["outer"] - t["direct"]),
        "nested": max(0.0, t["nested"] - t["direct"]),
        "timer": max(0.0, sampled - (t["direct"] - t["empty"])),
    }


def layer_metrics(t: Tracer) -> dict:
    """The per-layer metrics, as name -> (value, unit)."""
    tables = ("graph.PairLattice.leq_table", "graph.PairLattice.join_table",
              "graph.PairLattice.star_join_irreducibles")
    cycles = ("graph.cycles", "graph.exclusive_cycles")
    context = ("ideals.context", "ideals.Context.__init__")
    validate = ("ideals.validate_tables", "ideals.SaturatedFunction.__init__")
    ops = ("ideals.ClassifiedIdeal.join", "ideals.ClassifiedIdeal.meet",
           "ideals.ClassifiedIdeal.product")
    gens = ("ideals.from_generators", "ideals.atom_pair", "ideals.to_generators")
    laurent = tuple(n for n in t.stats if n.startswith("laurent.LaurentIdeal."))
    intersect = t.stats.get("groebner.intersect_dense", [0, 0.0, 0.0, 0.0])
    c = t.counters
    m = {
        "graph.pair_lattice.calls": (t.calls("graph.PairLattice.__init__"), "count"),
        "graph.pair_lattice.self_s": (t.self_s("graph.pair_lattice", "graph.PairLattice.__init__"), "s"),
        "graph.tables.self_s": (t.self_s(*tables), "s"),
        "graph.pairs.max": (c["graph.pairs.max"], "count"),
        "graph.cycles.calls": (t.calls(*cycles), "count"),
        "graph.cycles.self_s": (t.self_s(*cycles), "s"),
        "ideals.context.calls": (t.calls("ideals.Context.__init__"), "count"),
        "ideals.context.self_s": (t.self_s(*context), "s"),
        "ideals.validate.calls": (t.calls(*validate), "count"),
        "ideals.validate.self_s": (t.self_s(*validate), "s"),
        "ideals.ops.calls": (t.calls(*ops), "count"),
        "ideals.ops.self_s": (t.self_s(*ops), "s"),
        "ideals.generators.self_s": (t.self_s(*gens), "s"),
        "ideals.graded_lattice.calls": (t.calls("ideals.graded_lattice"), "count"),
        "ideals.graded_lattice.self_s": (t.self_s("ideals.graded_lattice"), "s"),
        "ideals.graded_lattice.functions": (c["ideals.graded_lattice.functions"], "count"),
        "ideals.prime_report.self_s": (t.self_s("ideals.prime_report"), "s"),
        "rings.gen.calls": (t.leaf[0], "count"),
        "rings.gen.self_s": (t.leaf_s(), "s"),
        "rings.is_prime_int.self_s": (t.self_s("rings.is_prime_int"), "s"),
        "laurent.ideal.calls": (t.calls(*laurent), "count"),
        "laurent.ideal.self_s": (t.self_s(*laurent), "s"),
        "laurent.max_coeff_bits": (c["laurent.max_coeff_bits"], "bits"),
        "groebner.strong_groebner.calls": (t.calls("groebner.strong_groebner"), "count"),
        "groebner.strong_groebner.self_s": (t.self_s("groebner.strong_groebner"), "s"),
        "groebner.intersect_dense.calls": (intersect[0], "count"),
        "groebner.intersect_dense.max_ms": (intersect[3] * 1000.0, "ms"),
        "groebner.colon_x_dense.calls": (t.calls("groebner.colon_x_dense"), "count"),
        "groebner.colon_x_dense.max_per_saturate": (c["groebner.colon_x_dense.max_per_saturate"], "count"),
        "groebner.max_coeff_bits": (c["groebner.max_coeff_bits"], "bits"),
        "concrete.algebra.calls": (t.calls("concrete.FinitePathAlgebra.__init__"), "count"),
        "concrete.algebra.self_s": (t.self_s("concrete.FinitePathAlgebra.__init__"), "s"),
        "concrete.dim.max": (c["concrete.dim.max"], "count"),
        "concrete.enumerate.self_s": (t.self_s("concrete.enumerate_concrete_ideals"), "s"),
        "concrete.product.calls": (t.calls("concrete.ConcreteIdeal.product"), "count"),
        "concrete.product.self_s": (t.self_s("concrete.ConcreteIdeal.product"), "s"),
        "cli.self_s": (t.self_s(ROOT_SPAN), "s"),
    }
    for layer, seconds in t.layer_self_s().items():
        if layer != "cli":
            m[f"{layer}.self_s"] = (seconds, "s")
    return m
