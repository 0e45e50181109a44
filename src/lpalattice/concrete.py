"""Explicit finite-dimensional path algebras, used as independent ground truth.

For a finite acyclic graph without infinite bundles and a finite coefficient
ring, the algebra has a finite basis of symbols alpha*beta^rev where both
paths end at the same sink; those behave as matrix units, one block per
sink.  Ideals are enumerated and manipulated block by block, one ideal of
the coefficient ring per sink, with no reference to the classification
lattice, so agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

from itertools import starmap
from dataclasses import dataclass

from .graph import Graph, is_row_finite
from .ideals import (
    CyclePoly,
    ClassifiedIdeal,
    ScaledBreaking,
    ScaledVertex,
    graded_lattice,
    to_generators,
)
from .rings import RingSpec

MAX_ENUMERATION_WORK = 2_000_000
# crosscheck compares every pair of ideals, so its work is quadratic in their
# number; 256 admits four sinks over a ring with four ideals, such as Z/6
MAX_CROSSCHECK_IDEALS = 256


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Path:
    source: str
    edges: tuple  # ((bundle, slot), ...)

    def __len__(self):
        return len(self.edges)


class FinitePathAlgebra:
    """The Leavitt path algebra of a finite acyclic graph over a finite ring.

    Elements are sparse dicts basis-index -> nonzero ring element.  The
    basis consists of pairs of sink-terminated paths; the defining
    relations reduce every symbol to this form (regular vertices are
    expanded along all outgoing edges).  Each vertex element is expanded
    once, on first use, and shared: callers must not modify it.
    """

    def __init__(self, graph: Graph, ring: RingSpec):
        comps = graph.components  # successors first
        if any(len(comp) > 1 or comp[0] in graph.out_targets(comp[0]) for comp in comps):
            raise OracleError("explicit model requires an acyclic graph")
        if not is_row_finite(graph):
            raise OracleError("explicit model requires finite multiplicities")
        if not ring.is_finite:
            raise OracleError("explicit model requires a finite coefficient ring")
        self.graph = graph
        self.ring = ring
        self.sinks = sorted(v for v in graph.vertices if graph.is_sink(v))
        counts = {}  # v -> {sink: number of paths from v to it}
        for (v,) in comps:
            counts[v] = n = {v: 1} if graph.is_sink(v) else {}
            for b in graph.out_bundles(v):
                for s, k in counts[b.target].items():
                    n[s] = n.get(s, 0) + b.multiplicity * k
        dim = sum(sum(counts[v].get(s, 0) for v in graph.vertices) ** 2 for s in self.sinks)
        if len(ring.elements()) * dim * dim > MAX_ENUMERATION_WORK:
            raise OracleError("algebra too large for ideal enumeration")
        self._paths_from = {}
        for v in graph.vertices:
            self._collect_paths(v)
        self.sink_paths = {
            s: sorted(
                (p for v in graph.vertices for p, end in self._paths_from[v].items() if end == s),
                key=lambda p: (len(p), p.source, p.edges),
            )
            for s in self.sinks
        }
        self.basis = []
        for s in self.sinks:
            for a in self.sink_paths[s]:
                for b in self.sink_paths[s]:
                    self.basis.append((s, a, b))
        self.dim = len(self.basis)
        self._index = {(a, b): i for i, (s, a, b) in enumerate(self.basis)}
        self._vertex_elements = {}

    def _target(self, p: Path) -> str:
        return self._paths_from[p.source][p]

    def _collect_paths(self, v):
        """Every path starting at v, mapped to the vertex it ends at."""
        if v in self._paths_from:
            return self._paths_from[v]
        out = {Path(v, ()): v}
        for b in self.graph.out_bundles(v):
            tails = self._collect_paths(b.target)
            for slot in range(b.multiplicity):
                for t, end in tails.items():
                    out[Path(v, ((b.name, slot),) + t.edges)] = end
        self._paths_from[v] = out
        return out

    # -- elements ---------------------------------------------------------
    def unit(self, i: int, coeff=1) -> dict:
        c = self.ring.normalize(coeff)
        return {i: c} if c else {}

    def add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for i, c in y.items():
            s = self.ring.add(out.get(i, 0), c)
            if self.ring.is_zero(s):
                out.pop(i, None)
            else:
                out[i] = s
        return out

    def scale(self, r, x: dict) -> dict:
        out = {}
        for i, c in x.items():
            s = self.ring.mul(r, c)
            if not self.ring.is_zero(s):
                out[i] = s
        return out

    def multiply(self, x: dict, y: dict) -> dict:
        """Bilinear product; basis symbols multiply as per-sink matrix units."""
        by_left = {}
        for j, c in y.items():
            _, cpath, dpath = self.basis[j]
            by_left.setdefault(cpath, []).append((dpath, c))
        out = {}
        for i, cx in x.items():
            _, apath, bpath = self.basis[i]
            for dpath, cy in by_left.get(bpath, ()):
                k = self._index[(apath, dpath)]
                s = self.ring.add(out.get(k, 0), self.ring.mul(cx, cy))
                if self.ring.is_zero(s):
                    out.pop(k, None)
                else:
                    out[k] = s
        return out

    def symbol(self, alpha: Path, beta: Path) -> dict:
        """The element alpha*beta^rev, expanded onto the sink basis."""
        w = self._target(alpha)
        if w != self._target(beta):
            raise OracleError("paths must share their endpoint")
        out = {}
        for gamma, s in self._paths_from[w].items():
            if not self.graph.is_sink(s):
                continue
            a = Path(alpha.source, alpha.edges + gamma.edges)
            b = Path(beta.source, beta.edges + gamma.edges)
            out[self._index[(a, b)]] = self.ring.one()
        return out

    def vertex_element(self, v: str) -> dict:
        """The vertex v as an element; the dict is shared and read-only."""
        out = self._vertex_elements.get(v)
        if out is None:
            p = Path(v, ())
            out = self._vertex_elements[v] = self.symbol(p, p)
        return out


def generated_ideal(alg: FinitePathAlgebra, elements) -> tuple:
    """Closure of some elements under addition and two-sided multiplication.

    Each sink block of the algebra is a full matrix ring M_n(R), whose
    two-sided ideals are exactly M_n(I) for the ideals I of R: multiplying
    x on both sides by matrix units isolates its single entries
    c * unit(a, d) and moves them to any position of their block.  The
    closure is therefore the tuple of canonical ring-ideal generators of
    the entries of each block, one per sink in ``alg.sinks`` order, 0
    meaning the zero ideal.  Sums, intersections and products of ideals
    are taken sink by sink with the ring's ``gen_sum``, ``gen_intersect``
    and ``gen_product`` (M_n(I) M_n(J) = M_n(IJ), since each entry of a
    product of two matrices is a sum of products of entries), and the
    order with ``gen_contains``.
    """
    ring = alg.ring
    per_sink = {}
    for x in elements:
        for i, c in x.items():
            s, _, _ = alg.basis[i]
            per_sink[s] = ring.gen_sum(per_sink.get(s, 0), ring.gen_from_elements([c]))
    return tuple(per_sink.get(s, 0) for s in alg.sinks)


def enumerate_concrete_ideals(alg: FinitePathAlgebra) -> list[tuple]:
    """Every two-sided ideal, in sorted order.  Each ideal is a sum of
    single-generator ideals, the seeds, so the pool is closed by adding one
    seed at a time to every ideal found so far: O(N * seeds) sums for N
    ideals.  A seed depends only on the ideal its ring element generates
    and the sink block of its basis index, so one generator of each nonzero
    ideal of the ring and one index per block give them all."""
    ring = alg.ring
    per_block = {s: i for i, (s, _, _) in enumerate(alg.basis)}.values()
    seeds = {
        generated_ideal(alg, [alg.unit(i, ring.gen_generator_element(g))])
        for g in ring.enumerate_gens() if g for i in per_block
    }
    pool = {generated_ideal(alg, [])}
    for seed in seeds:
        pool |= {tuple(map(ring.gen_sum, a, seed)) for a in pool}
    return sorted(pool)


def _generator_image(alg: FinitePathAlgebra, pair: ClassifiedIdeal) -> tuple:
    elements = []
    for atom in to_generators(pair):
        if isinstance(atom, ScaledVertex):
            elements.append(alg.scale(atom.r, alg.vertex_element(atom.v)))
        elif isinstance(atom, (ScaledBreaking, CyclePoly)):
            raise OracleError("acyclic row-finite graphs admit only vertex generators")
    return generated_ideal(alg, elements)


@dataclass
class CrosscheckReport:
    graph: Graph
    ring: RingSpec
    lattice_size: int
    concrete_size: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.lattice_size == self.concrete_size

    def lines(self) -> list[str]:
        out = [
            f"classification lattice: {self.lattice_size} ideals",
            f"explicit algebra:       {self.concrete_size} ideals",
        ]
        out.extend(self.mismatches)
        out.append("crosscheck " + ("PASSED" if self.ok else "FAILED"))
        return out


def crosscheck(graph: Graph, ring: RingSpec) -> CrosscheckReport:
    """Match the classification lattice against the explicit algebra.

    Verifies the bijection through generator images, the order both ways,
    and that join/meet/product agree with concrete sum/intersection/product
    on every pair of ideals: N * N order tests and 3 * N * (N + 1) / 2
    operations for N ideals.  The ring is finite, so its generator
    arithmetic is tabulated once over its ideals and the concrete side of
    each comparison is read from the tables.
    """
    alg = FinitePathAlgebra(graph, ring)
    gens = ring.enumerate_gens()
    count = len(gens) ** len(alg.sinks)
    if count > MAX_CROSSCHECK_IDEALS:
        raise OracleError(
            f"crosscheck would compare {count} ideals, more than {MAX_CROSSCHECK_IDEALS}"
        )
    every = [(a, b) for a in gens for b in gens]

    def table(op):
        return dict(zip(every, starmap(op, every))).__getitem__

    pairs = [ClassifiedIdeal.graded(f) for f in graded_lattice(graph, ring)]
    concrete = set(enumerate_concrete_ideals(alg))
    mismatches = []
    # acyclic graphs carry no cycle data, so each pair is fixed by f.jv
    image = {p.f.jv: _generator_image(alg, p) for p in pairs}
    images = [image[p.f.jv] for p in pairs]
    forms = set(images)
    if len(forms) != len(pairs):
        mismatches.append("generator images are not pairwise distinct")
    missing = concrete - forms
    if missing:
        mismatches.append(f"{len(missing)} concrete ideal(s) have no classification")
    extra = forms - concrete
    if extra:
        mismatches.append(f"{len(extra)} classified ideal(s) missing from the algebra")
    contains = table(ring.gen_contains)
    for p, ip in zip(pairs, images):
        leq = p.leq
        for q, iq in zip(pairs, images):
            if leq(q) != all(map(contains, zip(iq, ip))):
                mismatches.append(f"order mismatch between {p!r} and {q!r}")
    names = ("sum", "intersection", "product")
    c_ops = tuple(map(table, (ring.gen_sum, ring.gen_intersect, ring.gen_product)))
    for i, (p, ip) in enumerate(zip(pairs, images)):
        ops = tuple(zip(names, (p.join, p.meet, p.product), c_ops))
        for q, iq in zip(pairs[: i + 1], images):
            keys = tuple(zip(ip, iq))
            for name, d_op, c_op in ops:
                want = tuple(map(c_op, keys))
                got = image.get(d_op(q).f.jv)
                if got is None:
                    mismatches.append(f"{name} result at {p!r}, {q!r} is not a classified ideal")
                elif got != want:
                    mismatches.append(f"{name} mismatch at {p!r}, {q!r}: {got} != {want}")
    return CrosscheckReport(graph, ring, len(pairs), len(concrete), mismatches)
