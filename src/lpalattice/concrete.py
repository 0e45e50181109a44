"""Explicit finite-dimensional path algebras, used as independent ground truth.

For a finite acyclic graph without infinite bundles and a finite coefficient
ring, the algebra has a finite basis of symbols alpha*beta^rev where both
paths end at the same sink; those behave as matrix units, one block per
sink.  Ideals are enumerated and manipulated block by block, one ideal of
the coefficient ring per sink, with no reference to the classification
lattice, so agreement between the two is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import and_, attrgetter

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
# graphs whose paths and basis are kept; a crosscheck over several rings of
# one graph builds them once
PATH_BASIS_MEMO_SIZE = 4


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class Path:
    source: str
    edges: tuple  # ((bundle, slot), ...)

    def __len__(self):
        return len(self.edges)


class PathBasis:
    """The ring-free part of the explicit algebra of a finite acyclic graph.

    It holds every path from each vertex, mapped to the vertex it ends at
    (``paths_from``); the basis of pairs of sink-terminated paths with one
    endpoint, ordered by sink, and its index; and, for each vertex v, the
    basis indices of the element v (``support``, each entry 1) and the
    positions in ``sinks`` of the blocks they lie in (``blocks``, the sinks
    that v reaches).  ``path_basis`` builds it once per graph and every
    ring's algebra shares it, so callers only read it.
    """

    def __init__(self, graph: Graph):
        self.sinks = sorted(v for v in graph.vertices if graph.is_sink(v))
        self.paths_from = {}
        for v in graph.vertices:
            self._collect_paths(graph, v)
        position = {s: k for k, s in enumerate(self.sinks)}
        sink_paths = {s: [] for s in self.sinks}
        for paths in self.paths_from.values():
            for p, end in paths.items():
                if end in position:
                    sink_paths[end].append(p)
        self.basis = []
        for s in self.sinks:
            ends = sorted(sink_paths[s], key=lambda p: (len(p), p.source, p.edges))
            self.basis.extend((s, a, b) for a in ends for b in ends)
        self.index = {(a, b): i for i, (s, a, b) in enumerate(self.basis)}
        self.support, self.blocks = {}, {}
        for v, paths in self.paths_from.items():
            ends = [(p, end) for p, end in paths.items() if end in position]
            self.support[v] = tuple(self.index[p, p] for p, _ in ends)
            self.blocks[v] = tuple(sorted({position[end] for _, end in ends}))

    def _collect_paths(self, graph, v):
        """Every path starting at v, mapped to the vertex it ends at."""
        if v in self.paths_from:
            return self.paths_from[v]
        out = {Path(v, ()): v}
        for b in graph.out_bundles(v):
            tails = self._collect_paths(graph, b.target)
            for slot in range(b.multiplicity):
                for t, end in tails.items():
                    out[Path(v, ((b.name, slot),) + t.edges)] = end
        self.paths_from[v] = out
        return out


@lru_cache(maxsize=PATH_BASIS_MEMO_SIZE)
def path_basis(graph: Graph) -> PathBasis:
    """The graph's ring-free algebra part, shared by the rings of one graph."""
    return PathBasis(graph)


class FinitePathAlgebra:
    """The Leavitt path algebra of a finite acyclic graph over a finite ring.

    Elements are sparse dicts basis-index -> nonzero ring element.  The
    basis consists of pairs of sink-terminated paths; the defining
    relations reduce every symbol to this form (regular vertices are
    expanded along all outgoing edges).  The paths and the basis, ``paths``,
    are shared by every algebra of the graph, and are looked up only once
    the ring's work budget admits the algebra.  Each vertex element is
    built once, on first use, and shared: callers must not modify it.
    """

    def __init__(self, graph: Graph, ring: RingSpec):
        comps = graph.components  # successors first
        if any(len(comp) > 1 or comp[0] in graph.out_targets(comp[0]) for comp in comps):
            raise OracleError("explicit model requires an acyclic graph")
        if not is_row_finite(graph):
            raise OracleError("explicit model requires finite multiplicities")
        if not ring.is_finite:
            raise OracleError("explicit model requires a finite coefficient ring")
        counts = {}  # v -> {sink: number of paths from v to it}
        ending = {}  # sink -> number of paths ending at it
        for (v,) in comps:
            counts[v] = n = {v: 1} if graph.is_sink(v) else {}
            for b in graph.out_bundles(v):
                for s, k in counts[b.target].items():
                    n[s] = n.get(s, 0) + b.multiplicity * k
            for s, k in n.items():
                ending[s] = ending.get(s, 0) + k
        dim = sum(k * k for k in ending.values())
        if len(ring.elements()) * dim * dim > MAX_ENUMERATION_WORK:
            raise OracleError("algebra too large for ideal enumeration")
        self.graph = graph
        self.ring = ring
        self.paths = path_basis(graph)
        self.sinks = self.paths.sinks
        self.basis = self.paths.basis
        self.dim = len(self.basis)
        self._vertex_elements = {}

    # -- elements ---------------------------------------------------------
    def unit(self, i: int, coeff=1) -> dict:
        c = self.ring.normalize(coeff)
        return {i: c} if c else {}

    def vertex_element(self, v: str) -> dict:
        """The vertex v as an element; the dict is shared and read-only."""
        out = self._vertex_elements.get(v)
        if out is None:
            out = self._vertex_elements[v] = dict.fromkeys(self.paths.support[v], self.ring.one())
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
    # every entry of the element v is 1, so r*v generates (r) in each sink
    # block where v has an entry and nothing elsewhere
    ring, blocks = alg.ring, alg.paths.blocks
    image = [0] * len(alg.sinks)
    for atom in to_generators(pair):
        if isinstance(atom, ScaledVertex):
            g = ring.gen_from_elements([atom.r])
            for k in blocks[atom.v]:
                image[k] = ring.gen_sum(image[k], g)
        elif isinstance(atom, (ScaledBreaking, CyclePoly)):
            raise OracleError("acyclic row-finite graphs admit only vertex generators")
    return tuple(image)


def _rows(entry, gens, columns) -> list:
    """rows[k][a][q] = entry(a, g) for the value g of the q-th image at the
    k-th sink: a table of entry(a, -) over the ideals of the ring, read along
    that sink's column of images."""
    tables = [dict(zip(gens, map(entry, repeat(a), gens))).__getitem__ for a in gens]
    return [{a: list(map(t, column)) for a, t in zip(gens, tables)} for column in columns]


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
    operations for N ideals.  The comparisons run a row at a time: the
    library's results for one ideal p against every q come from one map
    over the row, and the concrete row is assembled from per-sink rows of
    the ring's generator arithmetic (see _rows).  Messages are built only
    for a row that differs, in the order of the pairs and, within a pair,
    sum, intersection, product.
    """
    alg = FinitePathAlgebra(graph, ring)
    gens = ring.enumerate_gens()
    count = len(gens) ** len(alg.sinks)
    if count > MAX_CROSSCHECK_IDEALS:
        raise OracleError(
            f"crosscheck would compare {count} ideals, more than {MAX_CROSSCHECK_IDEALS}"
        )
    pairs = [ClassifiedIdeal.graded(f) for f in graded_lattice(graph, ring)]
    concrete = set(enumerate_concrete_ideals(alg))
    mismatches = []
    images = [_generator_image(alg, p) for p in pairs]
    # acyclic graphs carry no cycle data, so each pair is fixed by f.jv
    jv = attrgetter("f.jv")
    image = dict(zip(map(jv, pairs), images))
    forms = set(images)
    if len(forms) != len(pairs):
        mismatches.append("generator images are not pairwise distinct")
    missing = concrete - forms
    if missing:
        mismatches.append(f"{len(missing)} concrete ideal(s) have no classification")
    extra = forms - concrete
    if extra:
        mismatches.append(f"{len(extra)} classified ideal(s) missing from the algebra")
    columns = tuple(zip(*images))
    order = _rows(lambda a, g: ring.gen_contains(g, a), gens, columns)
    for p, ip in zip(pairs, images):
        # q <= p in the algebra when each block of q lies in that of p
        want = [True] * len(pairs)
        for rows, a in zip(order, ip):
            want = list(map(and_, want, rows[a]))
        got = list(map(p.leq, pairs))
        if got != want:
            for q, g, w in zip(pairs, got, want):
                if g != w:
                    mismatches.append(f"order mismatch between {p!r} and {q!r}")
    names = ("sum", "intersection", "product")
    readers = [_rows(op, gens, columns) for op in (ring.gen_sum, ring.gen_intersect, ring.gen_product)]
    for i, (p, ip) in enumerate(zip(pairs, images)):
        qs = pairs[: i + 1]
        got = [list(map(image.get, map(jv, map(op, qs)))) for op in (p.join, p.meet, p.product)]
        # the concrete results read off one row per sink; an image without
        # sinks is ()
        want = [
            list(zip(*[rows[a][: i + 1] for rows, a in zip(reader, ip)])) if ip else [()] * (i + 1)
            for reader in readers
        ]
        if got != want:
            for j, q in enumerate(qs):
                for name, g, w in zip(names, got, want):
                    if g[j] is None:
                        mismatches.append(f"{name} result at {p!r}, {q!r} is not a classified ideal")
                    elif g[j] != w[j]:
                        mismatches.append(f"{name} mismatch at {p!r}, {q!r}: {g[j]} != {w[j]}")
    return CrosscheckReport(graph, ring, len(pairs), len(concrete), mismatches)
