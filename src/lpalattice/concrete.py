"""Explicit finite-dimensional path algebras, used as independent ground truth.

For a finite acyclic graph without infinite bundles and a finite coefficient
ring, the algebra is the direct sum of one full matrix ring M_n(R) per sink,
n the number of paths ending at that sink (Abrams, Aranda Pino & Siles
Molina, Israel J. Math. 165, 2008).  The two-sided ideals of M_n(R) are
exactly the M_n(I) for the ideals I of R, so an ideal of the algebra is one
ideal of R per sink, and sums, intersections and products are taken sink by
sink (M_n(I) M_n(J) = M_n(IJ)).  The vertex v is the sum of the diagonal
matrix units of the paths from v to a sink, so r*v generates (r) in the
block of every sink that v reaches and nothing elsewhere.  Ideals are
enumerated and compared in this block form, with no reference to the
classification lattice, so agreement between the two is a genuine
cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product, repeat
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

# crosscheck compares every pair of ideals, so its work is quadratic in their
# number; 256 admits four sinks over a ring with four ideals, such as Z/6
MAX_CROSSCHECK_IDEALS = 256


class OracleError(ValueError):
    pass


class FinitePathAlgebra:
    """The Leavitt path algebra of a finite acyclic graph over a finite ring,
    in block form: its sinks, in sorted order, and through ``blocks`` the
    sinks each vertex reaches."""

    def __init__(self, graph: Graph, ring: RingSpec):
        comps = graph.components  # successors first
        if any(len(comp) > 1 or comp[0] in graph.out_targets(comp[0]) for comp in comps):
            raise OracleError("explicit model requires an acyclic graph")
        if not is_row_finite(graph):
            raise OracleError("explicit model requires finite multiplicities")
        if not ring.is_finite:
            raise OracleError("explicit model requires a finite coefficient ring")
        self.graph, self.ring = graph, ring
        self.sinks = sorted(v for (v,) in comps if graph.is_sink(v))

    def blocks(self) -> dict:
        """For each vertex, the positions in ``sinks`` of the sinks it
        reaches, ascending: one pass over the vertices, successors first."""
        graph = self.graph
        reach = {s: (k,) for k, s in enumerate(self.sinks)}
        for (v,) in graph.components:
            if v not in reach:
                reach[v] = tuple(sorted(set().union(*map(reach.get, graph.out_targets(v)))))
        return reach


def enumerate_concrete_ideals(alg: FinitePathAlgebra) -> list[tuple]:
    """Every two-sided ideal, in sorted order, each a tuple of canonical
    ring-ideal generators, one per sink in ``alg.sinks`` order (0 for the
    zero ideal).  The ideals of the sum of blocks M_n(R) are the sums of
    their M_n(I), one ideal I of R per block, so they are every choice."""
    return list(product(sorted(alg.ring.enumerate_gens()), repeat=len(alg.sinks)))


def _generator_image(alg: FinitePathAlgebra, blocks: dict, pair: ClassifiedIdeal) -> tuple:
    # r*v generates (r) in each block that v reaches and nothing elsewhere
    ring = alg.ring
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
    blocks = alg.blocks()
    images = [_generator_image(alg, blocks, p) for p in pairs]
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
