"""Explicit finite-dimensional path algebras, used as independent ground truth.

For a finite acyclic graph without infinite bundles and a finite coefficient
ring, the algebra has a finite basis of symbols alpha*beta^rev where both
paths end at the same sink; those behave as matrix units, one block per
sink.  Ideals are enumerated and manipulated directly on coefficient
vectors, with no reference to the classification lattice, so agreement
between the two is a genuine cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Bundle, Graph, cycles, is_row_finite
from .ideals import (
    Context,
    CyclePoly,
    ClassifiedIdeal,
    ScaledBreaking,
    ScaledVertex,
    context,
    graded_lattice,
    to_generators,
)
from .rings import RingSpec

MAX_ENUMERATION_WORK = 2_000_000


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
    expanded along all outgoing edges).
    """

    def __init__(self, graph: Graph, ring: RingSpec):
        if cycles(graph):
            raise OracleError("explicit model requires an acyclic graph")
        if not is_row_finite(graph):
            raise OracleError("explicit model requires finite multiplicities")
        if not ring.is_finite:
            raise OracleError("explicit model requires a finite coefficient ring")
        self.graph = graph
        self.ring = ring
        self._paths_from = {}
        for v in graph.vertices:
            self._collect_paths(v)
        self.sinks = sorted(v for v in graph.vertices if graph.is_sink(v))
        self.sink_paths = {
            s: sorted(
                (p for v in graph.vertices for p in self._paths_from[v] if self._target(p) == s),
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
        if len(list(ring.elements())) * self.dim * self.dim > MAX_ENUMERATION_WORK:
            raise OracleError("algebra too large for ideal enumeration")

    def _target(self, p: Path) -> str:
        if not p.edges:
            return p.source
        name, _ = p.edges[-1]
        return next(b.target for b in self.graph.bundles if b.name == name)

    def _collect_paths(self, v):
        if v in self._paths_from:
            return self._paths_from[v]
        out = [Path(v, ())]
        for b in self.graph.out_bundles(v):
            tails = self._collect_paths(b.target)
            for slot in range(b.multiplicity):
                out.extend(Path(v, ((b.name, slot),) + t.edges) for t in tails)
        self._paths_from[v] = out
        return out

    # -- elements ---------------------------------------------------------
    def zero(self) -> dict:
        return {}

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
        for gamma in self._paths_from[w]:
            s = self._target(gamma)
            if not self.graph.is_sink(s):
                continue
            a = Path(alpha.source, alpha.edges + gamma.edges)
            b = Path(beta.source, beta.edges + gamma.edges)
            out[self._index[(a, b)]] = self.ring.one()
        return out

    def vertex_element(self, v: str) -> dict:
        p = Path(v, ())
        return self.symbol(p, p)

    def edge_element(self, bundle: str, slot: int = 0) -> dict:
        b = next(x for x in self.graph.bundles if x.name == bundle)
        return self.symbol(Path(b.source, ((bundle, slot),)), Path(b.target, ()))

    def ghost_element(self, bundle: str, slot: int = 0) -> dict:
        b = next(x for x in self.graph.bundles if x.name == bundle)
        return self.symbol(Path(b.target, ()), Path(b.source, ((bundle, slot),)))


def lpa_multiply(alg: FinitePathAlgebra, x: dict, y: dict) -> dict:
    return alg.multiply(x, y)


@dataclass(frozen=True)
class ConcreteIdeal:
    """A two-sided ideal as the set of coefficient vectors it contains.

    Squeezing an element between basis idempotents isolates single
    coordinates, so an ideal is the set of vectors whose coordinate at each
    basis index is a multiple of a fixed divisor; the tuple of those
    divisors (a divisor of |char|, with 0 meaning the full coordinate) is
    the canonical form.
    """

    algebra: FinitePathAlgebra
    divisors: tuple  # one canonical ideal generator of the ring per basis index

    def contains_element(self, x: dict) -> bool:
        ring = self.algebra.ring
        return all(ring.gen_member(self.divisors[i], c) for i, c in x.items())

    def __le__(self, other: "ConcreteIdeal") -> bool:
        ring = self.algebra.ring
        return all(
            ring.gen_contains(b, a) for a, b in zip(self.divisors, other.divisors)
        )

    def sum(self, other: "ConcreteIdeal") -> "ConcreteIdeal":
        ring = self.algebra.ring
        return ConcreteIdeal(
            self.algebra,
            tuple(ring.gen_sum(a, b) for a, b in zip(self.divisors, other.divisors)),
        )

    def intersect(self, other: "ConcreteIdeal") -> "ConcreteIdeal":
        ring = self.algebra.ring
        return ConcreteIdeal(
            self.algebra,
            tuple(ring.gen_intersect(a, b) for a, b in zip(self.divisors, other.divisors)),
        )

    def product(self, other: "ConcreteIdeal") -> "ConcreteIdeal":
        alg, ring = self.algebra, self.algebra.ring
        gens = [0] * alg.dim
        for i, di in enumerate(self.divisors):
            if di == 0:
                continue
            _, a, b = alg.basis[i]
            for j, dj in enumerate(other.divisors):
                if dj == 0:
                    continue
                _, c, d = alg.basis[j]
                if b != c:
                    continue
                k = alg._index[(a, d)]
                prod = ring.gen_product(di, dj)
                gens[k] = ring.gen_sum(gens[k], prod)
        return ConcreteIdeal(alg, tuple(gens))


def generated_ideal(alg: FinitePathAlgebra, elements) -> ConcreteIdeal:
    """Closure of some elements under addition and two-sided multiplication.

    Multiplying x on both sides by basis idempotents leaves the single
    entries c * unit(a, d) with a, d running over the relevant sink blocks,
    so the closure per coordinate is the ring ideal its entries generate.
    """
    ring = alg.ring
    per_sink = {}
    for x in elements:
        for i, c in x.items():
            s, _, _ = alg.basis[i]
            per_sink[s] = ring.gen_sum(per_sink.get(s, 0), ring.gen_from_elements([c]))
    gens = [0] * alg.dim
    for i, (s, _, _) in enumerate(alg.basis):
        gens[i] = per_sink.get(s, 0)
    return ConcreteIdeal(alg, tuple(gens))


def enumerate_concrete_ideals(alg: FinitePathAlgebra) -> list[ConcreteIdeal]:
    """Every two-sided ideal: close single-generator ideals under sums."""
    seeds = []
    for r in alg.ring.elements():
        if alg.ring.is_zero(r):
            continue
        for i in range(alg.dim):
            seeds.append(generated_ideal(alg, [alg.unit(i, r)]))
    seeds.append(generated_ideal(alg, []))
    pool = {s.divisors: s for s in seeds}
    frontier = list(pool.values())
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(pool.values()):
                c = a.sum(b)
                if c.divisors not in pool:
                    pool[c.divisors] = c
                    fresh.append(c)
        frontier = fresh
    return sorted(pool.values(), key=lambda i: i.divisors)


def _generator_image(alg: FinitePathAlgebra, ctx: Context, pair: ClassifiedIdeal) -> ConcreteIdeal:
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
    on every pair of ideals.
    """
    alg = FinitePathAlgebra(graph, ring)
    ctx = context(graph, ring)
    pairs = [ClassifiedIdeal.graded(f) for f in graded_lattice(graph, ring)]
    concrete = enumerate_concrete_ideals(alg)
    mismatches = []
    image = {}
    for p in pairs:
        image[p] = _generator_image(alg, ctx, p)
    forms = {i.divisors for i in image.values()}
    if len(forms) != len(pairs):
        mismatches.append("generator images are not pairwise distinct")
    missing = {c.divisors for c in concrete} - forms
    if missing:
        mismatches.append(f"{len(missing)} concrete ideal(s) have no classification")
    extra = forms - {c.divisors for c in concrete}
    if extra:
        mismatches.append(f"{len(extra)} classified ideal(s) missing from the algebra")
    for p in pairs:
        for q in pairs:
            if p.leq(q) != (image[p] <= image[q]):
                mismatches.append(f"order mismatch between {p!r} and {q!r}")
    ops = (
        ("sum", ClassifiedIdeal.join, ConcreteIdeal.sum),
        ("intersection", ClassifiedIdeal.meet, ConcreteIdeal.intersect),
        ("product", ClassifiedIdeal.product, ConcreteIdeal.product),
    )
    for i, p in enumerate(pairs):
        for q in pairs[: i + 1]:
            for name, d_op, c_op in ops:
                want = c_op(image[p], image[q]).divisors
                got = image[d_op(p, q)].divisors
                if want != got:
                    mismatches.append(
                        f"{name} mismatch at {p!r}, {q!r}: {got} != {want}"
                    )
    return CrosscheckReport(graph, ring, len(pairs), len(concrete), mismatches)


# -- the worked two-vertex example over the integers -------------------------


def toeplitz_graph() -> Graph:
    """One loop at u plus an edge from u to the sink v."""
    return Graph(
        ["u", "v"],
        [Bundle("e", "u", "u"), Bundle("f", "u", "v")],
    )
