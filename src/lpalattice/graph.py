"""Directed graphs with multiplicity bundles and their admissible-pair lattice.

A graph is finitely presented: finitely many vertices and finitely many
edge bundles, each bundle carrying a multiplicity that is either a positive
integer (that many parallel edges) or omega (an infinite family, which is
how infinite emitters and breaking vertices arise while keeping every
enumeration finite).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache


class GraphError(ValueError):
    pass


class _Omega:
    """Multiplicity marker for an infinite bundle."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


OMEGA = _Omega()

MAX_PAIRS = 1 << 16  # admissible pairs a lattice may have, bottom included


@dataclass(frozen=True)
class Bundle:
    name: str
    source: str
    target: str
    multiplicity: object = 1  # positive int or OMEGA

    @property
    def is_infinite(self) -> bool:
        return self.multiplicity is OMEGA


class Graph:
    """Immutable directed graph given by vertices and bundles."""

    def __init__(self, vertices, bundles):
        self.vertices = frozenset(vertices)
        bundles = tuple(sorted(bundles, key=lambda b: b.name))
        seen = set()
        for b in bundles:
            if b.name in seen:
                raise GraphError(f"duplicate bundle id {b.name!r}")
            seen.add(b.name)
            if b.source not in self.vertices:
                raise GraphError(f"unknown vertex id {b.source!r} in bundle {b.name!r}")
            if b.target not in self.vertices:
                raise GraphError(f"unknown vertex id {b.target!r} in bundle {b.name!r}")
            if b.multiplicity is not OMEGA and (not isinstance(b.multiplicity, int) or b.multiplicity < 1):
                raise GraphError(f"bad multiplicity {b.multiplicity!r} in bundle {b.name!r}")
        self.bundles = bundles
        self._out = {v: [] for v in self.vertices}
        self._sources = {v: set() for v in self.vertices}
        for b in bundles:
            self._out[b.source].append(b)
            self._sources[b.target].add(b.source)
        self._targets = {v: frozenset(b.target for b in out) for v, out in self._out.items()}
        self._regular = {
            v for v, out in self._out.items() if out and not any(b.is_infinite for b in out)
        }
        self._cycles = None  # label -> CycleClass, filled on first use
        self._key = (self.vertices, self.bundles)
        self._hash = hash(self._key)

    def __eq__(self, other):
        return isinstance(other, Graph) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph({sorted(self.vertices)}, {len(self.bundles)} bundles)"

    # -- local structure -------------------------------------------------
    def out_bundles(self, v: str):
        return self._out[v]

    def check_vertices(self, vs):
        unknown = set(vs) - self.vertices
        if unknown:
            raise GraphError(f"unknown vertex id(s) {sorted(unknown)}")

    def is_infinite_emitter(self, v: str) -> bool:
        return any(b.is_infinite for b in self._out[v])

    def is_sink(self, v: str) -> bool:
        return not self._out[v]

    def is_regular(self, v: str) -> bool:
        return v in self._regular

    def out_targets(self, v: str) -> frozenset:
        return self._targets[v]

    def sources(self, v: str) -> set:
        return self._sources[v]

    def escape_count(self, v: str, H) -> object:
        """Number of edges from v whose target avoids H (OMEGA if infinite)."""
        total = 0
        for b in self._out[v]:
            if b.target not in H:
                if b.is_infinite:
                    return OMEGA
                total += b.multiplicity
        return total


# -- hereditary and saturated machinery ------------------------------------


def is_hereditary(g: Graph, H) -> bool:
    return all(b.target in H for v in H for b in g.out_bundles(v))


def hereditary_closure(g: Graph, seed) -> frozenset:
    """Smallest hereditary superset: follow bundles out to a fixpoint."""
    g.check_vertices(seed)
    out = set(seed)
    stack = list(seed)
    while stack:
        for w in g.out_targets(stack.pop()):
            if w not in out:
                out.add(w)
                stack.append(w)
    return frozenset(out)


def _lambda_closure(g: Graph, base, absorb) -> frozenset:
    # add every vertex, regular or in absorb, all of whose targets lie
    # inside, to a fixpoint; a vertex is looked at only once one of its
    # targets is inside, and counts its targets outside base still missing,
    # so the work is linear in the edges around the result
    base = frozenset(base)
    cur = set(base)
    missing = {}
    queue = list(base)
    while queue:
        w = queue.pop()
        for v in g.sources(w):
            if v in cur or not (g.is_regular(v) or v in absorb):
                continue
            if v not in missing:
                missing[v] = len(g.out_targets(v) - base)
            if w not in base:
                missing[v] -= 1
            if missing[v] == 0:
                cur.add(v)
                queue.append(v)
    return frozenset(cur)


def breaking_vertices(g: Graph, H) -> frozenset:
    """Infinite emitters outside H with finitely many (but some) edges avoiding H."""
    if not is_hereditary(g, H):
        raise GraphError("set is not hereditary")
    out = set()
    for v in g.vertices - set(H):
        if g.is_infinite_emitter(v):
            n = g.escape_count(v, H)
            if n is not OMEGA and n > 0:
                out.add(v)
    return frozenset(out)


def saturated_closure(g: Graph, base, absorb=frozenset()) -> frozenset:
    """The absorb-saturation of a hereditary set.

    Adds every vertex that is regular or in absorb once all of its targets
    are inside; the result is hereditary and saturated, and additionally
    swallows the absorb vertices whose edges it exhausts.
    """
    g.check_vertices(base)
    g.check_vertices(absorb)
    if not is_hereditary(g, base):
        raise GraphError("set is not hereditary")
    allowed = set(base) | breaking_vertices(g, base)
    if not set(absorb) <= allowed:
        raise GraphError(f"absorb vertices out of range: {sorted(set(absorb) - allowed)}")
    return _lambda_closure(g, base, frozenset(absorb))


def hereditary_saturated_closure(g: Graph, seed) -> frozenset:
    return _lambda_closure(g, hereditary_closure(g, seed), frozenset())


# -- admissible pairs -------------------------------------------------------


@dataclass(frozen=True)
class AdmissiblePair:
    """A hereditary saturated set together with some of its breaking vertices."""

    H: frozenset
    S: frozenset

    def key(self):
        return (len(self.H), tuple(sorted(self.H)), tuple(sorted(self.S)))

    def label(self) -> str:
        h = "{" + ",".join(sorted(self.H)) + "}"
        if self.S:
            return h + "|{" + ",".join(sorted(self.S)) + "}"
        return h

    @staticmethod
    def parse(text: str) -> "AdmissiblePair":
        text = text.strip()
        parts = text.split("|")
        if len(parts) > 2:
            raise GraphError(f"bad pair label {text!r}")

        def one(part):
            part = part.strip()
            if not (part.startswith("{") and part.endswith("}")):
                raise GraphError(f"bad pair label {text!r}")
            inner = part[1:-1].strip()
            return frozenset(s.strip() for s in inner.split(",") if s.strip())

        h = one(parts[0])
        s = one(parts[1]) if len(parts) == 2 else frozenset()
        return AdmissiblePair(h, s)

    def __str__(self):
        return self.label()


BOTTOM = AdmissiblePair(frozenset(), frozenset())


def _generators(g: Graph) -> dict:
    """Pairs whose suprema give every admissible pair, each mapped to its
    seed (h, s): the pair is the supremum of (hs-closure h, s), and it lies
    below an admissible pair (H, S) exactly when H holds h and H | S holds s.

    The seeds are ({v}, {}) for each vertex v and, for each infinite emitter
    w that breaks some set, (w's infinite targets, {w}), whose pair is the
    least with w as a breaking vertex: every set that w breaks holds the
    closure of those targets, so w breaks some set exactly when it breaks
    that closure.  Every join-irreducible is among these pairs.
    """
    out = {}
    for v in sorted(g.vertices):
        pair = AdmissiblePair(hereditary_saturated_closure(g, {v}), frozenset())
        out.setdefault(pair, (frozenset({v}), frozenset()))
        if g.is_infinite_emitter(v):
            t = frozenset(b.target for b in g.out_bundles(v) if b.is_infinite)
            h = hereditary_saturated_closure(g, t)
            if v in breaking_vertices(g, h):
                out[AdmissiblePair(h, frozenset({v}))] = (t, frozenset({v}))
    return out


def _seed_below(seed, p: AdmissiblePair) -> bool:
    return seed[0] <= p.H and all(w in p.H or w in p.S for w in seed[1])


def _down_set_walk(below) -> list:
    """The nonempty down-sets of a poset on range(n), given the strict
    down-set of each member as a bit mask, where every member comes after
    those below it: (parent, j), the down-set being its parent's (an
    earlier entry counted from 1, 0 for the empty set) plus j.

    Each down-set is reached once, from itself minus its last member, so
    the entries holding j are the roots of disjoint subtrees that together
    hold every down-set with j.  Refuses, before anything per pair is
    built, once the count of down-sets with the empty one passes MAX_PAIRS.
    """
    walk = []
    stack = [(0, 0, 0)]  # (entry, its mask, first member that may be added)
    while stack:
        entry, mask, first = stack.pop()
        for j in range(first, len(below)):
            if below[j] & mask == below[j]:
                if len(walk) + 1 == MAX_PAIRS:
                    raise GraphError(
                        f"the admissible-pair lattice has more than {MAX_PAIRS} pairs"
                    )
                walk.append((entry, j))
                stack.append((len(walk), mask | 1 << j, j + 1))
    return walk


def covering_pairs(n: int, leq) -> list:
    """Index pairs (i, j), in row-major order, such that j covers i in the
    partial order leq(i, j) on range(n)."""
    above = [0] * n  # strict up-sets as bit masks
    below = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and leq(i, j):
                above[i] |= 1 << j
                below[j] |= 1 << i
    return [
        (i, j) for i in range(n) for j in range(n)
        if above[i] >> j & 1 and not above[i] & below[j]
    ]


class PairLattice:
    """The finite lattice of admissible pairs of a graph.

    The lattice is distributive, so by Birkhoff's representation theorem its
    pairs are exactly the suprema of the down-sets of its join-irreducibles
    J, each pair once; J is read off the graph and the pairs are built from
    it, so no pass over vertex subsets or over pairs of pairs is needed.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        seeds = _generators(graph)
        # key order is a linear extension on these pairs: comparable ones with
        # equal H differ by one breaking vertex
        ji = sorted(
            (c for c in seeds if c != self.sup(
                q for q, s in seeds.items() if q is not c and _seed_below(s, c))),
            key=AdmissiblePair.key,
        )
        self.join_irreducibles = tuple(ji)
        below = [
            sum(1 << a for a in range(b) if _seed_below(seeds[ji[a]], ji[b]))
            for b in range(len(ji))
        ]
        walk = _down_set_walk(below)
        found = [BOTTOM]  # the pair of each walk entry, the empty down-set first
        for parent, j in walk:
            found.append(self.join(found[parent], ji[j]))
        order = sorted(range(len(found)), key=lambda k: found[k].key())
        self.pairs = tuple(found[k] for k in order)
        self._index = {p: i for i, p in enumerate(self.pairs)}
        self.bottom = BOTTOM
        self.top = AdmissiblePair(graph.vertices, frozenset())
        self.star = self.pairs[1:]
        self._star_index = {p: i for i, p in enumerate(self.star)}
        self._star_labels = self._label_index = None  # built on first use
        star_of = [0] * len(found)  # walk entry -> star index; the bottom sorts first
        for i, k in enumerate(order):
            star_of[k] = i - 1
        # (star index, its parent's or None, star index of the join-irreducible
        # added), in walk order: each pair is its parent joined with one member
        # of J, and every parent comes before its children
        ji_star = [self._star_index[q] for q in ji]
        self.down_set_tree = tuple(
            (star_of[k], star_of[parent] if parent else None, ji_star[j])
            for k, (parent, j) in enumerate(walk, 1)
        )

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair):
        return pair in self._index

    def check(self, pair: AdmissiblePair):
        if pair not in self._index:
            raise GraphError(f"{pair.label()} is not an admissible pair of this graph")

    def leq(self, a: AdmissiblePair, b: AdmissiblePair) -> bool:
        return a.H <= b.H and a.S <= (b.H | b.S)

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        h = a.H & b.H
        s = (a.S & b.S) | ((a.S | b.S) & (a.H | b.H))
        return AdmissiblePair(h, s)

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.sup([a, b])

    def sup(self, pairs) -> AdmissiblePair:
        """Supremum of any collection; the empty collection gives the bottom."""
        pairs = list(pairs)
        if not pairs:
            return BOTTOM
        h = frozenset().union(*(p.H for p in pairs))
        s = frozenset().union(*(p.S for p in pairs))
        sat = _lambda_closure(self.graph, h, s)
        return AdmissiblePair(sat, s - sat)

    def star_index(self, pair: AdmissiblePair) -> int:
        return self._star_index[pair]

    def star_labels(self) -> tuple:
        """The canonical label of each star pair, in star order."""
        if self._star_labels is None:
            self._star_labels = tuple(p.label() for p in self.star)
        return self._star_labels

    def star_label_index(self) -> dict:
        """Canonical label -> star index."""
        if self._label_index is None:
            self._label_index = {s: i for i, s in enumerate(self.star_labels())}
        return self._label_index

    def star_join_irreducibles(self):
        """Star indices of the join-irreducible pairs, in star order.

        Every pair is the supremum of the join-irreducibles below it, which
        is what makes saturated functions recoverable from their values there.
        """
        return [self._star_index[q] for q in self.join_irreducibles]

    def hasse_edges(self):
        """Covering relations, for drawing the lattice."""
        ps = self.pairs
        covers = covering_pairs(len(ps), lambda i, j: self.leq(ps[i], ps[j]))
        return [(ps[i], ps[j]) for i, j in covers]


@lru_cache(maxsize=32)
def pair_lattice(g: Graph) -> PairLattice:
    return PairLattice(g)


# -- cycles -----------------------------------------------------------------


@dataclass(frozen=True)
class CycleClass:
    """A closed simple path up to rotation.

    Steps are (vertex, bundle, slot) triples in canonical rotation (the
    lexicographically least one, which starts at the smallest vertex since
    cycle vertices are distinct).  A bundle of infinite multiplicity is
    represented by the single slot 0.
    """

    steps: tuple

    @property
    def base(self) -> str:
        return self.steps[0][0]

    def vertices(self) -> frozenset:
        return frozenset(v for v, _, _ in self.steps)

    def bundle_at(self, v: str) -> str:
        for w, b, _ in self.steps:
            if w == v:
                return b
        raise GraphError(f"vertex {v!r} is not on the cycle")

    def label(self) -> str:
        return "-".join(f"{b}.{s}" for _, b, s in self.steps)

    def __str__(self):
        return self.label()

    @staticmethod
    def canonical(steps) -> "CycleClass":
        steps = tuple(steps)
        best = min(range(len(steps)), key=lambda i: steps[i:] + steps[:i])
        return CycleClass(steps[best:] + steps[:best])


def _vertex_cycles(g: Graph):
    """Simple cycles as vertex tuples, least vertex first."""
    order = sorted(g.vertices)
    results = []

    def extend(start, path, on_path):
        for w in sorted(g.out_targets(path[-1])):
            if w == start:
                results.append(tuple(path))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                extend(start, path, on_path)
                path.pop()
                on_path.remove(w)

    for start in order:
        extend(start, [start], {start})
    return results


def _cycle_index(g: Graph) -> dict:
    """Label -> cycle, in the order of cycles(g); computed once per graph."""
    if g._cycles is None:
        found = set()
        for vcycle in _vertex_cycles(g):
            n = len(vcycle)
            choices = []
            for i in range(n):
                v, w = vcycle[i], vcycle[(i + 1) % n]
                step = []
                for b in g.out_bundles(v):
                    if b.target != w:
                        continue
                    slots = [0] if b.is_infinite else range(b.multiplicity)
                    step.extend((v, b.name, s) for s in slots)
                choices.append(step)
            found.update(CycleClass.canonical(combo) for combo in itertools.product(*choices))
        ordered = sorted(found, key=lambda c: (len(c.steps), c.steps))
        g._cycles = {c.label(): c for c in ordered}
    return g._cycles


def cycles(g: Graph) -> list[CycleClass]:
    """All cycles (closed simple paths up to rotation), canonically rotated."""
    return list(_cycle_index(g).values())


def _exit_targets(g: Graph, c: CycleClass) -> frozenset:
    """Ranges of the exits of c; a slot left over on a cycle bundle is an exit."""
    cverts = c.vertices()
    targets = set()
    for v in cverts:
        used = c.bundle_at(v)
        for b in g.out_bundles(v):
            if b.name != used or b.is_infinite or b.multiplicity >= 2:
                targets.add(b.target)
    return frozenset(targets)


def exclusive_cycles(g: Graph) -> list[CycleClass]:
    """Cycles whose base vertex carries exactly one closed simple path.

    A cycle is disqualified exactly when some exit can flow back into the
    cycle: that return trip is a second closed simple path at the base.
    """
    out = []
    for c in cycles(g):
        cverts = c.vertices()
        if hereditary_closure(g, _exit_targets(g, c)).isdisjoint(cverts):
            out.append(c)
    return out


def cycle_vertex_closure(g: Graph, c: CycleClass) -> frozenset:
    return hereditary_saturated_closure(g, c.vertices())


def exit_closure(g: Graph, c: CycleClass) -> frozenset:
    """Hereditary saturated closure of the ranges of the exits of c."""
    check_cycle(g, c)
    return hereditary_saturated_closure(g, _exit_targets(g, c))


def find_cycle(g: Graph, label: str) -> CycleClass:
    c = _cycle_index(g).get(label)
    if c is None:
        raise GraphError(f"no cycle labelled {label!r}")
    return c


def check_cycle(g: Graph, c: CycleClass):
    if _cycle_index(g).get(c.label()) != c:
        raise GraphError(f"{c.label()} is not a cycle of this graph")


# -- global conditions -------------------------------------------------------


def downward_directed(g: Graph, S) -> bool:
    """Whether every two members of S flow to a common member of S."""
    g.check_vertices(S)
    S = set(S)
    reach = {v: hereditary_closure(g, {v}) for v in S}
    return all(S & reach[v] & reach[w] for v in S for w in S)


def has_condition_k(g: Graph) -> bool:
    return not exclusive_cycles(g)


def is_row_finite(g: Graph) -> bool:
    return not any(b.is_infinite for b in g.bundles)
