"""Directed graphs with multiplicity bundles and their admissible-pair lattice.

A graph is finitely presented: finitely many vertices and finitely many
edge bundles, each bundle carrying a multiplicity that is either a positive
integer (that many parallel edges) or omega (an infinite family, which is
how infinite emitters and breaking vertices arise while keeping every
enumeration finite).
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import NamedTuple


class GraphError(ValueError):
    pass


OMEGA = math.inf  # the multiplicity of an infinite bundle

MAX_PAIRS = 1 << 16  # admissible pairs a lattice may have, bottom included
MAX_GRAPH_SIZE = 1 << 13  # vertices plus bundles of a graph whose pair lattice is built
_TOO_MANY_PAIRS = f"the admissible-pair lattice has more than {MAX_PAIRS} pairs"
MAX_CYCLES = 1 << 12  # cycles `cycles` lists
MAX_CYCLE_CLOSURES = 1 << 20  # closure vertices `cycles` prints, summed over its cycles
_TOO_MANY_CYCLES = f"cannot list the cycles: more than {MAX_CYCLES} cycles or {MAX_CYCLES + 1} steps per vertex and bundle"


class Bundle(NamedTuple):
    name: str
    source: str
    target: str
    multiplicity: object = 1  # positive int or OMEGA

    @property
    def is_infinite(self) -> bool:
        return self.multiplicity == OMEGA

    @property
    def slots(self) -> int:
        """The number of edges a cycle label tells apart: one on an infinite bundle."""
        return 1 if self.is_infinite else self.multiplicity


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
            if b.multiplicity != OMEGA and (not isinstance(b.multiplicity, int) or b.multiplicity < 1):
                raise GraphError(f"bad multiplicity {b.multiplicity!r} in bundle {b.name!r}")
        self.bundles = bundles
        self._key = (self.vertices, self.bundles)
        self._hash = hash(self._key)

    # the adjacency is built on first use: a graph refused for its size
    # before any walk needs none of it
    @cached_property
    def _out(self) -> dict:
        out = {v: [] for v in self.vertices}
        for b in self.bundles:
            out[b.source].append(b)
        return out

    @cached_property
    def _sources(self) -> dict:
        sources = {}
        for b in self.bundles:
            sources.setdefault(b.target, set()).add(b.source)
        return sources

    @cached_property
    def _targets(self) -> dict:
        return {v: frozenset([b.target for b in out]) for v, out in self._out.items()}

    @cached_property
    def _regular(self) -> set:
        return {v for v, out in self._out.items() if out and not any(b.is_infinite for b in out)}

    @cached_property
    def components(self) -> tuple:
        """The strongly connected components (see _components).  Built once
        per graph and shared, so callers only read it."""
        return _components(self.vertices, self._targets.__getitem__)

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

    def sources(self, v: str) -> "set | frozenset":
        return self._sources.get(v, EMPTY)

    def escape_count(self, v: str, H) -> object:
        """Number of edges from v whose target avoids H (OMEGA if infinite)."""
        # a sum with inf would first turn an int past 2^1024 into a float
        escaping = [b.multiplicity for b in self._out[v] if b.target not in H]
        return OMEGA if OMEGA in escaping else sum(escaping)


def _components(vertices, targets) -> tuple:
    """The strongly connected components of the graph on vertices whose
    edges out of v end in targets(v), each a tuple of its vertices, in the
    order in which Tarjan's algorithm (SIAM J. Comput. 1972) closes them:
    every edge that leaves a component enters an earlier one."""
    index, low, depth = {}, {}, {}
    stack, comps = [], []
    for root in sorted(vertices):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        depth[root] = 0
        stack.append(root)
        work = [(root, iter(targets(root)))]
        while work:
            v, out = work[-1]
            for w in out:
                if w not in index:
                    index[w] = low[w] = len(index)
                    depth[w] = len(stack)
                    stack.append(w)
                    work.append((w, iter(targets(w))))
                    break
                if w in depth and index[w] < low[v]:  # w is still on the stack
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    comp = tuple(stack[depth[v]:])
                    del stack[depth[v]:]
                    for w in comp:
                        del depth[w]
                    comps.append(comp)
    return tuple(comps)


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


def _lambda_closure(g: Graph, base, absorb, start=None) -> frozenset:
    # add every vertex, regular or in absorb, all of whose targets lie
    # inside, to a fixpoint; a vertex is looked at only once one of its
    # targets is inside, and counts its targets outside base still missing,
    # so the work is linear in the edges around the result.  Only sources of
    # start (all of base by default) and of added vertices are looked at.
    base = frozenset(base)
    cur = set(base)
    missing = {}
    queue = list(base if start is None else start)
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
    g.check_vertices(H)
    if not is_hereditary(g, H):
        raise GraphError("set is not hereditary")
    out = set()
    for v in g.vertices - set(H):
        if g.is_infinite_emitter(v):
            if 0 < g.escape_count(v, H) < OMEGA:
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


class AdmissiblePair(NamedTuple):
    """A hereditary saturated set together with some of its breaking vertices."""

    H: frozenset
    S: frozenset

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


EMPTY = frozenset()


def _union_closure(g: Graph, pieces, extra=()) -> frozenset:
    """The hs-closure of extra and the union of pieces, where every piece is
    hereditary and saturated and so is the union with extra hereditary.

    A vertex all of whose targets lie in one piece is in it already, so the
    search for vertices to add starts outside the largest piece.
    """
    pieces = sorted(pieces, key=len)
    largest = pieces.pop() if pieces else frozenset()
    if not pieces and not extra:
        return largest
    base = largest.union(extra, *pieces)
    return _lambda_closure(g, base, frozenset(), base - largest)


def _closures(g: Graph, comps):
    """The distinct hs-closures of single vertices, and each vertex's place
    among them, from one closure per component at most.

    The components come successors first.  The closure of a component is
    that of its vertices together with its successors' closures; when a
    successor's closure holds the component, it is the same closure, so a
    chain costs a single closure.
    """
    where, sets, seen = {}, [], {}
    for comp in comps:
        inside = set(comp)
        succ = {where[w] for v in comp for w in g.out_targets(v) if w not in inside}
        k = next((k for k in succ if comp[0] in sets[k]), None)
        if k is None:
            h = _union_closure(g, [sets[k] for k in succ], comp)
            k = seen.setdefault(h, len(sets))
            if k == len(sets):
                sets.append(h)
        for v in comp:
            where[v] = k
    return where, sets


def _join_irreducibles(g: Graph, where, sets, members):
    """J as (key, H, vertices, emitters), sorted by key, and the places of
    the closures whose pair is not in J.

    The pair (hs-closure{v}, {}) is the supremum of the pairs below it
    exactly when saturation can add one of its vertices to them: one that
    is regular or a breaker, with every target in a lower closure.  The
    least pair breaking an infinite emitter w, (hs-closure of its infinite
    targets, {w}), is in J whenever w breaks that closure.
    """
    breakers = {}  # infinite emitter w -> the least set w breaks
    for w in sorted(g.vertices):
        if g.is_infinite_emitter(w):
            t = {b.target for b in g.out_bundles(w) if b.is_infinite}
            h = _union_closure(g, {sets[where[x]] for x in t})
            if w not in h and not g.out_targets(w) <= h:
                breakers[w] = h
    reducible = {
        k for k, vs in enumerate(members)
        if any(
            (g.is_regular(v) or v in breakers)
            and all(where[t] != k for t in g.out_targets(v))
            for v in vs
        )
    }
    ji = [
        ((len(h), tuple(sorted(h)), ()), h, vs, [])
        for k, (h, vs) in enumerate(zip(sets, members)) if k not in reducible
    ]
    ji += [((len(h), tuple(sorted(h)), (w,)), h, [], [w]) for w, h in breakers.items()]
    # key order is a linear extension on J: comparable members with equal
    # H differ by one breaking vertex
    ji.sort(key=itemgetter(0))
    return ji, reducible


def _down_mask(anchors: dict, h) -> int:
    m = 0
    for v, bits in anchors.items():
        if v in h:
            m |= bits
    return m


def _down_set_walk(below, admit=None, rank=None):
    """The down-sets of a poset on range(n), given the strict down-set of
    each member as a bit mask, where every member comes after those below
    it.  Each is reached once, from itself minus its last member, so the
    entries holding j are the roots of disjoint subtrees that together hold
    every down-set with j.  Past MAX_PAIRS of them it refuses, and with
    admit None it only counts them, keeping nothing per down-set.

    Otherwise it lists the pair of each as parallel lists of the parent (an
    earlier entry), the member j added, the mask, the label and two sort
    keys, entry 0 being the empty down-set and the bottom.  The pair's H
    and E, kept sorted, are its parent's plus what admit[j] = (vertices,
    emitters, key, more) gives: the vertices and emitters listed, and those
    of each (mask, vertices, key) in more whose mask lies in the down-set.
    S is E less H.  The key of H sums its vertices' keys, and that of S
    spells S in the characters rank gives.
    """
    empty = ((), (), 0, ())
    rows = [(j, bj, 1 << j, *(admit[j] if admit else empty)) for j, bj in enumerate(below)]
    count, parents, added, masks, labels, hkeys, skeys = 1, [0], [0], [0], ["{}"], [0], [""]
    # (entry, its mask, first member that may be added, H, E, S, their keys)
    stack = [(0, 0, 0, [], [], [], 0, "")]
    while stack:
        entry, mask, first, h, e, s, hk, sk = stack.pop()
        for j, bj, bit, vs, ws, vk, more in rows[first:]:
            if bj & mask == bj:
                if count == MAX_PAIRS:
                    raise GraphError(_TOO_MANY_PAIRS)
                count += 1
                d = mask | bit
                if admit is None:
                    stack.append((0, d, j + 1, h, e, s, 0, ""))
                    continue
                hj, kj = (h + vs, hk + vk) if vs else (h, hk)
                for m, us, uk in more:
                    if m & d == m:
                        hj, kj = hj + us, kj + uk
                if hj is not h:
                    hj.sort()
                ej, sj, skj = (sorted(e + ws) if ws else e), s, sk
                if ej is not e or hj is not h and s:
                    held = set(hj)
                    sj = [w for w in ej if w not in held]
                    skj = "".join([rank[w] for w in sj])
                stack.append((len(masks), d, j + 1, hj, ej, sj, kj, skj))
                label = "{" + ",".join(hj) + "}"
                labels.append(label + "|{" + ",".join(sj) + "}" if sj else label)
                parents.append(entry)
                added.append(j)
                masks.append(d)
                hkeys.append(kj)
                skeys.append(skj)
    return parents, added, masks, labels, hkeys, skeys


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
    J, each pair once.  J is read off the graph: the pair (hs-closure{v}, {})
    of a vertex v unless saturation adds v to the pairs below it, and the
    least pair (H, {w}) of each infinite emitter w that breaks some set.

    Each pair is kept as its down-set in J, a bit mask D.  A vertex v lies
    in H exactly when the mask of (hs-closure{v}, {}) lies in D, and an
    emitter w lies in H | S exactly when the mask of its least pair does, so
    the pairs, their order and their suprema need no closure.
    """

    def __init__(self, graph: Graph):
        self.graph = graph
        if len(graph.vertices) + len(graph.bundles) > MAX_GRAPH_SIZE:
            raise GraphError(f"the graph has more than {MAX_GRAPH_SIZE} vertices and bundles")
        comps = graph.components
        # the closure of a union of components with no edge leaving them meets
        # those components in that union only, so k of them give 2^k pairs
        comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
        closed = sum(
            all(comp_of[w] == k for v in comp for w in graph.out_targets(v))
            for k, comp in enumerate(comps)
        )
        if closed >= MAX_PAIRS.bit_length():
            raise GraphError(_TOO_MANY_PAIRS)
        where, sets = _closures(graph, comps)
        members = [[] for _ in sets]  # the vertices whose closure each set is
        for v in sorted(graph.vertices):
            members[where[v]].append(v)
        ji, reducible = _join_irreducibles(graph, where, sets, members)
        anchors = {}  # v -> the members of J below a pair (H, {}) exactly when H holds v
        for j, (_, _, vs, ws) in enumerate(ji):
            v = (vs or ws)[0]
            anchors[v] = anchors.get(v, 0) | 1 << j
        set_masks = [_down_mask(anchors, h) for h in sets]
        ji_masks = [
            _down_mask(anchors, h) | 1 << j if ws else set_masks[where[vs[0]]]
            for j, (_, h, vs, ws) in enumerate(ji)
        ]
        self.vertex_masks = {v: set_masks[k] for v, k in where.items()}
        self.breaker_masks = {ws[0]: m for (_, _, _, ws), m in zip(ji, ji_masks) if ws}
        # the generator whose least pair each member of J is: (v, None) for the
        # least vertex v whose closure it is, (w, H) for the emitter w breaking H
        self.ji_generators = [(ws[0], h) if ws else (vs[0], None) for _, h, vs, ws in ji]
        self._below = [m & ~(1 << j) for j, m in enumerate(ji_masks)]
        # each member of J brings its own vertices or emitter; a set not in J
        # joins once its mask, which ends in the member added last, is in.
        # The i-th of n vertices in name order has the key 2^n - 2^(n-1-i), so
        # the key of H orders the sets as (|H|, sorted H) does, and emitters
        # spelt in name order compare as sorted lists of their names do
        n = len(graph.vertices)
        vkey = {v: (1 << n) - (1 << (n - 1 - i)) for i, v in enumerate(sorted(graph.vertices))}
        admit = [(vs, ws, sum(vkey[v] for v in vs), []) for _, _, vs, ws in ji]
        for k in reducible:
            m, vs = set_masks[k], members[k]
            admit[m.bit_length() - 1][3].append((m, vs, sum(vkey[v] for v in vs)))
        # there are at most 2^|J| down-sets; when that could pass MAX_PAIRS,
        # they are counted before anything per pair is built
        if 1 << len(ji) > MAX_PAIRS:
            _down_set_walk(self._below)
        rank = {w: chr(i) for i, w in enumerate(sorted(self.breaker_masks))}
        parents, added, masks, labels, hkeys, skeys = _down_set_walk(self._below, admit, rank)
        # ordered by (|H|, sorted H, sorted S): by S first, then stably by H
        order = sorted(range(len(masks)), key=skeys.__getitem__)
        order.sort(key=hkeys.__getitem__)
        self._masks = [masks[k] for k in order]
        self._by_mask = {m: i for i, m in enumerate(self._masks)}
        self._star_labels = tuple([labels[k] for k in order[1:]])
        self._label_index = None  # built on first use
        self._ji_star = [self._by_mask[m] - 1 for m in ji_masks]
        star_of = [0] * len(masks)  # walk entry -> star index; the bottom sorts first
        for i, k in enumerate(order):
            star_of[k] = i - 1
        # in walk order, each pair's star index, its parent's or None, and the
        # position in J of the member added: each pair is its parent joined
        # with one member of J, and every parent comes before its children
        self.down_set_tree = (star_of[1:], [star_of[k] if k else None for k in parents[1:]], added[1:])

    @property
    def pairs(self) -> "_Pairs":
        """The pairs in order, each read off its mask when asked for."""
        return _Pairs(self)

    def pair_at(self, d: int) -> AdmissiblePair:
        """The pair whose down-set in J is the mask d, read off it."""
        h = frozenset([v for v, m in self.vertex_masks.items() if m & d == m])
        return AdmissiblePair(h, frozenset([w for w, m in self.breaker_masks.items() if m & d == m and w not in h]))

    def __len__(self):
        return len(self._masks)

    def least_star_index(self, vertices, breaker=None) -> int:
        """The star index of the least pair whose H holds the given vertices
        and, if a vertex w is given, whose H | S holds w (w in S unless no
        pair breaks w with them); -1 for the bottom."""
        d = 0
        for v in vertices:
            d |= self.vertex_masks[v]
        if breaker is not None:
            d |= self.breaker_masks.get(breaker) or self.vertex_masks[breaker]
        return self._by_mask[d] - 1

    def star_index(self, pair: AdmissiblePair) -> int:
        """The star index of a pair of this lattice, -1 for the bottom: the
        least pair holding its H and S, which must be the pair itself."""
        vm, bm, d = self.vertex_masks, self.breaker_masks, 0
        # an unknown vertex or a non-breaker sets every bit: no pair's mask
        for v in pair.H:
            d |= vm.get(v, -1)
        for w in pair.S:
            d |= bm.get(w, -1)
        i = self._by_mask.get(d)
        if i is None or self.pair_at(d) != pair:
            raise GraphError(f"{pair.label()} is not an admissible pair of this graph")
        return i - 1

    def star_mask(self, i: int) -> int:
        """The down-set in J of star pair i, as a bit mask whose bit t stands
        for the t-th of star_join_irreducibles()."""
        return self._masks[i + 1]

    def star_labels(self) -> tuple:
        """The canonical label of each star pair, in star order."""
        return self._star_labels

    def star_label_index(self) -> dict:
        """Canonical label -> star index."""
        if self._label_index is None:
            self._label_index = {s: i for i, s in enumerate(self._star_labels)}
        return self._label_index

    def star_join_irreducibles(self):
        """Star indices of the join-irreducible pairs, in star order.

        Every pair is the supremum of the join-irreducibles below it, which
        is what makes saturated functions recoverable from their values there.
        """
        return list(self._ji_star)

    def hasse_edges(self):
        """Covering relations as index pairs (i, j) into pairs, sorted, for
        drawing the lattice: pair j covers pair i exactly when its down-set
        is that of i plus one join-irreducible."""
        below, by_mask = self._below, self._by_mask
        covers = []
        for i, m in enumerate(self._masks):
            for j, bj in enumerate(below):
                if not m >> j & 1 and bj & m == bj:
                    covers.append((i, by_mask[m | 1 << j]))
        covers.sort()
        return covers


class _Pairs(Sequence):
    """The pairs of a lattice in order: its length is read off the masks,
    and each pair off its own mask when asked for, keeping none."""

    def __init__(self, lattice: PairLattice):
        self._lattice = lattice

    def __len__(self):
        return len(self._lattice)

    def __getitem__(self, i):
        return self._lattice.pair_at(self._lattice._masks[i])


@lru_cache(maxsize=32)
def pair_lattice(g: Graph) -> PairLattice:
    return PairLattice(g)


# -- cycles -----------------------------------------------------------------


class CycleClass(NamedTuple):
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

    def label(self) -> str:
        return "-".join(f"{b}.{s}" for _, b, s in self.steps)


def _vertex_cycles(g: Graph):
    """Simple cycles as vertex tuples, least vertex first, in sorted order,
    by the outer loop of Johnson (SIAM J. Comput. 1975): the cycles through
    the least vertex of a strongly connected component stay inside it, and
    the others lie in the components of what is left once it is dropped.
    It refuses a push made past MAX_CYCLES cycles or past
    (|V| + |bundles|)(MAX_CYCLES + 1) pushes, the order of Johnson's bound
    for that many, passed only where paths dead-end."""
    results, steps = [], (len(g.vertices) + len(g.bundles)) * (MAX_CYCLES + 1)
    comps = list(g.components)
    while comps:
        comp = frozenset(comps.pop())
        start = min(comp)
        path, on_path = [start], {start}
        todo = [iter(comp & g.out_targets(start))]
        while todo:
            for w in todo[-1]:
                if w == start:
                    results.append(tuple(path))
                elif w not in on_path:
                    steps -= 1
                    if steps < 0 or len(results) > MAX_CYCLES:
                        raise GraphError(_TOO_MANY_CYCLES)
                    on_path.add(w)
                    path.append(w)
                    todo.append(iter(comp & g.out_targets(w)))
                    break
            else:
                todo.pop()
                on_path.discard(path.pop())
        rest = comp - {start}
        if rest:
            comps += _components(rest, lambda v: rest & g.out_targets(v))
    return sorted(results)


def cycles(g: Graph) -> list[CycleClass]:
    """All cycles (closed simple paths up to rotation), canonically rotated:
    each choice of bundle and slot along a vertex cycle, counted first."""
    out = []
    for vcycle in _vertex_cycles(g):
        bundles = [[b for b in g.out_bundles(v) if b.target == w] for v, w in zip(vcycle, vcycle[1:] + vcycle[:1])]
        if len(out) + math.prod(sum(b.slots for b in bs) for bs in bundles) > MAX_CYCLES:
            raise GraphError(_TOO_MANY_CYCLES)
        choices = [[(b.source, b.name, s) for b in bs for s in range(b.slots)] for bs in bundles]
        out += map(CycleClass, itertools.product(*choices))
    return sorted(out, key=lambda c: (len(c.steps), c.steps))


def _exit_targets(g: Graph, c: CycleClass) -> frozenset:
    """Ranges of the exits of c; a slot left over on a cycle bundle is an exit."""
    return frozenset([
        b.target for v, used, _ in c.steps for b in g.out_bundles(v)
        if b.name != used or b.multiplicity != 1
    ])


def exclusive_cycles(g: Graph) -> list[CycleClass]:
    """Cycles whose base vertex carries exactly one closed simple path.

    A cycle is exclusive exactly when its strongly connected component is
    the cycle itself: each vertex of the component has one bundle into it,
    of multiplicity 1.  Any other edge inside the component, a second slot
    included, would close a second simple path at the base.  In a component
    with a cycle every vertex has a bundle into it, so it has one each
    exactly when it has as many bundles inside as vertices.
    """
    out = []
    for comp in map(set, g.components):
        inside = [b for v in comp for b in g.out_bundles(v) if b.target in comp]
        if len(inside) == len(comp) and all(b.multiplicity == 1 for b in inside):
            step = {b.source: b for b in inside}
            v, steps = min(comp), []
            for _ in comp:
                steps.append((v, step[v].name, 0))
                v = step[v].target
            out.append(CycleClass(tuple(steps)))
    return sorted(out, key=lambda c: (len(c.steps), c.steps))


def cycle_vertex_closure(g: Graph, c: CycleClass) -> frozenset:
    return hereditary_saturated_closure(g, c.vertices())


def exit_closure(g: Graph, c: CycleClass) -> frozenset:
    """Hereditary saturated closure of the ranges of the exits of c."""
    if find_cycle(g, c.label()) != c:
        raise GraphError(f"{c.label()} is not a cycle of this graph")
    return hereditary_saturated_closure(g, _exit_targets(g, c))


def find_cycle(g: Graph, label: str) -> CycleClass:
    """The cycle a label names, read off its own bundle.slot steps: they
    chain, close, repeat no vertex and start at the least (names hold no '-')."""
    named, steps, at = {b.name: b for b in g.bundles}, [], None
    for name, _, slot in (step.rpartition(".") for step in label.split("-")):
        b = named.get(name)
        # a slot is a canonical decimal, of at most the 4300 digits int() reads
        ok = b is not None and (not steps or b.source == at) and re.fullmatch(r"0|[1-9][0-9]{0,4299}", slot)
        if not ok or int(slot) >= b.slots:
            break
        steps.append((b.source, name, int(slot)))
        at = b.target
    else:
        if at == steps[0][0] == min(steps)[0] and len({v for v, _, _ in steps}) == len(steps):
            return CycleClass(tuple(steps))
    raise GraphError(f"no cycle labelled {label!r}")


# -- global conditions -------------------------------------------------------


def directed_complement(g: Graph, H) -> bool:
    """Whether the vertices outside a hereditary set H are downward directed.

    A path that enters H never leaves it, so each strongly connected
    component lies in H or outside it, and the vertices outside H are
    directed exactly when at most one component outside H has every edge
    out of it end in it or in H.
    """
    terminal = 0
    for comp in g.components:
        if comp[0] not in H:
            inside = set(comp)
            terminal += all(w in H or w in inside for v in comp for w in g.out_targets(v))
    return terminal < 2


def has_condition_k(g: Graph) -> bool:
    return not exclusive_cycles(g)


def is_row_finite(g: Graph) -> bool:
    return not any(b.is_infinite for b in g.bundles)
