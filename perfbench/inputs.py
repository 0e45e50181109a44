"""Seeded input generators for the benchmark workloads.

Everything here is plain data and text: graphs are written in the CLI's
graph format, generators and pair files as the CLI's JSON.  Nothing is
imported from the library, so the program under test only ever sees the
files.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random

# -- graphs -----------------------------------------------------------------

INF = "inf"


class GraphSpec:
    """A graph as vertex and bundle lists, plus what the generator knows of it."""

    def __init__(self, vertices, bundles, pairs=None, cycles=(), infinite=False):
        self.vertices = list(vertices)
        self.bundles = list(bundles)  # (name, source, target, multiplicity or INF)
        self.pairs = pairs  # number of admissible pairs, when known
        self.cycles = list(cycles)  # labels of the exclusive cycles
        self.infinite = infinite

    def text(self) -> str:
        lines = ["vertices " + ",".join(self.vertices) + ";"]
        for name, src, dst, mult in self.bundles:
            if mult == 1:
                lines.append(f"edge {name}: {src}->{dst};")
            else:
                lines.append(f"bundle {name}: {src}->{dst} * {mult};")
        return "\n".join(lines) + "\n"


# Components of the lattice workload's graphs.  Each entry gives the vertex
# count and the number of admissible pairs of the component alone; the pair
# lattice of a disjoint union is the product of the components' lattices.
COMPONENTS = {
    "sink": (1, 2),
    "edge": (2, 2),  # a -> b; {b} is not saturated, so only {} and {a,b}
    "fork": (3, 4),  # a -> b, a => c (two parallel edges)
    "dloop": (2, 3),  # two loops at u and an exit u -> v; neither loop is exclusive
    "ifork": (3, 6),  # w -> x infinitely often and w -> y once; w breaks {x}
}


def component(kind: str, p: str):
    """Vertices and bundles of one component, every name prefixed by p."""
    if kind == "sink":
        return [p + "s"], []
    if kind == "edge":
        return [p + "a", p + "b"], [(p + "e", p + "a", p + "b", 1)]
    if kind == "fork":
        return [p + "a", p + "b", p + "c"], [
            (p + "e", p + "a", p + "b", 1),
            (p + "f", p + "a", p + "c", 2),
        ]
    if kind == "dloop":
        return [p + "u", p + "v"], [
            (p + "l", p + "u", p + "u", 2),
            (p + "x", p + "u", p + "v", 1),
        ]
    if kind == "ifork":
        return [p + "w", p + "x", p + "y"], [
            (p + "i", p + "w", p + "x", INF),
            (p + "j", p + "w", p + "y", 1),
        ]
    raise ValueError(kind)


def component_union(kinds, tag: str) -> GraphSpec:
    vertices, bundles = [], []
    pairs = 1
    for i, kind in enumerate(kinds):
        vs, bs = component(kind, f"{tag}c{i}")
        vertices += vs
        bundles += bs
        pairs *= COMPONENTS[kind][1]
    return GraphSpec(vertices, bundles, pairs=pairs, infinite="ifork" in kinds)


def acyclic_family(max_v: int = 4, max_mult: int = 5):
    """Every acyclic bundle graph with at most max_v vertices and total edge
    multiplicity at most max_mult, once per isomorphism class.

    Vertices are numbered in a topological order, so every bundle runs from
    a lower to a higher number; a graph is kept when its edge multiset is
    the least over all renumberings.
    """
    family = []
    for n in range(1, max_v + 1):
        slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for mults in _compositions(len(slots), max_mult):
            edges = tuple((i, j, m) for (i, j), m in zip(slots, mults) if m)
            canon = min(tuple(sorted((p[i], p[j], m) for i, j, m in edges)) for p in perms)
            if canon in seen:
                continue
            seen.add(canon)
            family.append((n, edges))
    return family


def _compositions(k: int, total: int):
    """Tuples of k nonnegative ints with sum at most total."""
    if k == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(k - 1, total - first):
            yield (first,) + rest


def acyclic_spec(n: int, edges, tag: str) -> GraphSpec:
    vertices = [f"{tag}v{i}" for i in range(n)]
    bundles = [
        (f"{tag}b{k}", vertices[i], vertices[j], m) for k, (i, j, m) in enumerate(edges)
    ]
    return GraphSpec(vertices, bundles)


# Graphs of the laurent workload; every cycle listed is exclusive, and each
# graph has three admissible pairs.
LAURENT_SHAPES = ("loop_sink", "two_cycle_exit", "stacked_loops")


def laurent_spec(shape: str, tag: str) -> GraphSpec:
    t = tag
    if shape == "loop_sink":
        return GraphSpec(
            [t + "u", t + "v"],
            [(t + "e", t + "u", t + "u", 1), (t + "f", t + "u", t + "v", 1)],
            cycles=[f"{t}e.0"], pairs=3,
        )
    if shape == "two_cycle_exit":
        return GraphSpec(
            [t + "a", t + "b", t + "c"],
            [
                (t + "p", t + "a", t + "b", 1),
                (t + "q", t + "b", t + "a", 1),
                (t + "r", t + "a", t + "c", 1),
            ],
            cycles=[f"{t}p.0-{t}q.0"], pairs=3,
        )
    if shape == "stacked_loops":
        return GraphSpec(
            [t + "u", t + "w"],
            [
                (t + "e", t + "u", t + "u", 1),
                (t + "f", t + "u", t + "w", 1),
                (t + "g", t + "w", t + "w", 1),
            ],
            cycles=[f"{t}e.0", f"{t}g.0"], pairs=3,
        )
    raise ValueError(shape)


# -- generator files ----------------------------------------------------------


def vertex_gen(r: int, v: str) -> dict:
    return {"kind": "vertex", "r": str(r), "v": v}


def breaking_gen(r: int, w: str, H) -> dict:
    return {"kind": "breaking", "r": str(r), "w": w, "H": sorted(H)}


def cycle_gen(poly: str, label: str) -> dict:
    return {"kind": "cycle", "p": poly, "c": label}


def random_laurent(rng: random.Random, max_terms=3, max_exp=4, max_coeff=20) -> str:
    """A Laurent polynomial of criterion-10 size, in the CLI's term syntax."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(1, max_coeff) * rng.choice((1, -1))
        terms[rng.randint(-max_exp, max_exp)] = c
    return format_laurent(terms)


def format_laurent(terms: dict) -> str:
    pieces = []
    for exp in sorted(terms):
        c = terms[exp]
        body = f"{abs(c)}" if exp == 0 else f"{abs(c)}x^{exp}"
        if not pieces:
            pieces.append(f"-{body}" if c < 0 else body)
        else:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(pieces)


def dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
