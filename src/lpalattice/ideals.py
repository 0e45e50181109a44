"""The classification lattice for ideals of a Leavitt path algebra.

An ideal of L_R(E) is encoded by a pair: a saturated function assigning an
ideal of R to every admissible pair except the bottom, plus an assignment
of an ideal of R[x, x^-1] to every exclusive cycle, subject to two
compatibility constraints (the contraction of the cycle ideal matches the
function on the cycle's closure, and its coefficients lie in the value at
the exit closure).  Meets, joins, and products of ideals are computed
directly on this data.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from json.encoder import encode_basestring_ascii as _quote
from operator import add, le, mul
from typing import NamedTuple

from .graph import (
    AdmissiblePair,
    CycleClass,
    Graph,
    GraphError,
    breaking_vertices,
    directed_complement,
    exclusive_cycles,
    find_cycle,
    is_row_finite,
    pair_lattice,
    _exit_targets,
)
from .laurent import MAX_EXPONENT_SPAN, LaurentIdeal, LaurentPoly
from .rings import RingError, RingIdeal, RingSpec


# graded enumeration lists one value per nonbottom pair for each ideal; more
# values than this are refused before any table is built.  There are never
# fewer ideals than pairs, so any lattice of up to 512 ideals is listed.
MAX_GRADED_VALUES = 1 << 18
# prime checks each distinct value of a pair against the graph; more distinct
# values times vertices and bundles than this are refused before any check
MAX_PRIME_WORK = 1 << 20
# each cache of _gen_memo keeps this many most recently used argument pairs
GEN_MEMO_SIZE = 256

_new = object.__new__


class ClassificationError(ValueError):
    pass


class Context:
    """Shared derived data for one (graph, ring) classification problem,
    with memoised generator arithmetic of its ring."""

    def __init__(self, graph: Graph, ring: RingSpec):
        self.graph = graph
        self.ring = ring
        self.gen_sum, self.gen_intersect, self.gen_product, self.gen_contains = _gen_memo(ring)
        self.lattice = pair_lattice(graph)
        self.size = len(self.lattice) - 1  # the number of star pairs
        self.cycles = tuple(exclusive_cycles(graph))
        self.cycle_position = {c.label(): i for i, c in enumerate(self.cycles)}
        # the star index of each cycle's vertex-closure pair, and of its
        # exit-closure pair or None when it has no exit
        lat = self.lattice
        self.cycle_closure_idx = [lat.least_star_index(c.vertices()) for c in self.cycles]
        exits = [_exit_targets(graph, c) for c in self.cycles]
        self.cycle_exit_idx = [lat.least_star_index(t) if t else None for t in exits]
        self.ji = lat.star_join_irreducibles()
        # the position in ji of each closure pair, which is in J: the last bit of its mask
        self.cycle_ji = [lat.star_mask(k).bit_length() - 1 for k in self.cycle_closure_idx]
        self.cycle_ji_below = tuple(map(self.ji_below, self.cycle_closure_idx))
        self.cycle_exit_ji_below = tuple(() if k is None else self.ji_below(k) for k in self.cycle_exit_idx)

    def ji_below(self, k: int) -> tuple[int, ...]:
        """Positions in ji of the join-irreducibles at or below star pair k:
        the bits of its down-set mask."""
        m = self.lattice.star_mask(k)
        return tuple([t for t in range(m.bit_length()) if m >> t & 1])

    @cached_property
    def writer(self) -> "_PairWriter":
        return _PairWriter(self)


@lru_cache(maxsize=32)
def context(graph: Graph, ring: RingSpec) -> Context:
    return Context(graph, ring)


@lru_cache(maxsize=32)
def _gen_memo(ring: RingSpec) -> tuple:
    """Bounded caches of the ring's gen_sum, gen_intersect, gen_product and
    gen_contains, shared by its contexts.  Calls meet few distinct
    generators (over Z/n, the divisors of n), so nearly every one is a hit."""
    memo = lru_cache(maxsize=GEN_MEMO_SIZE)
    return memo(ring.gen_sum), memo(ring.gen_intersect), memo(ring.gen_product), memo(ring.gen_contains)


def _intersect_below(ctx: Context, jv) -> tuple[int, ...]:
    """The table whose value at each pair is the intersection of the values
    jv[t] at the members t of J below it, jv indexed by position in J.

    Walks the down-set tree, so each pair costs one intersection: its
    parent's value met with the value at the one join-irreducible more."""
    meet = ctx.gen_intersect
    out = [0] * ctx.size
    for i, parent, t in zip(*ctx.lattice.down_set_tree):
        out[i] = jv[t] if parent is None else meet(out[parent], jv[t])
    return tuple(out)


def _saturate(ctx: Context, vals: list[int]) -> tuple[int, ...]:
    """The values on J of the smallest saturated table dominating raw vals.

    Since the pair lattice is distributive, a saturated function is the
    intersection of its values at the join-irreducibles below each pair, so
    the closure pushes the values down onto J: each member gets the sum of
    the values at the pairs above it.  The pairs above a member t are the
    subtrees of the down-set tree rooted where t is added, so the push is
    one sum per pair up the tree, children before parents.
    """
    ring = ctx.ring
    up = list(vals)  # the sum of the values over the subtree of each pair
    down = [0] * len(ctx.ji)  # the sum of the values above each member of J
    for i, parent, t in zip(*map(reversed, ctx.lattice.down_set_tree)):
        v = up[i]
        if v:
            down[t] = ring.gen_sum(down[t], v)
            if parent is not None:
                up[parent] = ring.gen_sum(up[parent], v)
    return tuple(down)


def _law_violations(ctx: Context, vals) -> list[str]:
    """Where vals fails to turn suprema into intersections.

    A table obeys the law exactly when its value at every pair is the
    intersection of its values at the join-irreducibles below that pair.
    """
    want = _intersect_below(ctx, [vals[q] for q in ctx.ji])
    if want == tuple(vals):
        return []
    return [
        f"value ({vals[i]}) at {label} is not the intersection ({want[i]}) "
        f"of the values at the join-irreducible pairs below it"
        for i, label in enumerate(ctx.lattice.star_labels()) if vals[i] != want[i]
    ]


class SaturatedFunction:
    """A function from the nonbottom admissible pairs to ideals of R that
    turns suprema into intersections.

    It is carried by jv, its values at the join-irreducibles ctx.ji; its
    table vals, the intersection of jv below each pair, is built on first
    read."""

    def __init__(self, ctx: Context, vals):
        vals = tuple(ctx.ring.gen_normalize(v) for v in vals)
        if len(vals) != ctx.size:
            raise ClassificationError("table does not cover the admissible pairs")
        bad = _law_violations(ctx, vals)
        if bad:
            raise ClassificationError("not saturated: " + "; ".join(bad))
        self.ctx = ctx
        self.vals = vals
        self.jv = tuple([vals[q] for q in ctx.ji])

    @cached_property
    def vals(self) -> tuple[int, ...]:
        return _intersect_below(self.ctx, self.jv)

    def value(self, pair: AdmissiblePair) -> RingIdeal:
        k = self.ctx.lattice.star_index(pair)
        if k < 0:
            raise ClassificationError("the bottom pair carries no value")
        return RingIdeal(self.ctx.ring, self.vals[k])

    def __eq__(self, other):
        if not isinstance(other, SaturatedFunction) or self.jv != other.jv:
            return False
        a, b = self.ctx, other.ctx
        return a is b or (a.graph == b.graph and a.ring == b.ring)

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.ctx.graph, self.ctx.ring, self.jv))
            self._hash = h
        return h

    def __repr__(self):
        parts = ", ".join(f"{p}:({v})" for p, v in zip(self.ctx.lattice.star_labels(), self.vals))
        return "{" + parts + "}"


def _table_to_vals(ctx: Context, table, vals=None) -> list[int]:
    """The star-indexed values of a table, added to vals if given."""
    lat, ring = ctx.lattice, ctx.ring
    labels = lat.star_label_index()
    vals = [0] * ctx.size if vals is None else vals
    for pair, ideal in table.items():
        # a canonical label is looked up; anything else is parsed and checked
        i = labels.get(pair) if isinstance(pair, str) else None
        if i is None:
            i = lat.star_index(AdmissiblePair.parse(pair) if isinstance(pair, str) else pair)
            if i < 0:
                raise ClassificationError("the bottom pair carries no value")
        if isinstance(ideal, RingIdeal):
            if ideal.ring is not ring and ideal.ring != ring:
                raise RingError(f"value for {lat.star_labels()[i]} lives in {ideal.ring}, not {ring}")
            gen = ideal.gen
        else:
            gen = ring.gen_normalize(ideal)
        # a pair named twice gets the sum of its values
        vals[i] = ring.gen_sum(vals[i], gen) if vals[i] else gen
    return vals


def saturate_function(ctx: Context, table) -> SaturatedFunction:
    """Smallest saturated function dominating a raw (partial) table.

    Unspecified pairs default to the zero ideal.  Each value is pushed down
    the down-set tree onto the members of J at or below its pair, and those
    values on J carry the function.
    """
    return _function(ctx, _saturate(ctx, _table_to_vals(ctx, table)))


class ClassifiedIdeal:
    """A classification pair: a saturated function, carried by its values jv
    on J and built on first read as f, plus exclusive-cycle data g."""

    def __init__(self, f: SaturatedFunction, g):
        ctx = f.ctx
        g = tuple(g)
        problems = _cycle_violations(ctx, f.jv, g)
        if problems:
            raise ClassificationError("; ".join(problems))
        self.ctx = ctx
        self.f = f
        self.jv = f.jv
        self.g = g

    @cached_property
    def f(self) -> SaturatedFunction:
        return _function(self.ctx, self.jv)

    # -- constructors -----------------------------------------------------
    # a constant function and the matching constant cycle values meet both
    # cycle constraints
    @staticmethod
    def bottom(ctx: Context) -> "ClassifiedIdeal":
        return _pair(ctx, (0,) * len(ctx.ji), (LaurentIdeal.zero(ctx.ring),) * len(ctx.cycles))

    @staticmethod
    def top(ctx: Context) -> "ClassifiedIdeal":
        one = ctx.ring.gen_normalize(1)
        return _pair(ctx, (one,) * len(ctx.ji), (LaurentIdeal.unit(ctx.ring),) * len(ctx.cycles))

    @staticmethod
    def graded(f: SaturatedFunction) -> "ClassifiedIdeal":
        """The graded pair determined by a saturated function alone.  Each
        cycle value is the extension of f at the cycle's closure pair, which
        lies above its exit-closure pair, so both cycle constraints hold."""
        ring = f.ctx.ring
        g = [LaurentIdeal.extend(RingIdeal(ring, f.jv[t])) for t in f.ctx.cycle_ji]
        return _pair(f.ctx, f.jv, tuple(g), f)

    # -- lattice structure --------------------------------------------------
    # the operations take valid pairs to a valid pair, built unchecked by _pair;
    # without exclusive cycles every g is ()
    def leq(self, other: "ClassifiedIdeal") -> bool:
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ClassificationError("mismatched graph/ring context")
        return all(map(ctx.gen_contains, other.jv, self.jv)) and (
            not ctx.cycles or all(map(le, self.g, other.g))
        )

    __le__ = leq

    def meet(self, other: "ClassifiedIdeal") -> "ClassifiedIdeal":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ClassificationError("mismatched graph/ring context")
        jv = tuple(map(ctx.gen_intersect, self.jv, other.jv))
        g = tuple(map(LaurentIdeal.intersect, self.g, other.g)) if ctx.cycles else ()
        return _pair(ctx, jv, g)

    def join(self, other: "ClassifiedIdeal") -> "ClassifiedIdeal":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ClassificationError("mismatched graph/ring context")
        jv = tuple(map(ctx.gen_sum, self.jv, other.jv))
        if not ctx.cycles:
            return _pair(ctx, jv, ())
        g = tuple(map(add, self.g, other.g))
        return _pair(ctx, _closed(ctx, jv, g), g)

    def product(self, other: "ClassifiedIdeal") -> "ClassifiedIdeal":
        ctx = self.ctx
        if ctx is not other.ctx:
            raise ClassificationError("mismatched graph/ring context")
        jv = tuple(map(ctx.gen_product, self.jv, other.jv))
        if not ctx.cycles:
            return _pair(ctx, jv, ())
        g = tuple(map(mul, self.g, other.g))
        return _pair(ctx, _closed(ctx, jv, g), g)

    # -- grading ------------------------------------------------------------
    def is_graded(self) -> bool:
        return self == ClassifiedIdeal.graded(self.f)

    def largest_graded(self) -> "ClassifiedIdeal":
        """The largest graded pair below this one."""
        return ClassifiedIdeal.graded(self.f)

    def __eq__(self, other):
        if not isinstance(other, ClassifiedIdeal) or self.jv != other.jv:
            return False
        a, b = self.ctx, other.ctx
        return (a is b or (a.graph == b.graph and a.ring == b.ring)) and self.g == other.g

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            # hash((f, g)), since f hashes as (graph, ring, jv)
            h = hash(((self.ctx.graph, self.ctx.ring, self.jv), self.g))
            self._hash = h
        return h

    def __repr__(self):
        gs = ", ".join(f"{c.label()}:{g}" for c, g in zip(self.ctx.cycles, self.g))
        return f"ClassifiedIdeal(f={self.f!r}, g={{{gs}}})"


def _function(ctx: Context, jv: tuple) -> SaturatedFunction:
    # jv must reverse the order of J; every such map extends to exactly one
    # saturated function
    f = _new(SaturatedFunction)
    f.ctx = ctx
    f.jv = jv
    return f


def _pair(ctx: Context, jv: tuple, g: tuple, f: SaturatedFunction | None = None) -> ClassifiedIdeal:
    # the pair taking the values jv on J, with its function f if given; it
    # must meet both cycle constraints
    p = _new(ClassifiedIdeal)
    p.ctx = ctx
    p.jv = jv
    p.g = g
    if f is not None:
        p.f = f
    return p


def _closed(ctx: Context, jv, g: tuple) -> tuple:
    """The values on J of the smallest pair holding the values jv and the
    contractions of the cycle values g.  For a join or product jv is op of
    two functions that reverse the order of J, and op is monotone, so jv
    reverses it too and already holds op's values at every pair above; each
    cycle's contraction is then added at every member of J at or below its
    closure pair."""
    jv = list(jv)
    for gi, below in zip(g, ctx.cycle_ji_below):
        _place(ctx, jv, below, gi.contract().gen)
    return tuple(jv)


def _place(ctx: Context, jv: list, below, gen) -> None:
    """Add the ideal gen to jv at the members of J listed in below."""
    if gen:
        gen_sum = ctx.ring.gen_sum
        for t in below:
            jv[t] = gen_sum(jv[t], gen)


def _cycle_violations(ctx: Context, jv, g) -> list[str]:
    ring = ctx.ring
    out = []
    if len(g) != len(ctx.cycles):
        return [
            f"cycle table covers {len(g)} cycles, expected {len(ctx.cycles)}"
        ]
    for i, (c, gi) in enumerate(zip(ctx.cycles, g)):
        if not isinstance(gi, LaurentIdeal) or gi.ring != ring:
            out.append(f"value at cycle {c.label()} is not an ideal of {ring}[x,x^-1]")
            continue
        want = jv[ctx.cycle_ji[i]]
        got = gi.contract().gen
        if got != want:
            out.append(
                f"cycle {c.label()}: contraction is ({got}) but the vertex-closure "
                f"value is ({want})"
            )
        below = ctx.cycle_exit_ji_below[i]  # empty without an exit
        if below:
            coeff = gi.coefficient_ideal().gen
            have = reduce(ctx.gen_intersect, [jv[t] for t in below])
            if not ring.gen_contains(have, coeff):
                out.append(
                    f"cycle {c.label()}: coefficient ideal ({coeff}) escapes the "
                    f"exit-closure value ({have})"
                )
    return out


def validate_tables(ctx: Context, f_table, g_table, vals=None) -> "ClassifiedIdeal | list[str]":
    """Build a classification pair, or report every violated constraint;
    vals holds star-indexed values already read, which f_table adds to."""
    try:
        vals = tuple(_table_to_vals(ctx, f_table, vals))
    except (ClassificationError, GraphError, RingError) as exc:
        return [str(exc)]
    problems = _law_violations(ctx, vals)
    g = [None] * len(ctx.cycles)
    for c, ideal in g_table.items():
        label = c.label() if isinstance(c, CycleClass) else c
        i = ctx.cycle_position.get(label)
        if i is None:
            if not isinstance(c, CycleClass):
                find_cycle(ctx.graph, label)  # raises for a label naming no cycle
            problems.append(f"cycle {label} is not exclusive; its value is forced")
            continue
        g[i] = ideal
    for i, gi in enumerate(g):
        if gi is None:
            problems.append(f"no value supplied for cycle {ctx.cycles[i].label()}")
    if problems:
        return problems
    pair = _pair(ctx, tuple([vals[q] for q in ctx.ji]), tuple(g))
    pair.f.vals = vals
    return _cycle_violations(ctx, pair.jv, pair.g) or pair


# -- output ------------------------------------------------------------------


class _PairWriter:
    """The pieces of a context's pair text that do not depend on the pair:
    the star indices in label order with each label quoted as JSON quotes
    it, the quoted cycle labels in label order, and the ring's line."""

    def __init__(self, ctx: Context):
        labels = ctx.lattice.star_labels()
        self.order = sorted(range(len(labels)), key=labels.__getitem__)
        self.keys = []
        for i in self.order:
            q = _quote(labels[i])[1:-1]
            self.keys.append(labels[i] if q == labels[i] else q)  # shared when unchanged
        names = [c.label() for c in ctx.cycles]
        self.cycle_order = sorted(range(len(names)), key=names.__getitem__)
        self.cycle_keys = [_quote(names[i]) for i in self.cycle_order]
        self.tail = ',\n  "ring": ' + _quote(str(ctx.ring)) + "\n}\n"


def pair_json(pair: ClassifiedIdeal) -> str:
    """json.dumps(dump, sort_keys=True, indent=2) + "\n" for the pair's dump
    {"ring": ring, "f": {label: "(v)"}, "g": {cycle label: ideal}}, joined
    from the pieces its context prepares once."""
    w = pair.ctx.writer
    vals = pair.f.vals
    if any(len(d) > MAX_EXPONENT_SPAN + 1 for ideal in pair.g for d in ideal.basis):
        raise RingError(f"cannot write the result: a cycle value spans more than {MAX_EXPONENT_SPAN} powers of x")
    try:
        f = ",\n".join([f'    "{k}": "({vals[i]})"' for k, i in zip(w.keys, w.order)])
        g = ",\n".join([
            f"    {k}: {_quote(str(pair.g[i]))}" for k, i in zip(w.cycle_keys, w.cycle_order)
        ])
    except ValueError as exc:  # str() of an int past the 4300-digit limit
        raise RingError("cannot write the result: it holds an integer too long to print") from exc
    return (
        '{\n  "f": ' + ("{\n" + f + "\n  }" if f else "{}")
        + ',\n  "g": ' + ("{\n" + g + "\n  }" if g else "{}") + w.tail
    )


# -- generators --------------------------------------------------------------


class ScaledVertex(NamedTuple):
    """Generator r*v for a ring element r and vertex v."""

    r: object
    v: str


class ScaledBreaking(NamedTuple):
    """Generator r*w^H for a breaking vertex w of the hereditary set H."""

    r: object
    w: str
    H: frozenset


class CyclePoly(NamedTuple):
    """Generator p(c) for a Laurent polynomial p and a cycle c."""

    p: LaurentPoly
    c: CycleClass


def from_generators(ctx: Context, atoms) -> ClassifiedIdeal:
    """The pair classifying the ideal generated by the given atoms.

    A vertex or breaking generator puts its ring ideal at its least pair,
    and the smallest saturated function holding it adds the ideal at the
    members of J below that pair.  The polynomials on each exclusive cycle
    generate one Laurent ideal, whose contraction goes below the cycle's
    closure pair and its coefficient ideal below the exit-closure pair.  A
    cycle's value is that ideal plus the extension of the value at its
    closure pair, and one closure, as in a join, adds its contraction there.
    So each atom and each cycle costs O(|J|) ring operations, plus one
    Laurent ideal per cycle that has polynomials."""
    ring, lat = ctx.ring, ctx.lattice
    jv = [0] * len(ctx.ji)
    polys = {}
    for atom in atoms:
        if isinstance(atom, CyclePoly):
            i = ctx.cycle_position.get(atom.c.label())
            if i is not None:
                polys.setdefault(i, []).append(atom.p)
                continue
            # non-exclusive cycles carry no free data: p(c) generates the same
            # ideal as its coefficient ideal placed on the cycle's vertices
            k = lat.least_star_index([atom.c.base])
            _place(ctx, jv, ctx.ji_below(k), ring.gen_from_elements(atom.p.coefficients()))
            continue
        if isinstance(atom, ScaledVertex):
            if atom.v not in ctx.graph.vertices:
                raise GraphError(f"unknown vertex id {atom.v!r}")
            k = lat.least_star_index([atom.v])
        elif isinstance(atom, ScaledBreaking):
            if atom.w not in breaking_vertices(ctx.graph, atom.H):
                raise ClassificationError(
                    f"{atom.w!r} is not a breaking vertex of {sorted(atom.H)}"
                )
            # the least pair carrying w as a breaking vertex of H
            k = lat.least_star_index([t for t in ctx.graph.out_targets(atom.w) if t in atom.H], atom.w)
        else:
            raise ClassificationError(f"unknown generator {atom!r}")
        _place(ctx, jv, ctx.ji_below(k), ring.gen_from_elements([atom.r]))
    extra = {i: LaurentIdeal.from_polys(ring, ps) for i, ps in polys.items()}
    for i, ip in extra.items():
        _place(ctx, jv, ctx.cycle_ji_below[i], ip.contract().gen)
        _place(ctx, jv, ctx.cycle_exit_ji_below[i], ip.coefficient_ideal().gen)
    g = []
    for i, t in enumerate(ctx.cycle_ji):
        base = LaurentIdeal.extend(RingIdeal(ring, jv[t]))
        g.append(extra[i] + base if i in extra else base)
    g = tuple(g)
    return _pair(ctx, _closed(ctx, jv, g), g)


def atom_pair(ctx: Context, atom) -> ClassifiedIdeal:
    """The classification pair of the ideal generated by a single generator."""
    return from_generators(ctx, [atom])


def to_generators(pair: ClassifiedIdeal) -> list:
    """A generating set for the classified ideal: the generator of each
    member of J with a nonzero value, scaled by it, in J's order, then each
    cycle value's basis.  from_generators puts each at the members of J at
    or below its least pair, the member itself, and a saturated function
    holds its value at a member at every member below, so the values on J
    come back as they were."""
    ctx, ring = pair.ctx, pair.ctx.ring
    atoms = []
    for (w, h), val in zip(ctx.lattice.ji_generators, pair.jv):
        if val != 0:
            r = ring.gen_generator_element(val)
            atoms.append(ScaledVertex(r, w) if h is None else ScaledBreaking(r, w, h))
    for c, gi in zip(ctx.cycles, pair.g):
        for poly in gi.generators():
            atoms.append(CyclePoly(poly, c))
    return atoms


# -- enumeration of the graded lattice ---------------------------------------


def graded_lattice(graph: Graph, ring: RingSpec) -> list[SaturatedFunction]:
    """Every saturated function, for a finite coefficient ring.

    Saturated functions correspond one to one to the order-reversing maps
    from the join-irreducibles to the ideals of R, each extended by
    intersection.  The maps are grown one join-irreducible at a time, in
    star order, which puts every one after those below it, so that a value
    is checked against the values already chosen at the members below it,
    the bits of its strict down-set mask.  A partial map always extends (by
    the zero ideal), so no step holds more maps than the end, and more maps
    than MAX_GRADED_VALUES allows are refused before any table is built.
    """
    ctx = context(graph, ring)
    gens = ring.enumerate_gens()
    ji, below = ctx.ji, ctx.lattice._below
    limit = MAX_GRADED_VALUES // max(1, ctx.size)
    lower = [[a for a in range(k) if below[k] >> a & 1] for k in range(len(ji))]
    maps = [()]
    for k in range(len(ji)):
        maps = [
            m + (v,) for m in maps for v in gens
            if all(ring.gen_contains(m[a], v) for a in lower[k])
        ]
        if len(maps) > limit:
            raise ClassificationError(
                f"cannot enumerate: there are more than {limit} graded ideals, and "
                f"{ctx.size} values each would pass the {MAX_GRADED_VALUES}-value budget"
            )
    out = [_function(ctx, m) for m in maps]
    return sorted(out, key=lambda f: f.vals)


# -- necessary conditions for primeness ---------------------------------------


class PrimeReport:
    def __init__(self, value_failures=None, directed_checks=None, proper=True, passes=True):
        self.value_failures = [] if value_failures is None else value_failures
        self.directed_checks = [] if directed_checks is None else directed_checks  # (gen, complement, ok)
        self.proper, self.passes = proper, passes

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"PrimeReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def verdict(self) -> str:
        if self.passes:
            return "passes necessary conditions (primeness NOT decided)"
        return "fails necessary conditions"

    def lines(self) -> list[str]:
        out = []
        for label, gen in self.value_failures:
            out.append(f"value ({gen}) at {label} is neither prime nor the whole ring")
        for gen, comp, ok in self.directed_checks:
            stat = "is" if ok else "is NOT"
            out.append(
                f"for the value ({gen}) the complement {{{','.join(sorted(comp)) or ''}}} "
                f"{stat} downward directed"
            )
        if not self.proper:
            out.append("the ideal is the whole algebra, so it is not proper")
        out.append(self.verdict)
        return out


def prime_report(pair: ClassifiedIdeal) -> PrimeReport:
    """Necessary conditions for the classified ideal to be prime.

    Only stated for row-finite graphs satisfying condition (K); anything
    else is outside the supported scope and raises.
    """
    ctx = pair.ctx
    if not is_row_finite(ctx.graph):
        raise ClassificationError(
            "prime analysis is out of the supported scope: the graph is not row-finite"
        )
    if ctx.cycles:  # condition (K) holds exactly when no cycle is exclusive
        raise ClassificationError(
            "prime analysis is out of the supported scope: condition (K) fails"
        )
    ring, g, vals = ctx.ring, ctx.graph, pair.f.vals
    # testing every ideal J of R reduces to finitely many: each J behaves
    # like the intersection of the table values containing it, and the law
    # f(p) ∩ f(q) = f(p ∨ q) already closes the values and R under intersection
    probes, size = sorted(set(vals) | {1}), len(g.vertices) + len(g.bundles)
    if len(probes) * size > MAX_PRIME_WORK:
        raise ClassificationError(
            f"cannot check primeness: {len(probes)} distinct values on {size} vertices "
            f"and bundles pass the {MAX_PRIME_WORK} budget"
        )
    report = PrimeReport()
    for label, v in zip(ctx.lattice.star_labels(), vals):
        if v != 1 and not ring.gen_is_prime(v):
            report.value_failures.append((label, v))
    # the pairs whose value holds gen form a down-set closed under joins, so
    # their supremum is the pair whose down-set in J holds the members q
    # with gen in f(q)
    checked = {}
    for gen in probes:
        d = sum([1 << t for t, v in enumerate(pair.jv) if ring.gen_contains(v, gen)])
        if d not in checked:
            h = ctx.lattice.pair_at(d).H
            checked[d] = (g.vertices - h, directed_complement(g, h))
        report.directed_checks.append((gen, *checked[d]))
    # a prime ideal is proper, and the pair holding the unit ideal on all of
    # J is the whole algebra
    report.proper = any(v != 1 for v in pair.jv)
    report.passes = report.proper and not report.value_failures and all(
        ok for _, _, ok in report.directed_checks
    )
    return report
