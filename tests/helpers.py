"""Shared fixtures: a catalog of small graphs and brute-force oracles.

The oracles here recompute expected values along routes independent of the
library's own algorithms: subset enumeration for closures and admissible
pairs, the order, joins and suprema of pairs from their definitions (the
suprema by closing the union of their sets), the pairwise supremum law and
its fixpoint sweep, join, meet and product on full tables, the ideal of
a set of generators as the join of its generators' pairs, the literal
union-over-subsets formula for saturation (element sets over finite rings),
the x-colon by elimination in Z[x]^2, the x-saturation by iterating the
colon until it returns its input, integer row reduction for Laurent
ideal membership, a character-by-character scanner for the statements of
the graph text format, and the cycles of a graph by enumerating every simple
cycle, with exclusivity tested by closing the exits.  The meet of pairs by
its set formula, the classification pair of one generator saturated over the
full table, the JSON document of a classified ideal, the explicit algebra on
its basis of matrix units with the ideal that elements generate, and the
ideals of that algebra seeded at every basis index or at every ring element
serve as references too, as do the generator image of a classified ideal closed
from its scaled vertex elements, the crosscheck that compares one pair at a
time, and the prime report that scans every pair and closes
its values under pairwise intersection and the directedness test that
intersects every two reaches.

The last sections hold conveniences only the tests use: the element
arithmetic of an explicit algebra (symbols, sums, scaling and products),
edge and ghost elements, the forced value of a non-exclusive cycle,
a saturated function from a complete table, and the primality of a ring ideal.
"""

import functools
import itertools
import random
from dataclasses import dataclass

from lpalattice import groebner
from lpalattice import (
    OMEGA,
    AdmissiblePair,
    ClassificationError,
    Bundle,
    CycleClass,
    Graph,
    IntegersMod,
    LaurentIdeal,
    LaurentPoly,
    PrimeField,
    RingIdeal,
    ZZ,
    breaking_vertices,
    cycle_vertex_closure,
    has_condition_k,
    hereditary_closure,
    hereditary_saturated_closure,
    is_row_finite,
)
from lpalattice.cli import ParseFailure
from lpalattice.concrete import (
    MAX_CROSSCHECK_IDEALS,
    CrosscheckReport,
    FinitePathAlgebra,
    OracleError,
    enumerate_concrete_ideals,
)
from lpalattice.graph import _lambda_closure, find_cycle
from lpalattice.ideals import (
    ClassifiedIdeal,
    CyclePoly,
    PrimeReport,
    SaturatedFunction,
    ScaledBreaking,
    ScaledVertex,
    _intersect_below,
    _saturate,
    _table_to_vals,
    graded_lattice,
    to_generators,
)


# -- graph catalog ----------------------------------------------------------


def toeplitz():
    return Graph(["u", "v"], [Bundle("e", "u", "u"), Bundle("f", "u", "v")])


def fork():
    return Graph(["u", "v", "w"], [Bundle("a", "u", "v"), Bundle("b", "u", "w")])


def chain(n):
    verts = [f"v{i}" for i in range(n)]
    bundles = [Bundle(f"e{i}", f"v{i}", f"v{i+1}") for i in range(n - 1)]
    return Graph(verts, bundles)


def single_vertex():
    return Graph(["v"], [])


def isolated(n):
    return Graph([f"v{i}" for i in range(n)], [])


def prime_counterexample():
    # two loops at v plus an edge down to w
    return Graph(
        ["v", "w"],
        [Bundle("e1", "v", "v"), Bundle("e2", "v", "v"), Bundle("f", "v", "w")],
    )


def omega_fork():
    return Graph(
        ["w", "a", "b"], [Bundle("g", "w", "a", OMEGA), Bundle("h", "w", "b")]
    )


def loop_no_exit():
    return Graph(["v"], [Bundle("e", "v", "v")])


def double_loop():
    return Graph(["v"], [Bundle("e", "v", "v", 2)])


def toeplitz_with_sink():
    return Graph(
        ["u", "v", "w"],
        [Bundle("e", "u", "u"), Bundle("f", "u", "v"), Bundle("g", "v", "w")],
    )


def two_cycle():
    return Graph(["a", "b"], [Bundle("e", "a", "b"), Bundle("f", "b", "a")])


def two_cycle_with_exit():
    return Graph(
        ["a", "b", "s"],
        [Bundle("e", "a", "b"), Bundle("f", "b", "a"), Bundle("g", "a", "s")],
    )


def stacked_loops():
    # a loop above a loop: two exclusive cycles, the lower one without exit
    return Graph(
        ["u", "w"],
        [Bundle("e", "u", "u"), Bundle("f", "u", "w"), Bundle("g", "w", "w")],
    )


def star4_graph():
    # loops feeding a shared sink; its pair lattice has 4 nonbottom pairs
    return Graph(
        ["a", "b", "c"],
        [
            Bundle("e", "a", "a"),
            Bundle("f", "c", "b", 2),
            Bundle("g", "c", "c"),
            Bundle("h", "a", "b"),
        ],
    )


def star6_graph():
    # a chain of loops with an infinite bundle; 6 nonbottom pairs
    return Graph(
        ["p", "q", "r", "s"],
        [
            Bundle("e", "r", "q"),
            Bundle("f", "s", "r"),
            Bundle("g", "q", "q"),
            Bundle("h", "r", "r"),
            Bundle("k", "r", "p", OMEGA),
        ],
    )


def two_breakers():
    # a and b each break {u}; the pair {u}|{a,b} sorts before {u}|{b},
    # which lies below it, so star order is not a linear extension
    return Graph(
        ["u", "a", "b", "x"],
        [
            Bundle("e1", "a", "u", OMEGA),
            Bundle("e2", "a", "x"),
            Bundle("e3", "b", "u", OMEGA),
            Bundle("e4", "b", "x"),
        ],
    )


def uneven_breakers():
    # a breaks {u,y} and b breaks {u}: the pair {u,y}|{a,b} is reached in the
    # down-set walk from {u,y}|{b}, which sorts after it
    return Graph(
        ["u", "y", "a", "b", "x"],
        [
            Bundle("e1", "a", "u", OMEGA),
            Bundle("e2", "a", "y", OMEGA),
            Bundle("e3", "a", "x"),
            Bundle("e4", "b", "u", OMEGA),
            Bundle("e5", "b", "x"),
        ],
    )


def law_suite_graphs():
    """Named (graph, ring) instances for the randomized lattice-law suite."""
    z4, z6, f2, f3 = IntegersMod(4), IntegersMod(6), PrimeField(2), PrimeField(3)
    return [
        ("single/Z", single_vertex(), ZZ),
        ("chain2/Z", chain(2), ZZ),
        ("chain3/Z4", chain(3), z4),
        ("fork/Z", fork(), ZZ),
        ("fork/Z6", fork(), z6),
        ("isolated2/Z12", isolated(2), IntegersMod(12)),
        ("toeplitz/Z", toeplitz(), ZZ),
        ("toeplitz-sink/Z", toeplitz_with_sink(), ZZ),
        ("two-cycle/Z", two_cycle(), ZZ),
        ("two-cycle-exit/Z", two_cycle_with_exit(), ZZ),
        ("prime-example/Z", prime_counterexample(), ZZ),
        ("omega-fork/Z4", omega_fork(), z4),
        ("loop/F2", loop_no_exit(), f2),
        ("double-loop/F3", double_loop(), f3),
        ("two-breakers/Z6", two_breakers(), z6),
        ("uneven-breakers/Z", uneven_breakers(), ZZ),
    ]


def random_graph(rng: random.Random, max_v=5, max_b=8, allow_omega=True):
    n = rng.randint(1, max_v)
    verts = [f"v{i}" for i in range(n)]
    bundles = []
    for k in range(rng.randint(0, max_b)):
        mult = rng.choice([1, 1, 1, 1, 2, 3] + ([OMEGA] if allow_omega else []))
        bundles.append(Bundle(f"b{k}", rng.choice(verts), rng.choice(verts), mult))
    return Graph(verts, bundles)


# -- brute-force closure oracle ----------------------------------------------


def naive_saturated_closure(g: Graph, base, absorb=frozenset()):
    """Smallest superset of base that is hereditary, saturated, and absorbs.

    Computed by intersecting every subset of the vertices that satisfies the
    three closure conditions directly; only usable for small graphs.
    """
    verts = sorted(g.vertices)
    best = None
    for bits in range(1 << len(verts)):
        sub = frozenset(v for i, v in enumerate(verts) if bits >> i & 1)
        if not set(base) <= sub:
            continue
        if any(b.target not in sub for v in sub for b in g.out_bundles(v)):
            continue
        closed = True
        for v in g.vertices - sub:
            if (g.is_regular(v) or v in absorb) and g.out_targets(v) <= sub:
                closed = False
                break
        if not closed:
            continue
        best = sub if best is None else best & sub
    return best


# -- admissible pairs from their definition -------------------------------------


def pair_order(p: AdmissiblePair):
    """The order in which a lattice lists its pairs: by (|H|, sorted H, sorted S)."""
    return (len(p.H), tuple(sorted(p.H)), tuple(sorted(p.S)))


def brute_force_pairs(g: Graph):
    """Every admissible pair, sorted by pair_order, found by testing each
    vertex subset for heredity and saturation and each set of its breaking
    vertices, straight from the definitions."""
    verts = sorted(g.vertices)
    out = []
    for bits in range(1 << len(verts)):
        H = frozenset(v for i, v in enumerate(verts) if bits >> i & 1)
        if any(b.target not in H for v in H for b in g.out_bundles(v)):
            continue
        outside = [(v, g.out_bundles(v)) for v in sorted(g.vertices - H)]
        if any(
            bs and not any(b.is_infinite for b in bs) and all(b.target in H for b in bs)
            for v, bs in outside
        ):
            continue
        breaking = [
            v for v, bs in outside
            if any(b.is_infinite for b in bs)
            and all(b.target in H for b in bs if b.is_infinite)
            and any(b.target not in H for b in bs)
        ]
        for n in range(len(breaking) + 1):
            for S in itertools.combinations(breaking, n):
                out.append(AdmissiblePair(H, frozenset(S)))
    return sorted(out, key=pair_order)


def subset_scan_pairs(g: Graph):
    """Every admissible pair, sorted by pair_order, as the closures of all vertex
    subsets together with every set of their breaking vertices."""
    hs_sets = {
        hereditary_saturated_closure(g, k)
        for n in range(len(g.vertices) + 1)
        for k in itertools.combinations(sorted(g.vertices), n)
    }
    out = []
    for H in hs_sets:
        bv = sorted(breaking_vertices(g, H))
        for n in range(len(bv) + 1):
            for s in itertools.combinations(bv, n):
                out.append(AdmissiblePair(H, frozenset(s)))
    return sorted(out, key=pair_order)


def pair_leq(a, b):
    """The order on admissible pairs, from its definition."""
    return a.H <= b.H and a.S <= b.H | b.S


def closure_sup(g: Graph, pairs):
    """The supremum of admissible pairs from its definition: the union of
    their hereditary sets, saturated while absorbing the union of their
    breaking sets, with the absorbed vertices left out of S."""
    pairs = list(pairs)
    h = frozenset().union(*(p.H for p in pairs))
    s = frozenset().union(*(p.S for p in pairs))
    sat = _lambda_closure(g, h, s)
    return AdmissiblePair(sat, s - sat)


def formula_meet(a, b):
    """The meet of two admissible pairs by the set formula: the common
    hereditary set, with the breakers of both and those of either that lie
    in the other's hereditary set or in its own."""
    h = a.H & b.H
    s = (a.S & b.S) | ((a.S | b.S) & (a.H | b.H))
    return AdmissiblePair(h, s)


def brute_force_join_irreducibles(pairs):
    """The pairs with exactly one lower cover, in the given order."""
    out = []
    for p in pairs:
        below = [q for q in pairs if q != p and pair_leq(q, p)]
        covers = [q for q in below if not any(r != q and pair_leq(q, r) for r in below)]
        if len(covers) == 1:
            out.append(p)
    return out


def star_pairs(lat):
    """The star pairs of a lattice, every pair but the bottom, in order."""
    return tuple(lat.pairs)[1:]


def pair_mask(lat, pair):
    """The down-set in J of a pair of lat, as its bit mask (0 for the bottom)."""
    return lat.star_mask(lat.star_index(pair))


def mask_sup(lat, pairs):
    """The supremum of some pairs of lat, read off the union of their masks."""
    d = 0
    for p in pairs:
        d |= pair_mask(lat, p)
    return lat.pair_at(d)


@functools.lru_cache(maxsize=128)
def pair_join_table(star):
    """join[i][j]: the index of the least upper bound of star[i] and star[j]
    among the star pairs, found by comparing every upper bound."""
    n = len(star)
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            ups = [k for k in range(n) if pair_leq(star[i], star[k]) and pair_leq(star[j], star[k])]
            least = [k for k in ups if all(pair_leq(star[k], star[m]) for m in ups)]
            assert len(least) == 1, "the pairs do not form a lattice"
            table[i][j] = table[j][i] = least[0]
    return table


# -- the pairwise supremum law and its fixpoint sweep ----------------------------


def pairwise_law_violations(ctx, vals):
    """Every (i, j) whose join k has vals[k] other than vals[i] meet vals[j]."""
    ring = ctx.ring
    join = pair_join_table(star_pairs(ctx.lattice))
    return [
        (i, j)
        for i in range(len(vals))
        for j in range(i + 1)
        if vals[join[i][j]] != ring.gen_intersect(vals[i], vals[j])
    ]


def saturate_sweep(ctx, vals):
    """Iterate order-reversal and the pairwise supremum law to a fixpoint
    (it terminates by the ascending chain condition)."""
    ring = ctx.ring
    star = star_pairs(ctx.lattice)
    join = pair_join_table(star)
    n = len(vals)
    vals = list(vals)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            vi = vals[i]
            for j in range(n):
                if pair_leq(star[j], star[i]):
                    s = ring.gen_sum(vals[j], vi)
                    if s != vals[j]:
                        vals[j] = s
                        changed = True
        for i in range(n):
            vi = vals[i]
            for j in range(i + 1):
                k = join[i][j]
                m = ring.gen_intersect(vi, vals[j])
                s = ring.gen_sum(vals[k], m)
                if s != vals[k]:
                    vals[k] = s
                    changed = True
    return tuple(vals)


# -- subset-formula saturation oracle (finite rings) ---------------------------


def subset_formula_saturation(ctx, raw):
    """The union-over-all-subsets closure, evaluated on literal element sets.

    First makes the raw table order-reversing, then for each pair unions, over
    every subset of pairs whose supremum is that pair, the intersection of the
    corresponding element sets.  Returns canonical generators, asserting along
    the way that each union really is an ideal.
    """
    ring = ctx.ring
    star = star_pairs(ctx.lattice)
    n = len(star)
    join = pair_join_table(star)
    f0 = list(raw)
    for i in range(n):
        for j in range(n):
            if pair_leq(star[i], star[j]):
                f0[i] = ring.gen_sum(f0[i], raw[j])
    elements = list(ring.elements())
    sets0 = [frozenset(x for x in elements if ring.gen_member(f0[i], x)) for i in range(n)]
    sup_index = {}
    for subset in range(1, 1 << n):
        members = [i for i in range(n) if subset >> i & 1]
        sup = members[0]
        for i in members[1:]:
            sup = join[sup][i]
        sup_index[subset] = sup
    out = []
    for target in range(n):
        union = set()
        for subset, sup in sup_index.items():
            if sup != target:
                continue
            meet = None
            for i in range(n):
                if subset >> i & 1:
                    meet = sets0[i] if meet is None else meet & sets0[i]
            union |= meet
        gen = ring.gen_from_elements(union)
        assert union == {x for x in elements if ring.gen_member(gen, x)}, (
            "union over subsets is not an ideal"
        )
        out.append(gen)
    return tuple(out)


# -- the graph text format ------------------------------------------------------


def scan_statements(text: str):
    """Semicolon-terminated statements with their (line, col) positions, read
    one character at a time: the reference for the library's regex splitter."""
    line, col = 1, 1
    buf = []
    start = None
    in_comment = False
    for ch in text:
        if ch == "\n":
            in_comment = False
        if not in_comment:
            if ch == "#":
                in_comment = True
            elif ch == ";":
                stmt = "".join(buf).strip()
                if stmt:
                    yield stmt, start
                buf, start = [], None
            elif not ch.isspace():
                if start is None:
                    start = (line, col)
                buf.append(ch)
            elif buf:
                buf.append(" ")
        if ch == "\n":
            line, col = line + 1, 1
        else:
            col += 1
    tail = "".join(buf).strip()
    if tail:
        raise ParseFailure(f"line {start[0]}, col {start[1]}: missing ';' after {tail!r}")


def format_graph(g: Graph) -> str:
    """The graph text of g, one statement a line: the inverse of parse_graph."""
    lines = []
    if g.vertices:
        lines.append("vertices " + ",".join(sorted(g.vertices)) + ";")
    for b in g.bundles:
        if b.multiplicity == 1:
            lines.append(f"edge {b.name}: {b.source}->{b.target};")
        else:
            mult = "inf" if b.is_infinite else str(b.multiplicity)
            lines.append(f"bundle {b.name}: {b.source}->{b.target} * {mult};")
    return "\n".join(lines) + "\n"


# -- cycles by enumeration ----------------------------------------------------------


def reference_vertex_cycles(g: Graph):
    """Simple cycles as vertex tuples, least vertex first, by a recursive
    depth-first search over the whole graph from each vertex in turn."""
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

    for start in sorted(g.vertices):
        extend(start, [start], {start})
    return results


def canonical(steps) -> CycleClass:
    steps = tuple(steps)
    best = min(range(len(steps)), key=lambda i: steps[i:] + steps[:i])
    return CycleClass(steps[best:] + steps[:best])


def reference_cycles(g: Graph):
    """Every cycle class, ordered by (length, steps): each vertex cycle with
    every choice of bundle and slot along it, canonically rotated."""
    found = set()
    for vcycle in reference_vertex_cycles(g):
        choices = []
        for v, w in zip(vcycle, vcycle[1:] + vcycle[:1]):
            choices.append([
                (v, b.name, s)
                for b in g.out_bundles(v) if b.target == w
                for s in ([0] if b.is_infinite else range(b.multiplicity))
            ])
        found.update(canonical(combo) for combo in itertools.product(*choices))
    return sorted(found, key=lambda c: (len(c.steps), c.steps))


def reference_exclusive_cycles(g: Graph):
    """The cycles none of whose exits flows back into them: an exit is a
    bundle at a cycle vertex other than the cycle's own, or a slot left over
    on the cycle's own."""
    out = []
    for c in reference_cycles(g):
        own = {v: b for v, b, _ in c.steps}
        exits = {
            b.target for v in own for b in g.out_bundles(v)
            if b.name != own[v] or b.is_infinite or b.multiplicity >= 2
        }
        if hereditary_closure(g, exits).isdisjoint(own):
            out.append(c)
    return out


# -- the worked two-vertex example over the integers ---------------------------


def toeplitz_integer_reference(f_table: dict, g_ideal: LaurentIdeal) -> bool:
    """Decide membership in the known parametrization of the two-vertex
    loop-plus-sink example over the integers.

    A valid pair is given by integers a | b with f({v}) = (a), f(whole) = (b),
    and a cycle ideal of the shape b*Z[x,x^-1] + a*I where the residual I
    contracts into (b/a).
    """
    if g_ideal.ring != ZZ:
        raise OracleError("the reference parametrization is over Z")
    vals = {}
    for key, ideal in f_table.items():
        label = key if isinstance(key, str) else key.label()
        vals[label] = ideal.gen if isinstance(ideal, RingIdeal) else int(ideal)
    a = vals.get("{v}", 0)
    b = vals.get("{u,v}", 0)
    if a == 0:
        return b == 0 and g_ideal.is_zero
    if b % a != 0:
        return False
    if not g_ideal.coefficient_ideal() <= RingIdeal(ZZ, a):
        return False
    if LaurentPoly.constant(ZZ, b) not in g_ideal:
        return False
    residual = divide_exact(g_ideal, a)
    return residual.contract() <= RingIdeal(ZZ, b // a)


def divide_exact(ideal: LaurentIdeal, e: int) -> LaurentIdeal:
    """The colon ideal (I : e) over Z, for a nonzero e that divides every
    coefficient of I: the ideal of I's generators divided by e."""
    polys = []
    for p in ideal.generators():
        if any(c % e for c in p.coefficients()):
            raise OracleError(f"{e} does not divide all coefficients")
        polys.append(LaurentPoly.from_terms(ZZ, [(x, c // e) for x, c in p.terms]))
    return LaurentIdeal.from_polys(ZZ, polys)


# -- the field engine by plain Euclid ---------------------------------------------
# Dense coefficient lists over a field, lowest power first.  The remainders
# are left as they fall, not made monic, so over Q their coefficients swell:
# keep the inputs small.


def _euclid_trim(ring, v):
    v = list(v)
    while v and ring.is_zero(v[-1]):
        v.pop()
    return v


def euclid_divmod(ring, a, b):
    a = _euclid_trim(ring, a)
    b = _euclid_trim(ring, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = ring.inverse(b[-1])
    q = [ring.zero()] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and _euclid_trim(ring, r):
        if ring.is_zero(r[-1]):
            r.pop()
            continue
        k = len(r) - len(b)
        f = ring.mul(r[-1], inv)
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] = ring.sub(r[k + i], ring.mul(f, c))
        r.pop()
    return q, _euclid_trim(ring, r)


def euclid_gcd(ring, a, b):
    a, b = _euclid_trim(ring, a), _euclid_trim(ring, b)
    while b:
        _, r = euclid_divmod(ring, a, b)
        a, b = b, r
    return a


def euclid_mul(ring, a, b):
    out = [ring.zero()] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] = ring.add(out[i + j], ring.mul(c, d))
    return out


def euclid_basis(ring, dense) -> tuple:
    """The canonical basis of the ideal of K[x, x^-1] one polynomial
    generates: x factors stripped and made monic, or () for zero."""
    v = _euclid_trim(ring, dense)
    while v and ring.is_zero(v[0]):
        v.pop(0)
    if not v:
        return ()
    inv = ring.inverse(v[-1])
    return (tuple(ring.mul(c, inv) for c in v),)


def euclid_lcm(ring, a, b):
    if not a or not b:
        return []
    q, _ = euclid_divmod(ring, euclid_mul(ring, a, b), euclid_gcd(ring, a, b))
    return q


# -- the x-colon by elimination -------------------------------------------------


def colon_x_by_elimination(basis):
    """(I : x) for an ideal I of Z[x]: intersect with <x> in Z[x]^2, divide by x."""
    meet = groebner.intersect_dense(basis, ((0, 1),))
    shifted = []
    for f in meet:
        if f and f[0] != 0:
            raise AssertionError("element of I /\\ <x> with nonzero constant term")
        shifted.append(tuple(f[1:]))
    return groebner.gb_dense([s for s in shifted if s])


def saturate_by_colon_fixpoint(gens):
    """The x-saturation of <gens> in Z[x] by taking (I : x) until a colon
    step returns its input, one full basis computation per step."""
    cur = groebner.gb_dense([g for g in gens if any(g)])
    while cur:
        nxt = groebner.colon_x_dense(cur)
        if nxt == cur:
            break
        cur = nxt
    return cur


# -- integer row-reduction membership oracle for Laurent ideals ----------------


class EchelonSpan:
    """The span over Z of integer rows of one width, in row echelon form.

    A row is kept from its first to its last nonzero entry and filed under
    the column of the first.  Column by column, left to right, a Euclidean
    remainder cascade with nearest-integer quotients (smallest leading entry
    first, which avoids the coefficient blowup of single-shot unimodular
    combinations) leaves one pivot row there; every other row moves, from
    its next nonzero entry on, to that column.  A pivot row never changes
    once it is made.
    """

    def __init__(self, rows, width):
        self.width = width
        self.pivots = {}  # column -> the row from its pivot entry on, pivot > 0
        filed = {}
        for row in rows:
            self._file(filed, 0, list(row))
        for c in range(width):
            active = filed.pop(c, None)
            if not active:
                continue
            while len(active) > 1:
                active.sort(key=lambda r: abs(r[0]))
                p = active[0] if active[0][0] > 0 else [-a for a in active[0]]
                nxt = [p]
                for r in active[1:]:
                    r = _minus_multiple(r, (2 * r[0] + p[0]) // (2 * p[0]), p)
                    if r[0]:
                        nxt.append(r)
                    else:
                        self._file(filed, c, r)
                active = nxt
            p = active[0]
            self.pivots[c] = p if p[0] > 0 else [-a for a in p]

    @staticmethod
    def _file(filed, c, row):
        nonzero = [i for i, a in enumerate(row) if a]
        if nonzero:
            filed.setdefault(c + nonzero[0], []).append(row[nonzero[0] : nonzero[-1] + 1])

    def __contains__(self, vec):
        v = list(vec) + [0] * (self.width - len(vec))
        for c in range(self.width):
            if v[c]:
                p = self.pivots.get(c)
                if p is None or v[c] % p[0]:
                    return False
                v[c : c + len(p)] = _minus_multiple(v[c : c + len(p)], v[c] // p[0], p)
        return True


def _minus_multiple(r, q, p):
    """r - q * p for rows that start at the same column."""
    if len(r) < len(p):
        r = r + [0] * (len(p) - len(r))
    return [a - q * b for a, b in zip(r, p)] + r[len(p) :]


class LaurentSpanOracle:
    """Brute-force membership in a Laurent ideal over Z by row reduction.

    Works on the Z-module of shifts x^a * g of the generators up to a
    generous degree window; membership in the Laurent ideal allows an extra
    power of x on the probe.  The span is reduced once.
    """

    def __init__(self, gens, window=30, probe_deg=12):
        self.gens = [g for g in gens if any(g)]
        self.width = max((len(g) for g in self.gens), default=1) + probe_deg + window
        rows = []
        for g in self.gens:
            for shift in range(self.width - len(g) + 1):
                rows.append([0] * shift + list(g))
        self.span = EchelonSpan(rows, self.width)

    def member(self, p, shift_bound=16):
        if not any(p):
            return True
        if not self.gens:
            return False
        for s in range(shift_bound):
            vec = [0] * s + list(p)
            if len(vec) <= self.width and vec in self.span:
                return True
        return False


def laurent_member_bruteforce(p, gens, shift_bound=16, window=30):
    return LaurentSpanOracle(gens, window=window, probe_deg=len(p) + 2).member(
        p, shift_bound
    )


# -- random classification pairs ----------------------------------------------


_Z_GEN_POOL = (0, 0, 1, 2, 3, 4, 6, 12)


def random_poly(ctx, rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = rng.randint(-2, 3)
        coeff = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        terms[exp] = terms.get(exp, 0) + coeff
    return LaurentPoly.from_terms(ctx.ring, terms)


def random_classified(ctx, rng: random.Random) -> ClassifiedIdeal:
    """A pseudorandom valid classification pair for the given context."""
    ring = ctx.ring
    pool = list(ring.enumerate_gens()) if ring.is_finite else list(_Z_GEN_POOL)
    raw = [rng.choice(pool) if rng.random() < 0.6 else 0 for _ in range(ctx.size)]
    extras = {
        i: random_poly(ctx, rng)
        for i in range(len(ctx.cycles))
        if rng.random() < 0.6
    }
    vals = _intersect_below(ctx, _saturate(ctx, raw))
    while True:
        g = []
        for i in range(len(ctx.cycles)):
            base = LaurentIdeal.extend(RingIdeal(ring, vals[ctx.cycle_closure_idx[i]]))
            gi = base
            if i in extras:
                k = ctx.cycle_exit_idx[i]
                mult = (
                    ring.gen_generator_element(vals[k])
                    if k is not None
                    else ring.one()
                )
                if not ring.is_zero(mult):
                    gi = base + LaurentIdeal.from_polys(
                        ring, [extras[i].scale(mult)]
                    )
            g.append(gi)
        grown = list(vals)
        changed = False
        for i, gi in enumerate(g):
            k = ctx.cycle_closure_idx[i]
            s = ring.gen_sum(grown[k], gi.contract().gen)
            if s != grown[k]:
                grown[k] = s
                changed = True
        if not changed:
            break
        vals = _intersect_below(ctx, _saturate(ctx, grown))
    return ClassifiedIdeal(SaturatedFunction(ctx, vals), tuple(g))


# -- full-table references for generators and pair output ---------------------


def dump_ideal(pair: ClassifiedIdeal) -> dict:
    """The JSON document of a classified ideal; the CLI writes it as
    json.dumps(dump_ideal(pair), sort_keys=True, indent=2)."""
    ctx = pair.ctx
    return {
        "ring": str(ctx.ring),
        "f": {label: f"({v})" for label, v in zip(ctx.lattice.star_labels(), pair.f.vals)},
        "g": {c.label(): str(g) for c, g in zip(ctx.cycles, pair.g)},
    }


def saturated_atom_pair(ctx, atom) -> ClassifiedIdeal:
    """The classification pair of one generator over the full table: its
    raw values at its pairs, saturated over every pair and then checked in
    full by SaturatedFunction and ClassifiedIdeal."""
    ring = ctx.ring
    raw = [0] * ctx.size
    extra = {}
    if isinstance(atom, ScaledVertex):
        raw[ctx.lattice.least_star_index([atom.v])] = ring.gen_from_elements([atom.r])
    elif isinstance(atom, ScaledBreaking):
        assert atom.w in breaking_vertices(ctx.graph, atom.H)
        k = ctx.lattice.least_star_index([b.target for b in ctx.graph.out_bundles(atom.w) if b.target in atom.H], atom.w)
        raw[k] = ring.gen_from_elements([atom.r])
    else:
        c = atom.c
        if c not in ctx.cycles:
            coeff = RingIdeal.of(ring, *atom.p.coefficients())
            return saturated_atom_pair(ctx, ScaledVertex(coeff.generator_element(), c.base))
        i = ctx.cycles.index(c)
        ip = LaurentIdeal.from_polys(ring, [atom.p])
        raw[ctx.cycle_closure_idx[i]] = ip.contract().gen
        k = ctx.cycle_exit_idx[i]
        if k is not None:
            raw[k] = ring.gen_sum(raw[k], ip.coefficient_ideal().gen)
        extra[i] = ip
    f = SaturatedFunction(ctx, _intersect_below(ctx, _saturate(ctx, raw)))
    g = []
    for i in range(len(ctx.cycles)):
        base = LaurentIdeal.extend(RingIdeal(ring, f.vals[ctx.cycle_closure_idx[i]]))
        g.append(extra[i] + base if i in extra else base)
    return ClassifiedIdeal(f, g)


def fold_from_generators(ctx, atoms) -> ClassifiedIdeal:
    """The pair of the ideal some generators generate: the bottom joined
    with the full-table pair of each generator in turn."""
    result = ClassifiedIdeal.bottom(ctx)
    for atom in atoms:
        result = result.join(saturated_atom_pair(ctx, atom))
    return result


def random_atoms(ctx, rng: random.Random) -> list:
    """Pseudorandom generators of every kind, in random order: scaled
    vertices, breaking vertices of the pairs' hereditary sets, and up to two
    polynomials on each of the first six cycles."""
    ring, graph = ctx.ring, ctx.graph
    scalars = [ring.normalize(r) for r in (0, 1, 2, 3, 4, 6)]
    atoms = [ScaledVertex(rng.choice(scalars), v) for v in sorted(graph.vertices) if rng.random() < 0.4]
    for h in sorted({p.H for p in ctx.lattice.pairs}, key=sorted):
        atoms += [ScaledBreaking(rng.choice(scalars), w, h)
                  for w in sorted(breaking_vertices(graph, h)) if rng.random() < 0.3]
    for c in reference_cycles(graph)[:6]:
        atoms += [CyclePoly(random_poly(ctx, rng), c) for _ in range(rng.randint(0, 2))]
    rng.shuffle(atoms)
    return atoms


# -- full-table reference for the lattice operations --------------------------


def reference_meet(a: ClassifiedIdeal, b: ClassifiedIdeal):
    """The meet as (table, cycle values): both intersected pointwise."""
    ring = a.ctx.ring
    vals = tuple(ring.gen_intersect(x, y) for x, y in zip(a.f.vals, b.f.vals))
    return vals, tuple(ga.intersect(gb) for ga, gb in zip(a.g, b.g))


def reference_join(a: ClassifiedIdeal, b: ClassifiedIdeal):
    return _reference_saturated(a, b, a.ctx.ring.gen_sum, [ga + gb for ga, gb in zip(a.g, b.g)])


def reference_product(a: ClassifiedIdeal, b: ClassifiedIdeal):
    return _reference_saturated(a, b, a.ctx.ring.gen_product, [ga * gb for ga, gb in zip(a.g, b.g)])


def _reference_saturated(a, b, op, g):
    """op of the two tables on J plus each cycle's contraction at its
    closure pair, saturated over the full table: (table, cycle values)."""
    ctx, ring = a.ctx, a.ctx.ring
    raw = [0] * ctx.size
    for q in ctx.ji:
        raw[q] = op(a.f.vals[q], b.f.vals[q])
    for i, gi in enumerate(g):
        k = ctx.cycle_closure_idx[i]
        raw[k] = ring.gen_sum(raw[k], gi.contract().gen)
    return _intersect_below(ctx, _saturate(ctx, raw)), tuple(g)


def reference_leq(a: ClassifiedIdeal, b: ClassifiedIdeal) -> bool:
    ring = a.ctx.ring
    return all(ring.gen_contains(y, x) for x, y in zip(a.f.vals, b.f.vals)) and all(
        ga <= gb for ga, gb in zip(a.g, b.g)
    )


def acyclic_family(max_v=4, max_e=5):
    """All acyclic bundle graphs up to isomorphism, by vertex count and
    total edge multiplicity."""
    seen = set()
    out = []
    for n in range(1, max_v + 1):
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]

        def counts(idx, left):
            if idx == len(pairs):
                yield ()
                return
            for c in range(left + 1):
                for rest in counts(idx + 1, left - c):
                    yield (c,) + rest

        for combo in counts(0, max_e):
            edges = [(a, b, c) for (a, b), c in zip(pairs, combo) if c]
            key = min(
                tuple(sorted((perm[a], perm[b], c) for a, b, c in edges))
                for perm in itertools.permutations(range(n))
            )
            if (n, key) in seen:
                continue
            seen.add((n, key))
            out.append(
                Graph(
                    [f"v{i}" for i in range(n)],
                    [
                        Bundle(f"b{k}", f"v{a}", f"v{b}", c)
                        for k, (a, b, c) in enumerate(edges)
                    ],
                )
            )
    return out


def matrix_unit_count(g: Graph) -> int:
    """The dimension of the explicit algebra of a finite acyclic graph, the
    sum over the sinks of the squared number of paths ending there, counted
    without listing the paths."""
    counts, ending = {}, {}  # v -> {sink: paths from v to it}; sink -> paths ending at it
    for (v,) in g.components:
        counts[v] = n = {v: 1} if g.is_sink(v) else {}
        for b in g.out_bundles(v):
            for s, k in counts[b.target].items():
                n[s] = n.get(s, 0) + b.multiplicity * k
        for s, k in n.items():
            ending[s] = ending.get(s, 0) + k
    return sum(k * k for k in ending.values())


def random_matrix_unit_graphs(seed: int, count: int, low=0, high=3000) -> list:
    """count random acyclic graphs of at most 6 vertices, each bundle running
    from a vertex to a later one with a multiplicity from 1 to 3, whose
    explicit algebras have more than low and at most high matrix units."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        n = rng.randint(1, 6)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
        g = Graph(
            [f"v{i}" for i in range(n)],
            [Bundle(f"b{k}", f"v{i}", f"v{j}", rng.randint(1, 3)) for k, (i, j) in enumerate(edges)],
        )
        if low < matrix_unit_count(g) <= high:
            out.append(g)
    return out


# -- the explicit algebra on its basis of matrix units -------------------------


@dataclass(frozen=True)
class Path:
    source: str
    edges: tuple  # ((bundle, slot), ...)

    def __len__(self):
        return len(self.edges)


class MatrixUnitAlgebra(FinitePathAlgebra):
    """The explicit algebra of a finite acyclic graph on its basis of matrix
    units, the reference for the block form it extends.

    Elements are sparse dicts basis-index -> nonzero ring element.  The basis
    consists of the pairs of paths that end at one sink, ordered by sink;
    the defining relations reduce every symbol to this form (regular
    vertices are expanded along all outgoing edges).  ``paths_from`` maps
    every path from each vertex to the vertex it ends at, ``index`` maps a
    pair of paths to its basis index, and ``support`` holds, for each vertex
    v, the basis indices of the element v (each entry 1).  Each vertex
    element is built once, on first use, and shared: callers must not
    modify it.
    """

    def __init__(self, graph: Graph, ring):
        super().__init__(graph, ring)
        self.paths_from = {}
        for v in graph.vertices:
            self._collect_paths(v)
        sink_paths = {s: [] for s in self.sinks}
        for paths in self.paths_from.values():
            for p, end in paths.items():
                if end in sink_paths:
                    sink_paths[end].append(p)
        self.basis = []
        for s in self.sinks:
            ends = sorted(sink_paths[s], key=lambda p: (len(p), p.source, p.edges))
            self.basis.extend((s, a, b) for a in ends for b in ends)
        self.index = {(a, b): i for i, (s, a, b) in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.support = {
            v: tuple(self.index[p, p] for p, end in paths.items() if end in sink_paths)
            for v, paths in self.paths_from.items()
        }
        self._vertex_elements = {}

    def _collect_paths(self, v):
        """Every path starting at v, mapped to the vertex it ends at."""
        if v in self.paths_from:
            return self.paths_from[v]
        out = {Path(v, ()): v}
        for b in self.graph.out_bundles(v):
            tails = self._collect_paths(b.target)
            for slot in range(b.multiplicity):
                for t, end in tails.items():
                    out[Path(v, ((b.name, slot),) + t.edges)] = end
        self.paths_from[v] = out
        return out

    def unit(self, i: int, coeff=1) -> dict:
        c = self.ring.normalize(coeff)
        return {i: c} if c else {}

    def vertex_element(self, v: str) -> dict:
        """The vertex v as an element; the dict is shared and read-only."""
        out = self._vertex_elements.get(v)
        if out is None:
            out = self._vertex_elements[v] = dict.fromkeys(self.support[v], self.ring.one())
        return out


def generated_ideal(alg: MatrixUnitAlgebra, elements) -> tuple:
    """Closure of some elements under addition and two-sided multiplication.

    Each sink block of the algebra is a full matrix ring M_n(R), whose
    two-sided ideals are exactly M_n(I) for the ideals I of R: multiplying
    x on both sides by matrix units isolates its single entries
    c * unit(a, d) and moves them to any position of their block.  The
    closure is therefore the tuple of canonical ring-ideal generators of
    the entries of each block, one per sink in ``alg.sinks`` order, 0
    meaning the zero ideal.
    """
    ring = alg.ring
    per_sink = {}
    for x in elements:
        for i, c in x.items():
            s, _, _ = alg.basis[i]
            per_sink[s] = ring.gen_sum(per_sink.get(s, 0), ring.gen_from_elements([c]))
    return tuple(per_sink.get(s, 0) for s in alg.sinks)


def every_index_concrete_ideals(alg):
    """Every two-sided ideal of an explicit algebra, in sorted order, from
    one seed per nonzero ring element and basis index closed under sums."""
    ring = alg.ring
    pool = {generated_ideal(alg, [])}
    for r in ring.elements():
        if not ring.is_zero(r):
            pool.update(generated_ideal(alg, [alg.unit(i, r)]) for i in range(alg.dim))
    while True:
        sums = {tuple(map(ring.gen_sum, a, b)) for a in pool for b in pool}
        if sums <= pool:
            return sorted(pool)
        pool |= sums


def element_seeded_concrete_ideals(alg):
    """Every two-sided ideal of an explicit algebra, in sorted order, from
    one seed per nonzero ring element and sink block, added to the pool one
    seed at a time."""
    ring = alg.ring
    per_block = {s: i for i, (s, _, _) in enumerate(alg.basis)}.values()
    seeds = {
        generated_ideal(alg, [alg.unit(i, r)])
        for r in ring.elements() if not ring.is_zero(r) for i in per_block
    }
    pool = {generated_ideal(alg, [])}
    for seed in seeds:
        pool |= {tuple(map(ring.gen_sum, a, seed)) for a in pool}
    return sorted(pool)


# -- the crosscheck one pair at a time ----------------------------------------


def element_generator_image(alg, pair: ClassifiedIdeal) -> tuple:
    """The ideal of the algebra that the pair's generators generate, closed
    from each generator r*v written out as r times the element v."""
    elements = []
    for atom in to_generators(pair):
        if isinstance(atom, ScaledVertex):
            elements.append(scale(alg, atom.r, alg.vertex_element(atom.v)))
        elif isinstance(atom, (ScaledBreaking, CyclePoly)):
            raise OracleError("acyclic row-finite graphs admit only vertex generators")
    return generated_ideal(alg, elements)


def pairwise_crosscheck(graph: Graph, ring) -> CrosscheckReport:
    """The crosscheck with one comparison per pair of ideals, each read from
    tables of the ring's generator arithmetic over its ideals."""
    alg = MatrixUnitAlgebra(graph, ring)
    gens = ring.enumerate_gens()
    count = len(gens) ** len(alg.sinks)
    if count > MAX_CROSSCHECK_IDEALS:
        raise OracleError(
            f"crosscheck would compare {count} ideals, more than {MAX_CROSSCHECK_IDEALS}"
        )
    every = [(a, b) for a in gens for b in gens]

    def table(op):
        return dict(zip(every, itertools.starmap(op, every))).__getitem__

    pairs = [ClassifiedIdeal.graded(f) for f in graded_lattice(graph, ring)]
    concrete = set(enumerate_concrete_ideals(alg))
    mismatches = []
    image = {p.f.jv: element_generator_image(alg, p) for p in pairs}
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


# -- the prime report by scanning every pair ----------------------------------


def downward_directed(g: Graph, S) -> bool:
    """Whether every two members of S flow to a common member of S."""
    g.check_vertices(S)
    S = set(S)
    reach = {v: hereditary_closure(g, {v}) for v in S}
    return all(S & reach[v] & reach[w] for v in S for w in S)


def prime_report(pair: ClassifiedIdeal) -> PrimeReport:
    """The prime report as first written: the values closed under pairwise
    intersection, each value's supremum taken over every pair whose value
    holds it, and directedness from every two reaches."""
    ctx = pair.ctx
    if not is_row_finite(ctx.graph):
        raise ClassificationError(
            "prime analysis is out of the supported scope: the graph is not row-finite"
        )
    if not has_condition_k(ctx.graph):
        raise ClassificationError(
            "prime analysis is out of the supported scope: condition (K) fails"
        )
    ring, star = ctx.ring, star_pairs(ctx.lattice)
    report = PrimeReport()
    for p, v in zip(star, pair.f.vals):
        if v != 1 and not ring.gen_is_prime(v):
            report.value_failures.append((p.label(), v))
    probes = set(pair.f.vals) | {1}
    while True:
        more = {ring.gen_intersect(a, b) for a in probes for b in probes} - probes
        if not more:
            break
        probes |= more
    for gen in sorted(probes):
        below = [p for p, v in zip(star, pair.f.vals) if ring.gen_contains(v, gen)]
        complement = ctx.graph.vertices - closure_sup(ctx.graph, below).H
        ok = downward_directed(ctx.graph, complement)
        report.directed_checks.append((gen, complement, ok))
    # a prime ideal is proper: the unit ideal at every pair is the whole algebra
    report.proper = any(v != 1 for v in pair.f.vals)
    report.passes = report.proper and not report.value_failures and all(
        ok for _, _, ok in report.directed_checks
    )
    return report


# -- the element arithmetic of an explicit algebra ----------------------------


def add(alg, x: dict, y: dict) -> dict:
    out = dict(x)
    for i, c in y.items():
        s = alg.ring.add(out.get(i, 0), c)
        if alg.ring.is_zero(s):
            out.pop(i, None)
        else:
            out[i] = s
    return out


def scale(alg, r, x: dict) -> dict:
    out = {}
    for i, c in x.items():
        s = alg.ring.mul(r, c)
        if not alg.ring.is_zero(s):
            out[i] = s
    return out


def multiply(alg, x: dict, y: dict) -> dict:
    """Bilinear product; basis symbols multiply as per-sink matrix units."""
    by_left = {}
    for j, c in y.items():
        _, cpath, dpath = alg.basis[j]
        by_left.setdefault(cpath, []).append((dpath, c))
    out = {}
    for i, cx in x.items():
        _, apath, bpath = alg.basis[i]
        for dpath, cy in by_left.get(bpath, ()):
            k = alg.index[(apath, dpath)]
            s = alg.ring.add(out.get(k, 0), alg.ring.mul(cx, cy))
            if alg.ring.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def symbol(alg, alpha: Path, beta: Path) -> dict:
    """The element alpha*beta^rev, expanded onto the sink basis."""
    paths_from = alg.paths_from
    w = paths_from[alpha.source][alpha]
    if w != paths_from[beta.source][beta]:
        raise OracleError("paths must share their endpoint")
    out = {}
    for gamma, s in paths_from[w].items():
        if not alg.graph.is_sink(s):
            continue
        a = Path(alpha.source, alpha.edges + gamma.edges)
        b = Path(beta.source, beta.edges + gamma.edges)
        out[alg.index[(a, b)]] = alg.ring.one()
    return out


# -- conveniences only the tests use -------------------------------------------


def edge_element(alg, bundle: str, slot: int = 0) -> dict:
    b = next(x for x in alg.graph.bundles if x.name == bundle)
    return symbol(alg, Path(b.source, ((bundle, slot),)), Path(b.target, ()))


def ghost_element(alg, bundle: str, slot: int = 0) -> dict:
    b = next(x for x in alg.graph.bundles if x.name == bundle)
    return symbol(alg, Path(b.target, ()), Path(b.source, ((bundle, slot),)))


def cycle_value(pair: ClassifiedIdeal, c: CycleClass) -> LaurentIdeal:
    """The cycle's ideal of R[x, x^-1].

    Only exclusive cycles carry free data; for any other cycle of the graph
    the value is forced: the extension of the value at the cycle's vertex
    closure.
    """
    ctx = pair.ctx
    if c in ctx.cycles:
        return pair.g[ctx.cycles.index(c)]
    assert find_cycle(ctx.graph, c.label()) == c
    top = AdmissiblePair(cycle_vertex_closure(ctx.graph, c), frozenset())
    return LaurentIdeal.extend(pair.f.value(top))


def from_table(ctx, table) -> SaturatedFunction:
    """The saturated function with the given values, which must obey the law."""
    return SaturatedFunction(ctx, _table_to_vals(ctx, table))


def is_basic(f: SaturatedFunction) -> bool:
    return all(v in (0, 1) for v in f.vals)


def is_prime(ideal: RingIdeal) -> bool:
    return not ideal.is_unit and ideal.ring.gen_is_prime(ideal.gen)
