import itertools
import random
import time

import pytest

from lpalattice import (
    OMEGA,
    ZZ,
    AdmissiblePair,
    Bundle,
    Graph,
    GraphError,
    breaking_vertices,
    context,
    cycle_vertex_closure,
    cycles,
    exclusive_cycles,
    exit_closure,
    has_condition_k,
    hereditary_closure,
    hereditary_saturated_closure,
    is_row_finite,
    pair_lattice,
    saturated_closure,
)
from lpalattice.graph import (
    MAX_GRAPH_SIZE,
    MAX_PAIRS,
    PairLattice,
    _vertex_cycles,
    covering_pairs,
    directed_complement,
    find_cycle,
    is_hereditary,
)

import helpers


def fs(*xs):
    return frozenset(xs)


class TestHereditaryClosure:
    def test_toeplitz_sink_stays_put(self):
        g = helpers.toeplitz()
        assert hereditary_closure(g, {"v"}) == fs("v")

    def test_toeplitz_source_pulls_in_sink(self):
        g = helpers.toeplitz()
        assert hereditary_closure(g, {"u"}) == fs("u", "v")

    def test_empty_seed(self):
        assert hereditary_closure(helpers.fork(), set()) == frozenset()

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            hereditary_closure(helpers.fork(), {"zz"})


class TestSaturation:
    def test_fork_saturation_reaches_everything(self):
        g = helpers.fork()
        assert saturated_closure(g, fs("v", "w")) == fs("u", "v", "w")

    def test_already_saturated_fixpoint(self):
        g = helpers.fork()
        h = fs("v")
        assert saturated_closure(g, h) == h

    def test_chain_saturation(self):
        g = helpers.chain(2)
        # independent oracle: smallest set satisfying the closure conditions
        expected = helpers.naive_saturated_closure(g, fs("v1"))
        assert expected == fs("v0", "v1")
        assert saturated_closure(g, fs("v1")) == expected

    def test_requires_hereditary(self):
        with pytest.raises(GraphError):
            saturated_closure(helpers.toeplitz(), fs("u"))

    def test_absorb_out_of_range(self):
        g = helpers.omega_fork()
        with pytest.raises(GraphError):
            saturated_closure(g, fs("a"), fs("a", "b"))

    def test_absorbing_an_infinite_emitter(self):
        g = helpers.omega_fork()
        assert saturated_closure(g, fs("a", "b"), fs()) == fs("a", "b")
        # w itself is only swallowed with S = {w} once all its targets are in
        lat = pair_lattice(g)
        a, b = AdmissiblePair(fs("a"), fs("w")), AdmissiblePair(fs("b"), fs())
        joined = helpers.mask_sup(lat, [a, b])
        assert joined == helpers.closure_sup(g, [a, b]) == AdmissiblePair(fs("a", "b", "w"), fs())


class TestBreakingVertices:
    def test_omega_fork_examples(self):
        g = helpers.omega_fork()
        assert breaking_vertices(g, fs("a")) == fs("w")
        assert breaking_vertices(g, fs("a", "b")) == frozenset()
        assert breaking_vertices(g, frozenset()) == frozenset()

    def test_a_float_inf_bundle_reads_as_omega(self):
        g = Graph(["w", "a", "b"], [Bundle("g", "w", "a", float("inf")), Bundle("h", "w", "b")])
        assert g == helpers.omega_fork()
        assert g.bundles[0].is_infinite and not g.bundles[1].is_infinite
        assert g.escape_count("w", fs()) == g.escape_count("w", fs("b")) == OMEGA
        assert g.escape_count("w", fs("a")) == 1
        assert g.escape_count("w", fs("a", "b")) == 0
        assert breaking_vertices(g, fs("a")) == fs("w")
        assert breaking_vertices(g, fs("a", "b")) == breaking_vertices(g, fs()) == frozenset()

    def test_a_multiplicity_past_the_floats_beside_an_infinite_bundle(self):
        big = 10**400
        g = Graph(["w", "a", "b"], [Bundle("g", "w", "a", OMEGA), Bundle("h", "w", "b", big)])
        assert g.escape_count("w", fs()) == OMEGA
        assert g.escape_count("w", fs("a")) == big
        assert breaking_vertices(g, fs("a")) == fs("w")
        assert breaking_vertices(g, fs()) == frozenset()

    def test_row_finite_graphs_have_none(self):
        rng = random.Random(7)
        for _ in range(25):
            g = helpers.random_graph(rng, allow_omega=False)
            lat = pair_lattice(g)
            for p in lat.pairs:
                assert breaking_vertices(g, p.H) == frozenset()


class TestPairLattice:
    def test_toeplitz_has_exactly_three(self):
        lat = pair_lattice(helpers.toeplitz())
        assert [p.label() for p in lat.pairs] == ["{}", "{v}", "{u,v}"]

    def test_two_vertex_chain(self):
        lat = pair_lattice(helpers.chain(2))
        assert [p.label() for p in lat.pairs] == ["{}", "{v0,v1}"]

    def test_single_vertex(self):
        lat = pair_lattice(helpers.single_vertex())
        assert [p.label() for p in lat.pairs] == ["{}", "{v}"]

    def test_fork_sup_is_top(self):
        g = helpers.fork()
        lat = pair_lattice(g)
        a = AdmissiblePair(fs("v"), fs())
        b = AdmissiblePair(fs("w"), fs())
        top = AdmissiblePair(g.vertices, fs())
        assert helpers.mask_sup(lat, [a, b]) == helpers.closure_sup(g, [a, b]) == top
        assert helpers.pair_mask(lat, top) == (1 << len(lat.star_join_irreducibles())) - 1

    def test_sup_trivialities(self):
        g = helpers.omega_fork()
        lat = pair_lattice(g)
        bottom, top = AdmissiblePair(fs(), fs()), AdmissiblePair(g.vertices, fs())
        assert helpers.mask_sup(lat, []) == helpers.closure_sup(g, []) == bottom
        for p in lat.pairs:
            assert helpers.mask_sup(lat, [p]) == p
        chain_pairs = [p for p in lat.pairs if helpers.pair_leq(p, top)]
        assert helpers.mask_sup(lat, chain_pairs) == helpers.closure_sup(g, chain_pairs) == top

    def test_sup_equals_folded_join(self):
        # the union of masks is the supremum by closure, of all the pairs
        # at once and folded two at a time
        rng = random.Random(3)
        for _ in range(20):
            g = helpers.random_graph(rng, max_v=4, max_b=6)
            lat = pair_lattice(g)
            pairs = [rng.choice(lat.pairs) for _ in range(rng.randint(1, 4))]
            folded = pairs[0]
            for p in pairs[1:]:
                folded = helpers.closure_sup(g, [folded, p])
            assert helpers.mask_sup(lat, pairs) == helpers.closure_sup(g, pairs) == folded

    def test_lattice_axioms_and_distributivity(self):
        # the masks are closed under & and |, which are the set formula's
        # meet and the closure supremum, subset is the order of the pairs,
        # and those set-level operations obey the lattice laws
        rng = random.Random(11)
        checked = 0
        while checked < 12:
            g = helpers.random_graph(rng, max_v=4, max_b=6)
            lat = pair_lattice(g)
            if len(lat) > 32:
                continue
            checked += 1
            ps = list(lat.pairs)
            mask = {p: helpers.pair_mask(lat, p) for p in ps}
            meet, join = helpers.formula_meet, lambda a, b: helpers.closure_sup(g, [a, b])
            for a in ps:
                assert meet(a, a) == a and join(a, a) == a
                for b in ps:
                    assert lat.pair_at(mask[a] & mask[b]) == meet(a, b) == meet(b, a)
                    assert lat.pair_at(mask[a] | mask[b]) == join(a, b) == join(b, a)
                    assert join(a, meet(a, b)) == a
                    assert meet(a, join(a, b)) == a
                    assert helpers.pair_leq(a, b) == (mask[a] & mask[b] == mask[a]) == (join(a, b) == b)
            for a in ps:
                for b in ps:
                    for c in ps:
                        left = meet(a, join(b, c))
                        right = join(meet(a, b), meet(a, c))
                        assert left == right

    def test_meet_on_masks_matches_the_set_formula(self):
        # the meet intersects down-sets of J; the reference is the set
        # formula, on every two pairs of each lattice
        rng = random.Random(29)
        graphs = [helpers.random_graph(rng, max_v=7, max_b=9) for _ in range(420)]
        graphs += [g for _, g, _ in helpers.law_suite_graphs()]
        for g in graphs:
            lat = pair_lattice(g)
            ps = list(lat.pairs)
            masks = [helpers.pair_mask(lat, p) for p in ps]
            for a, ma in zip(ps, masks):
                for b, mb in zip(ps, masks):
                    assert lat.pair_at(ma & mb) == helpers.formula_meet(a, b), g

    def test_down_sets_of_join_irreducibles_give_every_pair(self):
        # the pairs built from J equal both the closures of all vertex
        # subsets and the pairs found from the definitions; J equals the
        # pairs with exactly one lower cover
        rng = random.Random(29)
        with_omega = 0
        for _ in range(420):
            g = helpers.random_graph(rng, max_v=7, max_b=9)
            with_omega += not is_row_finite(g)
            lat = pair_lattice(g)
            expected = helpers.brute_force_pairs(g)
            assert list(lat.pairs) == expected == helpers.subset_scan_pairs(g), g
            ji = [expected[i + 1] for i in lat.star_join_irreducibles()]
            assert ji == helpers.brute_force_join_irreducibles(expected), g
        assert with_omega >= 100

    def test_order_holds_for_any_vertex_names(self):
        # names that sort before "," or are prefixes of one another: S is
        # ordered as a sorted list of names, not as the label that joins them
        names = ["a", "a!", "a b", "a,b", "ab", "b", "\u00e9", "", "0"]
        rng = random.Random(59)
        # four emitters breaking {s}: {s}|{a,b} comes before {s}|{a!}
        emitters = ["a", "b", "a!", "a b"]
        graphs = [Graph(["s", "t", *emitters], [
            Bundle(f"{e}{k}", w, t, m) for k, w in enumerate(emitters) for e, t, m in [("i", "s", OMEGA), ("f", "t", 1)]
        ])]
        for _ in range(300):
            g = helpers.random_graph(rng, max_v=6, max_b=9)
            name = dict(zip(sorted(g.vertices), rng.sample(names, len(g.vertices))))
            graphs.append(Graph(name.values(), [b._replace(source=name[b.source], target=name[b.target]) for b in g.bundles]))
        for g in graphs:
            lat = pair_lattice(g)
            assert list(lat.pairs) == helpers.brute_force_pairs(g), g
            assert list(lat.star_labels()) == [p.label() for p in helpers.star_pairs(lat)], g

    def test_down_set_tree_joins_one_join_irreducible_to_an_earlier_pair(self):
        # every entry is its parent joined with one member of J, named by its
        # position in J, each pair appears once, and parents come first in
        # walk order though not always in star order
        rng = random.Random(37)
        graphs = [helpers.two_breakers(), helpers.uneven_breakers()]
        graphs += [helpers.random_graph(rng, max_v=6, max_b=8) for _ in range(120)]
        for g in graphs:
            lat = pair_lattice(g)
            star = helpers.star_pairs(lat)
            ji = lat.star_join_irreducibles()
            seen = set()
            for i, parent, t in zip(*lat.down_set_tree):
                assert 0 <= t < len(ji) and i not in seen, g
                base = AdmissiblePair(fs(), fs()) if parent is None else star[parent]
                assert parent is None or parent in seen, g
                assert helpers.closure_sup(g, [base, star[ji[t]]]) == star[i] != base, g
                seen.add(i)
            assert seen == set(range(len(star))), g

    def test_masks_agree_with_the_sets(self):
        # labels, order, covers and suprema, read off the down-set masks,
        # equal what the pairs' sets and their closures give
        rng = random.Random(29)
        graphs = [helpers.random_graph(rng, max_v=7, max_b=9) for _ in range(420)]
        graphs += [helpers.two_breakers(), helpers.uneven_breakers()]
        for g in graphs:
            lat = pair_lattice(g)
            ps = list(lat.pairs)
            assert list(lat.star_labels()) == [p.label() for p in ps[1:]], g
            masks = [helpers.pair_mask(lat, p) for p in ps]
            leq = [[helpers.pair_leq(a, b) for b in ps] for a in ps]
            assert [[ma & mb == ma for mb in masks] for ma in masks] == leq, g
            assert lat.hasse_edges() == covering_pairs(len(ps), lambda i, j: leq[i][j]), g
            for _ in range(8):
                chosen = rng.sample(ps, rng.randint(0, min(4, len(ps))))
                assert helpers.mask_sup(lat, chosen) == helpers.closure_sup(g, chosen), g

    def test_star_order_is_not_a_linear_extension(self):
        lat = pair_lattice(helpers.two_breakers())
        labels = list(lat.star_labels())
        below, above = AdmissiblePair.parse("{u}|{b}"), AdmissiblePair.parse("{u}|{a,b}")
        m = helpers.pair_mask(lat, below)
        assert helpers.pair_leq(below, above) and helpers.pair_mask(lat, above) & m == m
        assert labels.index("{u}|{a,b}") < labels.index("{u}|{b}")
        lat = pair_lattice(helpers.uneven_breakers())
        assert any(p is not None and p > i for i, p, _ in zip(*lat.down_set_tree))

    def test_hasse_edges_are_the_covers_in_row_major_order(self):
        rng = random.Random(31)
        for _ in range(60):
            lat = pair_lattice(helpers.random_graph(rng, max_v=5, max_b=7))
            ps = list(lat.pairs)
            expected = [
                (i, j)
                for i, a in enumerate(ps)
                for j, b in enumerate(ps)
                if a != b
                and helpers.pair_leq(a, b)
                and not any(
                    c not in (a, b) and helpers.pair_leq(a, c) and helpers.pair_leq(c, b)
                    for c in ps
                )
            ]
            assert lat.hasse_edges() == expected

    def test_graph_size_budget(self):
        # a chain of n vertices has n - 1 bundles and two pairs
        assert len(pair_lattice(helpers.chain(MAX_GRAPH_SIZE // 2))) == 2
        with pytest.raises(GraphError, match=f"more than {MAX_GRAPH_SIZE} vertices and bundles"):
            PairLattice(helpers.chain(MAX_GRAPH_SIZE // 2 + 1))

    def test_pair_budget(self):
        # isolated(16) has exactly MAX_PAIRS pairs; one more vertex doubles it
        started = time.perf_counter()
        try:
            assert len(context(helpers.isolated(16), ZZ).lattice) == MAX_PAIRS
            assert time.perf_counter() - started < 20.0
        finally:
            context.cache_clear()
            pair_lattice.cache_clear()
        started = time.perf_counter()
        with pytest.raises(GraphError):
            context(helpers.isolated(17), ZZ)
        assert time.perf_counter() - started < 2.0

    @pytest.mark.parametrize("k", [14, 15])
    def test_pair_budget_with_more_than_16_join_irreducibles(self, k):
        # k isolated vertices beside a chain of loops a -> b -> c have 2^k * 4
        # pairs and k + 3 join-irreducibles, and only k + 1 sinks: the pairs
        # are counted before they are built, and 2^16 of them are allowed
        g = Graph(
            [f"v{i}" for i in range(k)] + ["a", "b", "c"],
            [Bundle("e", "a", "a"), Bundle("f", "a", "b"), Bundle("g", "b", "b"), Bundle("h", "b", "c")],
        )
        started = time.perf_counter()
        if k == 14:
            assert len(PairLattice(g)) == MAX_PAIRS
        else:
            with pytest.raises(GraphError, match=f"more than {MAX_PAIRS} pairs"):
                PairLattice(g)
            assert time.perf_counter() - started < 2.0


class TestClosureOperators:
    def test_monotone_idempotent_extensive(self):
        rng = random.Random(5)
        for _ in range(40):
            g = helpers.random_graph(rng)
            verts = sorted(g.vertices)
            k1 = frozenset(v for v in verts if rng.random() < 0.4)
            k2 = k1 | frozenset(v for v in verts if rng.random() < 0.3)
            for close in (hereditary_closure, hereditary_saturated_closure):
                c1, c2 = close(g, k1), close(g, k2)
                assert k1 <= c1
                assert c1 <= c2
                assert close(g, c1) == c1

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(13)
        for _ in range(60):
            g = helpers.random_graph(rng, max_v=5, max_b=8)
            seed = frozenset(v for v in g.vertices if rng.random() < 0.4)
            h = hereditary_closure(g, seed)
            expected = helpers.naive_saturated_closure(g, h)
            assert hereditary_saturated_closure(g, seed) == expected
            for s in _subsets(breaking_vertices(g, h), rng):
                assert saturated_closure(g, h, s) == helpers.naive_saturated_closure(g, h, s)

    def test_saturation_observations(self):
        # infinite emitters that appear must come from the base or absorb set;
        # cycle vertices that appear must come from the base
        rng = random.Random(17)
        for _ in range(60):
            g = helpers.random_graph(rng, max_v=5, max_b=8)
            h = hereditary_closure(g, frozenset(v for v in g.vertices if rng.random() < 0.4))
            s = next(_subsets(breaking_vertices(g, h), rng))
            result = saturated_closure(g, h, s)
            on_cycle = set().union(*(c.vertices() for c in cycles(g))) if cycles(g) else set()
            for v in result:
                if g.is_infinite_emitter(v):
                    assert v in h | s
                if v in on_cycle:
                    assert v in h


def _subsets(vertices, rng):
    vertices = sorted(vertices)
    yield frozenset(v for v in vertices if rng.random() < 0.5)


class TestCycles:
    def test_toeplitz_single_exclusive_cycle(self):
        g = helpers.toeplitz()
        assert [c.label() for c in cycles(g)] == ["e.0"]
        assert [c.label() for c in exclusive_cycles(g)] == ["e.0"]

    def test_double_loop_not_exclusive(self):
        g = helpers.prime_counterexample()
        assert len(cycles(g)) == 2
        assert exclusive_cycles(g) == []
        assert has_condition_k(g)

    def test_acyclic(self):
        g = helpers.fork()
        assert cycles(g) == [] and exclusive_cycles(g) == []

    def test_parallel_multiplicity_gives_two_cycles(self):
        g = helpers.double_loop()
        assert len(cycles(g)) == 2
        assert exclusive_cycles(g) == []

    def test_two_cycle_rotation_is_one_class(self):
        g = helpers.two_cycle()
        assert len(cycles(g)) == 1
        assert cycles(g)[0].label() == "e.0-f.0"

    def test_exit_closure_toeplitz(self):
        g = helpers.toeplitz()
        c = cycles(g)[0]
        assert exit_closure(g, c) == fs("v")
        assert cycle_vertex_closure(g, c) == fs("u", "v")

    def test_exit_closure_empty_without_exits(self):
        g = helpers.loop_no_exit()
        assert exit_closure(g, cycles(g)[0]) == frozenset()

    def test_exit_closure_double_loop_contains_base(self):
        g = helpers.prime_counterexample()
        for c in cycles(g):
            down = exit_closure(g, c)
            assert down == cycle_vertex_closure(g, c)
            assert c.base in down

    def test_exclusive_iff_exits_stay_out(self):
        # c is exclusive exactly when its exit closure differs from its
        # vertex closure
        rng = random.Random(23)
        for _ in range(60):
            g = helpers.random_graph(rng, max_v=5, max_b=7)
            exclusive = set(exclusive_cycles(g))
            for c in cycles(g):
                same = exit_closure(g, c) == cycle_vertex_closure(g, c)
                assert (c in exclusive) == (not same)

    def test_find_cycle_by_label(self):
        g = helpers.two_cycle_with_exit()
        assert find_cycle(g, "e.0-f.0") == cycles(g)[0]
        with pytest.raises(GraphError):
            find_cycle(g, "f.0-e.0")

    def test_cycle_not_in_graph(self):
        g1, g2 = helpers.toeplitz(), helpers.fork()
        with pytest.raises(GraphError):
            exit_closure(g2, cycles(g1)[0])

    @pytest.mark.parametrize(
        "label",
        [
            "f.0-e.0",  # a rotation that starts past the least vertex
            "x.0",  # no such bundle
            "e.0-g.0-h.2", "e.0-g.0-h.3",  # slots at and past the multiplicity
            "k.1",  # an infinite bundle has slot 0 only
            "m.01", "m.-1", "m.", ".0", "", "m.\u0663",  # not canonical decimals
            "e.0-h.0",  # c does not follow b
            "e.0-g.0",  # c does not return to a
            "e.0-f.0-e.0-f.0",  # a and b twice
        ],
    )
    def test_malformed_labels_name_no_cycle(self, label):
        g = Graph(["a", "b", "c"], [
            Bundle("e", "a", "b"), Bundle("f", "b", "a"), Bundle("g", "b", "c"),
            Bundle("h", "c", "a", 2), Bundle("k", "a", "a", OMEGA), Bundle("m", "a", "a", 12),
        ])
        for s in ["e.0-g.0-h.1", "k.0", "m.11"]:
            assert find_cycle(g, s).label() == s
        with pytest.raises(GraphError, match="no cycle labelled"):
            find_cycle(g, label)


def _named_graphs():
    """Every graph of the catalog in tests/helpers.py."""
    return [
        helpers.toeplitz(), helpers.fork(), helpers.chain(1), helpers.chain(4),
        helpers.single_vertex(), helpers.isolated(3), helpers.prime_counterexample(),
        helpers.omega_fork(), helpers.loop_no_exit(), helpers.double_loop(),
        helpers.toeplitz_with_sink(), helpers.two_cycle(), helpers.two_cycle_with_exit(),
        helpers.stacked_loops(), helpers.star4_graph(), helpers.star6_graph(),
        helpers.two_breakers(), helpers.uneven_breakers(),
    ]


class TestCyclesMatchTheEnumeration:
    """exclusive_cycles reads the strongly connected components, and the
    cycle search walks one component at a time without recursion; both give
    what enumerating every simple cycle gives, in the same order and with
    the same labels."""

    def _check(self, g) -> bool:
        assert _vertex_cycles(g) == helpers.reference_vertex_cycles(g)
        want = helpers.reference_cycles(g)
        assert [c.label() for c in cycles(g)] == [c.label() for c in want]
        assert cycles(g) == want
        for c in want:
            assert find_cycle(g, c.label()) == c
        exclusive = helpers.reference_exclusive_cycles(g)
        assert [c.label() for c in exclusive_cycles(g)] == [c.label() for c in exclusive]
        assert exclusive_cycles(g) == exclusive
        return bool(exclusive)

    def test_catalog_graphs(self):
        graphs = [g for _, g, _ in helpers.law_suite_graphs()] + _named_graphs()
        assert sum(map(self._check, graphs)) == 13

    def test_acyclic_family(self):
        for g in helpers.acyclic_family():
            assert not self._check(g)
            assert cycles(g) == []

    def test_random_graphs(self):
        rng = random.Random(14)
        with_exclusive = 0
        for _ in range(3000):
            with_exclusive += self._check(helpers.random_graph(rng, max_v=6, max_b=8))
        assert with_exclusive == 701

    def test_context_reads_the_cycle_closures_off_the_lattice(self):
        # the closure and exit-closure pairs of each exclusive cycle equal
        # the hs-closures of its vertices and of its exits
        rng = random.Random(15)
        graphs = [g for _, g, _ in helpers.law_suite_graphs()] + _named_graphs()
        graphs += [helpers.random_graph(rng, max_v=6, max_b=8) for _ in range(400)]
        for g in graphs:
            ctx = context(g, ZZ)
            assert ctx.cycles == tuple(exclusive_cycles(g))
            for c, k, e in zip(ctx.cycles, ctx.cycle_closure_idx, ctx.cycle_exit_idx):
                assert ctx.cycles[ctx.cycle_position[c.label()]] is c
                assert ctx.lattice.pair_at(ctx.lattice.star_mask(k)) == AdmissiblePair(cycle_vertex_closure(g, c), frozenset())
                down = exit_closure(g, c)
                assert (e is None) == (not down)
                if down:
                    assert ctx.lattice.pair_at(ctx.lattice.star_mask(e)) == AdmissiblePair(down, frozenset())


class TestGlobalConditions:
    def test_downward_directed_examples(self):
        g = helpers.prime_counterexample()
        assert helpers.downward_directed(g, fs("v", "w"))
        assert not helpers.downward_directed(helpers.fork(), fs("v", "w"))
        assert helpers.downward_directed(helpers.fork(), fs("v"))
        assert helpers.downward_directed(g, frozenset())
        assert directed_complement(g, frozenset()) and not directed_complement(helpers.fork(), frozenset())

    def test_directed_complement_matches_the_pairwise_reaches(self):
        # every hereditary set, the hereditary saturated ones among them
        rng = random.Random(41)
        graphs = [g for _, g, _ in helpers.law_suite_graphs()]
        graphs += [helpers.random_graph(rng, max_v=6, max_b=9) for _ in range(400)]
        seen = set()
        for g in graphs:
            vs = sorted(g.vertices)
            for h in (frozenset(c) for r in range(len(vs) + 1) for c in itertools.combinations(vs, r)):
                if is_hereditary(g, h):
                    directed = directed_complement(g, h)
                    assert directed == helpers.downward_directed(g, g.vertices - h), (g, h)
                    seen.add((directed, h in {p.H for p in pair_lattice(g).pairs}))
        assert seen == {(True, True), (False, True), (True, False), (False, False)}

    def test_row_finite(self):
        assert is_row_finite(helpers.toeplitz())
        assert not is_row_finite(helpers.omega_fork())

    def test_condition_k(self):
        assert not has_condition_k(helpers.toeplitz())
        assert has_condition_k(helpers.fork())
        assert has_condition_k(helpers.prime_counterexample())


class TestGraphValidation:
    def test_duplicate_bundle_id(self):
        with pytest.raises(GraphError):
            Graph(["u"], [Bundle("e", "u", "u"), Bundle("e", "u", "u")])

    def test_unknown_endpoint(self):
        with pytest.raises(GraphError):
            Graph(["u"], [Bundle("e", "u", "x")])

    def test_bad_multiplicity(self):
        with pytest.raises(GraphError):
            Graph(["u"], [Bundle("e", "u", "u", 0)])

    def test_infinite_emitter_classification(self):
        g = helpers.omega_fork()
        assert g.is_infinite_emitter("w")
        assert not g.is_regular("w")
        assert g.is_sink("a")
        assert helpers.toeplitz().is_regular("u")
