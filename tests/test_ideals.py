import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpalattice import (
    OMEGA,
    QQ,
    ZZ,
    AdmissiblePair,
    Bundle,
    ClassificationError,
    Context,
    CyclePoly,
    ClassifiedIdeal,
    Graph,
    GraphError,
    IntegersMod,
    LaurentIdeal,
    PairLattice,
    PrimeField,
    RingIdeal,
    ScaledBreaking,
    ScaledVertex,
    SaturatedFunction,
    breaking_vertices,
    context,
    cycles,
    from_generators,
    graded_lattice,
    has_condition_k,
    hereditary_closure,
    is_row_finite,
    parse_poly,
    parse_ring,
    prime_report,
    saturate_function,
    to_generators,
    validate_tables,
)
from lpalattice import ideals
from lpalattice.cli import load_ideal_tables
from lpalattice.ideals import MAX_PRIME_WORK, _intersect_below, _law_violations, _saturate, atom_pair, pair_json

import helpers


def fs(*xs):
    return frozenset(xs)


def revalidated(pair: ClassifiedIdeal) -> ClassifiedIdeal:
    """Push a pair back through the public validating constructors."""
    f = SaturatedFunction(pair.ctx, pair.f.vals)
    return ClassifiedIdeal(f, pair.g)


class TestSaturateFunction:
    def test_fork_sum_needs_saturation(self):
        ctx = context(helpers.fork(), ZZ)
        f = saturate_function(
            ctx,
            {"{v}": RingIdeal(ZZ, 1), "{w}": RingIdeal(ZZ, 1), "{u,v,w}": RingIdeal(ZZ, 0)},
        )
        assert f.value(AdmissiblePair(fs("u", "v", "w"), fs())) == RingIdeal(ZZ, 1)

    def test_the_bottom_pair_has_no_value(self):
        # star index -1 stands for the bottom; it must not read the top's value
        ctx = context(helpers.fork(), ZZ)
        f = saturate_function(ctx, {"{u,v,w}": RingIdeal(ZZ, 2)})
        bottom = AdmissiblePair(fs(), fs())
        assert ctx.lattice.star_index(bottom) == -1
        with pytest.raises(ClassificationError, match="^the bottom pair carries no value$"):
            f.value(bottom)
        with pytest.raises(ClassificationError, match="^the bottom pair carries no value$"):
            saturate_function(ctx, {bottom: RingIdeal(ZZ, 2)})
        with pytest.raises(GraphError, match=r"^\{u\} is not an admissible pair of this graph$"):
            f.value(AdmissiblePair(fs("u"), fs()))

    def test_already_saturated_unchanged(self):
        ctx = context(helpers.toeplitz(), ZZ)
        table = {"{v}": RingIdeal(ZZ, 2), "{u,v}": RingIdeal(ZZ, 4)}
        f = saturate_function(ctx, table)
        assert f.vals == (2, 4)

    def test_division_chain_is_valid(self):
        ctx = context(helpers.toeplitz(), ZZ)
        helpers.from_table(
            ctx, {"{v}": RingIdeal(ZZ, 3), "{u,v}": RingIdeal(ZZ, 12)}
        )
        with pytest.raises(ClassificationError):
            helpers.from_table(
                ctx, {"{v}": RingIdeal(ZZ, 4), "{u,v}": RingIdeal(ZZ, 2)}
            )

    def test_closed_form_matches_sweep(self):
        rng = random.Random(61)
        instances = [
            (helpers.fork(), ZZ),
            (helpers.toeplitz(), IntegersMod(12)),
            (helpers.omega_fork(), IntegersMod(4)),
            (helpers.isolated(3), IntegersMod(6)),
            (helpers.toeplitz_with_sink(), ZZ),
            (helpers.two_breakers(), IntegersMod(6)),
            (helpers.uneven_breakers(), ZZ),
        ]
        for graph, ring in instances:
            ctx = context(graph, ring)
            pool = list(ring.enumerate_gens()) if ring.is_finite else [0, 1, 2, 3, 4, 6, 12]
            for _ in range(80):
                raw = [rng.choice(pool) for _ in range(ctx.size)]
                assert _intersect_below(ctx, _saturate(ctx, raw)) == helpers.saturate_sweep(ctx, raw)

    def test_builds_no_table_and_matches_sweep(self):
        # the function is carried by its values on J; its table, read on
        # demand, is the sweep saturation of the raw table
        rng = random.Random(73)
        graphs = [graph for _, graph, _ in helpers.law_suite_graphs()]
        graphs += [helpers.random_graph(rng, max_v=6, max_b=8) for _ in range(40)]
        for graph in graphs:
            for ring in (ZZ, IntegersMod(12), PrimeField(7), QQ):
                ctx = context(graph, ring)
                pool = list(ring.enumerate_gens()) if ring.is_finite else [0, 1, 2, 3, 4, 6, 12]
                for _ in range(3):
                    raw = [ring.gen_normalize(rng.choice(pool)) if rng.random() < 0.4 else 0 for _ in range(ctx.size)]
                    f = saturate_function(ctx, dict(zip(ctx.lattice.star_labels(), raw)))
                    assert "vals" not in f.__dict__, (graph, ring)
                    assert f.vals == helpers.saturate_sweep(ctx, raw), (graph, ring, raw)

    def test_matches_subset_formula(self):
        rng = random.Random(67)
        for graph in (helpers.fork(), helpers.toeplitz(), helpers.chain(3)):
            for ring in (IntegersMod(4), IntegersMod(12)):
                ctx = context(graph, ring)
                pool = list(ring.enumerate_gens())
                for _ in range(40):
                    raw = [rng.choice(pool) for _ in range(ctx.size)]
                    assert _intersect_below(ctx, _saturate(ctx, raw)) == helpers.subset_formula_saturation(ctx, raw)

    def test_cycle_closure_values_survive_saturation(self):
        # saturating an order-reversing table never changes the value at the
        # vertex-closure pair of a cycle
        rng = random.Random(71)
        for graph in (helpers.toeplitz(), helpers.two_cycle_with_exit(), helpers.prime_counterexample()):
            ctx = context(graph, ZZ)
            star = helpers.star_pairs(ctx.lattice)
            for _ in range(50):
                raw = [rng.choice([0, 1, 2, 3, 4, 6, 12]) for _ in range(ctx.size)]
                # make it order-reversing first
                rev = list(raw)
                for i in range(len(rev)):
                    for j in range(len(rev)):
                        if helpers.pair_leq(star[i], star[j]):
                            rev[i] = ZZ.gen_sum(rev[i], raw[j])
                sat = _intersect_below(ctx, _saturate(ctx, rev))
                for c in cycles(graph):
                    from lpalattice import cycle_vertex_closure

                    k = ctx.lattice.star_index(
                        AdmissiblePair(cycle_vertex_closure(graph, c), fs())
                    )
                    assert sat[k] == rev[k]


class TestLawCheck:
    def test_join_irreducible_check_matches_pairwise_oracle(self):
        # random raw tables are mostly invalid, their saturations valid
        rng = random.Random(59)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            pool = list(ring.enumerate_gens()) if ring.is_finite else [0, 1, 2, 3, 4, 6, 12]
            seen = {True: 0, False: 0}
            for _ in range(60):
                raw = tuple(ring.gen_normalize(rng.choice(pool)) for _ in range(ctx.size))
                for vals in (raw, _intersect_below(ctx, _saturate(ctx, raw))):
                    valid = not helpers.pairwise_law_violations(ctx, vals)
                    assert (not _law_violations(ctx, vals)) == valid, (name, vals)
                    seen[valid] += 1
            assert seen[True] > 0, name
            if ctx.size > 1:
                assert seen[False] > 0, name

    def test_violation_message(self):
        ctx = context(helpers.toeplitz(), ZZ)
        with pytest.raises(ClassificationError) as err:
            SaturatedFunction(ctx, (4, 2))
        assert (
            "value (2) at {u,v} is not the intersection (4) of the values at the "
            "join-irreducible pairs below it"
        ) in str(err.value)


class TestValidation:
    def test_toeplitz_worked_instance(self):
        ctx = context(helpers.toeplitz(), ZZ)
        result = validate_tables(
            ctx,
            {"{v}": RingIdeal(ZZ, 2), "{u,v}": RingIdeal(ZZ, 4)},
            {"e.0": LaurentIdeal.parse(ZZ, "<4, 2x+2>")},
        )
        assert isinstance(result, ClassifiedIdeal)

    def test_graded_baseline_always_valid(self):
        rng = random.Random(73)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            pair = helpers.random_classified(ctx, rng)
            assert isinstance(
                validate_tables(
                    ctx,
                    dict(zip(ctx.lattice.star_labels(), map(lambda v: RingIdeal(ring, v), pair.f.vals))),
                    {
                        c.label(): LaurentIdeal.extend(RingIdeal(ring, pair.f.vals[ctx.cycle_closure_idx[i]]))
                        for i, c in enumerate(ctx.cycles)
                    },
                ),
                ClassifiedIdeal,
            ), name

    def test_contraction_mismatch_rejected(self):
        ctx = context(helpers.toeplitz(), ZZ)
        report = validate_tables(
            ctx,
            {"{v}": RingIdeal(ZZ, 2), "{u,v}": RingIdeal(ZZ, 4)},
            {"e.0": LaurentIdeal.unit(ZZ)},
        )
        assert isinstance(report, list) and any("contraction" in line for line in report)

    def test_coefficient_escape_rejected(self):
        ctx = context(helpers.toeplitz(), ZZ)
        report = validate_tables(
            ctx,
            {"{v}": RingIdeal(ZZ, 4), "{u,v}": RingIdeal(ZZ, 4)},
            {"e.0": LaurentIdeal.parse(ZZ, "<4, 2x + 2>")},
        )
        assert isinstance(report, list) and any("coefficient" in line for line in report)

    def test_missing_cycle_value_rejected(self):
        ctx = context(helpers.toeplitz(), ZZ)
        report = validate_tables(ctx, {"{v}": RingIdeal(ZZ, 1), "{u,v}": RingIdeal(ZZ, 1)}, {})
        assert isinstance(report, list)

    def test_a_value_over_another_ring_is_reported(self):
        ctx = context(helpers.toeplitz(), ZZ)
        report = validate_tables(
            ctx, {"{v}": RingIdeal(IntegersMod(12), 2)}, {"e.0": LaurentIdeal.unit(ZZ)}
        )
        assert report == ["value for {v} lives in Z/12, not Z"]

    def test_a_short_or_mistyped_cycle_table_is_refused(self):
        f = ClassifiedIdeal.top(context(helpers.toeplitz(), ZZ)).f
        with pytest.raises(ClassificationError, match="^cycle table covers 0 cycles, expected 1$"):
            ClassifiedIdeal(f, ())
        with pytest.raises(ClassificationError, match=r"^value at cycle e\.0 is not an ideal of Z\[x,x\^-1\]$"):
            ClassifiedIdeal(f, (RingIdeal(ZZ, 1),))


class TestLatticeOps:
    def test_trivial_identities(self):
        rng = random.Random(79)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            top, bottom = ClassifiedIdeal.top(ctx), ClassifiedIdeal.bottom(ctx)
            p = helpers.random_classified(ctx, rng)
            assert p.meet(p) == p and p.join(p) == p, name
            assert p.meet(top) == p and p.join(bottom) == p, name
            assert p.product(top) == p, name
            assert p.join(top) == top and p.meet(bottom) == bottom, name
            assert bottom.leq(p) and p.leq(top), name

    def test_ops_produce_valid_pairs(self):
        rng = random.Random(83)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            a = helpers.random_classified(ctx, rng)
            b = helpers.random_classified(ctx, rng)
            for result in (a.meet(b), a.join(b), a.product(b)):
                assert revalidated(result) == result, name

    def test_product_commutes_and_is_below_meet(self):
        rng = random.Random(89)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            for _ in range(5):
                a = helpers.random_classified(ctx, rng)
                b = helpers.random_classified(ctx, rng)
                assert a.product(b) == b.product(a), name
                assert a.product(b).leq(a.meet(b)), name

    def test_join_of_graded_is_graded(self):
        rng = random.Random(97)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            a = helpers.random_classified(ctx, rng).largest_graded()
            b = helpers.random_classified(ctx, rng).largest_graded()
            assert a.join(b).is_graded(), name

    def test_ops_on_join_irreducibles_match_the_full_tables(self):
        # join, meet and product act on the values at J; the reference acts
        # on the full tables, saturating join and product over every pair.
        # A result equals, and hashes as, the same pair validated from its
        # full table
        rng = random.Random(29)
        graphs = [helpers.random_graph(rng, max_v=7, max_b=9) for _ in range(420)]
        graphs += [helpers.toeplitz(), helpers.two_cycle_with_exit(), helpers.stacked_loops()]
        ops = (
            (ClassifiedIdeal.join, helpers.reference_join),
            (ClassifiedIdeal.meet, helpers.reference_meet),
            (ClassifiedIdeal.product, helpers.reference_product),
        )
        pick = random.Random(101)
        cyclic = 0
        for graph in graphs:
            for ring in (ZZ, IntegersMod(12), PrimeField(2)):
                ctx = context(graph, ring)
                cyclic += bool(ctx.cycles)
                ideals = [helpers.random_classified(ctx, pick) for _ in range(2)]
                ideals.append(ClassifiedIdeal.bottom(ctx))
                for a in ideals:
                    for b in ideals:
                        assert a.leq(b) == helpers.reference_leq(a, b), graph
                        for op, reference in ops:
                            got = op(a, b)
                            vals, g = reference(a, b)
                            full = ClassifiedIdeal(SaturatedFunction(ctx, vals), g)
                            assert got == full and hash(got) == hash(full), graph
                            assert got.f == full.f and hash(got.f) == hash(full.f), graph
                            assert got.f.vals == vals and got.g == g, graph
        assert cyclic >= 300

    def test_pairs_compare_by_graph_ring_and_values(self):
        ctx = context(helpers.toeplitz(), ZZ)
        bottom, top = ClassifiedIdeal.bottom(ctx), ClassifiedIdeal.top(ctx)
        assert bottom != top and bottom.f != top.f and bottom.f != bottom
        # equal graphs and rings in two contexts built apart: equal pairs
        other = Context(helpers.toeplitz(), ZZ)
        assert other is not ctx
        for a, b in ((top, ClassifiedIdeal.top(other)), (bottom, ClassifiedIdeal.bottom(other))):
            assert a == b and hash(a) == hash(b)
            assert a.f == b.f and hash(a.f) == hash(b.f)
        # the same values over another ring: unequal
        z12 = ClassifiedIdeal.bottom(context(helpers.toeplitz(), IntegersMod(12)))
        assert z12.f.jv == bottom.f.jv
        assert z12.f != bottom.f and z12 != bottom

    def test_memoised_generator_arithmetic_matches_the_ring(self):
        # the bounded caches a context carries answer as the ring's methods, on
        # every pair of generators of the finite rings and of sampled ones
        # over Z
        rng = random.Random(59)
        cases = [(IntegersMod(n), IntegersMod(n).enumerate_gens()) for n in [*range(2, 65), 720]]
        cases += [(PrimeField(2), [0, 1]), (PrimeField(7), [0, 1]), (QQ, [0, 1])]
        cases.append((ZZ, [0, 1] + [rng.randrange(1, 10**rng.randint(1, 30)) for _ in range(40)]))
        for ring, gens in cases:
            ctx = Context(helpers.fork(), ring)
            # the contexts of equal rings share one memo
            assert Context(helpers.chain(2), parse_ring(str(ring))).gen_sum is ctx.gen_sum
            for name in ("gen_sum", "gen_intersect", "gen_product", "gen_contains"):
                memo, plain = getattr(ctx, name), getattr(ring, name)
                assert 0 < memo.cache_info().maxsize < float("inf")
                for a in gens:
                    for b in gens:
                        # a miss, then a hit
                        assert memo(a, b) == plain(a, b) == memo(a, b), (ring, name, a, b)

    def test_mismatched_contexts_rejected(self):
        a = ClassifiedIdeal.top(context(helpers.fork(), ZZ))
        b = ClassifiedIdeal.top(context(helpers.fork(), QQ))
        for op in (ClassifiedIdeal.meet, ClassifiedIdeal.join, ClassifiedIdeal.product, ClassifiedIdeal.leq):
            with pytest.raises(ClassificationError, match="^mismatched graph/ring context$"):
                op(a, b)


class TestGrading:
    def test_graded_iff_largest_graded_fixpoint(self):
        rng = random.Random(101)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            for _ in range(6):
                p = helpers.random_classified(ctx, rng)
                lg = p.largest_graded()
                assert lg.leq(p) and lg.is_graded(), name
                assert p.is_graded() == (p == lg), name

    @pytest.mark.parametrize("ring", [ZZ, IntegersMod(12), PrimeField(7), QQ], ids=str)
    def test_graded_pairs_pass_the_validating_constructor(self, ring):
        # graded builds its pair unchecked; the cycle values it chooses meet
        # both cycle constraints on random graphs with exclusive cycles
        rng = random.Random(131)
        cyclic = 0
        while cyclic < 150:
            ctx = context(helpers.random_graph(rng, max_v=6, max_b=6), ring)
            if ctx.cycles:
                cyclic += 1
                p = ClassifiedIdeal.graded(helpers.random_classified(ctx, rng).f)
                assert ClassifiedIdeal(p.f, p.g) == p, ctx.graph
                assert revalidated(p) == p, ctx.graph

    def test_non_exclusive_cycle_value_is_derived(self):
        ctx = context(helpers.prime_counterexample(), ZZ)
        pair = ClassifiedIdeal.graded(
            saturate_function(ctx, {"{w}": RingIdeal(ZZ, 2), "{v,w}": RingIdeal(ZZ, 6)})
        )
        c = cycles(ctx.graph)[0]
        assert c not in ctx.cycles
        assert helpers.cycle_value(pair, c) == LaurentIdeal.extend(RingIdeal(ZZ, 6))

    def test_toeplitz_nongraded_example(self):
        ctx = context(helpers.toeplitz(), ZZ)
        p = validate_tables(
            ctx,
            {"{v}": RingIdeal(ZZ, 2), "{u,v}": RingIdeal(ZZ, 4)},
            {"e.0": LaurentIdeal.parse(ZZ, "<4, 2x+2>")},
        )
        assert not p.is_graded()
        assert helpers.cycle_value(p.largest_graded(), ctx.cycles[0]) == LaurentIdeal.parse(ZZ, "<4>")


class TestGradedLattice:
    def test_chain_over_z4(self):
        fns = graded_lattice(helpers.chain(2), IntegersMod(4))
        assert len(fns) == 3

    def test_toeplitz_over_f2(self):
        fns = graded_lattice(helpers.toeplitz(), PrimeField(2))
        assert len(fns) == 3

    def test_counts_match_exhaustive_filter(self):
        import itertools

        instances = [
            (helpers.chain(2), IntegersMod(4)),
            (helpers.toeplitz(), PrimeField(2)),
            (helpers.fork(), IntegersMod(4)),
            (helpers.single_vertex(), IntegersMod(12)),
            (helpers.isolated(2), IntegersMod(6)),
            (helpers.chain(3), IntegersMod(4)),
        ]
        for graph, ring in instances:
            ctx = context(graph, ring)
            gens = ring.enumerate_gens()
            expected = 0
            for combo in itertools.product(gens, repeat=ctx.size):
                if not helpers.pairwise_law_violations(ctx, combo):
                    expected += 1
            assert len(graded_lattice(graph, ring)) == expected

    @pytest.mark.parametrize("ring", [IntegersMod(4), IntegersMod(6)], ids=str)
    def test_a_chain_of_four_loops_lists_every_law_abiding_table(self, ring):
        # J is a chain of four here, longer than any in the counts above
        import itertools

        names = ["a", "b", "c", "d"]
        graph = Graph(
            names,
            [Bundle(f"l{v}", v, v) for v in names]
            + [Bundle(f"e{v}", v, w) for v, w in zip(names, names[1:])],
        )
        ctx = context(graph, ring)
        assert len(ctx.ji) == ctx.size == 4
        expected = [
            combo for combo in itertools.product(sorted(ring.enumerate_gens()), repeat=ctx.size)
            if not helpers.pairwise_law_violations(ctx, combo)
        ]
        assert [f.vals for f in graded_lattice(graph, ring)] == expected

    def test_basic_sublattice_is_the_pair_lattice(self):
        # functions valued in {0, R} mirror the admissible pairs, whatever R is
        for graph in (helpers.toeplitz(), helpers.fork(), helpers.omega_fork()):
            for ring in (PrimeField(2), IntegersMod(6)):
                ctx = context(graph, ring)
                unit = ring.gen_normalize(1)
                basic = [f for f in graded_lattice(graph, ring) if helpers.is_basic(f)]
                assert len(basic) == len(ctx.lattice.pairs)
                tops = {}
                for f in basic:
                    above = [p for p, v in zip(helpers.star_pairs(ctx.lattice), f.vals) if v == unit]
                    tops[f] = helpers.closure_sup(graph, above)
                assert set(tops.values()) == set(ctx.lattice.pairs)
                for f in basic:
                    for g in basic:
                        f_le_g = all(
                            ring.gen_contains(y, x) for x, y in zip(f.vals, g.vals)
                        )
                        assert f_le_g == helpers.pair_leq(tops[f], tops[g])

    def test_refuses_infinite_rings(self):
        from lpalattice import RingError

        with pytest.raises(RingError):
            graded_lattice(helpers.fork(), ZZ)


class TestGenerators:
    def test_all_vertices_generate_top(self):
        for name, graph, ring in helpers.law_suite_graphs()[:6]:
            ctx = context(graph, ring)
            atoms = [ScaledVertex(ring.one(), v) for v in graph.vertices]
            assert from_generators(ctx, atoms) == ClassifiedIdeal.top(ctx), name

    def test_scaled_vertex_on_toeplitz(self):
        ctx = context(helpers.toeplitz(), ZZ)
        p = from_generators(ctx, [ScaledVertex(2, "v")])
        assert p.f.vals == (2, 0)
        assert p.g[0].is_zero

    def test_bottom_emits_nothing(self):
        for name, graph, ring in helpers.law_suite_graphs()[:6]:
            ctx = context(graph, ring)
            assert to_generators(ClassifiedIdeal.bottom(ctx)) == [], name

    def test_basic_graded_pair_emits_unit_vertices(self):
        ctx = context(helpers.omega_fork(), ZZ)
        target = AdmissiblePair(fs("a"), fs("w"))
        raw = {target: RingIdeal(ZZ, 1)}
        f = saturate_function(ctx, raw)
        pair = ClassifiedIdeal.graded(f)
        atoms = to_generators(pair)
        vertex_atoms = {a.v for a in atoms if isinstance(a, ScaledVertex)}
        breaking_atoms = [a for a in atoms if isinstance(a, ScaledBreaking)]
        assert vertex_atoms == {"a"}
        assert len(breaking_atoms) == 1 and breaking_atoms[0].w == "w"
        assert breaking_atoms[0].r == 1
        # the recorded hereditary set leaves the same escaping edges
        g = ctx.graph
        escape = {
            b.name for b in g.out_bundles("w") if b.target not in breaking_atoms[0].H
        }
        assert escape == {"h"}

    def test_cycle_poly_without_exits_matches_field_triple(self):
        # a loop with no exit over a field: the ideal of p(c) has zero
        # vertex data and the principal cycle ideal
        ctx = context(helpers.loop_no_exit(), QQ)
        p = parse_poly(QQ, "1 + x")
        pair = from_generators(ctx, [CyclePoly(p, ctx.cycles[0])])
        assert all(v == 0 for v in pair.f.vals)
        assert pair.g[0] == LaurentIdeal.from_polys(QQ, [p])

    def test_cycle_poly_on_non_exclusive_cycle_rewrites(self):
        ctx = context(helpers.prime_counterexample(), ZZ)
        c = cycles(ctx.graph)[0]
        assert c not in ctx.cycles
        pair = from_generators(ctx, [CyclePoly(parse_poly(ZZ, "2 + 4x"), c)])
        same = from_generators(ctx, [ScaledVertex(2, "v")])
        assert pair == same

    @pytest.mark.parametrize(
        "bundles, H",
        [
            # w breaks no hereditary saturated set: {a} saturates to {a,c}
            ([("i", "w", "a", OMEGA), ("j", "w", "c", 1), ("k", "c", "a", 1)], fs("a", "d")),
            # w breaks {a}, but the saturation {a,b,c} of its targets in H absorbs w
            (
                [("i", "w", "a", OMEGA), ("j", "w", "b", 1), ("k", "w", "c", 1),
                 ("l", "c", "a", 1), ("m", "c", "b", 1)],
                fs("a", "b"),
            ),
        ],
    )
    def test_breaking_generator_whose_escapes_saturate(self, bundles, H):
        # every edge of w escaping the hereditary (unsaturated) set H ends
        # in the saturation of w's targets in H, so 2*w^H generates 2*w
        g = Graph(["w", "a", "b", "c", "d"], [Bundle(*b) for b in bundles])
        ctx = context(g, ZZ)
        pair = from_generators(ctx, [ScaledBreaking(2, "w", H)])
        assert pair == from_generators(ctx, [ScaledVertex(2, "w")])

    def test_round_trip_randomized(self):
        rng = random.Random(103)
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            for _ in range(6):
                p = helpers.random_classified(ctx, rng)
                atoms = to_generators(p)
                assert from_generators(ctx, atoms) == p, name
                # one vertex or breaking generator per member of J with a nonzero value
                on_j = [a for a in atoms if isinstance(a, (ScaledVertex, ScaledBreaking))]
                assert len(on_j) == sum(v != 0 for v in p.f.jv), name

    def test_atoms_on_join_irreducibles_match_the_saturated_tables(self):
        # each kind of generator: the values on J equal those of the raw
        # table saturated over every pair and checked in full
        rng = random.Random(107)
        seen = set()
        for name, graph, ring in helpers.law_suite_graphs():
            ctx = context(graph, ring)
            verts = sorted(graph.vertices)
            atoms = [ScaledVertex(ring.normalize(r), v) for v in verts for r in (1, 2, 3)]
            sets = {frozenset()} | {hereditary_closure(graph, {v}) for v in verts}
            sets |= {p.H for p in ctx.lattice.pairs}
            for h in sorted(sets, key=sorted):
                atoms += [ScaledBreaking(ring.normalize(2), w, h)
                          for w in sorted(breaking_vertices(graph, h))]
            atoms += [CyclePoly(helpers.random_poly(ctx, rng), c) for c in cycles(graph)]
            for atom in atoms:
                got, want = atom_pair(ctx, atom), helpers.saturated_atom_pair(ctx, atom)
                assert got.f.jv == want.f.jv and got.g == want.g, (name, atom)
                assert got.f.vals == want.f.vals and got == want, (name, atom)
                exclusive = isinstance(atom, CyclePoly) and atom.c in ctx.cycles
                seen.add((type(atom).__name__, exclusive))
        assert seen == {
            ("ScaledVertex", False), ("ScaledBreaking", False),
            ("CyclePoly", True), ("CyclePoly", False),
        }

    def test_one_pass_matches_the_fold(self):
        # from_generators places every atom on J at once and closes once; the
        # reference joins the full-table pair of each atom in turn.  The one
        # closure reads each cycle's value at its closure pair, a member of J
        rng = random.Random(113)
        graphs = [graph for _, graph, _ in helpers.law_suite_graphs()]
        graphs += [helpers.random_graph(rng, max_v=6, max_b=6) for _ in range(150)]
        cyclic = 0
        for graph in graphs:
            for ring in (ZZ, IntegersMod(12), PrimeField(7), QQ):
                ctx = context(graph, ring)
                assert set(ctx.cycle_closure_idx) <= set(ctx.ji), graph
                cyclic += bool(ctx.cycles)
                sets = [helpers.random_atoms(ctx, rng) for _ in range(2)]
                for c in helpers.reference_cycles(graph)[:1]:
                    # 2 on the cycle's base and x + 2 on the cycle generate x, a
                    # unit, so the closure puts R at the cycle's closure pair
                    two = ScaledVertex(ring.normalize(2), c.base)
                    sets.append([two, CyclePoly(parse_poly(ring, "x + 2"), c)])
                for atoms in sets:
                    got = from_generators(ctx, atoms)
                    assert got == helpers.fold_from_generators(ctx, atoms), (graph, ring, atoms)
                    assert revalidated(got) == got, (graph, ring, atoms)
                assert from_generators(ctx, []) == ClassifiedIdeal.bottom(ctx), graph
        assert cyclic >= 150

    def test_each_cycle_names_its_closure_pair_by_position_in_j(self):
        rng = random.Random(127)
        checked = 0
        for _ in range(300):
            ctx = context(helpers.random_graph(rng, max_v=6, max_b=6), ZZ)
            for i, t in enumerate(ctx.cycle_ji):
                assert ctx.ji[t] == ctx.cycle_closure_idx[i], ctx.graph
                checked += 1
        assert checked > 30

    def test_cycle_generators_cost_linear_time(self):
        # a 200-vertex chain with a loop at every vertex and x - 2 on every
        # loop; joining one atom at a time took seconds.  The coefficient
        # ideal of x - 2, all of Z, lies below each loop's exit closure, which
        # holds every later loop, so only the first loop keeps x - 2
        n = 200
        graph = Graph(
            [f"v{i}" for i in range(n)],
            [Bundle(f"l{i}", f"v{i}", f"v{i}") for i in range(n)]
            + [Bundle(f"e{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)],
        )
        ctx = context(graph, ZZ)
        p = parse_poly(ZZ, "x - 2")
        start = time.perf_counter()
        pair = from_generators(ctx, [CyclePoly(p, c) for c in ctx.cycles])
        assert time.perf_counter() - start < 0.5
        first = ctx.cycle_position["l0.0"]
        assert pair.g[first] == LaurentIdeal.from_polys(ZZ, [p])
        assert all(g == LaurentIdeal.unit(ZZ) for i, g in enumerate(pair.g) if i != first)

    def test_work_stays_on_join_irreducibles(self, monkeypatch):
        # 10 isolated vertices, a loop with an exit and an infinite fork:
        # 2^10 * 3 * 6 pairs.  Building the ideal takes no table over the
        # pairs; writing it takes one
        fork = helpers.omega_fork()
        graph = Graph(
            [f"a{i}" for i in range(10)] + ["u", "v"] + sorted(fork.vertices),
            [Bundle("e", "u", "u"), Bundle("f", "u", "v"), *fork.bundles],
        )
        ctx = context(graph, ZZ)
        assert len(ctx.lattice) == 18432 and len(ctx.cycles) == 1
        atoms = [
            ScaledVertex(2, "a3"), ScaledVertex(3, "v"), ScaledBreaking(2, "w", fs("a")),
            CyclePoly(parse_poly(ZZ, "x - 2"), ctx.cycles[0]),
        ]
        calls = []
        for name in ("_intersect_below", "_saturate"):
            real = getattr(ideals, name)
            monkeypatch.setattr(
                ideals, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        pair = from_generators(ctx, atoms)
        assert calls == []
        text = pair_json(pair)
        assert calls == ["_intersect_below"]
        assert json.loads(text) == helpers.dump_ideal(pair)
        assert to_generators(pair) and calls == ["_intersect_below"]

    def test_requests_stay_on_masks_and_labels(self, monkeypatch):
        # a breaking vertex, an exclusive cycle with an exit and isolated
        # vertices: building, reading, writing and listing ideals, their
        # generators and their prime report read a pair off its mask only
        # for a complement that prime checks, and a label spelt other than
        # canonically costs one read, never all
        reads = []
        real = PairLattice.pair_at
        monkeypatch.setattr(PairLattice, "pair_at", lambda self, d: reads.append(d) or real(self, d))
        fork = helpers.omega_fork()
        graph = Graph(
            ["a0", "a1", "u", "v"] + sorted(fork.vertices),
            [Bundle("e", "u", "u"), Bundle("f", "u", "v"), *fork.bundles],
        )
        ctx = context(graph, IntegersMod(6))
        lat = ctx.lattice
        assert lat.breaker_masks and len(ctx.cycles) == 1
        atoms = [
            ScaledVertex(2, "a1"), ScaledBreaking(3, "w", fs("a")),
            CyclePoly(parse_poly(IntegersMod(6), "x - 2"), ctx.cycles[0]),
        ]
        pair = from_generators(ctx, atoms)
        vals, rest, g_table = load_ideal_tables(ctx, pair_json(pair))
        assert validate_tables(ctx, rest, g_table, vals) == pair
        assert to_generators(pair) and graded_lattice(graph, PrimeField(2))
        with pytest.raises(ClassificationError, match="not row-finite"):
            prime_report(pair)
        row_finite = context(Graph(["a0", "a1", "v"], [Bundle("f", "v", "a0")]), ZZ)
        report = prime_report(from_generators(row_finite, [ScaledVertex(2, "a1")]))
        assert report.lines()
        iso = context(helpers.isolated(15), ZZ)
        pair = from_generators(iso, [ScaledVertex(2, "v0")])
        text = pair_json(pair)
        assert '"{v0}"' in text
        vals, rest, g_table = load_ideal_tables(iso, text.replace('"{v0}"', '"{ v0 }"'))
        assert rest and validate_tables(iso, rest, g_table, vals) == pair
        n = len(reads)
        checked = {frozenset(h) for _, h, _ in report.directed_checks}
        assert n <= len(checked) + len(rest)

    def test_generator_validity_errors(self):
        ctx = context(helpers.toeplitz(), ZZ)
        with pytest.raises(ClassificationError):
            from_generators(ctx, [ScaledBreaking(1, "u", frozenset())])
        # an unknown vertex in H is named, as saturated_closure names it
        ctx = context(helpers.two_breakers(), ZZ)
        with pytest.raises(GraphError, match=r"^unknown vertex id\(s\) \['zz'\]$"):
            from_generators(ctx, [ScaledBreaking(2, "a", fs("zz"))])
        with pytest.raises(GraphError, match="^unknown vertex id 'zz'$"):
            from_generators(ctx, [ScaledVertex(2, "zz")])
        with pytest.raises(ClassificationError, match="^unknown generator 5$"):
            from_generators(ctx, [5])


class TestFieldTripleClassification:
    """Independent check over fields: the classical description of the
    ideals there is an admissible pair (H,S), a set of exclusive cycles
    outside H all of whose exits land in H, and one nonconstant polynomial
    with nonzero constant term per chosen cycle.  Validity of a candidate
    table must agree with those conditions exactly."""

    def test_agreement_with_triple_conditions(self):
        import itertools

        from lpalattice.graph import _exit_targets

        graphs = [
            helpers.toeplitz(),
            helpers.two_cycle_with_exit(),
            helpers.toeplitz_with_sink(),
            helpers.loop_no_exit(),
        ]
        polys = ["1 + x", "1 + x^2"]
        for graph in graphs:
            for ring in (QQ, PrimeField(3)):
                ctx = context(graph, ring)
                options = [LaurentIdeal.unit(ring), LaurentIdeal.zero(ring)] + [
                    LaurentIdeal.parse(ring, f"<{p}>") for p in polys
                ]
                for top_pair in ctx.lattice.pairs:
                    f_table = {
                        p.label(): RingIdeal(ring, 1)
                        for p in helpers.star_pairs(ctx.lattice)
                        if helpers.pair_leq(p, top_pair)
                    }
                    for combo in itertools.product(options, repeat=len(ctx.cycles)):
                        g_table = {
                            c.label(): g for c, g in zip(ctx.cycles, combo)
                        }
                        expected = True
                        for c, g in zip(ctx.cycles, combo):
                            inside = c.vertices() <= top_pair.H
                            if inside:
                                expected &= g.is_unit
                            elif g.is_unit:
                                expected = False
                            elif not g.is_zero:
                                expected &= _exit_targets(graph, c) <= top_pair.H
                        got = validate_tables(ctx, f_table, g_table)
                        assert isinstance(got, ClassifiedIdeal) == expected, (
                            graph,
                            ring,
                            top_pair.label(),
                            [str(g) for g in combo],
                        )


class TestPrimeReport:
    def test_counterexample_passes_necessary_conditions(self):
        ctx = context(helpers.prime_counterexample(), ZZ)
        pair = ClassifiedIdeal.graded(
            saturate_function(ctx, {"{w}": RingIdeal(ZZ, 2), "{v,w}": RingIdeal(ZZ, 0)})
        )
        report = prime_report(pair)
        assert report.passes
        assert "NOT decided" in report.verdict

    def test_nonprime_value_fails(self):
        ctx = context(helpers.prime_counterexample(), ZZ)
        pair = ClassifiedIdeal.graded(
            saturate_function(ctx, {"{w}": RingIdeal(ZZ, 4), "{v,w}": RingIdeal(ZZ, 0)})
        )
        report = prime_report(pair)
        assert not report.passes
        assert report.value_failures

    def test_not_downward_directed_fails(self):
        ctx = context(helpers.fork(), ZZ)
        pair = ClassifiedIdeal.graded(
            saturate_function(
                ctx, {"{v}": RingIdeal(ZZ, 0), "{w}": RingIdeal(ZZ, 0), "{u,v,w}": RingIdeal(ZZ, 0)}
            )
        )
        report = prime_report(pair)
        assert not report.passes
        assert any(not ok for _, _, ok in report.directed_checks)

    def test_matches_the_pairwise_reference(self):
        # the supremum of each value read off J and directedness read off
        # the components give the report of the scan over every pair
        rng = random.Random(53)
        graphs = [g for _, g, _ in helpers.law_suite_graphs()]
        graphs = [g for g in graphs if is_row_finite(g) and has_condition_k(g)]
        while len(graphs) < 160:
            g = helpers.random_graph(rng, max_v=6, max_b=8, allow_omega=False)
            if has_condition_k(g):
                graphs.append(g)
        for g in graphs:
            for ring in (ZZ, IntegersMod(12), PrimeField(2)):
                ctx = context(g, ring)
                for _ in range(4):
                    pair = helpers.random_classified(ctx, rng)
                    assert prime_report(pair) == helpers.prime_report(pair), (g, ring)

    def test_budget_refuses_before_any_check(self):
        # 11 vertices with two loops each and a 300-vertex chain: 4096 pairs,
        # each with its own value, on 632 vertices and bundles
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
        bundles = [Bundle(f"{e}{i}", f"a{i}", f"a{i}") for i in range(11) for e in "lm"]
        bundles += [Bundle(f"c{i}", f"c{i}", f"c{i + 1}") for i in range(299)]
        graph = Graph([f"a{i}" for i in range(11)] + [f"c{i}" for i in range(300)], bundles)
        ctx = context(graph, ZZ)
        pair = from_generators(ctx, [ScaledVertex(p, f"a{i}") for i, p in enumerate(primes)])
        assert len(ctx.lattice) == 4096 and len(set(pair.f.vals)) == 2048
        with pytest.raises(ClassificationError, match=f"cannot check primeness: 2049 distinct .* {MAX_PRIME_WORK}"):
            prime_report(pair)

    def test_the_whole_algebra_is_not_proper(self):
        # a prime ideal is proper: the top pair fails though each of its
        # values is the whole ring and its one complement is empty
        for graph, ring in ((helpers.prime_counterexample(), ZZ), (helpers.fork(), IntegersMod(6))):
            top = ClassifiedIdeal.top(context(graph, ring))
            report = prime_report(top)
            assert not report.proper and not report.passes and not report.value_failures
            assert report.lines()[-2:] == [
                "the ideal is the whole algebra, so it is not proper",
                "fails necessary conditions",
            ]
            assert report == helpers.prime_report(top)
            assert prime_report(ClassifiedIdeal.bottom(top.ctx)).proper

    def test_scope_preconditions(self):
        with pytest.raises(ClassificationError):
            prime_report(ClassifiedIdeal.top(context(helpers.omega_fork(), ZZ)))
        with pytest.raises(ClassificationError):
            prime_report(ClassifiedIdeal.top(context(helpers.toeplitz(), ZZ)))


# named graphs for the writer: breakers give labels with an |{S} part, the
# empty graph has one pair (the bottom, so "f" is empty), and the last one
# has names that JSON escapes
_WRITER_GRAPHS = [g for _, g, _ in helpers.law_suite_graphs()] + [
    helpers.omega_fork(),
    helpers.two_breakers(),
    Graph([], []),
    Graph(["\u00e4", 'q"\\'], [Bundle("\u00e9\"", "\u00e4", "\u00e4"), Bundle("t", "\u00e4", 'q"\\')]),
]
_WRITER_RINGS = [ZZ, IntegersMod(12), QQ, PrimeField(2)]


def _written_as_json(pair):
    assert pair_json(pair) == json.dumps(helpers.dump_ideal(pair), sort_keys=True, indent=2) + "\n"


class TestPairWriter:
    @given(
        st.one_of(
            st.sampled_from(_WRITER_GRAPHS),
            st.integers(0, 2**32).map(lambda n: helpers.random_graph(random.Random(n))),
        ),
        st.sampled_from(_WRITER_RINGS),
        st.integers(0, 2**32),
    )
    @settings(max_examples=300, deadline=None)
    def test_writes_what_json_dumps_writes(self, graph, ring, seed):
        _written_as_json(helpers.random_classified(context(graph, ring), random.Random(seed)))

    def test_cases(self):
        rng = random.Random(5)
        seen = set()
        for graph in _WRITER_GRAPHS:
            for ring in _WRITER_RINGS:
                ctx = context(graph, ring)
                for pair in (ClassifiedIdeal.bottom(ctx), ClassifiedIdeal.top(ctx),
                             helpers.random_classified(ctx, rng)):
                    _written_as_json(pair)
                    doc = helpers.dump_ideal(pair)
                    seen.add("cycles" if doc["g"] else "no cycles")
                    if any("|{" in k for k in doc["f"]):
                        seen.add("breakers")
                    if not doc["f"]:
                        seen.add("one pair")
                    if any(k != json.dumps(k)[1:-1] for k in [*doc["f"], *doc["g"]]):
                        seen.add("escaped")
        assert seen == {"cycles", "no cycles", "breakers", "one pair", "escaped"}
