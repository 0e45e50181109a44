import itertools
import random

import pytest
from click.testing import CliRunner

from lpalattice import (
    Bundle,
    Graph,
    IntegersMod,
    LaurentIdeal,
    PrimeField,
    RingIdeal,
    ZZ,
)
from lpalattice import concrete, ideals
from lpalattice.cli import main
from lpalattice.concrete import (
    MAX_CROSSCHECK_IDEALS,
    FinitePathAlgebra,
    OracleError,
    crosscheck,
    enumerate_concrete_ideals,
)
from lpalattice.ideals import ClassifiedIdeal

import helpers
from helpers import MatrixUnitAlgebra, Path, generated_ideal


class TestAlgebraConstruction:
    def test_rejects_cycles(self):
        with pytest.raises(OracleError):
            FinitePathAlgebra(helpers.toeplitz(), IntegersMod(4))

    def test_rejects_infinite_bundles(self):
        with pytest.raises(OracleError):
            FinitePathAlgebra(helpers.omega_fork(), IntegersMod(4))

    def test_rejects_infinite_rings(self):
        with pytest.raises(OracleError):
            FinitePathAlgebra(helpers.fork(), ZZ)

    def test_two_vertex_chain_is_two_by_two(self):
        alg = MatrixUnitAlgebra(helpers.chain(2), IntegersMod(4))
        assert alg.dim == 4


class TestRelations:
    def test_vertex_idempotents(self):
        alg = MatrixUnitAlgebra(helpers.fork(), IntegersMod(6))
        for v in alg.graph.vertices:
            ev = alg.vertex_element(v)
            assert helpers.multiply(alg, ev, ev) == ev
            for w in alg.graph.vertices:
                if w != v:
                    assert helpers.multiply(alg, ev, alg.vertex_element(w)) == {}

    def test_edge_relations(self):
        alg = MatrixUnitAlgebra(helpers.chain(2), IntegersMod(4))
        e, estar = helpers.edge_element(alg, "e0"), helpers.ghost_element(alg, "e0")
        u, v = alg.vertex_element("v0"), alg.vertex_element("v1")
        # (E1), (E2)
        assert helpers.multiply(alg, u, e) == e == helpers.multiply(alg, e, v)
        assert helpers.multiply(alg, v, estar) == estar == helpers.multiply(alg, estar, u)
        # (CK1)
        assert helpers.multiply(alg, estar, e) == v
        # (CK2) at the regular vertex u
        assert helpers.multiply(alg, e, estar) == u

    def test_ck1_distinct_edges_annihilate(self):
        alg = MatrixUnitAlgebra(helpers.fork(), PrimeField(3))
        a, bstar = helpers.edge_element(alg, "a"), helpers.ghost_element(alg, "b")
        assert helpers.multiply(alg, bstar, a) == {}

    def test_matrix_units_for_the_chain(self):
        alg = MatrixUnitAlgebra(helpers.chain(2), IntegersMod(4))
        e = helpers.edge_element(alg, "e0")
        estar = helpers.ghost_element(alg, "e0")
        u = alg.vertex_element("v0")
        v = alg.vertex_element("v1")
        units = {(0, 0): u, (0, 1): e, (1, 0): estar, (1, 1): v}
        for (i, j), x in units.items():
            for (k, l), y in units.items():
                prod = helpers.multiply(alg, x, y)
                expected = units[(i, l)] if j == k else {}
                assert prod == expected

    def test_associativity_exhaustive_small(self):
        alg = MatrixUnitAlgebra(helpers.chain(2), PrimeField(2))
        singles = [alg.unit(i) for i in range(alg.dim)]
        for x, y, z in itertools.product(singles, repeat=3):
            left = helpers.multiply(alg, helpers.multiply(alg, x, y), z)
            right = helpers.multiply(alg, x, helpers.multiply(alg, y, z))
            assert left == right

    def test_vertex_elements_are_expanded_once(self):
        # the shared expansion of each vertex equals a fresh one, on every
        # vertex of every acyclic graph of up to 4 vertices and 5 edges
        graphs = helpers.acyclic_family(4, 5)
        assert len(graphs) == 197
        for graph in graphs:
            alg = MatrixUnitAlgebra(graph, PrimeField(2))
            for v in sorted(graph.vertices):
                first = alg.vertex_element(v)
                assert first == helpers.symbol(alg, Path(v, ()), Path(v, ()))
                assert alg.vertex_element(v) is first

    def test_symbol_needs_paths_with_one_endpoint(self):
        alg = MatrixUnitAlgebra(helpers.fork(), IntegersMod(6))
        with pytest.raises(OracleError, match="^paths must share their endpoint$"):
            helpers.symbol(alg, Path("v", ()), Path("w", ()))

    def test_ck2_expansion_through_symbols(self):
        # a regular vertex equals the sum of ee* over its outgoing edges
        alg = MatrixUnitAlgebra(helpers.fork(), IntegersMod(6))
        u = alg.vertex_element("u")
        total = {}
        for bundle in ("a", "b"):
            e, estar = helpers.edge_element(alg, bundle), helpers.ghost_element(alg, bundle)
            total = helpers.add(alg, total, helpers.multiply(alg, e, estar))
        assert total == u


class TestIdealEnumeration:
    def test_single_sink_counts_divisors(self):
        alg = FinitePathAlgebra(helpers.single_vertex(), IntegersMod(4))
        assert len(enumerate_concrete_ideals(alg)) == 3

    def test_chain_matches_base_ring(self):
        alg = FinitePathAlgebra(helpers.chain(2), IntegersMod(4))
        assert len(enumerate_concrete_ideals(alg)) == 3

    def test_fork_splits_per_sink(self):
        alg = FinitePathAlgebra(helpers.fork(), PrimeField(2))
        assert len(enumerate_concrete_ideals(alg)) == 4

    def test_products_commute(self):
        rng = random.Random(7)
        alg = FinitePathAlgebra(helpers.fork(), IntegersMod(6))
        ideals = enumerate_concrete_ideals(alg)
        product = alg.ring.gen_product
        for _ in range(60):
            a, b = rng.choice(ideals), rng.choice(ideals)
            assert tuple(map(product, a, b)) == tuple(map(product, b, a))

    def test_closure_really_is_an_ideal(self):
        rng = random.Random(11)
        alg = MatrixUnitAlgebra(helpers.fork(), IntegersMod(6))
        for _ in range(20):
            x = {
                i: c
                for i in rng.sample(range(alg.dim), rng.randint(1, 3))
                if (c := rng.randrange(1, 6))
            }
            ideal = generated_ideal(alg, [x])
            assert self._contains(alg, ideal, x)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    sandwich = helpers.multiply(alg, alg.unit(i), helpers.multiply(alg, x, alg.unit(j)))
                    assert self._contains(alg, ideal, sandwich)

    @staticmethod
    def _contains(alg, ideal, x):
        # every entry lies in the ring ideal of its sink block
        at_sink = dict(zip(alg.sinks, ideal))
        return all(alg.ring.gen_member(at_sink[alg.basis[i][0]], c) for i, c in x.items())

    def test_one_seed_per_sink_block_gives_every_ideal(self):
        checked = 0
        for ring in (PrimeField(2), PrimeField(3), IntegersMod(4), IntegersMod(6)):
            for graph in helpers.acyclic_family():
                try:
                    alg = MatrixUnitAlgebra(graph, ring)
                except OracleError:
                    continue
                assert enumerate_concrete_ideals(alg) == helpers.every_index_concrete_ideals(alg)
                checked += 1
        assert checked

    def test_seeds_from_ring_ideals_match_seeds_from_elements(self):
        family = helpers.acyclic_family(4, 5)
        rings = (PrimeField(2), PrimeField(3), IntegersMod(4), IntegersMod(6), IntegersMod(12))
        for ring in rings:
            for graph in family:
                alg = MatrixUnitAlgebra(graph, ring)
                want = helpers.element_seeded_concrete_ideals(alg)
                assert enumerate_concrete_ideals(alg) == want, (graph, ring)


class TestPerSinkForm:
    """The per-sink generators against the algebra's own multiplication."""

    CASES = [
        (helpers.fork(), IntegersMod(6)),
        (helpers.chain(2), IntegersMod(4)),
        # sinks v and w, w reached through a bundle of two edges
        (Graph(["u", "v", "w"], [Bundle("a", "u", "v"), Bundle("b", "u", "w", 2)]), PrimeField(3)),
    ]

    @staticmethod
    def _spanning(alg, ideal):
        # each basis index scaled by the generator element of its sink block
        at_sink = dict(zip(alg.sinks, ideal))
        return [
            alg.unit(i, alg.ring.gen_generator_element(at_sink[s]))
            for i, (s, _, _) in enumerate(alg.basis)
        ]

    @pytest.mark.parametrize("graph, ring", CASES)
    def test_product_matches_multiplication(self, graph, ring):
        alg = MatrixUnitAlgebra(graph, ring)
        ideals = enumerate_concrete_ideals(alg)
        for a in ideals:
            for b in ideals:
                products = [
                    helpers.multiply(alg, x, y)
                    for x in self._spanning(alg, a)
                    for y in self._spanning(alg, b)
                ]
                assert tuple(map(alg.ring.gen_product, a, b)) == generated_ideal(alg, products)

    @pytest.mark.parametrize("graph, ring", CASES)
    def test_sum_matches_generated_ideal(self, graph, ring):
        alg = MatrixUnitAlgebra(graph, ring)
        ideals = enumerate_concrete_ideals(alg)
        for a in ideals:
            for b in ideals:
                both = self._spanning(alg, a) + self._spanning(alg, b)
                assert tuple(map(alg.ring.gen_sum, a, b)) == generated_ideal(alg, both)


class TestCrosscheck:
    def test_spec_examples(self):
        assert crosscheck(helpers.chain(2), IntegersMod(4)).ok
        assert crosscheck(helpers.fork(), IntegersMod(6)).ok
        assert crosscheck(helpers.single_vertex(), PrimeField(2)).ok

    def test_report_lines(self):
        rep = crosscheck(helpers.chain(2), IntegersMod(4))
        assert rep.lattice_size == rep.concrete_size == 3
        assert any("PASSED" in line for line in rep.lines())

    def test_work_stays_linear_in_the_ideals(self, monkeypatch):
        # 4 sinks over Z/6 give the largest admitted case, 256 ideals and
        # 3 * 256 * 257 / 2 operations; only the tables that are read out
        # (one per enumerated ideal) are built over every pair
        calls = []
        for name in ("_intersect_below", "_saturate"):
            real = getattr(ideals, name)
            monkeypatch.setattr(
                ideals, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
            )
        rep = crosscheck(helpers.isolated(4), IntegersMod(6))
        assert rep.ok and rep.lattice_size == MAX_CROSSCHECK_IDEALS
        assert len(calls) <= MAX_CROSSCHECK_IDEALS + 8

    def test_every_intersection_is_compared(self, monkeypatch):
        # a meet that answers with the join differs from the intersection at
        # every two distinct ideals: 6 of the 10 pairs (p, q) with q no later
        # than p among the 4 ideals of two sinks over F2
        monkeypatch.setattr(ClassifiedIdeal, "meet", ClassifiedIdeal.join)
        rep = crosscheck(helpers.isolated(2), PrimeField(2))
        assert not rep.ok and len(rep.mismatches) == 6
        assert all(m.startswith("intersection mismatch at ") for m in rep.mismatches)

    # every two distinct ideals have a sum larger than their intersection, and
    # over F2 and Z/6 every ideal is idempotent, so a product is the
    # intersection: each swap below is wrong on the N * (N - 1) / 2 pairs of
    # distinct ideals among N, 6 for two sinks over F2 and 120 for the two
    # sinks of the fork over Z/6
    @pytest.mark.parametrize("graph, ring, n", [
        (helpers.isolated(2), PrimeField(2), 6),
        (helpers.fork(), IntegersMod(6), 120),
    ])
    def test_every_sum_is_compared(self, monkeypatch, graph, ring, n):
        monkeypatch.setattr(ClassifiedIdeal, "join", ClassifiedIdeal.meet)
        rep = crosscheck(graph, ring)
        assert not rep.ok and len(rep.mismatches) == n
        assert all(m.startswith("sum mismatch at ") for m in rep.mismatches)

    @pytest.mark.parametrize("graph, ring, n", [
        (helpers.isolated(2), PrimeField(2), 6),
        (helpers.fork(), IntegersMod(6), 120),
    ])
    def test_every_product_is_compared(self, monkeypatch, graph, ring, n):
        monkeypatch.setattr(ClassifiedIdeal, "product", ClassifiedIdeal.join)
        rep = crosscheck(graph, ring)
        assert not rep.ok and len(rep.mismatches) == n
        assert all(m.startswith("product mismatch at ") for m in rep.mismatches)

    @pytest.mark.parametrize("graph, ring, n", [
        (helpers.isolated(2), PrimeField(2), 4),
        (helpers.chain(2), IntegersMod(4), 3),
        (helpers.fork(), IntegersMod(6), 16),
    ])
    def test_every_order_is_compared(self, monkeypatch, graph, ring, n):
        # a negated order is wrong on each of the n * n ordered pairs
        real = ClassifiedIdeal.leq
        monkeypatch.setattr(ClassifiedIdeal, "leq", lambda a, b: not real(a, b))
        rep = crosscheck(graph, ring)
        assert rep.lattice_size == n and len(rep.mismatches) == n * n
        assert all(m.startswith("order mismatch between ") for m in rep.mismatches)

    def test_result_outside_the_lattice_is_a_mismatch(self, monkeypatch, tmp_path):
        # a join whose values on J do not reverse the order of J is no
        # classified ideal: the report says so instead of raising
        def broken(a, b):
            # the unit ideal at the top pair, the zero ideal below it
            return ideals._pair(a.ctx, (0, 1), ())

        monkeypatch.setattr(ClassifiedIdeal, "join", broken)
        rep = crosscheck(helpers.chain(2), PrimeField(2))
        assert not rep.ok and rep.lines()[-1] == "crosscheck FAILED"
        assert rep.mismatches and all(
            m.startswith("sum result at ") and m.endswith(" is not a classified ideal")
            for m in rep.mismatches
        )
        gfile = tmp_path / "g.graph"
        gfile.write_text("vertices v0,v1; edge e0: v0->v1;")
        result = CliRunner().invoke(main, ["crosscheck", "--graph", str(gfile), "--ring", "F2"])
        assert result.exit_code == 1
        assert result.output.splitlines()[-1] == "crosscheck FAILED"


class TestCrosscheckBuildsNoFunctions:
    def test_order_tests_and_operations_build_no_saturated_function(self, monkeypatch):
        # graded_lattice builds one function per ideal, 256 on four isolated
        # vertices over Z/6; the 65,536 order tests and 98,688 operations
        # after it read and build the values on J alone
        real, built = ideals._function, []

        def counted(ctx, jv):
            built.append(jv)
            return real(ctx, jv)

        monkeypatch.setattr(ideals, "_function", counted)
        rep = crosscheck(helpers.isolated(4), IntegersMod(6))
        assert rep.ok and rep.lattice_size == 256
        assert len(built) <= 256


class TestSharedPathBasis:
    """The sink blocks that the crosscheck reads, against the algebra on its
    basis of matrix units."""

    RINGS = (PrimeField(2), IntegersMod(4), IntegersMod(6))

    def test_images_read_off_the_sink_blocks(self):
        # r*v generates (r) in each block where v has an entry, as the
        # closure of the scaled vertex element does
        for ring in self.RINGS:
            for graph in helpers.acyclic_family(4, 5):
                alg = MatrixUnitAlgebra(graph, ring)
                blocks = alg.blocks()
                for f in ideals.graded_lattice(graph, ring):
                    pair = ClassifiedIdeal.graded(f)
                    want = helpers.element_generator_image(alg, pair)
                    assert concrete._generator_image(alg, blocks, pair) == want, (graph, ring, pair)

    def test_images_from_every_vertex_match_the_generators(self):
        # the generators are one per member of J, here the sinks; each vertex
        # v scaled by the value at its least pair, read off the table built
        # from J alone, generates the same image
        for ring in (PrimeField(2), PrimeField(3), IntegersMod(4), IntegersMod(6)):
            for graph in helpers.acyclic_family(4, 5):
                alg = FinitePathAlgebra(graph, ring)
                blocks = alg.blocks()
                ctx = ideals.context(graph, ring)
                for f in ideals.graded_lattice(graph, ring):
                    on_j = ideals._function(ctx, f.jv)  # no table built
                    image = [0] * len(alg.sinks)
                    for v in graph.vertices:
                        r = ring.gen_generator_element(on_j.vals[ctx.lattice.least_star_index([v])])
                        for k in blocks[v]:
                            image[k] = ring.gen_sum(image[k], ring.gen_from_elements([r]))
                    pair = ClassifiedIdeal.graded(f)
                    assert concrete._generator_image(alg, blocks, pair) == tuple(image), (graph, ring, pair)

    def test_vertex_support_and_blocks(self):
        # the family, random graphs with multiplicities up to 3, and random
        # graphs of 1000 to 3000 matrix units, past |F2| * dim^2 = 2,000,000
        graphs = (
            helpers.acyclic_family(4, 5)
            + helpers.random_matrix_unit_graphs(3, 100)
            + helpers.random_matrix_unit_graphs(5, 6, low=1000)
        )
        for graph in graphs:
            alg = MatrixUnitAlgebra(graph, PrimeField(2))
            blocks = alg.blocks()
            assert sorted(blocks) == sorted(graph.vertices)
            for v in graph.vertices:
                support = alg.support[v]
                assert support == tuple(helpers.symbol(alg, Path(v, ()), Path(v, ())))
                sinks = {alg.sinks.index(alg.basis[i][0]) for i in support}
                assert blocks[v] == tuple(sorted(sinks)), (graph, v)


class TestRowByRowCrosscheck:
    """The crosscheck that compares a row at a time against the one that
    compares one pair at a time: the same mismatches in the same order."""

    MUTATIONS = {
        "passing": {},
        "meet-is-join": {"meet": "join"},
        "join-is-meet": {"join": "meet"},
        "product-is-join": {"product": "join"},
        "negated-leq": {"leq": "negated"},
        "off-lattice-join": {"join": "broken"},
        # one row fails in two operations, so their interleaving shows
        "join-is-meet-and-product-is-join": {"join": "meet", "product": "join"},
    }

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_same_report_as_the_pairwise_reference(self, monkeypatch, mutation):
        real = {name: getattr(ClassifiedIdeal, name) for name in ("leq", "join", "meet", "product")}
        extra = {
            "negated": lambda a, b: not real["leq"](a, b),
            # the unit ideal at the top pair, the zero ideal below it
            "broken": lambda a, b: ideals._pair(a.ctx, (0, 1), ()),
        }
        for name, by in self.MUTATIONS[mutation].items():
            monkeypatch.setattr(ClassifiedIdeal, name, real.get(by) or extra[by])
        failed = 0
        cases = [
            (graph, ring)
            for ring in (PrimeField(2), IntegersMod(4), IntegersMod(6))
            for graph in helpers.acyclic_family(4, 5)[::8]
        ]
        # 625 matrix units, and random graphs of 1000 to 3000
        cases.append((helpers.chain(25), IntegersMod(6)))
        cases.extend((graph, PrimeField(2)) for graph in helpers.random_matrix_unit_graphs(25, 3, low=1000))
        for graph, ring in cases:
            rep = crosscheck(graph, ring)
            ref = helpers.pairwise_crosscheck(graph, ring)
            assert rep.mismatches == ref.mismatches, (graph, ring)
            assert (rep.lattice_size, rep.concrete_size) == (ref.lattice_size, ref.concrete_size)
            failed += not rep.ok
        assert (failed == 0) == (mutation == "passing")

    @pytest.mark.parametrize("graph, n", [(helpers.isolated(4), 256), (helpers.fork(), 16)])
    def test_every_pair_reaches_the_library(self, monkeypatch, graph, n):
        calls = dict.fromkeys(("leq", "join", "meet", "product"), 0)
        for name in calls:
            real = getattr(ClassifiedIdeal, name)

            def counted(a, b, _real=real, _name=name):
                calls[_name] += 1
                return _real(a, b)

            monkeypatch.setattr(ClassifiedIdeal, name, counted)
        rep = crosscheck(graph, IntegersMod(6))
        assert rep.ok and rep.lattice_size == n
        half = n * (n + 1) // 2
        assert calls == {"leq": n * n, "join": half, "meet": half, "product": half}


class TestToeplitzReference:
    def _table(self, a, b):
        return {"{v}": RingIdeal(ZZ, a), "{u,v}": RingIdeal(ZZ, b)}

    def test_top_accepted(self):
        assert helpers.toeplitz_integer_reference(self._table(1, 1), LaurentIdeal.unit(ZZ))

    def test_known_instance_accepted(self):
        g = LaurentIdeal.parse(ZZ, "<4, 2x+2>")
        assert helpers.toeplitz_integer_reference(self._table(2, 4), g)

    def test_divisibility_violation_rejected(self):
        assert not helpers.toeplitz_integer_reference(self._table(4, 2), LaurentIdeal.parse(ZZ, "<2>"))

    def test_zero_pair(self):
        assert helpers.toeplitz_integer_reference(self._table(0, 0), LaurentIdeal.zero(ZZ))
        assert not helpers.toeplitz_integer_reference(self._table(0, 0), LaurentIdeal.parse(ZZ, "<x-1>"))

    def test_contract_escape_rejected(self):
        # residual <x-2>: multiplying by a=2 lets the contraction slip to (2)
        g = LaurentIdeal.parse(ZZ, "<4, 2x-4>")
        assert not helpers.toeplitz_integer_reference(self._table(2, 4), g)
