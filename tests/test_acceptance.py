"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.
"""

import itertools
import random
import time

from click.testing import CliRunner

from lpalattice import (
    ZZ,
    AdmissiblePair,
    ClassifiedIdeal,
    IntegersMod,
    LaurentIdeal,
    PrimeField,
    RingIdeal,
    context,
    from_generators,
    graded_lattice,
    prime_report,
    saturate_function,
    to_generators,
    validate_tables,
)
from lpalattice.cli import main
from lpalattice.concrete import crosscheck
from lpalattice.ideals import _intersect_below, _saturate

import helpers

import helpers


def _report(number, text, started):
    print(f"criterion {number:2d}: {text}: PASS ({time.time() - started:.2f}s)")


def test_criterion_01_toeplitz_pair_lattice(tmp_path):
    started = time.time()
    gfile = tmp_path / "t.graph"
    gfile.write_text("vertices u,v;\nedge e: u->u;\nedge f: u->v;\n")
    result = CliRunner().invoke(main, ["pairs", "--graph", str(gfile)])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["{}", "{v}", "{u,v}"]
    assert time.time() - started < 1.0
    _report(1, "two-vertex loop graph has exactly the three admissible pairs", started)


def _residual_catalog():
    seeds = [
        LaurentIdeal.zero(ZZ),
        LaurentIdeal.unit(ZZ),
    ]
    for text in (
        "<2>", "<3>", "<4>", "<6>", "<12>",
        "<x-1>", "<x+1>", "<x-2>", "<x+2>", "<2x-1>",
        "<x^2+x+1>", "<x^2-2>", "<x^2+1>", "<2, x-1>", "<3, x+1>",
        "<4, x-2>", "<6, x-1>", "<2, x+1>", "<2x+2, 8>", "<3x-3, 9>",
    ):
        seeds.append(LaurentIdeal.parse(ZZ, text))
    catalog = list(seeds)
    for a, b in itertools.combinations(seeds[2:12], 2):
        catalog.append(a * b)
        catalog.append(a + b)
    unique = []
    for ideal in catalog:
        if ideal not in unique:
            unique.append(ideal)
        if len(unique) >= 50:
            break
    return unique


def test_criterion_02_toeplitz_integer_parametrization():
    started = time.time()
    ctx = context(helpers.toeplitz(), ZZ)
    residuals = _residual_catalog()
    assert len(residuals) >= 45
    checked = 0
    for a in (1, 2, 3, 4, 6, 12):
        for b in (1, 2, 3, 4, 6, 12):
            f_table = {"{v}": RingIdeal(ZZ, a), "{u,v}": RingIdeal(ZZ, b)}
            for residual in residuals:
                candidate = LaurentIdeal.extend(RingIdeal(ZZ, b)) + residual.scale(a)
                verdict = validate_tables(ctx, f_table, {"e.0": candidate})
                accepted = isinstance(verdict, ClassifiedIdeal)
                reference = helpers.toeplitz_integer_reference(f_table, candidate)
                assert accepted == reference, (a, b, str(residual))
                checked += 1
    assert checked == 36 * len(residuals)
    assert time.time() - started < 30.0
    _report(2, f"parametrized sweep agrees with the validator on {checked} candidates", started)


def test_criterion_03_fork_saturation():
    started = time.time()
    ctx = context(helpers.fork(), ZZ)
    f = saturate_function(
        ctx,
        {"{v}": RingIdeal(ZZ, 1), "{w}": RingIdeal(ZZ, 1), "{u,v,w}": RingIdeal(ZZ, 0)},
    )
    assert f.value(AdmissiblePair(frozenset({"u", "v", "w"}), frozenset())) == RingIdeal(ZZ, 1)
    _report(3, "fork-graph sum saturates to the unit ideal at the top", started)


def test_criterion_04_prime_counterexample():
    started = time.time()
    ctx = context(helpers.prime_counterexample(), ZZ)
    table = lambda w, e0: {"{w}": RingIdeal(ZZ, w), "{v,w}": RingIdeal(ZZ, e0)}
    i1 = validate_tables(ctx, table(1, 0), {})
    i2 = validate_tables(ctx, table(2, 4), {})
    i = validate_tables(ctx, table(2, 0), {})
    assert isinstance(i1, ClassifiedIdeal) and isinstance(i2, ClassifiedIdeal) and isinstance(i, ClassifiedIdeal)
    assert i1.product(i2) == i
    assert not i1.leq(i) and not i2.leq(i)
    report = prime_report(i)
    assert report.passes and not report.value_failures
    assert all(ok for _, _, ok in report.directed_checks)
    _report(4, "product counterexample reproduced; necessary conditions pass", started)


def test_criterion_05_oracle_equivalence():
    started = time.time()
    rings = [PrimeField(2), PrimeField(3), IntegersMod(4), IntegersMod(6)]
    family = helpers.acyclic_family(max_v=4, max_e=5)
    assert len(family) > 150
    total = 0
    for graph in family:
        for ring in rings:
            report = crosscheck(graph, ring)
            assert report.ok, (graph, ring, report.mismatches[:3])
            total += report.lattice_size
    assert time.time() - started < 300.0
    _report(
        5,
        f"crosscheck of {len(family)} acyclic graphs x 4 rings ({total} ideals)",
        started,
    )


def test_criterion_06_saturation_formula_equivalence():
    started = time.time()
    instances = [
        helpers.single_vertex(),
        helpers.toeplitz(),
        helpers.fork(),
        helpers.isolated(2),
        helpers.star4_graph(),
        helpers.omega_fork(),
        helpers.star6_graph(),
    ]
    rng = random.Random(2024)
    checked = 0
    for graph in instances:
        for ring in (IntegersMod(4), IntegersMod(12)):
            ctx = context(graph, ring)
            gens = list(ring.enumerate_gens())
            n = ctx.size
            assert n <= 6
            if len(gens) ** n <= 800:
                tables = itertools.product(gens, repeat=n)
            else:
                tables = (
                    tuple(rng.choice(gens) for _ in range(n)) for _ in range(800)
                )
            for raw in tables:
                assert _intersect_below(ctx, _saturate(ctx, list(raw))) == helpers.subset_formula_saturation(ctx, raw)
                checked += 1
    _report(6, f"pairwise fixpoint equals the subset formula on {checked} tables", started)


def test_criterion_07_lattice_law_suite():
    started = time.time()
    rng = random.Random(4096)
    instances = helpers.law_suite_graphs()
    assert len(instances) >= 10
    total = 0
    for name, graph, ring in instances:
        ctx = context(graph, ring)
        pairs = [helpers.random_classified(ctx, rng) for _ in range(75)]
        total += len(pairs)
        for k, a in enumerate(pairs):
            b = pairs[(7 * k + 3) % len(pairs)]
            c = pairs[(13 * k + 11) % len(pairs)]
            assert a.meet(a) == a and a.join(a) == a, name
            assert a.meet(b) == b.meet(a) and a.join(b) == b.join(a), name
            assert a.meet(b.meet(c)) == a.meet(b).meet(c), name
            assert a.join(b.join(c)) == a.join(b).join(c), name
            assert a.join(a.meet(b)) == a and a.meet(a.join(b)) == a, name
            assert a.product(b) == b.product(a), name
            assert a.product(b).leq(a.meet(b)), name
    assert total >= 1000
    distributive = [
        ("loop/F2", helpers.loop_no_exit(), PrimeField(2)),
        ("double-loop/F3", helpers.double_loop(), PrimeField(3)),
        ("fork/F2", helpers.fork(), PrimeField(2)),
        ("toeplitz/F3", helpers.toeplitz(), PrimeField(3)),
    ]
    for name, graph, ring in distributive:
        ctx = context(graph, ring)
        pairs = [helpers.random_classified(ctx, rng) for _ in range(25)]
        for k, a in enumerate(pairs):
            b = pairs[(3 * k + 1) % len(pairs)]
            c = pairs[(5 * k + 2) % len(pairs)]
            left = a.meet(b.join(c))
            right = a.meet(b).join(a.meet(c))
            assert left == right, name
    _report(7, f"lattice laws on {total} randomized pairs across {len(instances)} graphs", started)


def test_criterion_08_graded_suite():
    started = time.time()
    rng = random.Random(512)
    checked = 0
    for name, graph, ring in helpers.law_suite_graphs():
        ctx = context(graph, ring)
        for _ in range(15):
            p = helpers.random_classified(ctx, rng)
            lg = p.largest_graded()
            assert lg.is_graded() and lg.leq(p), name
            assert p.is_graded() == (p == lg), name
            checked += 1
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
        expected = sum(
            1
            for combo in itertools.product(gens, repeat=ctx.size)
            if not helpers.pairwise_law_violations(ctx, combo)
        )
        assert len(graded_lattice(graph, ring)) == expected
    for graph in (helpers.toeplitz(), helpers.fork(), helpers.omega_fork()):
        lattices = []
        for ring in (PrimeField(2), IntegersMod(6)):
            ctx = context(graph, ring)
            unit = ring.gen_normalize(1)
            basic = [f for f in graded_lattice(graph, ring) if helpers.is_basic(f)]
            assert len(basic) == len(ctx.lattice.pairs)
            tops = {
                f: helpers.closure_sup(graph, [p for p, v in zip(helpers.star_pairs(ctx.lattice), f.vals) if v == unit])
                for f in basic
            }
            assert set(tops.values()) == set(ctx.lattice.pairs)
            for f in basic:
                for g in basic:
                    f_le_g = all(ring.gen_contains(y, x) for x, y in zip(f.vals, g.vals))
                    assert f_le_g == helpers.pair_leq(tops[f], tops[g])
            lattices.append(len(basic))
        assert lattices[0] == lattices[1]  # independent of the ring
    _report(8, f"grading laws on {checked} pairs; counts and basic sublattices match", started)


def test_criterion_09_generator_round_trip():
    started = time.time()
    count = 0
    rings = [PrimeField(2), PrimeField(3), IntegersMod(4), IntegersMod(6)]
    for graph in helpers.acyclic_family(max_v=4, max_e=5):
        for ring in rings:
            ctx = context(graph, ring)
            for f in graded_lattice(graph, ring):
                p = ClassifiedIdeal.graded(f)
                assert from_generators(ctx, to_generators(p)) == p
                count += 1
    rng = random.Random(81)
    z_instances = [
        (name, graph, ring)
        for name, graph, ring in helpers.law_suite_graphs()
        if ring == ZZ
    ]
    randomized = 0
    while randomized < 200:
        name, graph, ring = z_instances[randomized % len(z_instances)]
        ctx = context(graph, ring)
        p = helpers.random_classified(ctx, rng)
        assert from_generators(ctx, to_generators(p)) == p, name
        randomized += 1
    _report(9, f"round trip on {count} enumerated and {randomized} randomized pairs", started)


def test_criterion_10_groebner_engine():
    started = time.time()
    rng = random.Random(99)

    def rnd_poly(max_deg=4, max_coeff=20):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.randint(-max_deg, max_deg)] = rng.randint(-max_coeff, max_coeff)
        from lpalattice import LaurentPoly

        return LaurentPoly.from_terms(ZZ, terms)

    pairs_checked = 0
    for _ in range(500):
        gens_a = [rnd_poly() for _ in range(rng.randint(1, 2))]
        gens_b = [rnd_poly() for _ in range(rng.randint(1, 2))]
        a = LaurentIdeal.from_polys(ZZ, gens_a)
        b = LaurentIdeal.from_polys(ZZ, gens_b)
        for p in gens_a:
            assert p in a
        for p in gens_b:
            assert p in b
        assert LaurentIdeal.extend(a.contract()) <= a
        assert LaurentIdeal.extend(b.contract()) <= b
        assert LaurentIdeal.extend(a.contract()).contract() == a.contract()
        total = a + b
        meet = a.intersect(b)
        prod = a * b
        assert prod <= meet and meet <= total
        dense_a = [p.to_dense() for p in gens_a if not p.is_zero]
        dense_b = [p.to_dense() for p in gens_b if not p.is_zero]
        dense_prod = [
            (p * q).to_dense() for p in gens_a for q in gens_b if not (p * q).is_zero
        ]
        oracle_a = helpers.LaurentSpanOracle(dense_a)
        oracle_b = helpers.LaurentSpanOracle(dense_b)
        oracle_sum = helpers.LaurentSpanOracle(dense_a + dense_b)
        oracle_prod = helpers.LaurentSpanOracle(dense_prod)
        probes = [rnd_poly(max_deg=6, max_coeff=40) for _ in range(4)]
        probes += a.generators()[:1] + b.generators()[:1] + meet.generators()[:1]
        for probe in probes:
            d = probe.to_dense()
            assert (probe in total) == oracle_sum.member(d)
            assert (probe in meet) == (oracle_a.member(d) and oracle_b.member(d))
            assert (probe in prod) == oracle_prod.member(d)
        pairs_checked += 1
    assert pairs_checked == 500
    assert time.time() - started < 120.0
    _report(10, "500 random ideal pairs agree with row-reduction membership", started)
