import hashlib
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpalattice import (
    QQ,
    ZZ,
    IntegersMod,
    LaurentIdeal,
    LaurentPoly,
    PrimeField,
    RingError,
    RingIdeal,
    parse_poly,
)
from lpalattice import groebner

import helpers

# sha256 of the bases in TestEngineEquivalence.test_bases_of_the_engine_tests_are_unchanged
ENGINE_TESTS_DIGEST = "65fb41e4ae9382ee54da33722c89d0d239b70293ddc4cd82e98d6b6b4693eaad"


class TestLaurentPoly:
    def test_parse_examples(self):
        p = parse_poly(ZZ, "3x^-2 + 1 - x")
        assert p.terms == ((-2, 3), (0, 1), (1, -1))
        assert parse_poly(ZZ, "2*x^3").terms == ((3, 2),)
        assert parse_poly(QQ, "1/2x + 1").terms == ((0, Fraction(1)), (1, Fraction(1, 2)))
        assert parse_poly(ZZ, "0").is_zero

    def test_parse_rejects_garbage(self):
        for bad in ("", "x^", "y + 1", "2**x"):
            with pytest.raises(RingError):
                parse_poly(ZZ, bad)

    def test_format_parse_round_trip(self):
        rng = random.Random(0)
        for _ in range(100):
            terms = {rng.randint(-4, 4): rng.randint(-9, 9) for _ in range(rng.randint(1, 4))}
            p = LaurentPoly.from_terms(ZZ, terms)
            assert parse_poly(ZZ, str(p)) == p

    def test_arithmetic(self):
        p = parse_poly(ZZ, "x + 1")
        q = parse_poly(ZZ, "x - 1")
        assert p * q == parse_poly(ZZ, "x^2 - 1")
        assert p + q == parse_poly(ZZ, "2x")
        assert (p - p).is_zero
        assert p.shift(-1) == parse_poly(ZZ, "1 + x^-1")


class TestFieldIdeals:
    def test_coprime_sum_is_unit(self):
        a = LaurentIdeal.parse(QQ, "<x - 1>")
        b = LaurentIdeal.parse(QQ, "<x + 1>")
        assert (a + b).is_unit

    def test_normal_form_min_exponent_zero_monic(self):
        one = LaurentIdeal.parse(QQ, "<2x^3 - 2x>")
        assert one.basis == ((Fraction(-1), Fraction(0), Fraction(1)),)

    def test_normal_form_invariant_under_unit_rescaling(self):
        rng = random.Random(4)
        for ring in (QQ, PrimeField(5)):
            for _ in range(50):
                terms = {
                    rng.randint(-3, 3): rng.randint(1, 4) for _ in range(rng.randint(1, 3))
                }
                p = LaurentPoly.from_terms(ring, terms)
                if p.is_zero:
                    continue
                unit = ring.normalize(rng.choice([1, 2, 3, 4]))
                if ring.is_zero(unit):
                    continue
                q = p.scale(unit).shift(rng.randint(-3, 3))
                assert LaurentIdeal.from_polys(ring, [p]) == LaurentIdeal.from_polys(ring, [q])

    def test_f2_x_plus_one_not_graded(self):
        f2 = PrimeField(2)
        i = LaurentIdeal.parse(f2, "<x + 1>")
        assert not i.is_graded()
        assert i.contract() == RingIdeal(f2, 0)

    def test_lcm_intersection(self):
        a = LaurentIdeal.parse(QQ, "<x^2 - 1>")
        b = LaurentIdeal.parse(QQ, "<x - 1>")
        assert a.intersect(b) == a
        assert a + b == b


class TestFieldEngineMatchesPlainEuclid:
    """The monic-remainder gcd gives the bases the plain Euclid over the
    field gives, for sums, products and meets as well."""

    @staticmethod
    def _poly(ring, rng, deg):
        # a Laurent polynomial spanning at most deg + 1 powers of x
        terms = {e: rng.randint(-9, 9) for e in range(rng.randint(0, deg) + 1)}
        if ring == QQ:
            terms = {e: Fraction(c, rng.randint(1, 6)) for e, c in terms.items()}
        return LaurentPoly.from_terms(ring, terms).shift(rng.randint(-3, 3))

    @staticmethod
    def _reference(ring, polys):
        g = []
        for p in polys:
            g = helpers.euclid_gcd(ring, g, list(p.to_dense()))
        return helpers.euclid_basis(ring, g)

    def test_bases_match_the_reference(self):
        rng = random.Random(59)
        proper_sums = proper_meets = 0
        for ring in (PrimeField(2), PrimeField(7), QQ):
            for _ in range(150):
                # half the time both sides share a factor, so sums are proper
                common = self._poly(ring, rng, 3) if rng.random() < 0.5 else LaurentPoly.constant(ring, ring.one())
                gens = [
                    [common * self._poly(ring, rng, 5) for _ in range(rng.choice([0, 1, 1, 2, 2]))]
                    for _ in range(2)
                ]
                refs = [self._reference(ring, polys) for polys in gens]
                a, b = (LaurentIdeal.from_polys(ring, polys) for polys in gens)
                assert (a.basis, b.basis) == tuple(refs)
                assert (a + b).basis == self._reference(ring, gens[0] + gens[1])
                if not (refs[0] and refs[1]):
                    assert (a * b).basis == a.intersect(b).basis == ()
                    continue
                ra, rb = refs[0][0], refs[1][0]
                assert (a * b).basis == helpers.euclid_basis(ring, helpers.euclid_mul(ring, ra, rb))
                assert a.intersect(b).basis == helpers.euclid_basis(ring, helpers.euclid_lcm(ring, ra, rb))
                proper_sums += not (a + b).is_unit
                # a meet of two proper ideals is a true lcm
                proper_meets += not (a.is_unit or b.is_unit)
        assert proper_sums >= 80 and proper_meets >= 100


class TestIntegerIdeals:
    def test_constant_meets_linear(self):
        m = LaurentIdeal.parse(ZZ, "<2>").intersect(LaurentIdeal.parse(ZZ, "<x - 1>"))
        assert m == LaurentIdeal.parse(ZZ, "<2x - 2>")
        # brute-force membership agrees on both inclusions
        assert helpers.laurent_member_bruteforce((-2, 2), [(2,)])
        assert helpers.laurent_member_bruteforce((-2, 2), [(-1, 1)])

    def test_contract_of_two_and_x_minus_one(self):
        i = LaurentIdeal.parse(ZZ, "<2, x - 1>")
        assert i.basis == ((1, 1), (2,))
        assert i.contract() == RingIdeal(ZZ, 2)

    def test_x_minus_one_not_graded(self):
        i = LaurentIdeal.parse(ZZ, "<x - 1>")
        assert i.contract() == RingIdeal(ZZ, 0)
        assert not i.is_zero
        assert not i.is_graded()
        assert not helpers.laurent_member_bruteforce((2,), [(-1, 1)])

    def test_x_is_a_unit(self):
        assert LaurentIdeal.parse(ZZ, "<x>").is_unit
        assert LaurentIdeal.parse(ZZ, "<2 - x, 2 + x>").is_unit

    def test_idempotent_sum(self):
        for text in ("<2>", "<4, 2x+2>", "<x^2-2, 6>"):
            i = LaurentIdeal.parse(ZZ, text)
            assert i + i == i and i.intersect(i) == i

    def test_basis_has_nonzero_constant_terms(self):
        rng = random.Random(9)
        for _ in range(60):
            i = _random_ideal(ZZ, rng)
            for d in i.basis:
                assert d[0] != 0

    def test_toeplitz_cycle_ideal(self):
        g = LaurentIdeal.parse(ZZ, "<4, 2x + 2>")
        assert g.contract() == RingIdeal(ZZ, 4)
        assert g.coefficient_ideal() == RingIdeal(ZZ, 2)
        assert not g.is_graded()


class TestModIdeals:
    def test_lift_reuses_integer_engine(self):
        z4 = IntegersMod(4)
        i = LaurentIdeal.parse(z4, "<2, x-1>")
        assert i.contract() == RingIdeal(z4, 2)
        assert LaurentIdeal.zero(z4).basis == ((4,),)
        assert LaurentIdeal.unit(z4).is_unit

    def test_product_reduces_mod_n(self):
        z4 = IntegersMod(4)
        two = LaurentIdeal.parse(z4, "<2>")
        assert (two * two).is_zero

    def test_graded_detection(self):
        z4 = IntegersMod(4)
        assert LaurentIdeal.parse(z4, "<2>").is_graded()
        assert not LaurentIdeal.parse(z4, "<x + 1>").is_graded()


def _random_poly(ring, rng, max_deg=4, max_coeff=20):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[rng.randint(-max_deg, max_deg)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly.from_terms(ring, terms)


def _random_ideal(ring, rng, ngens=None, max_deg=4, max_coeff=20):
    n = ngens if ngens is not None else rng.randint(1, 3)
    return LaurentIdeal.from_polys(
        ring, [_random_poly(ring, rng, max_deg, max_coeff) for _ in range(n)]
    )


class TestExtendContract:
    def test_round_trip_identities(self):
        rng = random.Random(21)
        rings = [ZZ, QQ, IntegersMod(12), PrimeField(3)]
        for ring in rings:
            gens = ring.enumerate_gens() if ring.is_finite else [0, 1, 2, 6, 12]
            for g in gens:
                j = RingIdeal(ring, g)
                assert LaurentIdeal.extend(j).contract() == j
                assert LaurentIdeal.extend(j).is_graded()
            for _ in range(25):
                i = _random_ideal(ring, rng, max_deg=3, max_coeff=8)
                assert LaurentIdeal.extend(i.contract()) <= i
                assert i.is_graded() == (i == LaurentIdeal.extend(i.contract()))

    def test_coefficient_ideal_examples(self):
        assert LaurentIdeal.parse(ZZ, "<6x + 4>").coefficient_ideal() == RingIdeal(ZZ, 2)
        assert LaurentIdeal.extend(RingIdeal(ZZ, 5)).coefficient_ideal() == RingIdeal(ZZ, 5)
        assert LaurentIdeal.zero(QQ).coefficient_ideal() == RingIdeal(QQ, 0)


class TestGroebnerEngine:
    def test_declared_generators_are_members(self):
        rng = random.Random(31)
        for _ in range(40):
            polys = [_random_poly(ZZ, rng) for _ in range(rng.randint(1, 3))]
            ideal = LaurentIdeal.from_polys(ZZ, polys)
            for p in polys:
                assert p in ideal

    def test_strong_basis_criterion(self):
        # every s-polynomial and gcd-polynomial of the final basis reduces to 0
        rng = random.Random(37)
        for _ in range(40):
            ideal = _random_ideal(ZZ, rng, max_deg=3, max_coeff=10)
            basis = [groebner.dense_to_poly(d) for d in ideal.basis]
            for i, f in enumerate(basis):
                for g in basis[:i]:
                    for cand in groebner._pair_candidates(f, g):
                        assert groebner.is_member(cand, basis)

    def test_intersection_is_already_a_canonical_basis(self):
        # the intersection's kept elements need no second basis pass
        rng = random.Random(53)
        for ring in (ZZ, IntegersMod(12)):
            for _ in range(60):
                a = _random_ideal(ring, rng, max_deg=3, max_coeff=12).basis
                b = _random_ideal(ring, rng, max_deg=3, max_coeff=12).basis
                meet = groebner.intersect_dense(a, b)
                assert meet == groebner.gb_dense(list(meet)), (a, b)

    def test_equality_iff_mutual_membership(self):
        rng = random.Random(41)
        for ring in (ZZ, IntegersMod(6), QQ):
            for _ in range(40):
                a = _random_ideal(ring, rng, max_deg=3, max_coeff=6)
                b = _random_ideal(ring, rng, max_deg=3, max_coeff=6)
                mutual = all(p in b for p in a.generators()) and all(
                    q in a for q in b.generators()
                )
                assert (a == b) == mutual

    def test_colon_by_x_fixpoint_is_saturated(self):
        rng = random.Random(43)
        for _ in range(30):
            ideal = _random_ideal(ZZ, rng, max_deg=3, max_coeff=8)
            assert groebner.colon_x_dense(ideal.basis) == ideal.basis

    def test_colon_by_x_matches_elimination(self):
        rng = random.Random(47)
        with_modulus = divisible_by_x = 0
        for _ in range(1000):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = [rng.randint(-12, 12) for _ in range(rng.randint(1, 5))]
                if rng.random() < 0.3:
                    g = [0] * rng.randint(1, 2) + g
                    divisible_by_x += 1
                while g and g[-1] == 0:
                    g.pop()
                if g:
                    gens.append(tuple(g))
            if rng.random() < 0.3:
                gens.append((rng.choice([2, 3, 4, 6, 8, 12, 30]),))
                with_modulus += 1
            for basis in (tuple(gens), groebner.gb_dense(gens)):
                want = helpers.colon_x_by_elimination(basis)
                assert groebner.colon_x_dense(basis) == want, gens
            saturated = groebner.gb_dense(gens)
            while (nxt := helpers.colon_x_by_elimination(saturated)) != saturated:
                saturated = nxt
            assert groebner.saturate_x_dense(gens) == saturated, gens
        assert with_modulus >= 200 and divisible_by_x >= 200

    def test_swell_meet_is_fast(self):
        # the elimination without product seeds took seconds here, its
        # intermediate coefficients reaching tens of thousands of bits
        started = time.perf_counter()
        a = LaurentIdeal.parse(ZZ, "<19x^7+19x-4>")
        b = LaurentIdeal.parse(ZZ, "<4x^5+3>")
        assert a.intersect(b).basis == ((-12, 57, 0, 0, 0, -16, 76, 57, 0, 0, 0, 0, 76),)
        assert time.perf_counter() - started < 1.0


def _random_dense(rng, max_len=5, max_coeff=12):
    g = [rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(1, max_len))]
    if rng.random() < 0.3:
        g = [0] * rng.randint(1, 3) + g
    while g and g[-1] == 0:
        g.pop()
    return tuple(g)


class TestEngineEquivalence:
    """The leads strong_groebner keeps per insertion, and the bases it returns."""

    def test_kept_reducers_give_the_normal_form_of_reduce_poly(self, monkeypatch):
        reduce = groebner._reduce
        calls = []

        def checked(f, reducers):
            if calls and calls[-1] is None:  # the call inside reduce_poly
                return reduce(f, reducers)
            polys = [b for _, b in reducers]
            leads = [lead for lead, _ in reducers]
            assert leads == [groebner.p_lt(b) for b in polys]
            # no kept lead strongly divides another: insert retired it
            for i, ((ak, ad), ac) in enumerate(leads):
                for j, ((bk, bd), bc) in enumerate(leads):
                    assert i == j or ak != bk or ad > bd or bc % ac != 0, leads
            calls.append(None)
            want = groebner.reduce_poly(f, polys)
            calls[-1] = len(polys)
            assert reduce(f, reducers) == want
            return want

        monkeypatch.setattr(groebner, "_reduce", checked)
        rng = random.Random(67)
        for _ in range(150):
            a = [d for d in (_random_dense(rng) for _ in range(rng.randint(1, 3))) if d]
            b = [d for d in (_random_dense(rng) for _ in range(rng.randint(1, 3))) if d]
            if rng.random() < 0.3:
                a.append((rng.choice([4, 6, 12]),))
            groebner.saturate_x_dense(a)
            groebner.intersect_dense(groebner.gb_dense(a), groebner.gb_dense(b))
        assert len(calls) > 1000 and max(calls) >= 4

    def test_interreduce_is_idempotent(self):
        rng = random.Random(71)
        for _ in range(200):
            gens = [_random_dense(rng) for _ in range(rng.randint(1, 4))]
            basis = groebner.strong_groebner([groebner.dense_to_poly(g) for g in gens])
            assert groebner._interreduce(basis) == basis
            assert groebner._interreduce(basis[::-1]) == basis

    def test_bases_of_the_engine_tests_are_unchanged(self):
        # the bases that test_strong_basis_criterion and
        # test_intersection_is_already_a_canonical_basis read, against a
        # digest of the same run before the reducers kept their leads
        out = []
        rng = random.Random(37)
        for _ in range(40):
            out.append(_random_ideal(ZZ, rng, max_deg=3, max_coeff=10).basis)
        rng = random.Random(53)
        for ring in (ZZ, IntegersMod(12)):
            for _ in range(60):
                a = _random_ideal(ring, rng, max_deg=3, max_coeff=12).basis
                b = _random_ideal(ring, rng, max_deg=3, max_coeff=12).basis
                meet = groebner.intersect_dense(a, b)
                out.append((a, b, meet, groebner.gb_dense(list(meet))))
        digest = hashlib.sha256(repr(out).encode()).hexdigest()
        assert digest == ENGINE_TESTS_DIGEST


class TestSaturationMatchesTheColonFixpoint:
    def test_membership_stop_matches_the_reference(self):
        rng = random.Random(73)
        chains = zero_constant = 0
        for n in (0, 8, 12):
            for _ in range(200):
                gens = set()
                for _ in range(rng.randint(1, 3)):
                    g = _random_dense(rng, max_len=4, max_coeff=9)
                    if g and rng.random() < 0.4:  # a factor x^k
                        g = (0,) * rng.randint(1, 4) + g
                    if g:
                        gens.add(g)
                if n:
                    gens.add((n,))
                gens = sorted(gens)
                zero_constant += any(g[0] == 0 for g in gens)
                want = helpers.saturate_by_colon_fixpoint(gens)
                assert groebner.saturate_x_dense(gens) == want, gens
                # a saturated basis is its own saturation
                assert groebner.saturate_x_dense(list(want)) == want, want
                if want and groebner.colon_x_dense(groebner.gb_dense(gens)) != want:
                    chains += 1  # the reference took two colon steps or more
        assert zero_constant >= 300 and chains >= 150, (zero_constant, chains)


class TestParseMemo:
    def test_memo_is_bounded(self):
        maxsize = LaurentIdeal.parse.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1 << 16

    def test_same_text_same_ideal(self):
        text = "<4, 2x + 2, x^3 - 7>"
        first = LaurentIdeal.parse(ZZ, text)
        assert LaurentIdeal.parse(ZZ, text) == first
        assert first == LaurentIdeal.from_polys(
            ZZ, [parse_poly(ZZ, p) for p in ("4", "2x + 2", "x^3 - 7")]
        )

    def test_the_ring_is_part_of_the_key(self):
        text = "<8, 3x + 5>"
        over_z, over_z12 = LaurentIdeal.parse(ZZ, text), LaurentIdeal.parse(IntegersMod(12), text)
        assert over_z.ring == ZZ and over_z12.ring == IntegersMod(12)
        assert over_z != over_z12
        assert over_z.basis != over_z12.basis

    def test_a_bad_literal_raises_every_time(self):
        for text in ("<2y + 1>", "4, x"):
            for _ in range(2):
                with pytest.raises(RingError):
                    LaurentIdeal.parse(ZZ, text)


@st.composite
def small_ideals(draw):
    ring = draw(st.sampled_from([ZZ, QQ, PrimeField(3), IntegersMod(4)]))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = random.Random(seed)
    return (
        _random_ideal(ring, rng, max_deg=3, max_coeff=6),
        _random_ideal(ring, rng, max_deg=3, max_coeff=6),
        _random_ideal(ring, rng, ngens=1, max_deg=3, max_coeff=6),
    )


@given(small_ideals())
@settings(max_examples=60, deadline=None)
def test_laurent_ideal_laws(data):
    a, b, c = data
    assert a + b == b + a
    assert a * b == b * a
    assert a.intersect(b) == b.intersect(a)
    assert (a + b) + c == a + (b + c)
    assert a * b <= a.intersect(b)
    # one inclusion of the distributive law always holds; the other is a
    # theorem only for field coefficients (K[x,x^-1] is a PID, Z[x,x^-1]
    # is not arithmetical and hypothesis finds witnesses over Z)
    assert a.intersect(b) + a.intersect(c) <= a.intersect(b + c)
    if a.ring.is_field:
        assert a.intersect(b + c) == a.intersect(b) + a.intersect(c)


class TestBruteforceAgreement:
    def test_ops_agree_with_row_reduction_membership(self):
        rng = random.Random(53)
        for _ in range(25):
            gens_a = [_random_poly(ZZ, rng, 3, 8) for _ in range(rng.randint(1, 2))]
            gens_b = [_random_poly(ZZ, rng, 3, 8) for _ in range(rng.randint(1, 2))]
            a = LaurentIdeal.from_polys(ZZ, gens_a)
            b = LaurentIdeal.from_polys(ZZ, gens_b)
            dense_a = [p.to_dense() for p in gens_a if not p.is_zero]
            dense_b = [p.to_dense() for p in gens_b if not p.is_zero]
            probes = [_random_poly(ZZ, rng, 4, 12) for _ in range(6)]
            probes += [q.generators()[0] for q in (a, b) if q.generators()]
            for p in probes:
                d = p.to_dense()
                assert (p in a) == helpers.laurent_member_bruteforce(d, dense_a)
                in_sum = helpers.laurent_member_bruteforce(d, dense_a + dense_b)
                assert (p in a + b) == in_sum
                in_meet = helpers.laurent_member_bruteforce(
                    d, dense_a
                ) and helpers.laurent_member_bruteforce(d, dense_b)
                assert (p in a.intersect(b)) == in_meet
