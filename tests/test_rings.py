import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpalattice import (
    QQ,
    ZZ,
    IntegersMod,
    PrimeField,
    RingError,
    RingIdeal,
    ideal_enumerate,
    parse_ring,
)
from lpalattice.ideals import context
from lpalattice.rings import is_prime_int

import helpers

RINGS = [ZZ, QQ, IntegersMod(4), IntegersMod(12), PrimeField(2), PrimeField(5)]


def test_parse_ring():
    assert parse_ring("Z") == ZZ
    assert parse_ring("Q") == QQ
    assert parse_ring("Z/12") == IntegersMod(12)
    assert parse_ring("F7") == PrimeField(7)
    for bad in ("F8", "Z/1", "GF5", "Z/x"):
        with pytest.raises(RingError):
            parse_ring(bad)


def test_integer_ideal_arithmetic():
    four, six = RingIdeal(ZZ, 4), RingIdeal(ZZ, 6)
    assert four + six == RingIdeal(ZZ, 2)
    assert four.intersect(six) == RingIdeal(ZZ, 12)
    a, b = RingIdeal(ZZ, 3), RingIdeal(ZZ, 6)
    assert a * b <= b
    assert 12 in four and 2 not in four


def test_integer_primality():
    assert helpers.is_prime(RingIdeal(ZZ, 2))
    assert not helpers.is_prime(RingIdeal(ZZ, 4))
    assert helpers.is_prime(RingIdeal(ZZ, 0))
    assert not helpers.is_prime(RingIdeal(ZZ, 1))


def _trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_int_matches_trial_division():
    assert all(is_prime_int(n) == _trial_division(n) for n in range(20000))


def test_strong_pseudoprimes_are_composite():
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to the primes up to 23
    assert not is_prime_int(3215031751)
    assert not is_prime_int(3825123056546413051)
    assert is_prime_int(10**18 + 3) and is_prime_int(2**61 - 1)


def test_primality_refused_where_not_proven_exact():
    assert is_prime_int(3317044064679887385961979) is False
    with pytest.raises(RingError):
        is_prime_int(3317044064679887385961981)


def test_mod_ring_canonical_divisors():
    z12 = IntegersMod(12)
    assert RingIdeal(z12, 8) == RingIdeal(z12, 4)
    assert RingIdeal(z12, 24).is_zero
    assert RingIdeal(z12, 5).is_unit


def test_mod_ring_primality():
    z12 = IntegersMod(12)
    assert helpers.is_prime(RingIdeal(z12, 2))
    assert helpers.is_prime(RingIdeal(z12, 3))
    assert not helpers.is_prime(RingIdeal(z12, 4))
    assert not helpers.is_prime(RingIdeal(z12, 0))  # Z/12 is not a domain
    assert helpers.is_prime(RingIdeal(IntegersMod(5), 0))


def test_field_ideals():
    for ring in (QQ, PrimeField(5)):
        zero, unit = RingIdeal(ring, 0), RingIdeal(ring, 1)
        assert helpers.is_prime(zero) and not helpers.is_prime(unit)
        assert zero <= unit
        assert unit + zero == unit and unit.intersect(zero) == zero


def test_enumeration():
    assert [i.gen for i in ideal_enumerate(IntegersMod(4))] == [1, 2, 0]
    assert len(ideal_enumerate(IntegersMod(12))) == 6
    assert [i.gen for i in ideal_enumerate(PrimeField(5))] == [0, 1]
    for ring in (ZZ, QQ):
        with pytest.raises(RingError):
            ideal_enumerate(ring)


def test_mismatched_rings_rejected():
    with pytest.raises(RingError):
        RingIdeal(ZZ, 2) + RingIdeal(IntegersMod(4), 2)


def test_element_parsing():
    assert QQ.parse_element("3/2") == Fraction(3, 2)
    assert ZZ.parse_element("-7") == -7
    assert IntegersMod(4).parse_element("7") == 3
    with pytest.raises(RingError):
        ZZ.parse_element("3/2")


@st.composite
def ring_and_gens(draw):
    ring = draw(st.sampled_from(RINGS))
    if ring.is_finite:
        pool = ring.enumerate_gens()
    else:
        pool = list(range(0, 13))
    gens = draw(st.lists(st.sampled_from(pool), min_size=3, max_size=3))
    return ring, [RingIdeal(ring, g) for g in gens]


@given(ring_and_gens())
@settings(max_examples=300, deadline=None)
def test_ideal_laws(data):
    ring, (a, b, c) = data
    assert a + b == b + a
    assert a * b == b * a
    assert a.intersect(b) == b.intersect(a)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))
    assert a * b <= a.intersect(b)
    # all the supported rings are arithmetical
    assert a.intersect(b + c) == a.intersect(b) + a.intersect(c)
    assert a + b.intersect(c) == (a + b).intersect(a + c)


@given(ring_and_gens())
@settings(max_examples=200, deadline=None)
def test_containment_is_membership(data):
    ring, (a, b, _) = data
    if ring.is_finite:
        elems = list(ring.elements())
    else:
        elems = list(range(-12, 13))
    contained = all(x in b for x in elems if x in a)
    assert (a <= b) == contained


# -- element-set oracle ---------------------------------------------------------
# Each ideal is rebuilt as a set of elements and every operation is read off
# the sets by its definition, without calling the ring's own arithmetic.


def _residue_ideal(g, n):
    return frozenset(g * k % n for k in range(n))


def _residue_canon(ideal):
    # the canonical generator: the least positive element, 0 for the zero ideal
    return min(ideal - {0}, default=0)


def _additive_closure(gens, n):
    out = {0}
    while True:
        more = {(s + g) % n for s in out for g in gens} - out
        if not more:
            return frozenset(out)
        out |= more


def _residue_domain_quotient(ideal, n):
    # a proper ideal whose quotient has no zero divisors
    outside = [x for x in range(n) if x not in ideal]
    return bool(outside) and all(x * y % n not in ideal for x in outside for y in outside)


@pytest.mark.parametrize(
    "ring",
    [IntegersMod(n) for n in range(2, 37)] + [PrimeField(p) for p in (2, 3, 5, 7, 11, 13)],
    ids=str,
)
def test_finite_ring_ideals_match_element_sets(ring):
    n = ring.n
    ideals = {_residue_canon(_residue_ideal(g, n)): _residue_ideal(g, n) for g in range(n)}
    assert sorted(ring.enumerate_gens()) == sorted(ideals)
    for g in range(-n, 2 * n):
        assert ring.gen_normalize(g) == _residue_canon(_residue_ideal(g, n))
    for a, sa in ideals.items():
        assert ring.gen_is_prime(a) == _residue_domain_quotient(sa, n), (ring, a)
        assert all(ring.gen_member(a, x) == (x % n in sa) for x in range(-n, 2 * n))
        for b, sb in ideals.items():
            sums = frozenset((x + y) % n for x in sa for y in sb)
            products = _additive_closure({x * y % n for x in sa for y in sb}, n)
            assert ring.gen_sum(a, b) == _residue_canon(sums), (ring, a, b)
            assert ring.gen_intersect(a, b) == _residue_canon(sa & sb), (ring, a, b)
            assert ring.gen_product(a, b) == _residue_canon(products), (ring, a, b)
            assert ring.gen_contains(a, b) == (sb <= sa), (ring, a, b)


def _closure_mask(gens, top):
    # the sums of elements of gens that stay in [0, top], as a bit mask
    full = (1 << (top + 1)) - 1
    mask = 1
    while True:
        more = mask
        for p in gens:
            more |= (mask << p) & full
        if more == mask:
            return mask
        mask = more


def test_integer_ideals_match_divisor_and_element_sets():
    # (d) for d in 0..40: a sum is read off the divisor sets, since the
    # ideals containing I + J are those containing both; intersections,
    # products and inclusion are read off the elements in [0, 40 * 40]
    # (bit masks), which hold every lcm and product of two generators
    top = 40 * 40
    positive = {g: range(g, top + 1, g) if g else range(0) for g in range(top + 1)}
    members = {g: sum(1 << x for x in positive[g]) | 1 for g in positive}
    by_members = {m: g for g, m in members.items()}
    divisors = {g: frozenset(d for d in range(1, top + 1) if g % d == 0) for g in range(41)}
    by_divisors = {s: g for g, s in divisors.items()}
    for a in range(41):
        domain = a == 0 or (a > 1 and all(x * y % a for x in range(1, a) for y in range(1, a)))
        assert ZZ.gen_is_prime(a) == domain, a
        for b in range(41):
            products = {
                x * y for x in positive[a] for y in itertools.takewhile(
                    lambda y: x * y <= top, positive[b])
            }
            assert ZZ.gen_sum(a, b) == by_divisors[divisors[a] & divisors[b]], (a, b)
            assert ZZ.gen_intersect(a, b) == by_members[members[a] & members[b]], (a, b)
            assert ZZ.gen_product(a, b) == by_members[_closure_mask(products, top)], (a, b)
            assert ZZ.gen_contains(a, b) == (members[b] & ~members[a] == 0), (a, b)


def test_rings_with_one_modulus_stay_apart():
    rings = [PrimeField(5), IntegersMod(5), ZZ]
    assert all(r != s for r in rings for s in rings if r is not s)
    contexts = [context(helpers.single_vertex(), r) for r in rings]
    assert len({id(c) for c in contexts}) == 3
    assert [c.ring for c in contexts] == rings
    assert context(helpers.single_vertex(), PrimeField(5)) is contexts[0]


def test_ring_specs_and_elements_are_ascii_decimals():
    # int() alone also reads '_', '+', inner spaces and other scripts' digits
    for spec in ("Z/1_2", "Z/ 12", "Z/+12", "F\u0663", "Z/", "F"):
        with pytest.raises(RingError, match="bad ring spec"):
            parse_ring(spec)
    for text in ("1_2", "+12", "1 2", "\u0661\u0662", "-", "1/2_0", "1/+2"):
        with pytest.raises(RingError, match="bad element"):
            QQ.parse_element(text)
    # a leading '-' and leading zeros read as they did
    assert parse_ring("Z/012") == IntegersMod(12) and parse_ring("F07") == PrimeField(7)
    with pytest.raises(RingError, match="modulus must be >= 2, got -5"):
        parse_ring("Z/-5")
    assert ZZ.parse_element(" -012 ") == -12 and QQ.parse_element("-1/-02") == Fraction(1, 2)


class TestValueClasses:
    """The contract the frozen dataclasses gave: equality by class and
    fields, the hash of the field tuple, and the generated repr."""

    def test_equal_fields_give_equal_objects_and_hashes(self):
        for x, y, fields in [
            (IntegersMod(12), IntegersMod(12), (12,)),
            (PrimeField(7), PrimeField(7), (7,)),
            (RingIdeal(IntegersMod(12), 6), RingIdeal(IntegersMod(12), 6), (IntegersMod(12), 6)),
            (RingIdeal(ZZ, 0), RingIdeal(ZZ, 0), (ZZ, 0)),
        ]:
            assert x == y and x is not y
            assert hash(x) == hash(y) == hash(fields)

    def test_other_classes_and_fields_compare_unequal(self):
        assert IntegersMod(7) != PrimeField(7) and PrimeField(7) != IntegersMod(7)
        assert IntegersMod(12) != IntegersMod(6) and IntegersMod(12) != ZZ
        assert RingIdeal(ZZ, 6) != RingIdeal(IntegersMod(12), 6)
        assert RingIdeal(ZZ, 6) != (ZZ, 6)

    def test_the_generator_is_normalised_and_moduli_are_checked(self):
        assert RingIdeal(IntegersMod(12), 18).gen == 6
        assert RingIdeal(IntegersMod(12), 12).gen == 0 and RingIdeal(ZZ, -4).gen == 4
        for make in (lambda: IntegersMod(1), lambda: PrimeField(4), lambda: PrimeField(1)):
            with pytest.raises(RingError):
                make()

    def test_repr(self):
        assert repr(IntegersMod(12)) == "Z/12" and repr(PrimeField(7)) == "F7"
        assert repr(RingIdeal(IntegersMod(12), 18)) == "RingIdeal(ring=Z/12, gen=6)"
        assert repr(RingIdeal(QQ, 5)) == "RingIdeal(ring=Q, gen=1)"
