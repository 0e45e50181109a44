"""Coefficient rings and exact arithmetic on their ideals.

Supported rings: the integers Z, the rationals Q, modular rings Z/n, and
prime fields F_p.  Every ideal of each of these is principal, so an ideal
is stored as a canonical generator (an int); all lattice algorithms
downstream rely on that canonical form and on the ascending chain
condition, which all four rings satisfy.
"""

from __future__ import annotations

import math
from fractions import Fraction


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# below this bound a strong probable prime to all of _MR_BASES is prime
# (Sorenson and Webster, Math. Comp. 86, 2017)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime_int(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin; refuses n at or above
    the bound where the fixed bases are proven to suffice."""
    if n >= _MR_EXACT_BELOW:
        raise RingError(f"primality of {n} is only decided exactly below {_MR_EXACT_BELOW}")
    if n < 2 or any(n % p == 0 for p in _MR_BASES):
        return n in _MR_BASES
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _decimal(text: str) -> int:
    """The int an optional '-' and ASCII digits spell; int() alone would
    also read '+', '_', inner spaces and other scripts' digits."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal numeral: {text!r}")
    return int(text)


def _divides(a: int, b: int) -> bool:
    # "a divides b" with the convention that 0 divides only 0
    if a == 0:
        return b == 0
    return b % a == 0


class RingError(ValueError):
    pass


class RingSpec:
    """Base class for the supported coefficient rings.

    Elements are plain ints (Z, Z/n, F_p) or Fractions (Q).  Every ideal is
    principal and is stored as a canonical nonnegative int generator; the
    rings define the ideal arithmetic on those generators: ``gen_normalize``,
    ``gen_from_elements``, ``gen_sum``, ``gen_intersect``, ``gen_product``,
    ``gen_contains(a, b)`` (whether (a) contains (b)), ``gen_member`` and
    ``gen_is_prime``.  The arguments of all but ``gen_normalize``,
    ``gen_from_elements`` and ``gen_member`` are canonical already, and
    every result is.
    """

    name = "?"
    is_field = False
    is_finite = False

    # -- element arithmetic --------------------------------------------
    def normalize(self, x):
        raise NotImplementedError

    def add(self, a, b):
        return self.normalize(a + b)

    def sub(self, a, b):
        return self.normalize(a - b)

    def mul(self, a, b):
        return self.normalize(a * b)

    def neg(self, a):
        return self.normalize(-a)

    def zero(self):
        return self.normalize(0)

    def one(self):
        return self.normalize(1)

    def is_zero(self, a) -> bool:
        return self.normalize(a) == self.zero()

    def inverse(self, a):
        raise NotImplementedError

    def elements(self):
        raise RingError(f"{self} is not finite")

    def parse_element(self, text: str):
        text = text.strip()
        try:
            if "/" in text and isinstance(self, RationalField):
                num, den = text.split("/")
                return self.normalize(Fraction(_decimal(num), _decimal(den)))
            return self.normalize(_decimal(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise RingError(f"bad element {text!r} for {self}") from exc

    def gen_generator_element(self, g: int):
        """A ring element generating the ideal with canonical generator g."""
        return self.normalize(g)

    def enumerate_gens(self):
        raise RingError(f"ideal lattice of {self} is infinite")

    # the rings without parameters; IntegersMod compares its modulus too
    def __eq__(self, other):
        return type(other) is type(self)

    def __hash__(self):
        return hash(type(self))

    def __repr__(self):
        return self.name

    def __str__(self):
        return self.name


class IntegerRing(RingSpec):
    """The ring Z/nZ, which is Z itself for the class default n = 0.

    One divisor arithmetic serves Z, Z/n and F_p: the ideals are the (d)
    with d dividing n, and the canonical generator is d, except that the
    zero ideal (n) is stored as 0.  Subclasses set n and keep this ideal
    arithmetic unchanged.
    """

    name = "Z"
    n = 0

    def normalize(self, x):
        return int(x)

    def gen_normalize(self, g):
        d = math.gcd(int(g), self.n)
        return 0 if d == self.n else d

    def gen_from_elements(self, elems):
        return self.gen_normalize(math.gcd(*(self.normalize(e) for e in elems)))

    def gen_sum(self, a, b):
        return math.gcd(a, b)

    def gen_intersect(self, a, b):
        d = math.lcm(a, b)
        return 0 if d == self.n else d

    def gen_product(self, a, b):
        d = math.gcd(a * b, self.n)
        return 0 if d == self.n else d

    def gen_contains(self, a, b):
        return _divides(a, b)

    def gen_member(self, g, x):
        return _divides(g, self.normalize(x))

    def gen_is_prime(self, g):
        # (d) is prime iff the quotient Z/d is a domain; the zero ideal is d = n
        g = g or self.n
        return g == 0 or is_prime_int(g)


class RationalField(RingSpec):
    """The rationals, whose only ideals are (0) and (1)."""

    name = "Q"
    is_field = True

    def normalize(self, x):
        return Fraction(x)

    def inverse(self, a):
        return 1 / Fraction(a)

    def gen_normalize(self, g):
        return 0 if g == 0 else 1

    def gen_from_elements(self, elems):
        return 1 if any(Fraction(e) != 0 for e in elems) else 0

    def gen_sum(self, a, b):
        return max(a, b)

    def gen_intersect(self, a, b):
        return min(a, b)

    def gen_product(self, a, b):
        return min(a, b)

    def gen_contains(self, a, b):
        return a >= b

    def gen_member(self, g, x):
        return g == 1 or Fraction(x) == 0

    def gen_is_prime(self, g):
        return g == 0

    def gen_generator_element(self, g):
        return Fraction(g)


class IntegersMod(IntegerRing):
    """The ring Z/n for n >= 2; ideals are the divisor ideals (d) with d | n."""

    __slots__ = ("n",)
    is_finite = True

    def __init__(self, n: int):
        if n < 2:
            raise RingError(f"modulus must be >= 2, got {n}")
        self.n = n

    def __eq__(self, other):
        return self.n == other.n if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((self.n,))

    @property
    def name(self):
        return f"Z/{self.n}"

    def normalize(self, x):
        return int(x) % self.n

    def inverse(self, a):
        return pow(self.normalize(a), -1, self.n)

    def elements(self):
        return range(self.n)

    def enumerate_gens(self):
        return [self.gen_normalize(d) for d in range(1, self.n + 1) if self.n % d == 0]


class PrimeField(IntegersMod):
    """The prime field F_p, that is Z/p with p prime."""

    is_field = True

    def __init__(self, n: int):
        if not is_prime_int(n):
            raise RingError(f"{n} is not prime")
        self.n = n

    @property
    def name(self):
        return f"F{self.n}"

    def enumerate_gens(self):
        return [0, 1]


ZZ = IntegerRing()
QQ = RationalField()


def parse_ring(spec: str) -> RingSpec:
    """Parse a ring spec such as ``Z``, ``Q``, ``Z/12``, or ``F7``.

    A well-formed spec that the ring refuses (``F8``, ``Z/1``) raises the
    ring's own RingError, which gives the reason.
    """
    return ring_constructor(spec)()


def ring_constructor(spec: str):
    """The ring a spec names, as a call not yet made.  Raises RingError only
    when the grammar cannot read the spec; the call raises when the ring
    refuses its argument."""
    spec = spec.strip()
    if spec == "Z":
        return lambda: ZZ
    if spec == "Q":
        return lambda: QQ
    for prefix, cls in (("Z/", IntegersMod), ("F", PrimeField)):
        if spec.startswith(prefix):
            try:
                arg = _decimal(spec[len(prefix):])
            except ValueError as exc:
                raise RingError(f"bad ring spec {spec!r}") from exc
            return lambda: cls(arg)
    raise RingError(f"unknown ring spec {spec!r}")


class RingIdeal:
    """An ideal of a supported ring, in canonical generator form."""

    __slots__ = ("ring", "gen")

    def __init__(self, ring: RingSpec, gen: int):
        self.ring, self.gen = ring, ring.gen_normalize(gen)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.gen == other.gen

    def __hash__(self):
        return hash((self.ring, self.gen))

    def __repr__(self):
        return f"RingIdeal(ring={self.ring!r}, gen={self.gen!r})"

    @staticmethod
    def of(ring: RingSpec, *elements) -> "RingIdeal":
        return RingIdeal(ring, ring.gen_from_elements(elements))

    @staticmethod
    def zero(ring: RingSpec) -> "RingIdeal":
        return RingIdeal(ring, 0)

    def _check(self, other: "RingIdeal"):
        if self.ring != other.ring:
            raise RingError(f"mismatched rings {self.ring} and {other.ring}")

    def __add__(self, other: "RingIdeal") -> "RingIdeal":
        self._check(other)
        return RingIdeal(self.ring, self.ring.gen_sum(self.gen, other.gen))

    def intersect(self, other: "RingIdeal") -> "RingIdeal":
        self._check(other)
        return RingIdeal(self.ring, self.ring.gen_intersect(self.gen, other.gen))

    __and__ = intersect

    def __mul__(self, other: "RingIdeal") -> "RingIdeal":
        self._check(other)
        return RingIdeal(self.ring, self.ring.gen_product(self.gen, other.gen))

    def __le__(self, other: "RingIdeal") -> bool:
        self._check(other)
        return self.ring.gen_contains(other.gen, self.gen)

    def __contains__(self, element) -> bool:
        return self.ring.gen_member(self.gen, element)

    @property
    def is_zero(self) -> bool:
        return self.gen == 0

    @property
    def is_unit(self) -> bool:
        return self.gen == 1

    def generator_element(self):
        return self.ring.gen_generator_element(self.gen)

    def __str__(self):
        return f"({self.gen})"


def ideal_enumerate(ring: RingSpec) -> list[RingIdeal]:
    """All ideals of a finite ring, each once; raises for Z and Q."""
    return [RingIdeal(ring, g) for g in ring.enumerate_gens()]
