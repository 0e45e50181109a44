"""Laurent polynomials over a coefficient ring and exact ideals of R[x, x^-1].

Since x is a unit, an ideal of R[x, x^-1] is identified with the
x-saturated ideal of R[x] it contracts to.  Over a field that ideal is
principal and is stored as a single normalized generator (minimum exponent
zero, nonzero constant term, monic).  Over Z it is stored as the canonical
reduced strong Groebner basis of the x-saturated ideal; over Z/n the same
engine is reused on the lift to Z[x] with the modulus adjoined.
"""

from __future__ import annotations

import re
from functools import lru_cache

from . import groebner
from .rings import RingError, RingIdeal, RingSpec


class LaurentPoly:
    """A Laurent polynomial, stored as sorted (exponent, coefficient) terms."""

    __slots__ = ("ring", "terms")  # terms: ((exp, coeff), ...), exps strictly increasing, coeffs nonzero

    def __init__(self, ring: RingSpec, terms: tuple):
        self.ring, self.terms = ring, terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, self.terms))

    def __repr__(self):
        return f"LaurentPoly(ring={self.ring!r}, terms={self.terms!r})"

    @staticmethod
    def from_terms(ring: RingSpec, items) -> "LaurentPoly":
        acc = {}
        pairs = items.items() if isinstance(items, dict) else items
        for exp, coeff in pairs:
            c = ring.add(acc.get(exp, ring.zero()), coeff)
            if ring.is_zero(c):
                acc.pop(exp, None)
            else:
                acc[exp] = c
        return LaurentPoly(ring, tuple(sorted(acc.items())))

    @staticmethod
    def constant(ring: RingSpec, c) -> "LaurentPoly":
        return LaurentPoly.from_terms(ring, [(0, c)])

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self):
        return [c for _, c in self.terms]

    def _binop(self, other, op):
        if self.ring != other.ring:
            raise RingError("mismatched rings")
        return LaurentPoly.from_terms(
            self.ring, list(self.terms) + [(e, op(c)) for e, c in other.terms]
        )

    def __add__(self, other):
        return self._binop(other, lambda c: c)

    def __sub__(self, other):
        return self._binop(other, self.ring.neg)

    def __mul__(self, other):
        if self.ring != other.ring:
            raise RingError("mismatched rings")
        out = []
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                out.append((e1 + e2, self.ring.mul(c1, c2)))
        return LaurentPoly.from_terms(self.ring, out)

    def scale(self, c) -> "LaurentPoly":
        return LaurentPoly.from_terms(self.ring, [(e, self.ring.mul(c, v)) for e, v in self.terms])

    def shift(self, k: int) -> "LaurentPoly":
        return LaurentPoly(self.ring, tuple((e + k, c) for e, c in self.terms))

    def to_dense(self) -> tuple:
        """Coefficients after shifting so the minimum exponent is zero."""
        if not self.terms:
            return ()
        base = self.terms[0][0]
        out = [self.ring.zero()] * (self.terms[-1][0] - base + 1)
        for e, c in self.terms:
            out[e - base] = c
        return tuple(out)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for i, (e, c) in enumerate(self.terms):
            neg = False
            try:
                neg = c < 0
            except TypeError:
                pass
            mag = -c if neg else c
            if e == 0:
                body = str(mag)
            else:
                xpart = "x" if e == 1 else f"x^{e}"
                body = xpart if mag == 1 else f"{mag}{xpart}"
            if i == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(pieces)


MAX_EXPONENT_SPAN = 1 << 10  # highest less lowest exponent of a parsed polynomial

# int() converts at most 4300 digits, so a longer exponent is a bad term
_TERM_RE = re.compile(r"(?:(?P<c>[0-9]+(?:/[0-9]+)?)\*?)?(?P<x>x(?:\^(?P<e>-?[0-9]{1,4300}))?)?")
# a whole run of spaces, unless it sits between two digits or next to the / of
# a fraction: such a run is kept, and the term it sits in is a bad one
_SPACES_RE = re.compile(r" (?:(?<![ /0-9] ) *(?![ /])|(?<![ /] ) *(?![ /0-9]))")


def parse_poly(ring: RingSpec, text: str) -> LaurentPoly:
    """Parse terms like ``3x^-2 + 1 - x`` or ``2*x^3``."""
    s = _SPACES_RE.sub("", text)
    if not s:
        raise RingError("empty polynomial")
    chunks = []
    cur = ""
    for ch in s:
        if ch in "+-" and cur and cur[-1] not in "^+-*/":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    terms = []
    for chunk in chunks:
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        m = _TERM_RE.fullmatch(chunk)
        if not m or (m["c"] is None and m["x"] is None):
            raise RingError(f"bad polynomial term {chunk!r} in {text!r}")
        coeff = ring.parse_element(m["c"]) if m["c"] is not None else ring.one()
        if sign < 0:
            coeff = ring.neg(coeff)
        exp = 0
        if m["x"] is not None:
            exp = int(m["e"]) if m["e"] is not None else 1
        terms.append((exp, coeff))
    p = LaurentPoly.from_terms(ring, terms)
    if p.terms and p.terms[-1][0] - p.terms[0][0] > MAX_EXPONENT_SPAN:
        raise RingError(f"polynomial {text!r} spans more than {MAX_EXPONENT_SPAN} powers of x")
    return p


# -- dense helpers over a field ------------------------------------------


def _f_trim(ring, v):
    v = list(v)
    while v and ring.is_zero(v[-1]):
        v.pop()
    return v


def _f_divmod(ring, a, b):
    b = _f_trim(ring, b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv = ring.inverse(b[-1])
    r = _f_trim(ring, a)
    q = [ring.zero()] * max(0, len(r) - len(b) + 1)
    while len(r) >= len(b):
        k = len(r) - len(b)
        f = q[k] = ring.mul(r.pop(), inv)
        for i in range(len(b) - 1):
            r[k + i] = ring.sub(r[k + i], ring.mul(f, b[i]))
        while r and ring.is_zero(r[-1]):
            r.pop()
    return q, r


def _f_gcd(ring, a, b):
    """The canonical gcd (see ``_f_normalize``).  Every remainder is
    normalized too, which keeps Fraction coefficients from swelling."""
    a, b = _f_normalize(ring, a), _f_normalize(ring, b)
    while b:
        a, b = b, _f_normalize(ring, _f_divmod(ring, a, b)[1])
    return a


def _f_normalize(ring, v):
    """Strip x factors and make monic; canonical generator over a field."""
    v = _f_trim(ring, v)
    while v and ring.is_zero(v[0]):
        v.pop(0)
    if not v:
        return ()
    inv = ring.inverse(v[-1])
    return tuple(ring.mul(c, inv) for c in v)


# -- cached integer-side engine calls ------------------------------------


@lru_cache(maxsize=1 << 16)
def _z_saturate(gens: tuple) -> tuple:
    return groebner.saturate_x_dense(list(gens))


@lru_cache(maxsize=1 << 16)
def _z_intersect(a: tuple, b: tuple) -> tuple:
    return groebner.intersect_dense(a, b)


# -- the two engines: a monic gcd over a field, a strong basis otherwise --


def _basis(ring, denses) -> tuple:
    """Canonical basis of the ideal that the dense tuples generate."""
    if ring.is_field:
        g = ()
        for d in denses:
            g = _f_gcd(ring, g, d)
        return (g,) if g else ()
    gens = {d for d in denses if d}
    if ring.n:
        gens.add((ring.n,))
    return _z_saturate(tuple(sorted(gens)))


@lru_cache(maxsize=1 << 16)
def _member(ring, d: tuple, basis: tuple) -> bool:
    """Whether the dense tuple d lies in the ideal with this canonical basis."""
    if ring.is_field:
        return not _f_divmod(ring, d, basis[0])[1] if basis else not d
    return groebner.member_dense(d, basis)


PARSE_MEMO_SIZE = 1 << 12  # ideal literals that LaurentIdeal.parse remembers


class LaurentIdeal:
    """An ideal of R[x, x^-1] in canonical basis form.

    Two ideals are equal iff their bases are identical; every basis element
    has a nonzero constant term.  Over a field the basis is empty, ``(1)``
    or one monic generator of degree at least 1, so the formulas that read
    a strong basis over Z or Z/n read it as well.
    """

    __slots__ = ("ring", "basis")

    def __init__(self, ring: RingSpec, basis: tuple):
        self.ring, self.basis = ring, basis

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.ring == other.ring and self.basis == other.basis

    def __hash__(self):
        return hash((self.ring, self.basis))

    def __repr__(self):
        return f"LaurentIdeal(ring={self.ring!r}, basis={self.basis!r})"

    # -- construction ----------------------------------------------------
    @staticmethod
    def from_polys(ring: RingSpec, polys) -> "LaurentIdeal":
        return LaurentIdeal(ring, _basis(ring, [p.to_dense() for p in polys]))

    @staticmethod
    @lru_cache(maxsize=PARSE_MEMO_SIZE)
    def parse(ring: RingSpec, text: str) -> "LaurentIdeal":
        """The ideal an ``<p, q, ...>`` literal spans; memoised per (ring,
        text), since pair files are read again by every later request."""
        text = text.strip()
        if not (text.startswith("<") and text.endswith(">")):
            raise RingError(f"bad ideal literal {text!r}")
        inner = text[1:-1].strip()
        polys = [parse_poly(ring, part) for part in inner.split(",")] if inner else []
        return LaurentIdeal.from_polys(ring, polys)

    @staticmethod
    def zero(ring: RingSpec) -> "LaurentIdeal":
        return LaurentIdeal.from_polys(ring, [])

    @staticmethod
    def unit(ring: RingSpec) -> "LaurentIdeal":
        return LaurentIdeal.from_polys(ring, [LaurentPoly.constant(ring, ring.one())])

    @staticmethod
    def extend(ideal: RingIdeal) -> "LaurentIdeal":
        """The extension J[x, x^-1] of an ideal J of R."""
        ring = ideal.ring
        return LaurentIdeal.from_polys(
            ring, [LaurentPoly.constant(ring, ideal.generator_element())]
        )

    # -- basic structure -------------------------------------------------
    def _check(self, other: "LaurentIdeal"):
        if self.ring != other.ring:
            raise RingError(f"mismatched rings {self.ring} and {other.ring}")

    @property
    def is_zero(self) -> bool:
        return self == LaurentIdeal.zero(self.ring)

    @property
    def is_unit(self) -> bool:
        return self.basis == ((1,),)

    def generators(self) -> list[LaurentPoly]:
        out = []
        for d in sorted(self.basis, key=lambda d: (len(d), d)):
            p = LaurentPoly.from_terms(self.ring, list(enumerate(d)))
            if not p.is_zero:
                out.append(p)
        return out

    def __str__(self):
        return "<" + ", ".join(str(p) for p in self.generators()) + ">"

    # -- membership and containment ---------------------------------------
    def __contains__(self, p: LaurentPoly) -> bool:
        if p.ring != self.ring:
            raise RingError("mismatched rings")
        return _member(self.ring, p.to_dense(), self.basis)

    def __le__(self, other: "LaurentIdeal") -> bool:
        self._check(other)
        return all(_member(self.ring, b, other.basis) for b in self.basis)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LaurentIdeal") -> "LaurentIdeal":
        self._check(other)
        return LaurentIdeal(self.ring, _basis(self.ring, self.basis + other.basis))

    def __mul__(self, other: "LaurentIdeal") -> "LaurentIdeal":
        self._check(other)
        gens = [groebner.dense_mul(a, b) for a in self.basis for b in other.basis]
        return LaurentIdeal(self.ring, _basis(self.ring, gens))

    def intersect(self, other: "LaurentIdeal") -> "LaurentIdeal":
        self._check(other)
        ring = self.ring
        if not ring.is_field:
            return LaurentIdeal(ring, _z_intersect(self.basis, other.basis))
        if not (self.basis and other.basis):
            return LaurentIdeal.zero(ring)
        a, b = self.basis[0], other.basis[0]
        q, _ = _f_divmod(ring, b, _f_gcd(ring, a, b))
        return LaurentIdeal(ring, _basis(ring, [groebner.dense_mul(a, q)]))

    __and__ = intersect

    def scale(self, element) -> "LaurentIdeal":
        """The ideal generated by element * (each generator)."""
        return LaurentIdeal.from_polys(
            self.ring, [p.scale(element) for p in self.generators()]
        )

    # -- contraction, extension, grading -----------------------------------
    def contract(self) -> RingIdeal:
        """The ideal I /\\ R of the coefficient ring."""
        for d in self.basis:
            if len(d) == 1:
                return RingIdeal(self.ring, d[0])
        return RingIdeal.zero(self.ring)

    def coefficient_ideal(self) -> RingIdeal:
        """The smallest J <= R with I contained in J[x, x^-1]."""
        return RingIdeal.of(self.ring, *(c for d in self.basis for c in d))

    def is_graded(self) -> bool:
        """Graded for the Z-grading of R[x, x^-1]; exactly the extensions."""
        return self == LaurentIdeal.extend(self.contract())
