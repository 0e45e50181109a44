"""Strong Groebner bases for polynomial ideals over the integers.

Ideals live in Z[x].  Intersections alone are computed through the
rank-two free module Z[x]^2 with one auxiliary component that gets
eliminated; the colon (I : x) needs no auxiliary component (see
`colon_x_dense`).  A *strong* basis is one where every leading term of the
ideal is divisible, monomial and coefficient both, by the leading term of
some basis element; over a Euclidean coefficient ring this is obtained by
completing under S-polynomials and gcd-polynomials.

Monomials are pairs (component, x-degree) compared lexicographically, so
the auxiliary component dominates and the order restricts to the degree
order on Z[x].  Multiplication only shifts the x-degree: a monomial can
never change component, which is what keeps the elimination tame.
"""

from __future__ import annotations

import heapq
import math
from itertools import zip_longest

Mono = tuple[int, int]  # (component, x-degree)
Poly = dict[Mono, int]  # monomial -> nonzero coefficient


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, u, v) with g = gcd(a, b) = u*a + v*b, g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def p_trim(p: Poly) -> Poly:
    return {m: c for m, c in p.items() if c != 0}


def p_add(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def p_scale_shift(p: Poly, c: int, shift: int) -> Poly:
    """Multiply by c * x^shift for a nonzero c; the component of each
    monomial is fixed."""
    return {(m[0], m[1] + shift): c * v for m, v in p.items()}


def p_lt(p: Poly) -> tuple[Mono, int]:
    m = max(p)
    return m, p[m]


def reduce_poly(f: Poly, basis: list[Poly]) -> Poly:
    """Full normal form of f modulo basis.

    Coefficients are reduced with canonical Euclidean remainders
    (0 <= r < leading coefficient of the reducer); among the reducers that
    make progress the one with the smallest leading coefficient is used,
    which is the canonical choice when the basis is inter-reduced.  A
    reducer's other terms land below the monomial it reduces, so monomials
    leave `work` largest first and a finished one is never touched again.
    """
    return _reduce(f, [(p_lt(b), b) for b in basis if b])


def _reduce(f: Poly, reducers: list) -> Poly:
    # reduce_poly with each reducer given as ((lead monomial, lead
    # coefficient), poly), in basis order so that ties break the same way
    work = dict(f)
    out: Poly = {}
    while work:
        m = max(work)
        c = work.pop(m)
        if c == 0:
            continue
        best = None
        for (bm, bc), b in reducers:
            if bm[0] == m[0] and bm[1] <= m[1] and c // bc != 0:
                if best is None or bc < best[0][1] or (bc == best[0][1] and bm > best[0][0]):
                    best = ((bm, bc), b)
        if best is None:
            out[m] = c
            continue
        (bm, bc), b = best
        q = c // bc
        r = c - q * bc
        if r:
            work[m] = r
        shift = m[1] - bm[1]
        for m2, v in b.items():
            if m2 == bm:
                continue
            k = (m2[0], m2[1] + shift)
            s = work.get(k, 0) - q * v
            if s:
                work[k] = s
            else:
                work.pop(k, None)
    return out


def _sign_norm(p: Poly) -> Poly:
    if p and p_lt(p)[1] < 0:
        return {m: -v for m, v in p.items()}
    return p


def _pair_candidates(f: Poly, g: Poly) -> list[Poly]:
    """The S-polynomial of f and g, then their gcd-polynomial when neither
    leading coefficient divides the other."""
    (mf, cf), (mg, cg) = p_lt(f), p_lt(g)
    d = max(mf[1], mg[1])
    sf, sg = d - mf[1], d - mg[1]
    l = cf * cg // math.gcd(cf, cg)
    out = [p_add(p_scale_shift(f, l // cf, sf), p_scale_shift(g, -(l // cg), sg))]
    if cf % cg != 0 and cg % cf != 0:
        _, u, v = xgcd(cf, cg)
        out.append(p_add(p_scale_shift(f, u, sf), p_scale_shift(g, v, sg)))
    return out


def strong_groebner(gens: list[Poly]) -> list[Poly]:
    """Canonical reduced strong Groebner basis of the ideal the gens span.

    Pairs are processed smallest lcm first and basis elements whose leading
    term becomes strongly reducible are retired and re-reduced, which keeps
    coefficients from compounding.  The completion is self-certifying: the
    loop only exits once every S- and gcd-polynomial of the surviving basis
    reduces to zero.
    """
    basis: list[Poly] = []
    leads: list[tuple[Mono, int]] = []
    alive: list[bool] = []
    reducers: list = []  # (lead, element) of the alive elements, in basis order
    pairs: list = []  # (lcm monomial, i, j), pushed in increasing (i, j)
    todo: list[Poly] = [p for g in gens if (p := _sign_norm(p_trim(g)))]

    def insert(h):
        # retire each alive element whose lead h strongly divides; pair h
        # with every other alive element whose lead shares its component
        (hk, hd), hc = lead = p_lt(h)
        i = len(basis)
        for j, ((bk, bd), bc) in enumerate(leads):
            if not alive[j] or bk != hk:
                continue
            if hd <= bd and bc % hc == 0:
                alive[j] = False
                todo.append(basis[j])
            else:
                heapq.heappush(pairs, ((hk, max(hd, bd)), i, j))
        basis.append(h)
        leads.append(lead)
        alive.append(True)
        reducers[:] = [(l, b) for l, b, a in zip(leads, basis, alive) if a]

    while True:
        while todo or pairs:
            if todo:
                cand = todo.pop()
            else:
                _, i, j = heapq.heappop(pairs)
                if not (alive[i] and alive[j]):
                    continue
                cands = _pair_candidates(basis[i], basis[j])
                todo.extend(cands[1:])
                cand = cands[0]
            h = _sign_norm(_reduce(cand, reducers))
            if h:
                insert(h)
        leftovers = []
        for i, ((fm, _), f) in enumerate(reducers):
            for (gm, _), g in reducers[:i]:
                if fm[0] != gm[0]:
                    continue
                for cand in _pair_candidates(f, g):
                    if _reduce(cand, reducers):
                        leftovers.append(cand)
        if not leftovers:
            return _interreduce([b for _, b in reducers])
        todo.extend(leftovers)


def _interreduce(basis: list[Poly]) -> list[Poly]:
    # tail-reduce for the canonical form: the terms below each lead are
    # reduced by the mates, which never reach the lead.  No leading term of
    # strong_groebner's basis is strongly reducible by a mate: each inserted
    # element is fully reduced, so its leading coefficient lies strictly
    # below that of every alive element whose leading monomial divides its
    # own, and insert retires every alive element whose leading term the
    # new one strongly divides.  Tail reduction keeps each lead monomial
    reducers = [(p_lt(b), b) for b in basis]
    out = []
    for i, ((m, c), b) in enumerate(reducers):
        tail = {k: v for k, v in b.items() if k != m}
        out.append((m, _sign_norm({m: c, **_reduce(tail, reducers[:i] + reducers[i + 1:])})))
    out.sort(key=lambda t: (t[0], sorted(t[1].items())))
    return [p for _, p in out]


def is_member(f: Poly, basis: list[Poly]) -> bool:
    return not reduce_poly(f, basis)


# -- the univariate layer used for Laurent ideals -----------------------

Dense = tuple[int, ...]  # coefficients, constant term first, no trailing zero


def dense_to_poly(d: Dense) -> Poly:
    return {(0, i): c for i, c in enumerate(d) if c != 0}


def poly_to_dense(p: Poly) -> Dense:
    if not p:
        return ()
    deg = max(m[1] for m in p)
    if any(m[0] for m in p):
        raise ValueError("element is not in the eliminated component")
    out = [0] * (deg + 1)
    for (_, i), c in p.items():
        out[i] = c
    return tuple(out)


def gb_dense(gens: list[Dense]) -> tuple[Dense, ...]:
    basis = strong_groebner([dense_to_poly(g) for g in gens])
    return tuple(sorted(poly_to_dense(b) for b in basis))


def member_dense(f: Dense, basis: tuple[Dense, ...]) -> bool:
    return is_member(dense_to_poly(f), [dense_to_poly(b) for b in basis])


def dense_mul(a: Dense, b: Dense) -> Dense:
    """Product of two dense polynomials over Z."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return tuple(out)


def intersect_dense(a: tuple[Dense, ...], b: tuple[Dense, ...]) -> tuple[Dense, ...]:
    """Canonical basis of the intersection of two ideals of Z[x].

    Works in the module Z[x]^2 spanned by (f, 0) for f in a and (g, g)
    for g in b: the elements with vanishing first component are exactly
    the pairs (0, h) with h in the intersection.  The products (0, f*g)
    lie in that module, since a*b is inside the intersection, and seeding
    the elimination with them keeps its intermediate coefficients from
    swelling; the reduced basis, and so the result, is unchanged.  The
    kept elements are the reduced strong basis of the intersection, which
    is what gb_dense returns: an element with its lead in component 0 has
    all its terms there, and no component-1 lead divides them.
    """
    gens: list[Poly] = []
    for f in a:
        gens.append({(1, i): c for i, c in enumerate(f) if c != 0})
    for g in b:
        q = {(1, i): c for i, c in enumerate(g) if c != 0}
        q.update({(0, i): c for i, c in enumerate(g) if c != 0})
        gens.append(q)
    gens.extend(dense_to_poly(dense_mul(f, g)) for f in a for g in b)
    basis = strong_groebner(gens)
    kept = [p for p in basis if all(m[0] == 0 for m in p)]
    return tuple(sorted(poly_to_dense(p) for p in kept))


def _colon_quotients(gens: list[Dense]) -> list[Dense]:
    """The syzygy combinations of the nonzero gens divided by x, which
    added to the gens span (I : x); see `colon_x_dense`."""
    quotients = []
    for i, g in enumerate(gens):
        if g[0] == 0:
            quotients.append(g[1:])
            continue
        for h in gens[:i]:
            if h[0] == 0:
                continue
            d = math.gcd(g[0], h[0])
            u, v = h[0] // d, g[0] // d
            quotients.append(
                tuple(u * p - v * q for p, q in zip_longest(g[1:], h[1:], fillvalue=0))
            )
    return quotients


def colon_x_dense(basis: tuple[Dense, ...]) -> tuple[Dense, ...]:
    """Canonical basis of (I : x) for the ideal I spanned by basis.

    Let the generators g_i of I have constant terms a_i.  Writing each
    multiplier as its constant plus x times the rest shows
    I /\\ <x> = x*I + {sum c_i g_i : sum c_i a_i = 0, c_i in Z}, so (I : x)
    is I plus those combinations divided by x.  Over Z the integer
    syzygies of (a_i) are spanned by e_i for each a_i = 0 and by
    (a_j/d) e_i - (a_i/d) e_j with d = gcd(a_i, a_j): localised at a prime,
    every syzygy is a combination of the ones pairing each a_i with an a_j
    of least valuation.  One basis computation in Z[x] finishes the job.
    """
    gens = [g for g in basis if any(g)]
    return gb_dense(gens + _colon_quotients(gens))


def saturate_x_dense(gens: list[Dense]) -> tuple[Dense, ...]:
    """Canonical basis of the x-saturation of <gens>, by iterated colon.

    The current basis is a strong one, so reduction decides membership:
    once every colon quotient reduces to zero, (I : x) = I and the loop
    stops without another basis computation."""
    cur = gb_dense([g for g in gens if any(g)])
    while cur:
        reducers = [(p_lt(p), p) for p in map(dense_to_poly, cur)]
        if not any(_reduce(dense_to_poly(q), reducers) for q in _colon_quotients(list(cur))):
            break
        cur = colon_x_dense(cur)
    return cur
