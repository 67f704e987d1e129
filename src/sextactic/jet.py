"""Truncated Taylor jets of polynomials in (x, y, z) at a point.

A jet of order n lists the coefficients of the monomials v^e of
(v_x, v_y, v_z) of total degree |e| <= n in ``_jet_monomials(n)`` order: by
total degree first, so the jet of order m < n is the first entries of the
jet of order n.  The index tables of products and partials depend on n
alone, those of ``TaylorJet.of`` on n and the coordinate it divides by;
each is built once.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add, itemgetter, mul, sub

from .poly import XYZ, PolyError, UnknownVariable


def _getter(indices):
    """The entries at ``indices`` of a list, as a sequence even for one."""
    if len(indices) == 1:
        i = indices[0]
        return lambda u: (u[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _jet_monomials(n):
    """The exponents e of (v_x, v_y, v_z) with |e| <= n, ascending in |e|,
    and their index."""
    mons = tuple(
        (a, b, g - a - b) for g in range(n + 1) for a in range(g, -1, -1) for b in range(g - a, -1, -1)
    )
    return mons, {e: k for k, e in enumerate(mons)}


@lru_cache(maxsize=None)
def _jet_product(n):
    """(left, right, spans) for the product of two jets a and b of order n:
    entry k of a * b is the sum over the slice spans[k] of the products
    left(a)[i] * right(b)[i]."""
    mons, index = _jet_monomials(n)
    pairs = [[] for _ in mons]
    for i, a in enumerate(mons):
        # the b with |a| + |b| <= n come first
        for j, b in enumerate(mons[: comb(n - sum(a) + 3, 3)]):
            pairs[index[(a[0] + b[0], a[1] + b[1], a[2] + b[2])]].append((i, j))
    left, right, spans, end = [], [], [], 0
    for ps in pairs:
        left += [i for i, _ in ps]
        right += [j for _, j in ps]
        spans.append(slice(end, end + len(ps)))
        end += len(ps)
    return _getter(left), _getter(right), tuple(spans)


@lru_cache(maxsize=None)
def _jet_partial(n, v):
    """(source, factors) of the partial in variable v of a jet of order n:
    entry e of the partial is (e_v + 1) times entry e + 1_v of the jet."""
    if n < 1:
        raise PolyError("a jet of order 0 has no partials")
    mons, index = _jet_monomials(n)
    low = _jet_monomials(n - 1)[0]
    step = [tuple(e[k] + (k == v) for k in range(3)) for e in low]
    return _getter([index[e] for e in step]), [e[v] + 1 for e in low]


@lru_cache(maxsize=None)
def _jet_euler(n, r):
    """(u, w, plane, steps) for ``TaylorJet.of`` at order n and a point
    whose coordinate r is nonzero.  u and w are the other two variables;
    plane[a][b] is the index of v_u^a v_w^b.  Each step gives the entry
    e + 1_r from entries of lower power of v_r, as the indices of e + 1_r,
    e, e + 1_u and e + 1_w, then |e|, e_u + 1, e_w + 1 and e_r + 1; the
    steps run in ascending e_r, so every entry a step reads is known."""
    u, w = (k for k in range(3) if k != r)
    mons, index = _jet_monomials(n)

    def at(eu, ew, er):
        e = [0, 0, 0]
        e[u], e[w], e[r] = eu, ew, er
        return index[tuple(e)]

    plane = tuple(tuple(at(a, b, 0) for b in range(n + 1 - a)) for a in range(n + 1))
    steps = tuple(
        (at(a, b, c + 1), at(a, b, c), at(a + 1, b, c), at(a, b + 1, c), a + b + c, a + 1, b + 1, c + 1)
        for c in range(n)
        for a in range(n - c)
        for b in range(n - c - a)
    )
    return u, w, plane, steps


class TaylorJet:
    """The Taylor expansion of a polynomial in (x, y, z) at a point p,
    truncated after total order ``order``: ``coeffs`` lists the coefficient
    of each monomial v^e, |e| <= order, of P(p + v) in ``_jet_monomials``
    order, so ``coeffs[0]`` is P(p) and the coefficient of v^e is the
    partial of P of multi-index e at p over e!.

    Jets form a ring with partials, as ``TernaryForm`` and ``MPoly`` do, so
    the Hessian chain runs on them unchanged (Taylor-mode forward
    propagation; Griewank and Walther, Evaluating Derivatives, 2nd ed.,
    SIAM 2008, ch. 13).  A partial lowers the order by one; a sum or a
    product has the lower order of its two operands, whose entries it needs
    only up to that order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def of(cls, terms, degree, point, order):
        """The jet of the given order at an integer point of the form
        sum c x^i y^j z^k of a term dict with int c, of the given degree.

        With a coordinate q_r of the point nonzero, the entries free of v_r
        come from the terms: each term's powers of q_r + v_r and q_w + v_w
        are expanded up to the order, summed per power of u, and then
        multiplied by those of q_u + v_u.  Euler's relation for the partials
        of F, homogeneous of degree d - |e|, gives the rest:
        (d - |e|) T[e] = sum over k of q_k (e_k + 1) T[e + 1_k], an exact
        integer division by q_r (e_r + 1) for each entry e + 1_r.
        """
        n = order
        r = 2 if point[2] else 1 if point[1] else 0
        u, w, plane, steps = _jet_euler(n, r)
        qu, qw, qr = point[u], point[w], point[r]
        rows = {}
        for e, c in terms.items():
            j = e[w]
            top = min(j, n)
            x = c * qr ** e[r] * qw ** (j - top)
            row = rows.get(e[u])
            if row is None:
                row = rows[e[u]] = [0] * (n + 1)
            for b in range(top, -1, -1):
                row[b] += x * comb(j, b)
                x *= qw
        out = [0] * len(_jet_monomials(n)[0])
        for i, row in rows.items():
            top = min(i, n)
            x = qu ** (i - top)
            for a in range(top, -1, -1):
                y = x * comb(i, a)
                for k, s in zip(plane[a], row):
                    out[k] += y * s
                x *= qu
        for k, e, eu, ew, g, mu, mw, mr in steps:
            out[k] = ((degree - g) * out[e] - qu * mu * out[eu] - qw * mw * out[ew]) // (qr * mr)
        return cls(n, out)

    @property
    def value(self):
        """The value at the point: the constant term."""
        return self.coeffs[0]

    def __add__(self, other):
        return TaylorJet(min(self.order, other.order), list(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return TaylorJet(min(self.order, other.order), list(map(sub, self.coeffs, other.coeffs)))

    def __mul__(self, other):
        if isinstance(other, int):
            return TaylorJet(self.order, [c * other for c in self.coeffs])
        if not isinstance(other, TaylorJet):
            return NotImplemented
        return TaylorJet.dot(((1, self, other),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs):
        """The jet sum(c * a * b) over the (int c, jet a, jet b) of
        ``pairs``, of the lowest order among the products: the products of
        the entries add up before each coefficient's sum is taken."""
        n = min(min(a.order, b.order) for _, a, b in pairs)
        left, right, spans = _jet_product(n)
        total = None
        for c, a, b in pairs:
            prods = map(mul, left(a.coeffs), right(b.coeffs))
            if c != 1:
                prods = map(c.__mul__, prods)
            total = list(prods) if total is None else list(map(add, total, prods))
        return TaylorJet(n, [sum(total[s]) for s in spans])

    def partial(self, var):
        """The partial in "x", "y" or "z", one order lower."""
        if var not in XYZ:
            raise UnknownVariable(f"variable {var!r} not among {XYZ}")
        source, factors = _jet_partial(self.order, XYZ.index(var))
        return TaylorJet(self.order - 1, list(map(mul, source(self.coeffs), factors)))

    def grad(self):
        return tuple(self.partial(v) for v in XYZ)

    def __repr__(self):
        return f"TaylorJet({self.order}: {self.coeffs})"
