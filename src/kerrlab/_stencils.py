"""The one table of finite-difference stencils: every difference quotient in
kerrlab is an entry of STENCILS formed by `combine`.  Callers keep their own
boundary handling (wrap padding, parity ghosts, interior levels only,
one-sided end rows) and hand `combine` the terms, or let `_diff` slice them.
A quotient multiplies by the reciprocal of c h^p: on complex data numpy's
division by a real forms that same product, at several times the cost."""

from __future__ import annotations

import numpy as np

from .errors import DomainError

# name -> (offsets k, weights w in summation order, c, p): the stencil is
# sum_k w_k u(. + k h) / (c h^p).  "d1_face" is the compact difference at
# the face between two points; the "_end" entries are the forward one-sided
# rules, whose `mirror` is the backward one.
STENCILS = {
    "d1": ((1, -1), (1.0, -1.0), 2.0, 1),
    "d2": ((1, 0, -1), (1.0, -2.0, 1.0), 1.0, 2),
    "d1_4": ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), 12.0, 1),
    "d2_4": ((2, 1, 0, -1, -2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2),
    "d1_face": ((1, 0), (1.0, -1.0), 1.0, 1),
    "d1_end": ((0, 1, 2), (-3.0, 4.0, -1.0), 2.0, 1),
    "d2_end": ((0, 1, 2, 3), (2.0, -5.0, 4.0, -1.0), 1.0, 2),
}


def require_normal(what, h, p=1):
    """Refuse (DomainError) a step h whose h^p, which a quotient divides by,
    is not a normal double: it would divide by 0, overflow, or lose bits."""
    if not np.finfo(float).tiny <= (h * h if p == 2 else h) < np.inf:
        raise DomainError(f"{what} = {h:g} {'does not square to' if p == 2 else 'is not'} a normal double")


def mirror(entry):
    """The entry with offsets negated and weights times (-1)^p."""
    offsets, weights, c, p = entry
    return tuple(-k for k in offsets), tuple((-1) ** p * w for w in weights), c, p


def combine(terms, entry, h, out=None):
    """sum_k w_k terms_k / (c h^p), the terms u(. + k h) in the entry's offset
    order: the first two in one new array (an array even for scalar terms),
    or in `out`, the rest added or subtracted in place; a unit weight leaves
    its term unscaled, and a scaled second term is formed in `out` (which
    must then not overlap the first term).  h may be an array broadcasting
    against the terms (the cell measure of a flux divergence)."""
    _, weights, c, p = entry
    (a, b, *rest) = [t if abs(w) == 1.0 else np.multiply(abs(w), t, out=out if k == 1 else None)
                     for k, (t, w) in enumerate(zip(terms, weights))]
    wa, wb = weights[:2]
    # w_a a + w_b b in one operation: -a + b and b - a round alike, bit for bit
    total = np.asarray((np.add if wb > 0 else np.subtract)(a, b, out=out) if wa > 0 else
                       np.subtract(b, a, out=out) if wb > 0 else np.subtract(-a, b, out=out))
    for term, w in zip(rest, weights[2:]):
        (np.add if w > 0 else np.subtract)(total, term, out=total)
    total *= 1.0 / (c * h**p)
    return total


def _diff(u, name, h, axis=0, end=None, out=None):
    """STENCILS[name] along `axis` at the points where it fits, in `out` if
    given.  With `end`, that one-sided entry adds the first point and its
    mirror the last, so that a stencil of reach 1 keeps u's shape."""
    entry = STENCILS[name]
    u = np.asarray(u)
    axis %= u.ndim
    n, lo, hi = u.shape[axis], -min(entry[0]), max(entry[0])

    def at(start, stop, a=u):  # a[start:stop] along the axis
        return a[(slice(None),) * axis + (slice(start, stop),)]

    interior = [at(lo + k, n - hi + k) for k in entry[0]]
    if end is None:
        return combine(interior, entry, h, out=out)
    if out is None:
        out = np.empty(u.shape[:axis] + (n - lo - hi + 2,) + u.shape[axis + 1:],
                       np.result_type(u, 1.0))
    combine(interior, entry, h, out=at(1, -1, out))
    for rule, i, j in ((STENCILS[end], 0, 0), (mirror(STENCILS[end]), n - 1, out.shape[axis] - 1)):
        combine([at(i + k, i + k + 1) for k in rule[0]], rule, h, out=at(j, j + 1, out))
    return out
