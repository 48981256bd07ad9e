"""Evidence tables over a hypothesis family, the closure operator and the
Shilkret integral.

Three strengths of table are distinguished: a bare evidence function only
assigns maximal evidence to the empty hypothesis; a capacity is also
antitone under inclusion; a measure additionally turns unions into
infimums. Both laws are tested against the family's join-irreducible
members only. Closing a table upgrades it to the smallest dominating
measure, read off the most evidence each point can claim (the min/max form
of maxitive measures).
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

from .spaces import Record, Space
from .xvalue import INF, ZERO, XValue, as_xvalue, order_keys, sup_of

class EvidenceError(Exception):
    pass


class NotAnEFunction(EvidenceError):
    pass


class ClassMismatch(EvidenceError):
    pass


class EClass(enum.IntEnum):
    FUNCTION = 0
    CAPACITY = 1
    MEASURE = 2


class EFunction(Record):
    """Evidence per hypothesis id and its strength, the strongest class the
    values satisfy. The strength is computed when ``eclass`` is first read,
    unless it was given; equality compares the space and the values."""

    __slots__ = ("space", "values", "_eclass")
    _compared = ("space", "values")

    def __init__(self, space: Space, values: tuple[XValue, ...], _eclass: Optional[EClass] = None):
        self.space = space
        self.values = values
        self._eclass = _eclass

    @property
    def eclass(self) -> EClass:
        if self._eclass is None:
            self._eclass = _strength(self.space, self.values)
        return self._eclass

    def __getitem__(self, hid: int) -> XValue:
        return self.values[hid]

    def value_of(self, item) -> XValue:
        return self.values[self.space.family.id_of(item)]


def _strength(space: Space, values: Sequence[XValue]) -> EClass:
    """Strongest class the values satisfy, tested along the family's joins.

    A join adds a join-irreducible J to a member A. Inclusions are chains of
    joins, so e(A | J) <= e(A) on every join gives antitonicity; unions are
    built from joins, so e(A | J) = min(e(A), e(J)) gives the union law.
    Both laws only compare values, so the walk runs on their order keys.
    """
    keys = order_keys(values)
    eclass = EClass.MEASURE
    for a, j, joined in space.family.joins():
        ka, kj, ku = keys[a], keys[j], keys[joined]
        if ku == (ka if ka <= kj else kj):
            continue
        if ku > ka:
            return EClass.FUNCTION
        eclass = EClass.CAPACITY
    return eclass


def classify(space: Space, table: Mapping[int, object]) -> EFunction:
    """Wrap a raw value table; its class is verified when first read.

    A table that misses a hypothesis id, or gives the empty hypothesis a
    finite value, is refused here.
    """
    n = len(space.family)
    values = [table[hid] for hid in range(n) if hid in table]
    if len(values) < n:
        raise _missing(space, [hid for hid in range(n) if hid not in table])
    return _wrap(space, values)


def from_values(space: Space, values: Iterable[object]) -> EFunction:
    """``classify`` of a table given as one value per hypothesis id, in order."""
    n = len(space.family)
    values = tuple(islice(values, n))
    if len(values) < n:
        raise _missing(space, range(len(values), n))
    return _wrap(space, values)


def _missing(space: Space, hids: Iterable[int]) -> NotAnEFunction:
    """The refusal of a table that lacks the members `hids`, named by label."""
    return NotAnEFunction(f"table misses hypotheses: {[space.label(hid) for hid in hids]}")


def _wrap(space: Space, values: Sequence[object]) -> EFunction:
    values = tuple(map(as_xvalue, values))
    if not values[space.family.empty_id].is_inf:
        raise NotAnEFunction("the empty hypothesis must carry infinite evidence")
    return EFunction(space, values)


def measure_from_density(space: Space, density: Sequence[XValue]) -> EFunction:
    """The measure fixed by one value per model point: e(H) is the least
    density among H's points, and INF on the empty set.

    Infimums turn unions into minimums, so the result obeys the union law
    on any union-closed family and is tagged a measure without a
    classification pass. The points are sorted once by the density's order
    keys, ties by index; each member takes the density of the first point
    in that order it contains, so equal least densities resolve to the
    lowest such point's value object. One scan down that order settles, at
    each point, every member still open that contains it, and stops when
    none is open: the cost is the sort plus, per member, the rank of its
    first point. Nothing is kept.
    """
    keys = order_keys(density)
    members = space.family.members
    values = [INF] * len(members)
    left = range(1, len(members))  # every member but the empty one, id 0
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        bit, value = 1 << i, density[i]
        rest = []
        for hid in left:
            if members[hid] & bit:
                values[hid] = value
            else:
                rest.append(hid)
        left = rest
        if not left:
            break
    return EFunction(space, tuple(values), EClass.MEASURE)


def _claims(size: int, covers: Sequence[int], values: Sequence[XValue]) -> list[XValue]:
    """Per point of a model of `size` points, the largest of the `values`
    whose bitset in `covers` holds it (its claim); 0 for a point no bitset
    holds. The covers are a family's members for a table, or the unions
    of the members that share one row of a kernel.

    Values are visited from the largest down, on their order keys, and each
    point takes the first one that covers it; the visit stops once every
    point has its claim.
    """
    keys = order_keys(values)
    out = [ZERO] * size
    left = (1 << size) - 1
    for i in sorted(range(len(keys)), key=keys.__getitem__, reverse=True):
        new = covers[i] & left
        if new:
            left ^= new
            value = values[i]
            while new:
                low = new & -new
                out[low.bit_length() - 1] = value
                new ^= low
            if not left:
                break
    return out


def close(e: EFunction) -> EFunction:
    """Smallest dominating measure of any table.

    Each point p claims c(p), the most evidence of a member containing it;
    the closure of H is the least claim among H's points, and INF for the
    empty set. That is the best lower bound the union law forces on H: a
    cover of H by members can do no better than pick, for each point, the
    member behind its claim. On an intersection-closed space a capacity's
    claims sit on the least hypotheses, which the closure leaves untouched.
    """
    return measure_from_density(
        e.space, _claims(e.space.model.size, e.space.family.members, e.values)
    )


def shilkret_integral(e: EFunction, levels: Iterable[tuple[XValue, int]]) -> XValue:
    """The Shilkret integral against `e` of a non-negative function given by
    its levels: each positive value c it takes, with its super-level set
    {f >= c} as bits. It is the sup over c > 0 of c / e({f >= c}); between
    two levels the set is constant while c grows, so the sup is attained at
    a level, and a level inf stands for the limit c -> inf."""
    return sup_of(c / e.value_of(bits) for c, bits in levels)


def merge_convex(functions: Sequence[EFunction], weights: Sequence[Fraction | int]) -> EFunction:
    """Pointwise convex combination of capacities; the result is a capacity."""
    if len(functions) != len(weights):
        raise EvidenceError("need one weight per input")
    if not functions:
        raise EvidenceError("nothing to merge")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws):
        raise EvidenceError("weights must be non-negative")
    if sum(ws) != 1:
        raise EvidenceError(f"weights sum to {sum(ws)}, expected 1")
    space = functions[0].space
    for f in functions:
        if f.space is not space and f.space != space:
            raise EvidenceError("all inputs must share one space")
        if f.eclass < EClass.CAPACITY:
            raise ClassMismatch("merging needs capacities")
    n = len(space.family)
    out = []
    for hid in range(n):
        total = XValue(0)
        for f, w in zip(functions, ws):
            total = total + f.values[hid] * XValue(w)
        out.append(total)
    return from_values(space, out)
