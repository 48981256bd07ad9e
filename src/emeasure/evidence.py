"""Evidence tables over a hypothesis family, the closure operator and the
Shilkret integral.

Three strengths of table are distinguished: a bare evidence function only
assigns maximal evidence to the empty hypothesis; a capacity is also
antitone under inclusion; a measure additionally turns unions into
infimums. `table_class`, the one test of both laws, takes one table or all
of a kernel's at once. Closing upgrades a table to the smallest dominating
measure, read off the most evidence each point can claim (the min/max form
of maxitive measures): `_claims`, then `measure_from_density`, for one
table in `close` and per outcome in `kernels.close_kernel`. The convex
merge is `kernels.merge_convex`, on kernel rows.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping, Optional, Sequence

from .spaces import Record, Space, _indices
from .xvalue import INF, ZERO, XValue, as_xvalue, order_keys, packed_keys, sup_of


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
    """Evidence per hypothesis id and its class, the strongest the values
    satisfy. The class is computed when ``eclass`` is first read, unless it
    was given; equality compares the space and the values."""

    __slots__ = ("space", "values", "_eclass")
    _compared = ("space", "values")

    def __init__(self, space: Space, values: tuple[XValue, ...], _eclass: Optional[EClass] = None):
        self.space = space
        self.values = values
        self._eclass = _eclass

    @property
    def eclass(self) -> EClass:
        if self._eclass is None:
            self._eclass = table_class(self.space, [self.values])
        return self._eclass

    def __getitem__(self, hid: int) -> XValue:
        return self.values[hid]

    def value_of(self, item) -> XValue:
        return self.values[self.space.family.id_of(item)]


def table_class(
    space: Space, columns: Sequence[Sequence[XValue]], slots: Sequence[int] = ()
) -> EClass:
    """The strongest class all tables of `columns` satisfy, each column one
    table's values by row; `slots` gives each member's row (else row i).

    Each row's order keys are packed into one int P, a lane of w key bits
    per table under guard mask G (`packed_keys`): one subtraction and one
    mask test antitonicity on every lane. For the union law e(A | B) =
    min(e(A), e(B)), g = ((P[B] | G) - P[A]) & G marks the lanes where e(B)
    >= e(A), and g - (g >> w) widens the marks to key bits: P[A | B] must be
    P[A] on them and P[B] elsewhere.

    On an intersection-closed space every point q has a least member H_q,
    and the points whose least member is H_q make q's class. Every nonempty
    member H holds a point q that lies in the least member of no point of H
    outside q's class (a minimal point of H). Removing q's whole class from
    H leaves a member A, and H = A | H_q; removing q alone need not, as in
    the family of {} and {a,b}. So the walk tests e(H) = min(e(A), e(H_q))
    once per nonempty member, in id order. If every test holds, then by
    induction on |H| each e(H) is the least of e(H_p) over H's points p and
    e({}), so the union law holds everywhere and the table is a measure:
    one test per member, and no join.

    Otherwise, or on any other space, joins decide. A join adds a
    join-irreducible J to a member A missing part of it. Inclusions are
    chains of joins and unions are built from them, so e(A | J) <= e(A) at
    every join gives antitonicity, and e(A | J) = min(e(A), e(J)) the union
    law. A join that keeps the union law is antitone, so the walk tests
    antitonicity only from the first join that breaks the law on, and
    returns FUNCTION at the first that fails it.
    """
    packed, guard = packed_keys([order_keys(column) for column in columns])
    if slots:
        packed = [packed[slot] for slot in slots]
    family = space.family
    members = family.members
    w = (guard & -guard).bit_length() - 1
    if space.intersection_closed:
        least_ids = space.least_ids()
        least = [members[hid] for hid in least_ids]
        holders = [0] * len(least)  # per point q, the points whose least member holds q
        for p, bits in enumerate(least):
            for q in _indices(bits):
                holders[q] |= 1 << p
        # Per point q: the points of other classes below it, the mask that
        # removes q's class, and the keys of q's least member.
        below = [held & ~bits for held, bits in zip(holders, least)]
        keep = [~(held & bits) for held, bits in zip(holders, least)]
        keys = [packed[hid] for hid in least_ids]
        index = family._index
        for bits, pu in zip(members[1:], packed[1:]):
            rest = bits
            while True:  # to a minimal point q of H
                q = (rest & -rest).bit_length() - 1
                if not below[q] & bits:
                    break
                rest &= rest - 1
            pa, pj = packed[index[bits & keep[q]]], keys[q]
            g = ((pj | guard) - pa) & guard
            if pu != pj ^ ((pa ^ pj) & (g - (g >> w))):
                break
        else:
            return EClass.MEASURE
    key_of = dict(zip(members, packed))
    irreducible = [(members[j], packed[j], packed[j] | guard) for j in family.irreducible_ids()]
    union_law = True
    for bits, pa in zip(members, packed):
        guarded, missing = pa | guard, ~bits
        for j_bits, pj, pj_guarded in irreducible:
            if j_bits & missing:
                pu = key_of[bits | j_bits]
                if union_law:
                    g = (pj_guarded - pa) & guard
                    if pu == pj ^ ((pa ^ pj) & (g - (g >> w))):
                        continue
                    union_law = False
                if (guarded - pu) & guard != guard:
                    return EClass.FUNCTION
    return EClass.MEASURE if union_law else EClass.CAPACITY


def classify(space: Space, table: Mapping[int, object]) -> EFunction:
    """Wrap a raw value table; its class is verified when first read.

    A table that misses a hypothesis id, or gives the empty hypothesis a
    finite value, is refused here.
    """
    n = len(space.family)
    values = [table[hid] for hid in range(n) if hid in table]
    if len(values) < n:
        missing = [space.label(hid) for hid in range(n) if hid not in table]
        raise NotAnEFunction(f"table misses hypotheses: {missing}")
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
