"""Evidence tables over a hypothesis family and the closure operator.

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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping, Optional, Sequence

from .spaces import HypothesisClass, Space
from .xvalue import INF, ONE, ZERO, XValue, as_xvalue, order_keys

POWERSET_POINT_CAP = 16


class EvidenceError(Exception):
    pass


class NotAnEFunction(EvidenceError):
    pass


class ClassMismatch(EvidenceError):
    pass


class CapExceeded(EvidenceError):
    pass


class EClass(enum.IntEnum):
    FUNCTION = 0
    CAPACITY = 1
    MEASURE = 2


@dataclass(frozen=True)
class EFunction:
    """Evidence per hypothesis id and its strength, the strongest class the
    values satisfy. The strength is computed when ``eclass`` is first read,
    unless it was given; equality compares the space and the values."""

    space: Space
    values: tuple[XValue, ...]
    _eclass: Optional[EClass] = field(default=None, repr=False, compare=False)

    @property
    def eclass(self) -> EClass:
        if self._eclass is None:
            object.__setattr__(self, "_eclass", _strength(self.space, self.values))
        return self._eclass

    def __getitem__(self, hid: int) -> XValue:
        return self.values[hid]

    def value_of(self, item) -> XValue:
        return self.values[self.space.family.id_of(item)]

    def dominates(self, other: "EFunction") -> bool:
        return all(a >= b for a, b in zip(self.values, other.values))


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
    missing = [hid for hid in range(n) if hid not in table]
    if missing:
        raise NotAnEFunction(f"table misses hypothesis ids {missing}")
    return _wrap(space, [table[hid] for hid in range(n)])


def from_values(space: Space, values: Iterable[object]) -> EFunction:
    """``classify`` of a table given as one value per hypothesis id, in order."""
    n = len(space.family)
    values = tuple(islice(values, n))
    if len(values) < n:
        raise NotAnEFunction(f"table misses hypothesis ids {list(range(len(values), n))}")
    return _wrap(space, values)


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
    classification pass. Each member's least point is found on the
    density's order keys.
    """
    keys = order_keys(density)
    family = space.family
    values = []
    for hid in range(len(family)):
        least = min(family.indices(hid), key=keys.__getitem__, default=None)
        values.append(INF if least is None else density[least])
    return EFunction(space, tuple(values), EClass.MEASURE)


def _claims(space: Space, values: Sequence[XValue]) -> list[XValue]:
    """Per point, the most evidence of a member containing it (its claim);
    0 for a point no member contains.

    Members are visited from the largest value down, on the table's order
    keys, and each point takes the first one that contains it; the visit
    stops once every point has its claim.
    """
    keys = order_keys(values)
    members = space.family.members
    out = [ZERO] * space.model.size
    left = (1 << space.model.size) - 1
    for hid in sorted(range(len(members)), key=keys.__getitem__, reverse=True):
        new = members[hid].bits & left
        if new:
            left ^= new
            value = values[hid]
            while new:
                low = new & -new
                out[low.bit_length() - 1] = value
                new ^= low
            if not left:
                break
    return out


def sup_over_true(space: Space, values: Sequence[XValue], point: int | str) -> XValue:
    """Largest evidence among the hypotheses containing the point: its claim."""
    if isinstance(point, str):
        point = space.model.index(point)
    return _claims(space, values)[point]


def close(e: EFunction) -> EFunction:
    """Smallest dominating measure of any table.

    Each point p claims c(p), the most evidence of a member containing it;
    the closure of H is the least claim among H's points, and INF for the
    empty set. That is the best lower bound the union law forces on H: a
    cover of H by members can do no better than pick, for each point, the
    member behind its claim. On an intersection-closed space a capacity's
    claims sit on the least hypotheses, which the closure leaves untouched.
    """
    return measure_from_density(e.space, _claims(e.space, e.values))


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


def extend_to_powerset(e: EFunction) -> EFunction:
    """Canonical extension of a measure to every subset of the model.

    A subset's evidence is the least evidence among the least hypotheses of
    its points; the extension coincides with ``e`` on the original family
    and is dominated by every capacity extension.
    """
    if e.eclass is not EClass.MEASURE:
        raise ClassMismatch("only measures extend canonically")
    space = e.space
    space.require_intersection_closed()
    size = space.model.size
    if size > POWERSET_POINT_CAP:
        raise CapExceeded(f"model size {size} exceeds power-set cap {POWERSET_POINT_CAP}")
    least = space.least_ids()
    full = Space(space.model, HypothesisClass(size, range(1 << size), check=False))
    return measure_from_density(full, [e.values[least[i]] for i in range(size)])


def dirac_measure(space: Space, point: int | str) -> EFunction:
    """Unit evidence on hypotheses containing the point, infinite elsewhere."""
    if isinstance(point, str):
        point = space.model.index(point)
    return measure_from_density(
        space, [ONE if i == point else INF for i in range(space.model.size)]
    )


def unit_measure(space: Space) -> EFunction:
    """Constant evidence 1 on every nonempty hypothesis."""
    return measure_from_density(space, [ONE] * space.model.size)
