"""Shilkret-style integration of non-negative functions against evidence.

The integral of f is the supremum over thresholds c > 0 of c divided by
the evidence against the super-level set {f >= c}. On a finite model the
supremum is attained at the positive values f actually takes, so it is
computed exactly.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .evidence import EFunction, EvidenceError
from .spaces import Space
from .xvalue import INF, XValue, as_xvalue


class OrderMeasurabilityViolation(EvidenceError):
    """A set the computation needs is not a hypothesis of the space; for a
    function's super-level set, ``level`` names the threshold."""

    def __init__(self, message: str, level: Optional[XValue] = None):
        self.level = level
        super().__init__(message)


class OrderMeasurableFn:
    """Function on model points whose super-level sets are hypotheses.

    Measurability is checked eagerly at construction so failures name the
    offending level instead of surfacing mid-integration.
    """

    __slots__ = ("space", "values")

    def __init__(self, space: Space, values: tuple[XValue, ...]):
        self.space = space
        self.values = values
        if len(values) != space.model.size:
            raise EvidenceError("one value per model point is required")
        for level in self.positive_levels():
            if self.superlevel_bits(level) not in self.space.family:
                raise OrderMeasurabilityViolation(
                    f"super-level set at {level} is not a hypothesis", level
                )

    @classmethod
    def of(cls, space: Space, values: Sequence[object]) -> "OrderMeasurableFn":
        return cls(space, tuple(as_xvalue(v) for v in values))

    def positive_levels(self) -> tuple[XValue, ...]:
        """Distinct positive values taken by the function, ascending."""
        levels = {v for v in self.values if not v.is_zero}
        finite = sorted((v for v in levels if not v.is_inf), key=XValue.as_fraction)
        if INF in levels:
            finite.append(INF)
        return tuple(finite)

    def superlevel_bits(self, level: XValue) -> int:
        bits = 0
        for i, v in enumerate(self.values):
            if v >= level:
                bits |= 1 << i
        return bits


def shilkret_integral(f: OrderMeasurableFn, e: EFunction) -> XValue:
    """sup over c > 0 of c / e({f >= c}), evaluated at the attained levels.

    Between attained levels the super-level set is constant while c grows,
    so only attained levels can realize the supremum; the infinite level
    stands in for the limit c -> inf when f takes the value inf.
    """
    if f.space != e.space:
        raise EvidenceError("function and evidence live on different spaces")
    best = XValue(0)
    for level in f.positive_levels():
        ratio = level / e.value_of(f.superlevel_bits(level))
        if ratio > best:
            best = ratio
    return best
