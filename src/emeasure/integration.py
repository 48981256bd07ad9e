"""Shilkret-style integration of non-negative functions against evidence.

The integral of f is the supremum over thresholds c > 0 of c divided by
the evidence against the super-level set {f >= c}. On a finite model the
supremum is attained at the positive values f actually takes, so it is
computed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .evidence import EClass, EFunction, EvidenceError
from .spaces import Space
from .xvalue import INF, XValue, as_xvalue, sup_of


class OrderMeasurabilityViolation(EvidenceError):
    """A set the computation needs is not a hypothesis of the space; for a
    function's super-level set, ``level`` names the threshold."""

    def __init__(self, message: str, level: Optional[XValue] = None):
        self.level = level
        super().__init__(message)


@dataclass(frozen=True)
class OrderMeasurableFn:
    """Function on model points whose super-level sets are hypotheses.

    Measurability is checked eagerly at construction so failures name the
    offending level instead of surfacing mid-integration.
    """

    space: Space
    values: tuple[XValue, ...]

    def __post_init__(self):
        if len(self.values) != self.space.model.size:
            raise EvidenceError("one value per model point is required")
        for level in self.positive_levels():
            if self.superlevel_bits(level) not in self.space.family:
                raise OrderMeasurabilityViolation(
                    f"super-level set at {level} is not a hypothesis", level
                )

    @classmethod
    def of(cls, space: Space, values: Sequence[object]) -> "OrderMeasurableFn":
        return cls(space, tuple(as_xvalue(v) for v in values))

    @classmethod
    def indicator(cls, space: Space, hid: int) -> "OrderMeasurableFn":
        member = space.family.member(hid)
        return cls.of(space, [1 if i in member else 0 for i in range(space.model.size)])

    def __call__(self, point: int) -> XValue:
        return self.values[point]

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

    def scale(self, factor: XValue) -> "OrderMeasurableFn":
        return OrderMeasurableFn(self.space, tuple(v * factor for v in self.values))


def pointwise_sup(fns: Sequence[OrderMeasurableFn]) -> OrderMeasurableFn:
    """Pointwise supremum; order-measurable because the family is union-closed."""
    if not fns:
        raise EvidenceError("need at least one function")
    space = fns[0].space
    size = space.model.size
    return OrderMeasurableFn(
        space, tuple(sup_of(f.values[i] for f in fns) for i in range(size))
    )


def _check_same_space(f: OrderMeasurableFn, e: EFunction) -> None:
    if f.space != e.space:
        raise EvidenceError("function and evidence live on different spaces")


def shilkret_integral(f: OrderMeasurableFn, e: EFunction) -> XValue:
    """sup over c > 0 of c / e({f >= c}), evaluated at the attained levels.

    Between attained levels the super-level set is constant while c grows,
    so only attained levels can realize the supremum; the infinite level
    stands in for the limit c -> inf when f takes the value inf.
    """
    _check_same_space(f, e)
    best = XValue(0)
    for level in f.positive_levels():
        ratio = level / e.value_of(f.superlevel_bits(level))
        if ratio > best:
            best = ratio
    return best


def integral_least_true(f: OrderMeasurableFn, e: EFunction) -> XValue:
    """Same integral through least hypotheses: sup over points of f(P)/e(H_P)."""
    _check_same_space(f, e)
    if e.eclass is not EClass.MEASURE:
        raise EvidenceError("the least-hypothesis form needs a measure")
    e.space.require_intersection_closed()
    least = e.space.least_ids()
    return sup_of(
        f.values[i] / e.values[least[i]] for i in range(e.space.model.size)
    )


@dataclass(frozen=True)
class MarkovReport:
    lhs: XValue
    rhs: XValue
    holds: bool


def e_markov_check(f: OrderMeasurableFn, e: EFunction, c: XValue) -> MarkovReport:
    """Markov-style bound: the integral is at least c / e({f >= c})."""
    c = as_xvalue(c)
    if c.is_zero:
        raise EvidenceError("the threshold must be positive")
    lhs = shilkret_integral(f, e)
    rhs = c / e.value_of(f.superlevel_bits(c))
    return MarkovReport(lhs=lhs, rhs=rhs, holds=lhs >= rhs)


@dataclass(frozen=True)
class IdentityReport:
    forms: tuple[XValue, XValue, XValue, XValue]
    equal: bool


def posthoc_markov_identity(f: OrderMeasurableFn, e: EFunction) -> IdentityReport:
    """Evaluate the four equivalent readings of the integral independently.

    1. the integral of f;
    2. the integral of the pointwise sup of the scaled indicators c*1{f>=c};
    3. the sup over c of the integral of c*1{f>=c};
    4. the threshold formula written out directly.
    """
    _check_same_space(f, e)
    levels = f.positive_levels()

    form1 = shilkret_integral(f, e)

    rebuilt = OrderMeasurableFn(
        f.space,
        tuple(
            sup_of(c for c in levels if f.values[i] >= c)
            for i in range(f.space.model.size)
        ),
    )
    form2 = shilkret_integral(rebuilt, e)

    scaled_integrals = []
    for c in levels:
        hid = e.space.family.id_of(f.superlevel_bits(c))
        scaled = OrderMeasurableFn.indicator(f.space, hid).scale(c)
        scaled_integrals.append(shilkret_integral(scaled, e))
    form3 = sup_of(scaled_integrals)

    form4 = sup_of(c / e.value_of(f.superlevel_bits(c)) for c in levels)

    forms = (form1, form2, form3, form4)
    return IdentityReport(forms=forms, equal=len(set(forms)) == 1)


@dataclass(frozen=True)
class InterchangeReport:
    integral_of_sup: XValue
    sup_of_integrals: XValue
    at_least: bool
    equal: bool


def sup_interchange_check(fns: Sequence[OrderMeasurableFn], e: EFunction) -> InterchangeReport:
    """Integral of a pointwise sup versus sup of the integrals.

    Capacities only guarantee the >= direction; measures give equality.
    """
    lhs = shilkret_integral(pointwise_sup(fns), e)
    rhs = sup_of(shilkret_integral(f, e) for f in fns)
    return InterchangeReport(
        integral_of_sup=lhs,
        sup_of_integrals=rhs,
        at_least=lhs >= rhs,
        equal=lhs == rhs,
    )
