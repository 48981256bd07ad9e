"""The integral and its lemma suite.

The Markov bound, the four readings of the integral and the sup
interchange are identities of the paper; each is checked here on seeded
instances against the library's one integral, with the super-level sets,
pointwise sups and scaled indicators built by their definitions.
"""

from fractions import Fraction

import pytest

import helpers
from emeasure import (
    Model,
    OrderMeasurableFn,
    XValue,
    ZERO,
    dirac_measure,
    merge_convex,
    shilkret_integral,
    space_from_generators,
    sup_of,
    unit_measure,
)
from emeasure.evidence import EClass, from_values
from emeasure.integration import OrderMeasurabilityViolation


def two_point_measure():
    """e({P1}) = 4, e({P2}) = 2, e(full) = 2 with f = (8, 2)."""
    space = helpers.power_space(2)
    e = from_values(space, ["inf", 4, 2, 2])
    f = OrderMeasurableFn.of(space, [8, 2])
    return space, e, f


def superlevel(f, c):
    """The bitset of {f >= c}, by its definition."""
    return sum(1 << i for i, v in enumerate(f.values) if v >= c)


def attained_levels(f):
    return sorted({v for v in f.values if not v.is_zero})


def oracle_threshold_sweep(f, e):
    """Direct sweep over the attained positive levels."""
    return sup_of(c / e.value_of(superlevel(f, c)) for c in attained_levels(f))


def pointwise_sup(fns):
    """The pointwise sup; the constructor refuses it if it is not order-measurable."""
    space = fns[0].space
    return OrderMeasurableFn(
        space, tuple(sup_of(f.values[i] for f in fns) for i in range(space.model.size))
    )


def scaled(f, a):
    return OrderMeasurableFn(f.space, tuple(v * a for v in f.values))


def test_order_measurability_checked_at_construction():
    model = Model(("P1", "P2"))
    space = space_from_generators(model, [["P1", "P2"]])  # only {} and the full set
    with pytest.raises(OrderMeasurabilityViolation) as err:
        OrderMeasurableFn.of(space, [5, 3])
    assert err.value.level == XValue(5)
    OrderMeasurableFn.of(space, [3, 3])  # constant functions are fine


def test_indicator_integral_is_reciprocal_evidence():
    space, e, _ = two_point_measure()
    for hid in range(len(space.family)):
        f = helpers.indicator(space, hid)
        assert shilkret_integral(f, e) == XValue(1) / e.values[hid]


def test_dirac_integral_evaluates_the_point():
    r = helpers.rng(53)
    space = helpers.power_space(3)
    for _ in range(20):
        f = OrderMeasurableFn.of(space, [helpers.rand_xvalue(r) for _ in range(3)])
        for pi, p in enumerate(space.model.points):
            assert shilkret_integral(f, dirac_measure(space, p)) == f.values[pi]


def test_two_point_worked_example():
    _, e, f = two_point_measure()
    assert shilkret_integral(f, e) == XValue(2)
    assert helpers.integral_least_true(f, e) == XValue(2)


def test_zero_function_integrates_to_zero():
    space, e, _ = two_point_measure()
    zero = OrderMeasurableFn.of(space, [0, 0])
    assert shilkret_integral(zero, e) == ZERO
    assert helpers.integral_least_true(zero, e) == ZERO  # uses 0/0 = 0


def test_unit_measure_integral_is_the_sup():
    r = helpers.rng(59)
    space = helpers.power_space(3)
    one = unit_measure(space)
    for _ in range(20):
        f = OrderMeasurableFn.of(space, [helpers.rand_xvalue(r) for _ in range(3)])
        assert shilkret_integral(f, one) == max(f.values)


def test_positive_homogeneity():
    r = helpers.rng(61)
    for _ in range(30):
        space = helpers.rand_ic_space(r)
        e = helpers.rand_capacity(r, space)
        f = helpers.rand_order_measurable(r, space)
        a = XValue(helpers.rand_fraction(r, allow_zero=False))
        assert shilkret_integral(scaled(f, a), e) == a * shilkret_integral(f, e)


def test_monotonicity_under_capacities():
    r = helpers.rng(67)
    for _ in range(30):
        space = helpers.rand_ic_space(r)
        e = helpers.rand_capacity(r, space)
        f, g = helpers.rand_order_measurable_pair(r, space)
        assert shilkret_integral(f, e) >= shilkret_integral(g, e)


def test_least_true_form_equals_threshold_form():
    r = helpers.rng(71)
    for _ in range(40):
        space = helpers.rand_ic_space(r)
        e = helpers.rand_measure(r, space)
        f = helpers.rand_order_measurable(r, space)
        assert helpers.integral_least_true(f, e) == shilkret_integral(f, e)
        assert shilkret_integral(f, e) == oracle_threshold_sweep(f, e)


def test_markov_trivial_and_tight_cases():
    """The integral is at least c / e({f >= c}); above the largest value the
    right side is c / inf = 0, and at f's maximum 8 it is attained."""
    _, e, f = two_point_measure()
    assert XValue(100) / e.value_of(superlevel(f, XValue(100))) == ZERO
    assert shilkret_integral(f, e) == XValue(8) / e.value_of(superlevel(f, XValue(8))) == XValue(2)


def test_markov_holds_on_random_sweeps():
    """c / e({f >= c}) <= integral at fixed thresholds, at every attained
    level and between levels, on capacities with zero and infinite values;
    equality at some attained level unless f is zero."""
    r = helpers.rng(73)
    grid = [XValue(Fraction(1, 2)), XValue(1), XValue(3), XValue(10)]
    zeros = infs = 0
    for _ in range(40):
        space = helpers.rand_ic_space(r)
        e = helpers.rand_capacity(r, space)
        f = helpers.rand_order_measurable(r, space)
        integral = shilkret_integral(f, e)
        levels = attained_levels(f)
        between = [(lo + hi) / XValue(2) for lo, hi in zip(levels, levels[1:]) if not hi.is_inf]
        ratios = [c / e.value_of(superlevel(f, c)) for c in grid + levels + between]
        assert all(ratio <= integral for ratio in ratios)
        assert integral in ratios or integral == ZERO
        zeros += any(v.is_zero for v in e.values)
        infs += any(v.is_inf for v in e.values[1:] + f.values)
    assert zeros and infs


def test_posthoc_identity_on_examples_and_random():
    """Four readings of the integral agree: the integral of f; the integral
    of the pointwise sup of the scaled indicators c * 1{f >= c}; the sup
    over c of their integrals; and sup over c of c / e({f >= c})."""
    cases = [two_point_measure()[1:]]
    r = helpers.rng(79)
    for _ in range(30):
        space = helpers.rand_ic_space(r)
        cases.append((helpers.rand_capacity(r, space), helpers.rand_order_measurable(r, space)))
    for e, f in cases:
        space = f.space
        levels = attained_levels(f)
        indicators = [
            scaled(helpers.indicator(space, space.family.id_of(superlevel(f, c))), c)
            for c in levels
        ]
        forms = {
            shilkret_integral(f, e),
            shilkret_integral(pointwise_sup(indicators), e) if levels else ZERO,
            sup_of(shilkret_integral(g, e) for g in indicators),
            oracle_threshold_sweep(f, e),
        }
        assert len(forms) == 1, forms


def test_sup_interchange_singleton_is_equality():
    _, e, f = two_point_measure()
    assert shilkret_integral(pointwise_sup([f]), e) == shilkret_integral(f, e) == XValue(2)


def test_sup_interchange_at_least_on_capacities():
    """The integral of a pointwise sup is at least the sup of the integrals.
    Indicators of incomparable members make it strict on capacities that
    break the union law, such as mixtures of two measures."""
    r = helpers.rng(81)
    strict = 0
    for case in range(60):
        space = helpers.power_space(r.randint(2, 3))
        if case % 2:
            e = helpers.rand_capacity(r, space)
        else:
            pair = [helpers.rand_measure(r, space) for _ in range(2)]
            e = merge_convex(pair, [Fraction(1, 3), Fraction(2, 3)])
        fns = [helpers.indicator(space, r.randrange(len(space.family))) for _ in range(2)]
        if case % 3 == 0:
            fns[1] = helpers.rand_order_measurable(r, space)
        lhs = shilkret_integral(pointwise_sup(fns), e)
        rhs = sup_of(shilkret_integral(f, e) for f in fns)
        assert lhs >= rhs
        strict += lhs != rhs
    assert strict


def test_sup_interchange_equality_for_measures():
    r = helpers.rng(83)
    for _ in range(25):
        space = helpers.rand_ic_space(r)
        e = helpers.rand_measure(r, space)
        fns = [helpers.rand_order_measurable(r, space) for _ in range(r.randint(1, 3))]
        assert shilkret_integral(pointwise_sup(fns), e) == sup_of(
            shilkret_integral(f, e) for f in fns
        )


def test_sup_interchange_strict_for_a_capacity_witness():
    # The (inf, 4, 2, 1) capacity with the two singleton indicators:
    # integrating the sup gives 1, the sup of integrals only 1/2.
    space = helpers.power_space(2)
    e = from_values(space, ["inf", 4, 2, 1])
    assert e.eclass is EClass.CAPACITY
    f1 = helpers.indicator(space, space.family.id_of(0b01))
    f2 = helpers.indicator(space, space.family.id_of(0b10))
    assert shilkret_integral(pointwise_sup([f1, f2]), e) == XValue(1)
    assert sup_of(shilkret_integral(f, e) for f in (f1, f2)) == XValue(Fraction(1, 2))


def test_pointwise_sup_is_order_measurable_by_construction():
    """Each super-level set of a pointwise sup is the union of the parts'
    super-level sets, a member of the union-closed family."""
    r = helpers.rng(89)
    for _ in range(20):
        space = helpers.rand_ic_space(r)
        fns = [helpers.rand_order_measurable(r, space) for _ in range(2)]
        sup_fn = pointwise_sup(fns)
        for i in range(space.model.size):
            assert sup_fn.values[i] == max(f.values[i] for f in fns)
        for c in attained_levels(sup_fn):
            union = superlevel(fns[0], c) | superlevel(fns[1], c)
            assert superlevel(sup_fn, c) == union and union in space.family
