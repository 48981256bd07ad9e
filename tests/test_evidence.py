"""Classification and closure of evidence tables."""

from fractions import Fraction

import pytest

import helpers
from helpers import from_values
from emeasure import (
    EClass,
    INF,
    Model,
    XValue,
    classify,
    close,
)
from emeasure.evidence import ClassMismatch, NotAnEFunction, measure_from_density
from emeasure import evidence as ev
from emeasure import golden


def two_point_capacity():
    """The worked two-point table: (inf, 4, 2, 1)."""
    space = helpers.power_space(2)
    return space, from_values(space, ["inf", 4, 2, 1])


def test_classify_two_point_example_is_capacity_not_measure():
    _, e = two_point_capacity()
    assert e.eclass is EClass.CAPACITY


def test_classify_unit_table_is_measure():
    space = helpers.power_space(2)
    assert helpers.unit_measure(space).eclass is EClass.MEASURE


def test_classify_toy_family_closure_is_measure():
    assert golden.base_efunction().eclass is EClass.MEASURE


def test_classify_rejects_missing_entries_and_finite_empty():
    space = helpers.power_space(2)
    with pytest.raises(NotAnEFunction):
        classify(space, {0: INF})
    with pytest.raises(NotAnEFunction):
        from_values(space, [5, 4, 2, 1])


def test_classify_detects_plain_function():
    space = helpers.power_space(2)
    e = from_values(space, ["inf", 1, 1, 5])  # value grows with the set
    assert e.eclass is EClass.FUNCTION


def test_classify_matches_pairwise_definitions_on_random_tables():
    r = helpers.rng(19)
    seen = set()
    for _ in range(40):
        space = helpers.rand_uc_space(r, max_points=5)
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        e = classify(space, raw)
        for table in (e, helpers.rand_capacity(r, space), close(e)):
            assert table.eclass is helpers.oracle_eclass(space, table.values)
            seen.add(table.eclass)
    assert seen == set(EClass)


def test_the_class_is_computed_when_first_read_and_matches_the_definitions(monkeypatch):
    """Function, capacity and measure tables over intersection-closed and
    union-closed spaces: wrapping one computes no class, and the class read
    later is the one the pairwise definitions give."""
    calls = []
    walk = ev.table_class
    monkeypatch.setattr(ev, "table_class", lambda *args: calls.append(1) or walk(*args))
    r = helpers.rng(23)
    seen = set()
    for i in range(60):
        space = helpers.rand_ic_space(r) if i % 2 else helpers.rand_uc_space(r, max_points=5)
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        capacity = helpers.rand_capacity(r, space).values
        tables = [raw, dict(enumerate(capacity))]
        if space.intersection_closed:
            tables.append(dict(enumerate(helpers.rand_measure(r, space).values)))
        for table in tables:
            calls.clear()
            e = classify(space, table)
            assert calls == []
            assert e.eclass is helpers.oracle_eclass(space, e.values)
            assert e.eclass is e.eclass and len(calls) == 1  # computed once
            seen.add((space.intersection_closed, e.eclass))
    assert seen == {(ic, eclass) for ic in (False, True) for eclass in EClass}


def test_refusals_come_before_any_class_is_computed(monkeypatch):
    def refuse(*args):
        raise AssertionError("the class was computed")

    monkeypatch.setattr(ev, "table_class", refuse)
    space = helpers.power_space(2)
    with pytest.raises(NotAnEFunction, match=r"table misses hypotheses: \['P1,P2'\]"):
        classify(space, {0: INF, 1: 1, 2: 1})
    with pytest.raises(NotAnEFunction, match="the empty hypothesis must carry infinite evidence"):
        from_values(space, [5, 4, 2, 1])
    assert classify(space, {0: INF, 1: 1, 2: 1, 3: 1}).values[3] == XValue(1)


def test_closure_bruteforce_two_point_example():
    space, e = two_point_capacity()
    closed = close(e)
    assert list(closed.values) == helpers.oracle_closure(e)
    full = space.family.id_of(0b11)
    assert closed.values[full] == XValue(2)
    for hid in range(len(space.family)):
        if hid != full:
            assert closed.values[hid] == e.values[hid]
    assert closed.eclass is EClass.MEASURE


def test_closure_fixes_measures():
    r = helpers.rng(23)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        m = helpers.rand_measure(r, space)
        assert close(m).values == m.values


def test_closure_bruteforce_matches_unrestricted_cover_oracle():
    r = helpers.rng(29)
    space = helpers.power_space(3)
    for _ in range(8):
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        e = classify(space, raw)
        assert list(close(e).values) == helpers.oracle_closure(e)


def test_closure_fast_agrees_with_bruteforce_and_examples():
    space, e = two_point_capacity()
    not_capacity = from_values(space, ["inf", 1, 1, 5])
    for table in (e, helpers.unit_measure(space), not_capacity):
        assert list(close(table).values) == helpers.oracle_closure(table)
    assert close(helpers.unit_measure(space)).values == helpers.unit_measure(space).values


def test_closure_fast_equals_bruteforce_on_random_capacities():
    r = helpers.rng(31)
    for _ in range(25):
        space = helpers.rand_ic_space(r, max_members=12)
        e = helpers.rand_capacity(r, space)
        assert list(close(e).values) == helpers.oracle_closure(e)
    for _ in range(25):
        space = helpers.rand_uc_space(r, max_members=12)
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        for e in (classify(space, raw), helpers.rand_capacity(r, space)):
            assert list(close(e).values) == helpers.oracle_closure(e)


def test_closure_dominates_and_is_idempotent():
    r = helpers.rng(37)
    for _ in range(25):
        space = helpers.rand_ic_space(r, max_members=12)
        e = helpers.rand_capacity(r, space)
        closed = close(e)
        assert helpers.dominates(closed, e)
        assert close(closed).values == closed.values


def test_closure_minimality_among_sampled_dominating_measures():
    r = helpers.rng(41)
    found = 0
    while found < 15:
        space = helpers.rand_ic_space(r, max_points=3)
        e = helpers.rand_capacity(r, space)
        m = helpers.rand_measure(r, space)
        if helpers.dominates(m, e):
            assert helpers.dominates(m, close(e))
            found += 1


def test_close_certificate_on_a_large_family_without_least_hypotheses():
    """Too many members for the cover oracle, so check what pins the result.

    A dominating measure is the smallest one when, for every H, the members
    with e >= closure(H) cover H: any dominating measure m then has
    m(H) >= m(union of that cover) = min of m over it >= closure(H).
    """
    r = helpers.rng(53)
    model = Model(tuple(f"P{i + 1}" for i in range(7)))
    generators = [0b11 << i for i in range(6)] + [0b1000001]
    space = helpers.space_from_generators(model, [helpers.labels_of(model, g) for g in generators])
    assert len(space.family) >= 40 and not space.intersection_closed
    raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
    raw[space.family.empty_id] = INF
    for e in (classify(space, raw), helpers.rand_capacity(r, space)):
        closed = close(e)
        assert closed.eclass is EClass.MEASURE
        assert helpers.dominates(closed, e)
        for hid, member in enumerate(space.family.members):
            reach = 0
            for m, value in zip(space.family.members, e.values):
                if value >= closed.values[hid]:
                    reach |= m
            assert member & ~reach == 0


def test_merge_single_input_is_identity():
    space, e = two_point_capacity()
    assert helpers.merge_tables([e], [1]).values == e.values


def test_merge_of_capacities_is_a_capacity():
    """Non-negative weights keep antitonicity, so the convex combination of
    capacities is a capacity; its tag is the class by the definitions."""
    r = helpers.rng(41)
    for case in range(30):
        space = helpers.rand_uc_space(r) if case % 2 else helpers.rand_ic_space(r)
        inputs = [helpers.rand_capacity(r, space) for _ in range(r.randint(1, 3))]
        weights = [Fraction(r.randint(0, 3)) for _ in inputs]
        if not sum(weights):
            weights[0] = Fraction(1)
        weights = [w / sum(weights) for w in weights]
        merged = helpers.merge_tables(inputs, weights)
        assert merged.values == tuple(
            sum((f.values[hid] * XValue(w) for f, w in zip(inputs, weights)), XValue(0))
            for hid in range(len(space.family))
        )
        assert merged.eclass == helpers.oracle_eclass(space, merged.values) >= EClass.CAPACITY


def test_merge_of_measures_can_break_the_union_law():
    space = helpers.power_space(2)
    m1 = from_values(space, ["inf", 4, 2, 2])
    m2 = from_values(space, ["inf", 2, 4, 2])
    assert m1.eclass is EClass.MEASURE and m2.eclass is EClass.MEASURE
    merged = helpers.merge_tables([m1, m2], [Fraction(1, 2), Fraction(1, 2)])
    assert merged.eclass is EClass.CAPACITY
    assert merged.values[space.family.id_of(0b11)] == XValue(2)
    assert merged.values[space.family.id_of(0b01)] == XValue(3)


def test_merge_then_close_restores_the_measure_law():
    space = helpers.power_space(2)
    m1 = from_values(space, ["inf", 4, 2, 2])
    m2 = from_values(space, ["inf", 2, 4, 2])
    merged = helpers.merge_tables([m1, m2], [Fraction(1, 2), Fraction(1, 2)])
    assert close(merged).eclass is EClass.MEASURE


def test_merge_validates_weights_and_classes():
    space, e = two_point_capacity()
    with pytest.raises(Exception):
        helpers.merge_tables([e, e], [Fraction(1, 2), Fraction(1, 3)])
    not_capacity = from_values(space, ["inf", 1, 1, 5])
    with pytest.raises(ClassMismatch):
        helpers.merge_tables([not_capacity], [1])


def test_measure_from_density_is_the_least_density_measure():
    """e(H) is the least density among H's points and inf on the empty set;
    minimums turn unions into minimums, so the table is a measure by the
    definitions on every union-closed family, intersection-closed or not."""
    r = helpers.rng(37)
    for case in range(40):
        space = helpers.rand_uc_space(r) if case % 2 else helpers.rand_ic_space(r)
        density = [helpers.rand_xvalue(r) for _ in range(space.model.size)]
        m = measure_from_density(space, density)
        assert m.values == tuple(
            helpers.inf_of(density[i] for i in helpers.points_of(member))
            for member in space.family.members
        )
        assert m.values[space.family.empty_id] == INF
        assert m.eclass is EClass.MEASURE is helpers.oracle_eclass(space, m.values)


def test_least_ids_and_densities_match_the_all_member_walks():
    """On 320 seeded families of every kind (`rand_lattice_space`), the least
    hypotheses read off the generators are those of the all-members walk,
    and each member's least density is the same value object as the one
    its point-index tuple gives, with ties, 0 and inf among the densities."""
    r = helpers.rng(2604)
    kinds = set()
    for case in range(320):
        space = helpers.rand_lattice_space(r, case)
        kinds.add((case % 4, space.intersection_closed))
        assert space.least_ids() == helpers.oracle_least_ids(space)
        for _ in range(3):
            density = helpers.rand_tied_density(r, space.model.size)
            got = measure_from_density(space, density).values
            want = helpers.oracle_measure_from_density(space, density)
            assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
    assert {(1, False), (2, True), (3, True)} <= kinds and {(0, False), (0, True)} <= kinds


def test_dirac_and_unit_tables():
    model = Model(("P1", "P2"))
    space = helpers.power_space(2)
    d = helpers.dirac_measure(space, "P1")
    assert d.value_of(0b01) == XValue(1)
    assert d.value_of(0b11) == XValue(1)
    assert d.value_of(0b10) == INF
    assert d.value_of(0) == INF
    one = helpers.unit_measure(space)
    assert one.value_of(0) == INF
    assert all(one.values[h] == XValue(1) for h in space.family.nonempty_ids())


def test_sup_over_true_is_the_claim_of_the_sweep():
    """One maximum over the members holding a point gives the claim the
    closure's sweep gives it, 0 included for a point no member holds."""
    r = helpers.rng(59)
    uncovered = 0
    for case in range(60):
        space = helpers.rand_uc_space(r, max_points=5) if case % 2 else helpers.rand_ic_space(r)
        values = [INF] + [helpers.rand_xvalue(r) for _ in range(len(space.family) - 1)]
        claims = ev._claims(space.model.size, space.family.members, values)
        for pi, point in enumerate(space.model.points):
            assert helpers.sup_over_true(space, values, pi) == claims[pi]
            assert helpers.sup_over_true(space, values, point) == claims[pi]
            uncovered += all(not m >> pi & 1 for m in space.family.members)
    assert uncovered
