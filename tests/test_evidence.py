"""Classification and closure of evidence tables."""

from fractions import Fraction

import pytest

import helpers
from emeasure import (
    EClass,
    INF,
    Model,
    PointSet,
    XValue,
    classify,
    close,
    dirac_measure,
    extend_to_powerset,
    merge_convex,
    space_from_generators,
    unit_measure,
)
from emeasure.evidence import ClassMismatch, NotAnEFunction, from_values, measure_from_density
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
    assert unit_measure(space).eclass is EClass.MEASURE


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
    strength = ev._strength
    monkeypatch.setattr(ev, "_strength", lambda space, values: calls.append(1) or strength(space, values))
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
    def refuse(space, values):
        raise AssertionError("the class was computed")

    monkeypatch.setattr(ev, "_strength", refuse)
    space = helpers.power_space(2)
    with pytest.raises(NotAnEFunction, match=r"table misses hypothesis ids \[3\]"):
        classify(space, {0: INF, 1: 1, 2: 1})
    with pytest.raises(NotAnEFunction, match="the empty hypothesis must carry infinite evidence"):
        from_values(space, [5, 4, 2, 1])
    assert classify(space, {0: INF, 1: 1, 2: 1, 3: 1}).values[3] == XValue(1)


def test_closure_bruteforce_two_point_example():
    space, e = two_point_capacity()
    closed = close(e)
    assert list(closed.values) == helpers.oracle_closure(e)
    full = space.family.id_of(PointSet.full(2).bits)
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
    for table in (e, unit_measure(space), not_capacity):
        assert list(close(table).values) == helpers.oracle_closure(table)
    assert close(unit_measure(space)).values == unit_measure(space).values


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
        assert closed.dominates(e)
        assert close(closed).values == closed.values


def test_closure_minimality_among_sampled_dominating_measures():
    r = helpers.rng(41)
    found = 0
    while found < 15:
        space = helpers.rand_ic_space(r, max_points=3)
        e = helpers.rand_capacity(r, space)
        m = helpers.rand_measure(r, space)
        if m.dominates(e):
            assert m.dominates(close(e))
            found += 1


def test_close_certificate_on_a_large_family_without_least_hypotheses():
    """Too many members for the cover oracle, so check what pins the result.

    A dominating measure is the smallest one when, for every H, the members
    with e >= closure(H) cover H: any dominating measure m then has
    m(H) >= m(union of that cover) = min of m over it >= closure(H).
    """
    r = helpers.rng(53)
    model = Model(tuple(f"P{i + 1}" for i in range(7)))
    generators = [PointSet(7, 0b11 << i) for i in range(6)] + [PointSet(7, 0b1000001)]
    space = space_from_generators(model, [g.labels(model) for g in generators])
    assert len(space.family) >= 40 and not space.intersection_closed
    raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
    raw[space.family.empty_id] = INF
    for e in (classify(space, raw), helpers.rand_capacity(r, space)):
        closed = close(e)
        assert closed.eclass is EClass.MEASURE
        assert closed.dominates(e)
        for hid, member in enumerate(space.family.members):
            reach = 0
            for m, value in zip(space.family.members, e.values):
                if value >= closed.values[hid]:
                    reach |= m.bits
            assert member.bits & ~reach == 0


def test_merge_single_input_is_identity():
    space, e = two_point_capacity()
    assert merge_convex([e], [1]).values == e.values


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
        merged = merge_convex(inputs, weights)
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
    merged = merge_convex([m1, m2], [Fraction(1, 2), Fraction(1, 2)])
    assert merged.eclass is EClass.CAPACITY
    assert merged.values[space.family.id_of(0b11)] == XValue(2)
    assert merged.values[space.family.id_of(0b01)] == XValue(3)


def test_merge_then_close_restores_the_measure_law():
    space = helpers.power_space(2)
    m1 = from_values(space, ["inf", 4, 2, 2])
    m2 = from_values(space, ["inf", 2, 4, 2])
    merged = merge_convex([m1, m2], [Fraction(1, 2), Fraction(1, 2)])
    assert close(merged).eclass is EClass.MEASURE


def test_merge_validates_weights_and_classes():
    space, e = two_point_capacity()
    with pytest.raises(Exception):
        merge_convex([e, e], [Fraction(1, 2), Fraction(1, 3)])
    not_capacity = from_values(space, ["inf", 1, 1, 5])
    with pytest.raises(ClassMismatch):
        merge_convex([not_capacity], [1])


def test_powerset_extension_on_the_toy_family():
    base = golden.base_efunction()
    extension = extend_to_powerset(base)
    model = extension.space.model
    assert extension.values[extension.space.family.empty_id] == INF
    single_c2 = extension.space.family.id_of(PointSet.of(model, ["c2"]).bits)
    assert extension.values[single_c2] == XValue(29)
    everything = extension.space.family.id_of(PointSet.full(model.size).bits)
    assert extension.values[everything] == XValue(5)
    assert extension.eclass is EClass.MEASURE


def test_powerset_extension_coincides_on_the_family():
    r = helpers.rng(43)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        m = helpers.rand_measure(r, space)
        ext = extend_to_powerset(m)
        for hid, member in enumerate(space.family.members):
            assert ext.value_of(member.bits) == m.values[hid]


def sample_capacity_extension(r, m, ext):
    """Random capacity on the power set agreeing with m on the family.

    Raw values are drawn between the canonical extension (the floor) and the
    greatest extension (the smallest member evidence above the set), then a
    downward pass restores antitonicity without leaving the interval.
    """
    space = m.space
    full = ext.space
    member_of = {mem.bits: hid for hid, mem in enumerate(space.family.members)}
    ceil = []
    for subset in full.family.members:
        options = [
            m.values[hid]
            for bits, hid in member_of.items()
            if bits & ~subset.bits == 0
        ]
        ceil.append(helpers.inf_of(options) if options else INF)
    raw = []
    for aid, subset in enumerate(full.family.members):
        if subset.bits in member_of:
            raw.append(m.values[member_of[subset.bits]])
        elif r.random() < 0.5:
            raw.append(ext.values[aid])
        else:
            raw.append(ceil[aid])
    members = full.family.members
    values = list(raw)
    order = sorted(range(len(members)), key=lambda i: -members[i].popcount)
    for i in order:
        for j in range(len(members)):
            if i != j and members[i].bits & ~members[j].bits == 0:
                if values[j] > values[i]:
                    values[i] = values[j]
    return classify(full, dict(enumerate(values)))


def test_powerset_extension_is_dominated_by_sampled_capacity_extensions():
    r = helpers.rng(47)
    for _ in range(5):
        space = helpers.rand_ic_space(r, max_points=3)
        m = helpers.rand_measure(r, space)
        ext = extend_to_powerset(m)
        for _ in range(20):
            other = sample_capacity_extension(r, m, ext)
            assert other.eclass >= EClass.CAPACITY
            for hid, member in enumerate(space.family.members):
                assert other.value_of(member.bits) == m.values[hid]
            assert other.dominates(ext)


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
            helpers.inf_of(density[i] for i in member.indices())
            for member in space.family.members
        )
        assert m.values[space.family.empty_id] == INF
        assert m.eclass is EClass.MEASURE is helpers.oracle_eclass(space, m.values)


def test_dirac_and_unit_tables():
    model = Model(("P1", "P2"))
    space = helpers.power_space(2)
    d = dirac_measure(space, "P1")
    assert d.value_of(0b01) == XValue(1)
    assert d.value_of(0b11) == XValue(1)
    assert d.value_of(0b10) == INF
    assert d.value_of(0) == INF
    one = unit_measure(space)
    assert one.value_of(0) == INF
    assert all(one.values[h] == XValue(1) for h in space.family.nonempty_ids())
