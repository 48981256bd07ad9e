"""Hypothesis-space structure: closures, least hypotheses, preorders."""

import pytest

import helpers
from emeasure import (
    HypothesisClass,
    Model,
    PointSet,
    Preorder,
    Space,
    SpaceError,
    class_from_preorder,
    preimage_class,
    preorder_from_class,
    space_from_generators,
    union_closure,
)
from emeasure.spaces import NotAPreorder, NotUnionClosed


def bits_of(space, labels):
    return PointSet.of(space.model, labels).bits


def members_as_labels(space):
    return {m.labels(space.model) for m in space.family.members}


def test_union_closure_of_nothing_is_the_empty_family():
    family = union_closure(3, [])
    assert [m.bits for m in family.members] == [0]


def test_union_closure_two_generators():
    # {P1,P2} and {P1,P3} over 3 points close to exactly four members
    family = union_closure(3, [PointSet(3, 0b011), PointSet(3, 0b101)])
    assert {m.bits for m in family.members} == {0, 0b011, 0b101, 0b111}
    assert {m.bits for m in family.members} == helpers.oracle_union_closure([0b011, 0b101])


def test_union_closure_matches_oracle_on_random_generators():
    r = helpers.rng(7)
    for _ in range(50):
        width = r.randint(1, 5)
        gens = [r.randrange(1 << width) for _ in range(r.randint(0, 4))]
        family = union_closure(width, [PointSet(width, g) for g in gens])
        assert {m.bits for m in family.members} == helpers.oracle_union_closure(gens)


def test_union_closure_idempotent_and_monotone():
    r = helpers.rng(11)
    for _ in range(25):
        width = r.randint(1, 4)
        gens = [PointSet(width, r.randrange(1 << width)) for _ in range(3)]
        family = union_closure(width, gens)
        again = union_closure(width, list(family.members))
        assert family == again
        smaller = union_closure(width, gens[:2])
        assert all(m.bits in family for m in smaller.members)


def test_partition_of_eight_cells_closes_to_256_members():
    model = Model(tuple(f"c{i}" for i in range(8)))
    cells = [PointSet.of(model, [f"c{i}"]) for i in range(8)]
    assert len(union_closure(8, cells)) == 256


def test_family_constructor_rejects_union_gaps():
    with pytest.raises(NotUnionClosed):
        HypothesisClass.from_bits(2, [0, 0b01, 0b10])


def test_analyze_overlap_example():
    model = Model(("P1", "P2", "P3"))
    space = space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
    report = space.analyze()
    assert report.union_closed and report.intersection_closed
    assert report.contains_full_model
    family = space.family
    assert report.least["P1"] == family.id_of(bits_of(space, ["P1"]))
    assert report.least["P2"] == family.id_of(bits_of(space, ["P1", "P2"]))
    assert report.least["P3"] == family.id_of(bits_of(space, ["P1", "P3"]))


def test_analyze_power_set_least_are_singletons():
    space = helpers.power_space(3)
    report = space.analyze()
    for i, p in enumerate(space.model.points):
        assert space.family.member(report.least[p]).bits == 1 << i


def test_analyze_nested_class():
    model = Model(("P1", "P2"))
    space = space_from_generators(model, [["P1"], ["P1", "P2"]])
    report = space.analyze()
    assert report.intersection_closed and report.contains_full_model
    assert space.family.member(report.least["P2"]).bits == bits_of(space, ["P1", "P2"])


def test_analyze_flags_non_intersection_closed():
    model = Model(("P1", "P2", "P3"))
    space = space_from_generators(model, [["P1", "P2"], ["P2", "P3"]])
    report = space.analyze()
    assert report.contains_full_model
    assert not report.intersection_closed
    assert report.least is None


def test_least_matches_brute_intersection_oracle():
    r = helpers.rng(3)
    for _ in range(40):
        space = helpers.rand_ic_space(r)
        for pi in range(space.model.size):
            expected = helpers.oracle_least_bits(space, pi)
            assert space.family.member(space.least_id(pi)).bits == expected


def least_cover(space, hid):
    """The least hypotheses of a member's points, as ids."""
    return {space.least_id(i) for i in space.family.member(hid).indices()}


def test_canonical_cover_trivial_and_overlap():
    model = Model(("P1", "P2", "P3"))
    space = space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
    assert least_cover(space, space.family.empty_id) == set()
    full = space.family.id_of(bits_of(space, ["P1", "P2", "P3"]))
    cover_bits = {space.family.member(h).bits for h in least_cover(space, full)}
    assert cover_bits == {
        bits_of(space, ["P1"]),
        bits_of(space, ["P1", "P2"]),
        bits_of(space, ["P1", "P3"]),
    }


def test_canonical_cover_union_law_on_random_spaces():
    """On an intersection-closed space every member is the union of the
    least hypotheses of its points."""
    r = helpers.rng(5)
    for _ in range(30):
        space = helpers.rand_ic_space(r)
        for hid, member in enumerate(space.family.members):
            union = 0
            for h in least_cover(space, hid):
                union |= space.family.member(h).bits
            assert union == member.bits


def test_class_from_preorder_least_is_the_principal_upper_set():
    """The least hypothesis of point i is {j : i <= j}, on seeded preorders."""
    r = helpers.rng(7)
    for _ in range(40):
        n = r.randint(1, 5)
        pre = helpers.rand_preorder(r, n)
        space = class_from_preorder(Model(tuple(f"P{i + 1}" for i in range(n))), pre)
        for i in range(n):
            upper = sum(1 << j for j in range(n) if pre.holds(i, j))
            assert space.family.member(space.least_id(i)).bits == upper


def test_class_from_identity_preorder_is_power_set():
    model = Model(("P1", "P2", "P3"))
    space = class_from_preorder(model, Preorder.identity(3))
    assert len(space.family) == 8


def test_class_from_chain_preorder_is_nested():
    model = Model(("P1", "P2", "P3"))
    pre = Preorder.from_pairs(3, [(0, 1), (0, 2), (1, 2)])
    space = class_from_preorder(model, pre)
    assert members_as_labels(space) == {
        (),
        ("P3",),
        ("P2", "P3"),
        ("P1", "P2", "P3"),
    }


def test_class_from_indiscrete_preorder_is_trivial():
    model = Model(("P1", "P2"))
    pre = Preorder.from_pairs(2, [(0, 1), (1, 0)])
    space = class_from_preorder(model, pre)
    assert members_as_labels(space) == {(), ("P1", "P2")}


def test_preorder_validation():
    bad = Preorder(((True, True), (False, False)))
    with pytest.raises(NotAPreorder):
        bad.validate()
    missing_transitive = Preorder.from_pairs(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAPreorder):
        missing_transitive.validate()


def test_preorder_from_power_set_is_identity():
    space = helpers.power_space(3)
    pre = preorder_from_class(space)
    assert pre == Preorder.identity(3)


def test_preorder_from_overlap_example():
    model = Model(("P1", "P2", "P3"))
    space = space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
    pre = preorder_from_class(space)
    # i <= j iff j is in the least hypothesis of i
    expected = {
        (0, 0): True, (0, 1): False, (0, 2): False,
        (1, 0): True, (1, 1): True, (1, 2): False,
        (2, 0): True, (2, 1): False, (2, 2): True,
    }
    for (i, j), want in expected.items():
        assert pre.holds(i, j) == want


def test_preorder_from_chain_class_is_total_order():
    model = Model(("P1", "P2", "P3"))
    space = space_from_generators(model, [["P3"], ["P2", "P3"], ["P1", "P2", "P3"]])
    pre = preorder_from_class(space)
    for i in range(3):
        for j in range(3):
            assert pre.holds(i, j) == (i <= j)


def test_round_trip_class_preorder_class():
    r = helpers.rng(13)
    for _ in range(40):
        space = helpers.rand_ic_space(r)
        back = class_from_preorder(space.model, preorder_from_class(space))
        assert back.family == space.family


def test_round_trip_preorder_class_preorder():
    r = helpers.rng(17)
    for _ in range(40):
        n = r.randint(1, 4)
        pre = helpers.rand_preorder(r, n)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        space = class_from_preorder(model, pre)
        assert preorder_from_class(space) == pre


def test_preimage_identity_map_keeps_the_class():
    space = helpers.power_space(3)
    mapping = {p: p for p in space.model.points}
    assert preimage_class(space.model, mapping, space) == space.family


def test_preimage_constant_map_collapses_to_trivial():
    model = Model(("a", "b", "c"))
    target = helpers.power_space(1)
    mapping = {p: "P1" for p in model.points}
    family = preimage_class(model, mapping, target)
    assert {m.bits for m in family.members} == {0, 0b111}


def test_width_mismatch_is_reported():
    model = Model(("P1", "P2"))
    with pytest.raises(SpaceError):
        Space(model, HypothesisClass.from_bits(3, [0], check=False))


def test_preorder_pairs_outside_the_points_are_rejected():
    for pair in [(0, 5), (2, 0), (-1, 0), (0, -2)]:
        with pytest.raises(NotAPreorder):
            Preorder.from_pairs(2, [pair])


def test_family_constructor_checks_every_pair_of_members():
    r = helpers.rng(13)
    for _ in range(60):
        width = r.randint(1, 5)
        bits = {0} | {r.randrange(1 << width) for _ in range(r.randint(1, 6))}
        if all(a | b in bits for a in bits for b in bits):
            HypothesisClass.from_bits(width, bits)
        else:
            with pytest.raises(NotUnionClosed):
                HypothesisClass.from_bits(width, bits)


def test_irreducible_members_are_not_unions_of_smaller_ones():
    r = helpers.rng(17)
    for _ in range(40):
        width = r.randint(1, 5)
        gens = [r.randrange(1 << width) for _ in range(r.randint(0, 5))]
        bits = helpers.oracle_union_closure(gens)
        expect = set()
        for m in bits:
            below = 0
            for s in bits:
                if s != m and s & ~m == 0:
                    below |= s
            if m and below != m:
                expect.add(m)
        for check in (True, False):
            family = HypothesisClass.from_bits(width, bits, check=check)
            assert {family.member(j).bits for j in family.irreducible_ids()} == expect
