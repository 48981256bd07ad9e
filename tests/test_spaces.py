"""Hypothesis-space structure: closures, least hypotheses, preorders."""

import pytest

import helpers
from emeasure import (
    ConsequenceTable,
    INF,
    Model,
    Preorder,
    Space,
    SpaceError,
    class_from_preorder,
    preorder_from_class,
    union_closure,
)
from emeasure.spaces import HypothesisClass, NotAPreorder, preimages


def bits_of(space, labels):
    return space.model.bits_of(labels)


def members_as_labels(space):
    return {helpers.labels_of(space.model, m) for m in space.family.members}


def test_union_closure_of_nothing_is_the_empty_family():
    family = union_closure(3, [])
    assert list(family.members) == [0]


def test_union_closure_two_generators():
    # {P1,P2} and {P1,P3} over 3 points close to exactly four members
    family = union_closure(3, [0b011, 0b101])
    assert set(family.members) == {0, 0b011, 0b101, 0b111}
    assert set(family.members) == helpers.oracle_union_closure([0b011, 0b101])


def test_union_closure_matches_oracle_on_random_generators():
    r = helpers.rng(7)
    for _ in range(50):
        width = r.randint(1, 5)
        gens = [r.randrange(1 << width) for _ in range(r.randint(0, 4))]
        family = union_closure(width, gens)
        assert set(family.members) == helpers.oracle_union_closure(gens)


def test_union_closure_idempotent_and_monotone():
    r = helpers.rng(11)
    for _ in range(25):
        width = r.randint(1, 4)
        gens = [r.randrange(1 << width) for _ in range(3)]
        family = union_closure(width, gens)
        again = union_closure(width, list(family.members))
        assert family == again
        smaller = union_closure(width, gens[:2])
        assert all(m in family for m in smaller.members)


def test_partition_of_eight_cells_closes_to_256_members():
    model = Model(tuple(f"c{i}" for i in range(8)))
    cells = [model.bits_of([f"c{i}"]) for i in range(8)]
    assert len(union_closure(8, cells)) == 256


def test_union_closure_refuses_a_generator_outside_the_width():
    for width, bad in [(2, 0b100), (3, -1), (1, 1 << 70)]:
        with pytest.raises(SpaceError) as exc:
            union_closure(width, [0b1, bad])
        assert str(exc.value) == f"bitset {bad:#x} does not fit width {width}"


def test_analyze_overlap_example():
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
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
        assert space.family.member(report.least[p]) == 1 << i


def test_analyze_nested_class():
    model = Model(("P1", "P2"))
    space = helpers.space_from_generators(model, [["P1"], ["P1", "P2"]])
    report = space.analyze()
    assert report.intersection_closed and report.contains_full_model
    assert space.family.member(report.least["P2"]) == bits_of(space, ["P1", "P2"])


def test_analyze_flags_non_intersection_closed():
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P1", "P2"], ["P2", "P3"]])
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
            assert space.family.member(space.least_id(pi)) == expected


def least_cover(space, hid):
    """The least hypotheses of a member's points, as ids."""
    return {space.least_id(i) for i in space.family.indices(hid)}


def test_canonical_cover_trivial_and_overlap():
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
    assert least_cover(space, space.family.empty_id) == set()
    full = space.family.id_of(bits_of(space, ["P1", "P2", "P3"]))
    cover_bits = {space.family.member(h) for h in least_cover(space, full)}
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
                union |= space.family.member(h)
            assert union == member


def test_class_from_preorder_least_is_the_principal_upper_set():
    """The least hypothesis of point i is {j : i <= j}, on seeded preorders."""
    r = helpers.rng(7)
    for _ in range(40):
        n = r.randint(1, 5)
        pre = helpers.rand_preorder(r, n)
        space = class_from_preorder(Model(tuple(f"P{i + 1}" for i in range(n))), pre)
        for i in range(n):
            upper = sum(1 << j for j in range(n) if pre.rows[i] >> j & 1)
            assert space.family.member(space.least_id(i)) == upper


def test_class_from_identity_preorder_is_power_set():
    model = Model(("P1", "P2", "P3"))
    space = class_from_preorder(model, Preorder.from_pairs(3, []))
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
    bad = Preorder((0b11, 0b00))
    with pytest.raises(NotAPreorder):
        bad.validate()
    missing_transitive = Preorder.from_pairs(3, [(0, 1), (1, 2)])
    with pytest.raises(NotAPreorder):
        missing_transitive.validate()


def test_preorder_from_power_set_is_identity():
    space = helpers.power_space(3)
    pre = preorder_from_class(space)
    assert pre == Preorder.from_pairs(3, [])


def test_preorder_from_overlap_example():
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P1"], ["P1", "P2"], ["P1", "P3"]])
    pre = preorder_from_class(space)
    # i <= j iff j is in the least hypothesis of i
    expected = {
        (0, 0): True, (0, 1): False, (0, 2): False,
        (1, 0): True, (1, 1): True, (1, 2): False,
        (2, 0): True, (2, 1): False, (2, 2): True,
    }
    for (i, j), want in expected.items():
        assert pre.rows[i] >> j & 1 == want


def test_preorder_from_chain_class_is_total_order():
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P3"], ["P2", "P3"], ["P1", "P2", "P3"]])
    pre = preorder_from_class(space)
    for i in range(3):
        for j in range(3):
            assert pre.rows[i] >> j & 1 == (i <= j)


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
    assert preimages(space.model, mapping, space) == space.family.members


def test_preimage_constant_map_collapses_to_trivial():
    model = Model(("a", "b", "c"))
    target = helpers.power_space(1)
    mapping = {p: "P1" for p in model.points}
    assert preimages(model, mapping, target) == (0, 0b111)


def test_preimages_refuse_a_source_point_without_an_image_or_an_image_outside_the_target():
    model, target = Model(("a", "b")), helpers.power_space(1)
    with pytest.raises(SpaceError, match="source point 'b' has no image"):
        preimages(model, {"a": "P1"}, target)
    with pytest.raises(SpaceError, match="'zz' is not a point of the target model"):
        preimages(model, {"a": "P1", "b": "zz"}, target)


def test_width_mismatch_is_reported():
    model = Model(("P1", "P2"))
    with pytest.raises(SpaceError):
        Space(model, HypothesisClass(3, [0]))


def test_preorder_pairs_outside_the_points_are_rejected():
    for pair in [(0, 5), (2, 0), (-1, 0), (0, -2)]:
        with pytest.raises(NotAPreorder):
            Preorder.from_pairs(2, [pair])


def test_irreducible_members_are_not_unions_of_smaller_ones():
    r = helpers.rng(17)
    for _ in range(40):
        width = r.randint(1, 5)
        gens = [r.randrange(1 << width) for _ in range(r.randint(0, 5))]
        bits = helpers.oracle_union_closure(gens)
        family = HypothesisClass(width, bits)
        expect = helpers.oracle_irreducibles(bits)
        assert {family.member(j) for j in family.irreducible_ids} == expect


def test_every_union_closed_family_on_up_to_four_points_matches_the_oracles():
    """L1 on every small world: each union-closed family on one to four
    points, built by `union_closure` from its join-irreducible members, has
    the oracles' members, irreducible members, intersection-closure flag and
    least hypotheses; and `analyze` gives the oracles' full-model and
    meet-closure flags and least map."""
    counts = []
    for n in range(1, 5):
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        families = helpers.oracle_union_closed_families(n)
        counts.append(len(families))
        for members in families:
            irreducible = helpers.oracle_irreducibles(members)
            space = Space(model, union_closure(n, sorted(irreducible)))
            family = space.family
            assert set(family.members) == members
            assert {family.member(j) for j in family.irreducible_ids} == irreducible
            assert space.intersection_closed == helpers.oracle_intersection_closed(n, members)
            least = helpers.oracle_least_ids(space)
            assert space.least_ids() == least
            full = (1 << n) - 1 in members
            meets = all(a & b in members for a in members for b in members)
            report = space.analyze()
            assert (report.contains_full_model, report.intersection_closed) == (full, meets)
            assert report.least == (dict(zip(model.points, least)) if full and meets else None)
    assert counts == [2, 7, 61, 2480]


def test_printed_labels_are_the_model_labels_built_without_them(monkeypatch):
    """On every union-closed family on one to four points and on the 128
    unions of the blocks {a, b, c}, {d, e}, {f}, ..., {j}, where most
    members less their lowest point are no member and so are some of those
    sets less theirs, `printed_ids` maps each nonempty member's
    `Model.label` to its id, and builds every label, the non-members' too,
    without calling `Model.label` or walking a member's points
    (`spaces._indices`)."""
    from emeasure import spaces

    worlds = [
        Space(Model(tuple(f"P{i + 1}" for i in range(n))), HypothesisClass(n, members))
        for n in range(1, 5)
        for members in helpers.oracle_union_closed_families(n)
    ]
    blocks = [0b111, 0b11000, *(1 << p for p in range(5, 10))]
    worlds.append(Space(Model(tuple("abcdefghij")), union_closure(10, blocks)))
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(Model, "label", lambda *args: calls.append("label"))
        patch.setattr(spaces, "_indices", lambda *args: calls.append("_indices"))
        printed = [space.printed_ids() for space in worlds]
    assert calls == []
    assert len(worlds[-1].family) == 128
    for space, ids in zip(worlds, printed):
        members = space.family.members
        assert ids == {space.model.label(members[hid]): hid for hid in range(1, len(members))}


def test_every_preorder_on_up_to_four_points_round_trips_through_its_class():
    """`class_from_preorder` against `preorder_from_class` on every preorder
    of one to four points: the class is the union closure of the principal
    upper sets, each point's least hypothesis is its own, and the class
    gives the preorder back."""
    counts = []
    for n in range(1, 5):
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        preorders = helpers.oracle_preorders(n)
        counts.append(len(preorders))
        for pre in preorders:
            space = class_from_preorder(model, pre)
            assert set(space.family.members) == helpers.oracle_union_closure(pre.rows)
            assert space.least_ids() == tuple(map(space.family.id_of, pre.rows))
            assert preorder_from_class(space) == pre
    assert counts == [1, 4, 29, 355]


def _matrix(rows, n):
    """Bool matrix of bitset rows, each row as long as n or its highest bit."""
    return tuple(tuple(bool(row >> j & 1) for j in range(max(n, row.bit_length()))) for row in rows)


def _refusal(check):
    try:
        check()
    except NotAPreorder as exc:
        return str(exc)
    return None


def test_bitset_preorder_matches_the_matrix_oracles():
    """On seeded relations, raw, made reflexive or closed, and now and then
    with a row past the points: the pairs give the matrix's rows, the
    closure is the matrix closure, and validation refuses exactly what the
    matrix oracle refuses, with the same message. A closure is transitive."""
    r = helpers.rng(29)
    seen = set()
    for _ in range(200):
        n = r.randint(1, 7)
        density = r.random()
        pairs = [(i, j) for i in range(n) for j in range(n) if r.random() < density / 2]
        pre = Preorder.from_pairs(n, pairs)
        matrix = [[i == j for j in range(n)] for i in range(n)]
        for i, j in pairs:
            matrix[i][j] = True
        assert _matrix(pre.rows, n) == tuple(map(tuple, matrix))
        rows = list(pre.rows)
        roll = r.random()
        if roll < 0.3:
            rows = list(pre.transitive_closure().rows)
        elif roll < 0.6:
            rows[r.randrange(n)] &= ~(1 << r.randrange(n))
        elif roll < 0.7:
            rows[r.randrange(n)] |= 1 << r.randint(n, n + 2)
        matrix = _matrix(rows, n)
        bitset = Preorder(tuple(rows))
        if all(len(row) == n for row in matrix):
            closed = bitset.transitive_closure()
            assert _matrix(closed.rows, n) == helpers.oracle_transitive_closure(matrix)
            refused = _refusal(closed.validate)
            assert refused is None or refused.startswith("relation is not reflexive")
        message = _refusal(bitset.validate)
        assert message == _refusal(lambda: helpers.oracle_validate(matrix))
        seen.add(message.split(":")[0].split(" at")[0] if message else None)
    assert seen == {
        None,
        "relation matrix is not square",
        "relation is not reflexive",
        "relation is not transitive",
    }


def numeric_space(values):
    """The consequence space of a one-point numeric table over `values`."""
    decisions = tuple(f"d{i}" for i in range(len(values)))
    return ConsequenceTable.numeric(Model(("p",)), decisions, [values]).cspace


def test_numeric_consequence_order_is_the_value_order():
    """The distinct values in increasing order, i at least as bad as j
    exactly when value i >= value j, on seeded lists with inf and 0."""
    r = helpers.rng(31)
    for _ in range(60):
        values = [helpers.rand_xvalue(r) for _ in range(r.randint(1, 30))]
        cs = numeric_space(values)
        by_label = {v.record(): v for v in values}
        ordered = [by_label[label] for label in cs.elements]
        assert set(ordered) == set(values) and len(ordered) == len(set(values))
        assert all(a < b for a, b in zip(ordered, ordered[1:]))
        for i, a in enumerate(ordered):
            for j, b in enumerate(ordered):
                assert bool(cs.order.rows[i] >> j & 1) == (a >= b)
    assert numeric_space([INF, INF]).elements == ("inf",)


def test_spaces_and_families_compare_and_hash_by_their_fields():
    """A space compares by its model and family, and a family by its width
    and members; each hashes as the tuple of those fields."""
    r = helpers.rng(4040)
    for _ in range(20):
        space = helpers.rand_uc_space(r)
        family = space.family
        twin = Space(Model(space.model.points), HypothesisClass(family.width, reversed(family.members)))
        assert twin is not space and twin == space and twin.family == family
        assert hash(space) == hash((space.model, family)) == hash(twin)
        assert hash(family) == hash((family.width, family.members)) == hash(twin.family)
        assert space != family and family != family.members
        wider = HypothesisClass(family.width + 1, family.members)
        assert wider != family and Space(Model((*space.model.points, "Q")), wider) != space


def test_a_class_from_a_preorder_refuses_a_preorder_of_another_size():
    from emeasure.spaces import WidthMismatch, class_from_preorder

    model = Model(("a", "b", "c"))
    for size in (2, 4):
        with pytest.raises(WidthMismatch, match="^preorder size does not match model size$"):
            class_from_preorder(model, Preorder.from_pairs(size, []))


def test_least_id_refuses_a_point_without_a_least_hypothesis():
    """On {a,b}, {b,c} and their union, b lies in two members whose
    intersection is no member; a has {a,b}."""
    from emeasure.spaces import NotIntersectionClosed

    space = helpers.space_from_generators(Model(("a", "b", "c")), [["a", "b"], ["b", "c"]])
    assert space.family.member(space.least_id("a")) == 0b011
    with pytest.raises(NotIntersectionClosed, match="^point 'b' has no least hypothesis$"):
        space.least_id("b")
