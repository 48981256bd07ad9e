"""Familywise evidence, false evidence rate, step-up procedures, disutilities."""

import itertools
import math
import re
from fractions import Fraction

import pytest

import helpers
from emeasure import (
    AvgOverSelection,
    CustomPhi,
    EClass,
    EKernel,
    INF,
    Model,
    PointSet,
    SampleSpace,
    SelectionRule,
    Space,
    SupOverTrue,
    XValue,
    check_fer,
    check_fwe,
    check_phi_validity,
    check_validity,
    closed_ebh,
    constant_kernel,
    ebh,
    familywise_evidence,
    fep_fsp,
    postprocess_efunction,
    postprocess_selection,
    self_consistent_selection,
    union_closure,
    unit_measure,
)
from emeasure.evidence import CapExceeded, from_values
from emeasure.spaces import NotIntersectionClosed
from emeasure.multiplicity import PhiFlagViolation
from emeasure import golden


def toy_kernel(outcomes=("x",)):
    space = golden.toy_space()
    sample = SampleSpace(outcomes)
    return space, constant_kernel(space, sample, golden.base_efunction(space))


def uniform_toy_pa(space, sample):
    from emeasure import Pmf, ProbabilityAssignment

    n = sample.size
    pmf = Pmf(sample, tuple(Fraction(1, n) for _ in range(n)))
    return ProbabilityAssignment(space.model, tuple(pmf for _ in space.model.points))


def test_familywise_evidence_on_toy_cells():
    space, k = toy_kernel()
    assert familywise_evidence(k, "c123", 0) == XValue(100)
    assert familywise_evidence(k, "cOut", 0) == XValue(5)


def test_familywise_evidence_equals_least_value_for_capacities():
    r = helpers.rng(103)
    for _ in range(20):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        for pi in range(space.model.size):
            for xi in range(sample.size):
                assert familywise_evidence(k, pi, xi) == k.value(space.least_id(pi), xi)


def test_familywise_evidence_can_exceed_least_without_antitonicity():
    space = helpers.power_space(2)
    sample = SampleSpace(("x",))
    fn = from_values(space, ["inf", 1, 1, 5])  # plain function: full set outruns atoms
    k = EKernel(space, sample, [fn])
    assert familywise_evidence(k, 0, 0) == XValue(5)
    assert k.value(space.least_id(0), 0) == XValue(1)


def test_check_fwe_matches_validity_verdict():
    r = helpers.rng(107)
    for _ in range(15):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        report = check_fwe(k, pa)
        assert report.ok == check_validity(k, pa).ok
    space = helpers.rand_ic_space(r)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, space.model, sample)
    bad = helpers.constant_two_kernel(space, sample)
    report = check_fwe(bad, pa)
    assert not report.ok
    assert any(not e.ok for e in report.entries)


def test_binary_kernel_fwe_is_classical_familywise_error_over_alpha():
    r = helpers.rng(109)
    space = helpers.power_space(2)
    sample = SampleSpace(("x1", "x2"))
    pa = helpers.rand_pa(r, space.model, sample)
    alpha = Fraction(1, 5)
    # reject the least hypothesis of P1 on x1 only
    cols = []
    for xi in range(2):
        values = {}
        for hid, m in enumerate(space.family.members):
            if m.is_empty:
                values[hid] = INF
            elif xi == 0 and m.bits == 0b01:
                values[hid] = XValue(1) / XValue(alpha)
            else:
                values[hid] = XValue(0)
        cols.append(helpers.classify(space, values))
    k = EKernel(space, sample, cols)
    report = check_fwe(k, pa)
    stat_p1 = next(e.stat for e in report.entries if e.point == "P1")
    classical = pa.pmfs[0].mass[0] / alpha  # P1's chance of a true rejection, scaled
    assert stat_p1 == XValue(classical)


def test_fep_fsp_guard_and_toy_values():
    space, k = toy_kernel()
    empty_rule = SelectionRule.fixed(k.sample, [])
    pair = fep_fsp(k, "c12", empty_rule, 0)
    assert pair.fep == XValue(0) and pair.fsp == 0
    g1 = golden.row_id(space, "G_1")
    g2 = golden.row_id(space, "G_2")
    rule = SelectionRule.fixed(k.sample, [g1, g2])
    pair = fep_fsp(k, "c12", rule, 0)
    assert pair.fep == XValue(Fraction(89, 2))
    assert pair.fsp == 1


def test_binary_kernel_fep_is_fsp_over_alpha():
    space, k = toy_kernel()
    alpha = Fraction(1, 20)
    result = ebh(golden.base_efunction(space), golden.group_ids(space), alpha)
    binary = constant_kernel(space, k.sample, result.table)
    rule = SelectionRule.fixed(k.sample, list(golden.group_ids(space)))
    for cell in golden.CELLS:
        pair = fep_fsp(binary, cell, rule, 0)
        rejected_true = [
            g for g in golden.group_ids(space)
            if space.model.index(cell) in space.family.member(g)
            and binary.value(g, 0) >= XValue(20)
        ]
        expected = Fraction(len(rejected_true), 3) / alpha
        assert pair.fep == XValue(expected)


def test_fer_pointwise_bound_and_rate():
    """On a capacity kernel over an intersection-closed space every selected
    true hypothesis contains the point's least hypothesis, so
    FEP <= FSP * e(H_P|x) <= e(H_P|x) at every (rule, point, outcome), valid
    kernel or not; valid kernels keep the rate at most 1."""
    r = helpers.rng(113)
    for case in range(30):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if case % 3 == 2:
            k = helpers.scaled_kernel(k, XValue(3))
        assert k.eclass >= EClass.CAPACITY
        ids = list(space.family.nonempty_ids())
        rule = SelectionRule(
            sample, tuple(tuple(r.sample(ids, r.randint(0, len(ids)))) for _ in range(sample.size))
        )
        for pi in range(space.model.size):
            for xi in range(sample.size):
                pair = fep_fsp(k, pi, rule, xi)
                least_value = k.value(space.least_id(pi), xi)
                assert pair.fep <= XValue(pair.fsp) * least_value <= least_value
        if case % 3 != 2:
            assert check_fer(k, pa, rule).ok


def test_fer_rate_and_premise_match_their_definitions():
    """Per point, the FER statistic is E_p[sum of e(g|x) over selected g
    containing p / |S(x)|] and the premise E_p[share of S(x) containing p *
    e(H_p|x)]. On a capacity kernel over an intersection-closed space
    FER <= premise <= the validity statistic at H_p, point by point, valid
    kernel or not. With no rule the rate is the largest singleton-rule rate."""
    r = helpers.rng(131)
    for case in range(40):
        space = helpers.rand_ic_space(r, max_points=3)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=case % 2 == 0)
        if case % 4 == 3:
            k = helpers.scaled_kernel(helpers.valid_capacity_kernel(r, space, pa), XValue(3))
        else:
            k = helpers.valid_capacity_kernel(r, space, pa)
        ids = list(space.family.nonempty_ids())
        points = range(space.model.size)
        rule = SelectionRule(
            sample, tuple(tuple(r.sample(ids, r.randint(0, len(ids)))) for _ in range(sample.size))
        )

        def fer_stat(p, selected_at):
            return helpers.oracle_expectation(pa.pmfs[p], [
                sum((k.value(g, x) for g in selected_at(x) if p in space.family.member(g)),
                    XValue(0)) / XValue(max(len(selected_at(x)), 1))
                for x in range(sample.size)
            ])

        def premise(p):
            return helpers.oracle_expectation(pa.pmfs[p], [
                XValue(Fraction(sum(p in space.family.member(g) for g in rule.at(x)),
                                max(len(rule.at(x)), 1)))
                * k.value(space.least_id(p), x)
                for x in range(sample.size)
            ])

        report = check_fer(k, pa, rule)
        assert [e.stat for e in report.entries] == [fer_stat(p, rule.at) for p in points]
        for p, entry in zip(points, report.entries, strict=True):
            least_stat = helpers.oracle_expectation(pa.pmfs[p], k.variable(space.least_id(p)))
            assert entry.stat <= premise(p) <= least_stat
        uniform = check_fer(k, pa)
        assert uniform.worst().stat == max(
            fer_stat(p, lambda x, h=h: (h,)) for h in ids for p in points
        )


def test_fer_singleton_rules_and_uniform_equivalence():
    """The singleton rule {H} has FEP e(H|x) on H's points and 0 elsewhere, so
    the uniform rate, the largest rate over singleton rules, is the largest
    validity statistic, on valid and violating kernels alike."""
    r = helpers.rng(127)
    for case in range(24):
        space = helpers.rand_ic_space(r, max_points=3)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=case % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if case % 4 == 1:
            k = helpers.scaled_kernel(k, XValue(3))
        elif case % 4 == 3:
            k = helpers.constant_two_kernel(space, sample)
        singleton_rates = []
        for hid in space.family.nonempty_ids():
            rule = SelectionRule.fixed(sample, [hid])
            member = space.family.member(hid)
            for pi in range(space.model.size):
                feps = [fep_fsp(k, pi, rule, xi).fep for xi in range(sample.size)]
                assert feps == [k.value(hid, xi) if pi in member else XValue(0)
                                for xi in range(sample.size)]
                singleton_rates.append(helpers.oracle_expectation(pa.pmfs[pi], feps))
        largest_validity_stat = max(
            helpers.oracle_expectation(pa.pmfs[pi], k.variable(hid))
            for hid in space.family.nonempty_ids()
            for pi in space.family.member(hid).indices()
        )
        report = check_fer(k, pa)
        assert report.worst().stat == max(singleton_rates) == largest_validity_stat
        assert report.ok == check_validity(k, pa).ok


def test_fer_first_inequality_tight_for_disjoint_least_selections():
    space, k = toy_kernel()
    cells = [golden.row_id(space, lab) for lab in ("H_1", "H_2")]
    rule = SelectionRule.fixed(k.sample, cells)
    pair = fep_fsp(k, "c1", rule, 0)
    least_val = k.value(space.least_id(space.model.index("c1")), 0)
    assert pair.fep == XValue(pair.fsp) * least_val  # 30 = (1/2) * 60
    assert pair.fep == XValue(30)


def test_postprocess_selection_identity_when_share_is_one():
    space, k = toy_kernel()
    least_ids = sorted({space.least_id(i) for i in range(space.model.size)})
    rule = SelectionRule.fixed(k.sample, [golden.row_id(space, "H_123")])
    # every point of H_123's cell has share 1 under the singleton rule
    processed = postprocess_selection(k, rule)
    h123 = golden.row_id(space, "H_123")
    assert processed.value(h123, 0) == k.value(h123, 0)


def test_postprocess_selection_reproduces_inflated_column():
    space, k = toy_kernel()
    gids = golden.group_ids(space)
    rule = SelectionRule.fixed(k.sample, list(gids))
    processed = postprocess_selection(k, rule)
    expected = golden.expected_reference_table()
    for label in golden.ROW_LABELS:
        assert processed.value(golden.row_id(space, label), 0) == expected.inflated[label]


def test_postprocess_preserves_fer_under_the_rule():
    r = helpers.rng(157)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        ids = list(space.family.nonempty_ids())
        rule = SelectionRule.fixed(sample, ids[: r.randint(1, len(ids))])
        processed = postprocess_selection(k, rule)
        assert check_fer(processed, pa, rule).ok


def test_self_consistent_selection_on_the_toy_family():
    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    result = self_consistent_selection(base, gids, Fraction(1, 20))
    assert result.selected == tuple(sorted(gids))
    assert result.is_fixed_point
    expected = golden.expected_reference_table()
    for label, g in zip(("G_1", "G_2", "G_3"), sorted(gids)):
        assert result.witness[g] == expected.inflated[label]
        assert result.witness[g] >= XValue(20)


def test_self_consistent_selection_collapses_at_tiny_alpha():
    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    result = self_consistent_selection(base, gids, Fraction(1, 10 ** 6))
    assert result.selected == ()


def test_self_consistent_fixed_point_property_on_random_instances():
    r = helpers.rng(131)
    for _ in range(15):
        space = helpers.rand_ic_space(r, max_points=3)
        e = helpers.rand_measure(r, space)
        ids = list(space.family.nonempty_ids())
        fam = ids[: min(len(ids), 4)]
        alpha = Fraction(r.randint(1, 4), 20)
        result = self_consistent_selection(e, fam, alpha)
        if result.is_fixed_point:
            inflated = postprocess_efunction(e, result.selected)
            rejected = tuple(
                g for g in sorted(fam) if inflated.values[g] >= XValue(1) / XValue(alpha)
            )
            assert rejected == result.selected


def test_self_consistent_selection_matches_the_exhaustive_oracle():
    r = helpers.rng(404)
    alphas = [Fraction(1, 20), Fraction(1, 8), Fraction(1, 3), Fraction(1), Fraction(5, 2)]
    seen = {"equivalent": 0, "zero": 0, "inf": 0, "subset": 0, "none": 0, "pruned": 0}
    for trial in range(400):
        space = helpers.rand_ic_space(r, max_points=4, max_members=12)
        if trial % 3 == 0:
            e = helpers.rand_measure(r, space, zero_chance=Fraction(1, 2))
        elif trial % 3 == 1:
            e = helpers.rand_measure(r, space)
        else:
            e = helpers.rand_capacity(r, space)
        ids = list(space.family.nonempty_ids())
        fam = r.sample(ids, r.randint(0, min(len(ids), 6)))
        if fam and r.random() < 0.1:
            fam.append(fam[0])
        alpha = alphas[trial % len(alphas)]
        result = self_consistent_selection(e, fam, alpha)
        selected, witness, fixed = helpers.oracle_self_consistent(e, fam, alpha)
        assert (result.selected, result.witness, result.is_fixed_point) == (
            selected, witness, fixed,
        ), (trial, fam, alpha)
        least = space.least_ids()
        least_values = [e.values[hid] for hid in least]
        seen["equivalent"] += len(set(least)) < len(least)
        seen["zero"] += any(v.is_zero for v in least_values)
        seen["inf"] += any(v.is_inf for v in least_values)
        seen["subset"] += fixed and 0 < len(selected) < len(fam)
        seen["none"] += not fixed
        seen["pruned"] += result.subsets_tried < 2 ** len(fam)
    assert min(seen.values()) >= 10, seen


def test_no_eligible_candidate_tries_only_the_empty_selection():
    space = helpers.power_space(4)
    fam = list(space.family.nonempty_ids())[:12]
    result = self_consistent_selection(unit_measure(space), fam, Fraction(1, 20))
    assert (result.selected, result.is_fixed_point, result.subsets_tried) == ((), False, 1)


def test_selection_cost_is_refused_before_the_search():
    space = helpers.power_space(5)
    e = from_values(space, [INF] * len(space.family))
    ids = list(space.family.nonempty_ids())
    # C(21, 0) + ... + C(21, 11) = 1401292 is the first partial sum past 2^20.
    with pytest.raises(CapExceeded, match="would try at least 1401292 subsets"):
        self_consistent_selection(e, ids[:21], Fraction(1, 20))
    # 20 candidates fit the cap; all of them are the first subset tried.
    result = self_consistent_selection(e, ids[:20], Fraction(1, 20))
    assert (result.selected, result.subsets_tried) == (tuple(sorted(ids[:20])), 1)


def test_selection_over_thousands_of_candidates_is_refused_without_the_full_count():
    space = helpers.power_space(12)
    e = from_values(space, [INF] * len(space.family))
    ids = list(space.family.nonempty_ids())  # 4095 candidates, all eligible at size 1
    with pytest.raises(CapExceeded) as refused:
        self_consistent_selection(e, ids, Fraction(1, 20))
    bound = int(re.search(r"would try at least (\d+) subsets", str(refused.value)).group(1))
    # 1 + 4095 + C(4095, 2): the sum stops at size 2 instead of adding up to 2^4095.
    assert bound == 1 + 4095 + math.comb(4095, 2)


def test_selection_needs_an_intersection_closed_space():
    # {a,b} and {b,c} meet in {b}, which is not a member.
    model = Model(("a", "b", "c"))
    tangled = Space(model, union_closure(3, [PointSet.of(model, "ab"), PointSet.of(model, "bc")]))
    e = unit_measure(tangled)
    for fam in ([], list(tangled.family.nonempty_ids())):
        with pytest.raises(NotIntersectionClosed):
            self_consistent_selection(e, fam, Fraction(1, 20))


def test_stepup_on_the_toy_values():
    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    result = ebh(base, gids, Fraction(1, 20))
    assert [golden.row_id(space, f"G_{i}") in result.rejected for i in (1, 2, 3)] == [
        True, False, False,
    ]
    expected = golden.expected_reference_table()
    for label in golden.ROW_LABELS:
        assert result.table.values[golden.row_id(space, label)] == expected.stepup[label]


def test_stepup_rejects_nothing_on_zero_evidence():
    space = golden.toy_space()
    zero_cells = {c: XValue(0) for c in golden.CELLS}
    base = golden.base_efunction(space, zero_cells)
    result = ebh(base, golden.group_ids(space), Fraction(1, 20))
    assert result.rejected == ()
    assert all(
        result.table.values[h] == XValue(0) for h in space.family.nonempty_ids()
    )


def test_closed_stepup_dominates_stepup_on_the_toy():
    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    plain = ebh(base, gids, Fraction(1, 20))
    closed = closed_ebh(base, gids, Fraction(1, 20))
    assert set(plain.rejected) <= set(closed.rejected)
    expected = golden.expected_reference_table()
    for label in golden.ROW_LABELS:
        assert closed.table.values[golden.row_id(space, label)] == expected.closed_stepup[label]


def test_closed_stepup_on_empty_family():
    space = golden.toy_space()
    base = golden.base_efunction(space)
    result = closed_ebh(base, [], Fraction(1, 20))
    assert result.rejected == ()


def test_phi_sup_over_true_recovers_familywise():
    r = helpers.rng(137)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        pointwise, general = check_phi_validity(k, pa, SupOverTrue())
        assert pointwise.ok
        assert general == check_fwe(k, pa)


def test_phi_avg_over_selection_recovers_fer():
    r = helpers.rng(139)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        ids = list(space.family.nonempty_ids())
        selected = ids[: r.randint(1, len(ids))]
        phi = AvgOverSelection(selected)
        pointwise, _ = check_phi_validity(k, pa, phi)
        assert pointwise.ok
        rule = SelectionRule.fixed(sample, selected)
        for pi in range(space.model.size):
            for xi in range(sample.size):
                pair = fep_fsp(k, pi, rule, xi)
                assert phi.value(space, pi, k.columns[xi].values) == pair.fep
                assert phi.phi_one(space, pi) == XValue(pair.fsp)


def test_phi_sup_over_selections_equals_sup_over_true():
    """The best average over any selection out of the family is the worst
    true evidence: the singleton of the largest true value attains it."""
    r = helpers.rng(149)
    zeros = infs = 0
    for _ in range(12):
        space = helpers.rand_ic_space(r, max_points=3)
        ids = list(space.family.nonempty_ids())
        selections = [
            AvgOverSelection(sel)
            for size in range(1, len(ids) + 1)
            for sel in itertools.combinations(ids, size)
        ]
        for _ in range(3):
            table = helpers.rand_capacity(r, space).values
            zeros += any(v.is_zero for v in table)
            infs += any(v.is_inf for v in table[1:])
            for pi in range(space.model.size):
                best = max(phi.value(space, pi, table) for phi in selections)
                assert best == SupOverTrue().value(space, pi, table)
    assert zeros and infs


def test_phi_compound_validity_sums_to_family_size():
    space, k = toy_kernel(("x1", "x2"))
    pa = uniform_toy_pa(space, k.sample)
    gids = list(golden.group_ids(space))
    phi = AvgOverSelection(gids)
    _, general = check_phi_validity(k, pa, phi)
    # |G| * E[phi] equals the summed expectations over the true members
    for pi in range(space.model.size):
        total = XValue(0)
        for g in gids:
            if pi in space.family.member(g):
                total = total + k.expectation(g, pa.pmfs[pi])
        assert general.entries[pi].stat * XValue(len(gids)) == total


def test_phi_entries_and_premise_match_their_definitions():
    """Pointwise entries hold phi(e(.|x)) against e(H_p|x) * phi(1_p) and
    general entries E_p[phi] against 1. The premise E_p[e(H_p|x) * phi(1_p)]
    then bounds E_p[phi] by monotonicity of expectation, so a premise at most
    1 implies validity, on valid and violating kernels alike."""
    r = helpers.rng(163)
    implied = violated = 0
    for case in range(30):
        space = helpers.rand_ic_space(r, max_points=3)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=case % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if case % 3 == 1:
            k = helpers.scaled_kernel(k, XValue(3))
        elif case % 3 == 2:
            k = helpers.constant_two_kernel(space, sample)
        ids = list(space.family.nonempty_ids())
        phis = (SupOverTrue(), AvgOverSelection(r.sample(ids, r.randint(1, len(ids)))))
        for phi in phis:
            pointwise, general = check_phi_validity(k, pa, phi)
            rows = [
                (p, x, phi.value(space, pi, k.columns[xi].values),
                 k.value(space.least_id(pi), xi) * phi.phi_one(space, pi))
                for pi, p in enumerate(space.model.points)
                for xi, x in enumerate(sample.outcomes)
            ]
            assert [(e.point, e.case, e.stat, e.bound) for e in pointwise.entries] == rows
            assert pointwise.ok
            for pi, entry in enumerate(general.entries):
                phi_var = [row[2] for row in rows[pi * sample.size:(pi + 1) * sample.size]]
                premise = helpers.oracle_expectation(
                    pa.pmfs[pi], [row[3] for row in rows[pi * sample.size:(pi + 1) * sample.size]]
                )
                assert entry.stat == helpers.oracle_expectation(pa.pmfs[pi], phi_var)
                assert entry.stat <= premise
                if premise <= XValue(1):
                    assert entry.ok
                    implied += 1
                violated += not entry.ok
    assert implied and violated


def test_phi_flag_violation_is_refused_with_detail():
    r = helpers.rng(151)
    space = helpers.rand_ic_space(r, max_points=2, min_points=2)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_capacity_kernel(r, space, pa)
    shifted = CustomPhi(lambda point, table: table[0] + XValue(1), name="shifted")
    with pytest.raises(PhiFlagViolation):
        check_phi_validity(k, pa, shifted)
