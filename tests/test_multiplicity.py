"""Familywise evidence, false evidence rate, step-up procedures, and the
least-hypothesis bound of the two disutilities they control."""

import itertools
import time
from fractions import Fraction

import pytest

import helpers
from emeasure import (
    EClass,
    INF,
    Model,
    SampleSpace,
    SelectionRule,
    Space,
    XValue,
    check_fer,
    check_fwe,
    check_validity,
    closed_ebh,
    ebh,
    postprocess_efunction,
    self_consistent_selection,
    union_closure,
)
from emeasure.evidence import from_values, measure_from_density
from emeasure.spaces import NotIntersectionClosed
from emeasure import golden


def toy_kernel(outcomes=("x",)):
    space = golden.toy_space()
    sample = SampleSpace(outcomes)
    return space, helpers.constant_kernel(space, sample, golden.base_efunction(space))


def uniform_toy_pa(space, sample):
    from emeasure import Pmf, ProbabilityAssignment

    n = sample.size
    pmf = Pmf(sample, tuple(Fraction(1, n) for _ in range(n)))
    return ProbabilityAssignment(space.model, tuple(pmf for _ in space.model.points))


def test_familywise_evidence_on_toy_cells():
    space, k = toy_kernel()
    assert helpers.sup_over_true(space, k.column(0).values, "c123") == XValue(100)
    assert helpers.sup_over_true(space, k.column(0).values, "cOut") == XValue(5)


def test_familywise_evidence_equals_least_value_for_capacities():
    r = helpers.rng(103)
    for _ in range(20):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        for pi in range(space.model.size):
            for xi in range(sample.size):
                sup = helpers.sup_over_true(space, k.column(xi).values, pi)
                assert sup == helpers.kernel_value(k, space.least_id(pi), xi)


def test_familywise_evidence_can_exceed_least_without_antitonicity():
    space = helpers.power_space(2)
    sample = SampleSpace(("x",))
    fn = from_values(space, ["inf", 1, 1, 5])  # plain function: full set outruns atoms
    k = helpers.kernel_of(space, sample, [fn])
    assert helpers.sup_over_true(space, k.column(0).values, 0) == XValue(5)
    assert helpers.kernel_value(k, space.least_id(0), 0) == XValue(1)


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


def test_fwe_is_the_expected_largest_true_evidence_by_definition():
    """On plain tables, where a large member can outrun the small ones, and
    on families that leave points outside every member (familywise evidence 0)."""
    r = helpers.rng(113)
    uncovered = outrun = 0
    for _ in range(30):
        space = helpers.rand_uc_space(r, max_points=5)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=False)
        n = len(space.family)
        k = helpers.kernel_of(space, sample, [
            from_values(space, [INF] + [helpers.rand_xvalue(r) for _ in range(n - 1)])
            for _ in sample.outcomes
        ])
        report = check_fwe(k, pa)
        assert [e.point for e in report.entries] == list(space.model.points)
        for pi, entry in enumerate(report.entries):
            sups = [
                helpers.sup_of(v for m, v in zip(space.family.members, col.values) if m >> pi & 1)
                for col in k.columns
            ]
            assert [helpers.sup_over_true(space, col.values, pi) for col in k.columns] == sups
            assert entry.stat == helpers.oracle_expectation(pa.pmfs[pi], sups)
            uncovered += all(not m >> pi & 1 for m in space.family.members)
            least = space.least_ids()[pi]
            outrun += least is not None and any(
                v > helpers.kernel_value(k, least, xi) for xi, v in enumerate(sups)
            )
    assert uncovered and outrun


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
            if not m:
                values[hid] = INF
            elif xi == 0 and m == 0b01:
                values[hid] = XValue(1) / XValue(alpha)
            else:
                values[hid] = XValue(0)
        cols.append(helpers.classify(space, values))
    k = helpers.kernel_of(space, sample, cols)
    report = check_fwe(k, pa)
    stat_p1 = next(e.stat for e in report.entries if e.point == "P1")
    classical = helpers.pmf_mass(pa.pmfs[0])[0] / alpha  # P1's chance of a true rejection, scaled
    assert stat_p1 == XValue(classical)


def test_fep_fsp_guard_and_toy_values():
    space, k = toy_kernel()
    empty_rule = SelectionRule.fixed(k.sample, [])
    pair = helpers.fep_fsp(k, "c12", empty_rule, 0)
    assert pair.fep == XValue(0) and pair.fsp == 0
    g1 = golden.row_id(space, "G_1")
    g2 = golden.row_id(space, "G_2")
    rule = SelectionRule.fixed(k.sample, [g1, g2])
    pair = helpers.fep_fsp(k, "c12", rule, 0)
    assert pair.fep == XValue(Fraction(89, 2))
    assert pair.fsp == 1


def test_binary_kernel_fep_is_fsp_over_alpha():
    space, k = toy_kernel()
    alpha = Fraction(1, 20)
    result = ebh(golden.base_efunction(space), golden.group_ids(space), alpha)
    binary = helpers.constant_kernel(space, k.sample, result.table)
    rule = SelectionRule.fixed(k.sample, list(golden.group_ids(space)))
    for cell in golden.CELLS:
        pair = helpers.fep_fsp(binary, cell, rule, 0)
        rejected_true = [
            g for g in golden.group_ids(space)
            if space.family.member(g) >> space.model.index(cell) & 1
            and helpers.kernel_value(binary, g, 0) >= XValue(20)
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
        assert helpers.kernel_eclass(k) >= EClass.CAPACITY
        ids = list(space.family.nonempty_ids())
        rule = SelectionRule(
            sample, tuple(tuple(r.sample(ids, r.randint(0, len(ids)))) for _ in range(sample.size))
        )
        for pi in range(space.model.size):
            for xi in range(sample.size):
                pair = helpers.fep_fsp(k, pi, rule, xi)
                least_value = helpers.kernel_value(k, space.least_id(pi), xi)
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
                sum((helpers.kernel_value(k, g, x) for g in selected_at(x) if space.family.member(g) >> p & 1),
                    XValue(0)) / XValue(max(len(selected_at(x)), 1))
                for x in range(sample.size)
            ])

        def premise(p):
            return helpers.oracle_expectation(pa.pmfs[p], [
                XValue(Fraction(sum(space.family.member(g) >> p & 1 for g in rule.selected[x]),
                                max(len(rule.selected[x]), 1)))
                * helpers.kernel_value(k, space.least_id(p), x)
                for x in range(sample.size)
            ])

        report = check_fer(k, pa, rule)
        assert [e.stat for e in report.entries] == [fer_stat(p, rule.selected.__getitem__) for p in points]
        for p, entry in zip(points, report.entries, strict=True):
            least_stat = helpers.oracle_expectation(pa.pmfs[p], k.rows[space.least_id(p)])
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
                feps = [helpers.fep_fsp(k, pi, rule, xi).fep for xi in range(sample.size)]
                assert feps == [helpers.kernel_value(k, hid, xi) if member >> pi & 1 else XValue(0)
                                for xi in range(sample.size)]
                singleton_rates.append(helpers.oracle_expectation(pa.pmfs[pi], feps))
        largest_validity_stat = max(
            helpers.oracle_expectation(pa.pmfs[pi], k.rows[hid])
            for hid in space.family.nonempty_ids()
            for pi in space.family.indices(hid)
        )
        report = check_fer(k, pa)
        assert report.worst().stat == max(singleton_rates) == largest_validity_stat
        assert report.ok == check_validity(k, pa).ok


def test_fer_first_inequality_tight_for_disjoint_least_selections():
    space, k = toy_kernel()
    cells = [golden.row_id(space, lab) for lab in ("H_1", "H_2")]
    rule = SelectionRule.fixed(k.sample, cells)
    pair = helpers.fep_fsp(k, "c1", rule, 0)
    least_val = helpers.kernel_value(k, space.least_id(space.model.index("c1")), 0)
    assert pair.fep == XValue(pair.fsp) * least_val  # 30 = (1/2) * 60
    assert pair.fep == XValue(30)


def postprocessed(k, rule):
    """Each outcome's table inflated by the rule's selection at that outcome."""
    cols = [postprocess_efunction(col, rule.selected[xi]) for xi, col in enumerate(k.columns)]
    return helpers.kernel_of(k.space, k.sample, cols)


def test_postprocess_selection_identity_when_share_is_one():
    space, k = toy_kernel()
    least_ids = sorted({space.least_id(i) for i in range(space.model.size)})
    rule = SelectionRule.fixed(k.sample, [golden.row_id(space, "H_123")])
    # every point of H_123's cell has share 1 under the singleton rule
    processed = postprocessed(k, rule)
    h123 = golden.row_id(space, "H_123")
    assert helpers.kernel_value(processed, h123, 0) == helpers.kernel_value(k, h123, 0)


def test_postprocess_selection_reproduces_inflated_column():
    space, k = toy_kernel()
    gids = golden.group_ids(space)
    rule = SelectionRule.fixed(k.sample, list(gids))
    processed = postprocessed(k, rule)
    expected = golden.expected_reference_table()
    for label in golden.ROW_LABELS:
        assert helpers.kernel_value(processed, golden.row_id(space, label), 0) == expected.inflated[label]


def test_postprocess_preserves_fer_under_the_rule():
    r = helpers.rng(157)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        ids = list(space.family.nonempty_ids())
        rule = SelectionRule.fixed(sample, ids[: r.randint(1, len(ids))])
        processed = postprocessed(k, rule)
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
    seen = {"equivalent": 0, "zero": 0, "inf": 0, "subset": 0, "none": 0}
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
    assert min(seen.values()) >= 10, seen


def test_no_eligible_candidate_tries_only_the_empty_selection():
    space = helpers.power_space(4)
    fam = list(space.family.nonempty_ids())[:12]
    result = self_consistent_selection(helpers.unit_measure(space), fam, Fraction(1, 20))
    assert (result.selected, result.is_fixed_point) == ((), False)


def test_the_one_possible_fixed_point_holds_the_candidates_without_zero_evidence():
    """Every subset of the candidates, tried with the oracle's rule: at most
    one is a fixed point, and it is the candidates with no point p of
    e(H_p) = 0."""
    r = helpers.rng(414)
    alphas = [Fraction(1, 20), Fraction(1, 8), Fraction(1, 3), Fraction(1), Fraction(5, 2)]
    seen = {"fixed": 0, "subset": 0, "none": 0, "empty member": 0, "five or more": 0}
    for trial in range(240):
        if trial % 3 == 0:
            space = helpers.power_space(r.randint(2, 3))
        else:
            space = helpers.rand_ic_space(r, min_points=3, max_points=5, max_members=16)
        if trial % 2:
            e = helpers.rand_measure(r, space, zero_chance=Fraction(1, 3))
        else:
            e = helpers.rand_capacity(r, space)
        ids = list(space.family.nonempty_ids())
        fam = r.sample(ids, r.randint(0, min(len(ids), 7)))
        if r.random() < 0.1:
            fam.append(space.family.empty_id)
        alpha = alphas[trial % len(alphas)]
        fixed = [combo for combo, _ in helpers.oracle_fixed_points(e, fam, alpha)]
        assert len(fixed) <= 1, (trial, fam, alpha, fixed)
        least = space.least_ids()
        nonzero = tuple(
            g for g in sorted(fam)
            if not any(e.values[least[p]].is_zero for p in space.family.indices(g))
        )
        if fixed:
            assert fixed[0] == nonzero, (trial, fam, alpha)
        seen["fixed"] += bool(fixed)
        seen["subset"] += bool(fixed) and len(nonzero) < len(fam)
        seen["none"] += not fixed
        seen["empty member"] += space.family.empty_id in fam
        seen["five or more"] += len(fam) >= 5
    assert min(seen.values()) >= 10, seen


def test_selection_over_thousands_of_candidates_takes_one_pass():
    space = helpers.power_space(12)
    e = from_values(space, [INF] * len(space.family))
    ids = list(space.family.nonempty_ids())  # 4095 candidates, 2^4095 subsets
    start = time.perf_counter()
    result = self_consistent_selection(e, ids, Fraction(1, 20))
    assert time.perf_counter() - start < 1
    assert (result.selected, result.is_fixed_point) == (tuple(sorted(ids)), True)


def test_selection_needs_an_intersection_closed_space():
    # {a,b} and {b,c} meet in {b}, which is not a member.
    model = Model(("a", "b", "c"))
    tangled = Space(model, union_closure(3, [model.bits_of("ab"), model.bits_of("bc")]))
    e = helpers.unit_measure(tangled)
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
    base = measure_from_density(space, [XValue(0)] * space.model.size)
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


def least_hypothesis_bounds(k, rule):
    """Per (point, outcome): the FWE statistic, the FER statistic of `rule`,
    and their least-hypothesis bounds e(H_p|x) * phi(1_p), where phi(1_p) is
    1 for the largest true evidence and the selection share fsp for FER."""
    space = k.space
    for pi in range(space.model.size):
        for xi, col in enumerate(k.columns):
            least = helpers.kernel_value(k, space.least_id(pi), xi)
            pair = helpers.fep_fsp(k, pi, rule, xi)
            yield pi, xi, helpers.sup_over_true(space, col.values, pi), least, pair, least * XValue(pair.fsp)


def test_phi_sup_over_true_recovers_familywise():
    """The largest true evidence is at most e(H_p|x) at every point and
    outcome, and its expectation is check_fwe's statistic."""
    r = helpers.rng(137)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        rule = SelectionRule.fixed(sample, [])
        sups = {}
        for pi, xi, sup, bound, _, _ in least_hypothesis_bounds(k, rule):
            assert sup <= bound
            sups.setdefault(pi, []).append(sup)
        assert [e.stat for e in check_fwe(k, pa).entries] == [
            helpers.oracle_expectation(pa.pmfs[pi], sups[pi]) for pi in range(space.model.size)
        ]


def test_phi_avg_over_selection_recovers_fer():
    """The average true evidence of a selection is at most e(H_p|x) * fsp."""
    r = helpers.rng(139)
    for _ in range(10):
        space = helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        ids = list(space.family.nonempty_ids())
        rule = SelectionRule.fixed(sample, ids[: r.randint(1, len(ids))])
        for pi, xi, _, _, pair, bound in least_hypothesis_bounds(k, rule):
            selected = rule.selected[xi]
            true_ids = [hid for hid in selected if space.family.member(hid) >> pi & 1]
            assert pair.fsp == Fraction(len(true_ids), len(selected))
            fep = sum((helpers.kernel_value(k, h, xi) for h in true_ids), XValue(0))
            assert pair.fep == fep / len(selected)
            assert pair.fep <= bound


def test_phi_sup_over_selections_equals_sup_over_true():
    """The best average over any selection out of the family is the worst
    true evidence: the singleton of the largest true value attains it."""
    r = helpers.rng(149)
    zeros = infs = 0
    for _ in range(12):
        space = helpers.rand_ic_space(r, max_points=3)
        sample = SampleSpace(("x",))
        ids = list(space.family.nonempty_ids())
        rules = [
            SelectionRule.fixed(sample, sel)
            for size in range(1, len(ids) + 1)
            for sel in itertools.combinations(ids, size)
        ]
        for _ in range(3):
            table = helpers.rand_capacity(r, space)
            zeros += any(v.is_zero for v in table.values)
            infs += any(v.is_inf for v in table.values[1:])
            k = helpers.kernel_of(space, sample, [table])
            for pi in range(space.model.size):
                best = max(helpers.fep_fsp(k, pi, rule, 0).fep for rule in rules)
                assert best == helpers.sup_over_true(space, table.values, pi)
    assert zeros and infs


def test_phi_compound_validity_sums_to_family_size():
    space, k = toy_kernel(("x1", "x2"))
    pa = uniform_toy_pa(space, k.sample)
    gids = list(golden.group_ids(space))
    general = check_fer(k, pa, SelectionRule.fixed(k.sample, gids))
    # |G| * E[FEP] equals the summed expectations over the true members
    for pi in range(space.model.size):
        total = XValue(0)
        for g in gids:
            if space.family.member(g) >> pi & 1:
                total = total + helpers.expectation(pa.pmfs[pi], k.rows[g])
        assert general.entries[pi].stat * XValue(len(gids)) == total


def test_phi_entries_and_premise_match_their_definitions():
    """check_fwe and check_fer entries hold E_p[statistic] against 1. The
    premise E_p[e(H_p|x) * phi(1_p)] bounds that expectation by monotonicity
    of expectation, so a premise at most 1 implies validity, on valid and
    violating kernels alike."""
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
        rule = SelectionRule.fixed(sample, r.sample(ids, r.randint(1, len(ids))))
        rows = list(least_hypothesis_bounds(k, rule))
        for report, stat, bound in (
            (check_fwe(k, pa), lambda row: row[2], lambda row: row[3]),
            (check_fer(k, pa, rule), lambda row: row[4].fep, lambda row: row[5]),
        ):
            assert [e.point for e in report.entries] == list(space.model.points)
            for pi, entry in enumerate(report.entries):
                mine = [row for row in rows if row[0] == pi]
                premise = helpers.oracle_expectation(pa.pmfs[pi], [bound(row) for row in mine])
                assert all(stat(row) <= bound(row) for row in mine)
                assert entry.stat == helpers.oracle_expectation(pa.pmfs[pi], [stat(row) for row in mine])
                assert entry.stat <= premise
                if premise <= XValue(1):
                    assert entry.ok
                    implied += 1
                violated += not entry.ok
    assert implied and violated
