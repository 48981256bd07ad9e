"""Consequence tables, induced classes, bounds, admissibility, optimality."""

from fractions import Fraction

import pytest

import helpers
from emeasure import (
    ConsequenceSpace,
    ConsequenceTable,
    EClass,
    EKernel,
    INF,
    Model,
    NumericLoss,
    OrderMeasurableFn,
    Pmf,
    Preorder,
    ProbabilityAssignment,
    SampleSpace,
    SelectionRule,
    XValue,
    admissible_decisions,
    build_consequence_class,
    check_econsequence_bound,
    check_fer,
    check_fwe,
    check_grunwald_bound,
    check_posthoc_consequence_bound,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    constant_kernel,
    dirac_measure,
    e_integrated_loss,
    evidence_against_optimality,
    hypothesis_for_bound,
    likelihood_kernel,
    optimality_class,
    preimage_class,
    class_from_preorder,
    preorder_from_class,
    shilkret_integral,
    sup_of,
    unit_measure,
)
from emeasure.decisions import DecisionError, OrderMeasurabilityViolation
from emeasure.evidence import from_values
from emeasure.kernels import KernelError


def rand_numeric_loss(r, model, n_decisions=2, allow_inf=False):
    decisions = tuple(f"d{i + 1}" for i in range(n_decisions))
    rows = tuple(
        tuple(helpers.rand_xvalue(r, allow_inf=allow_inf) for _ in decisions)
        for _ in model.points
    )
    return NumericLoss(model, decisions, rows)


def test_identical_rows_induce_the_trivial_class():
    model = Model(("P1", "P2", "P3"))
    loss = NumericLoss(model, ("d1",), ((XValue(2),), (XValue(2),), (XValue(2),)))
    space = build_consequence_class(loss.to_consequence_table())
    assert {m.bits for m in space.family.members} == {0, 0b111}


def test_incomparable_rows_induce_the_power_set():
    model = Model(("P1", "P2", "P3"))
    # three rows, pairwise incomparable under coordinatewise order
    loss = NumericLoss(
        model,
        ("d1", "d2"),
        (
            (XValue(3), XValue(0)),
            (XValue(0), XValue(3)),
            (XValue(2), XValue(2)),
        ),
    )
    space = build_consequence_class(loss.to_consequence_table())
    assert len(space.family) == 8
    for pi in range(3):
        assert space.family.member(space.least_id(pi)).bits == 1 << pi


def test_dominated_row_strictly_widens_the_least_hypothesis():
    model = Model(("P1", "P2"))
    loss = NumericLoss(
        model, ("d1", "d2"), ((XValue(5), XValue(4)), (XValue(1), XValue(2)))
    )
    space = build_consequence_class(loss.to_consequence_table())
    worse = space.family.member(space.least_id(0))
    better = space.family.member(space.least_id(1))
    assert worse.bits == 0b01  # only the dominating point
    assert better.bits == 0b11  # the dominated point drags the other along


def test_induced_class_equals_preimage_of_row_upper_sets():
    r = helpers.rng(163)
    for _ in range(15):
        n = r.randint(1, 4)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        loss = rand_numeric_loss(r, model)
        table = loss.to_consequence_table()
        space = build_consequence_class(table)
        # every bound hypothesis is an upper set of the dominance preorder
        for d in range(len(table.decisions)):
            for c in table.cspace.elements:
                assert hypothesis_for_bound(table, d, c).bits in space.family
        # build the row space: one point per distinct row, uniform-dominance order
        rows = sorted({table.entries[pi] for pi in range(n)})
        row_model = Model(tuple(f"r{i}" for i in range(len(rows))))
        idx = {row: i for i, row in enumerate(rows)}
        pairs = [
            (i, j)
            for i, a in enumerate(rows)
            for j, b in enumerate(rows)
            if all(
                table.cspace.at_least(b[d], a[d]) for d in range(len(table.decisions))
            )
        ]
        row_space = class_from_preorder(
            row_model, Preorder.from_pairs(len(rows), pairs).transitive_closure()
        )
        mapping = {
            model.points[pi]: f"r{idx[table.entries[pi]]}" for pi in range(n)
        }
        assert preimage_class(model, mapping, row_space) == space.family


def test_hypothesis_for_bound_extremes_and_scan():
    model = Model(("P1", "P2", "P3"))
    loss = NumericLoss(
        model,
        ("d1",),
        ((XValue(0),), (XValue(2),), (XValue(5),)),
    )
    table = loss.to_consequence_table()
    assert hypothesis_for_bound(table, "d1", "0").bits == 0b111
    assert hypothesis_for_bound(table, "d1", "5").bits == 0b100
    with pytest.raises(DecisionError):
        hypothesis_for_bound(table, "d1", "7")
    for c in ("0", "2", "5"):
        bits = hypothesis_for_bound(table, "d1", c).bits
        scan = 0
        for pi in range(3):
            if table.cspace.at_least(table.entries[pi][0], c):
                scan |= 1 << pi
        assert bits == scan


def test_integrated_loss_worked_examples():
    space = helpers.power_space(2)
    model = space.model
    loss = NumericLoss(model, ("d",), ((XValue(8),), (XValue(2),)))
    e = from_values(space, ["inf", 4, 2, 2])
    assert e_integrated_loss(loss, e, "d") == XValue(2)
    zero = NumericLoss(model, ("d",), ((XValue(0),), (XValue(0),)))
    assert e_integrated_loss(zero, e, "d") == XValue(0)
    for pi, p in enumerate(model.points):
        d_meas = dirac_measure(space, p)
        assert e_integrated_loss(loss, d_meas, "d") == loss.entries[pi][0]


def test_integrated_loss_forms_agree_on_random_instances():
    """The Shilkret integral equals its least-hypothesis form and the sup of
    loss / e(bound hypothesis) over the levels the loss takes."""
    r = helpers.rng(167)
    for _ in range(20):
        n = r.randint(1, 4)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        loss = rand_numeric_loss(r, model, n_decisions=r.randint(1, 3))
        space = build_consequence_class(loss.to_consequence_table())
        e = helpers.rand_measure(r, space)
        for d in loss.decisions:
            column = loss.column(d)
            by_least = helpers.integral_least_true(OrderMeasurableFn(space, column), e)
            bound_bits = [
                sum(1 << qi for qi in range(n) if column[qi] >= column[pi]) for pi in range(n)
            ]
            by_bounds = helpers.sup_of(column[pi] / e.value_of(bound_bits[pi]) for pi in range(n))
            assert e_integrated_loss(loss, e, d) == by_least == by_bounds


def one_decision_setup(seed):
    r = helpers.rng(seed)
    n = r.randint(2, 3)
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    loss = rand_numeric_loss(r, model, n_decisions=1)
    space = build_consequence_class(loss.to_consequence_table())
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    k = helpers.valid_capacity_kernel(r, space, pa)
    return r, model, loss, space, sample, pa, k


def test_single_decision_bound_reduces_to_plain_validity():
    from emeasure import check_validity

    _, model, loss, space, sample, pa, k = one_decision_setup(173)
    table = loss.to_consequence_table()
    report = check_econsequence_bound(k, pa, table)
    assert report.ok
    validity = check_validity(k, pa)
    # every bound statistic appears among the validity statistics
    stats = {(e.hid, e.point): e.stat for e in validity.entries}
    for entry in report.entries:
        qi = model.index(entry.case)
        hid = k.space.family.id_of(hypothesis_for_bound(table, 0, table.entries[qi][0]).bits)
        assert entry.stat == stats[(hid, entry.point)]


def test_econsequence_bound_on_random_valid_instances():
    r = helpers.rng(179)
    for _ in range(15):
        n = r.randint(1, 3)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        loss = rand_numeric_loss(r, model, n_decisions=3)
        space = build_consequence_class(loss.to_consequence_table())
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        assert check_econsequence_bound(k, pa, loss.to_consequence_table()).ok


def test_order_measurability_violation_names_the_missing_hypothesis():
    model = Model(("P1", "P2"))
    loss = NumericLoss(model, ("d1",), ((XValue(3),), (XValue(1),)))
    trivial = __import__("emeasure").space_from_generators(model, [["P1", "P2"]])
    sample = SampleSpace(("x",))
    pa = ProbabilityAssignment(model, (Pmf(sample, (Fraction(1),)),) * 2)
    k = constant_kernel(trivial, sample, unit_measure(trivial))
    with pytest.raises(OrderMeasurabilityViolation) as err:
        check_econsequence_bound(k, pa, loss.to_consequence_table())
    assert "P1" in str(err.value)


def test_binary_kernel_bound_is_exact_coverage():
    r, model, loss, space, sample, pa, _ = one_decision_setup(181)
    alpha = Fraction(1, 4)
    # binary kernel: reject the bound hypothesis of the worst row on one outcome
    table = loss.to_consequence_table()
    worst_qi = max(range(model.size), key=lambda pi: loss.entries[pi][0])
    target = space.family.id_of(
        hypothesis_for_bound(table, 0, table.entries[worst_qi][0]).bits
    )
    cols = []
    for xi in range(sample.size):
        values = {}
        for hid, m in enumerate(space.family.members):
            if m.is_empty:
                values[hid] = INF
            elif xi == 0 and space.family.member(target).bits & ~m.bits == 0:
                # rejected set must stay an upper set for antitonicity
                values[hid] = XValue(0)
            elif xi == 0 and m.bits & ~space.family.member(target).bits == 0:
                values[hid] = XValue(1) / XValue(alpha)
            else:
                values[hid] = XValue(0)
        try:
            cols.append(helpers.classify(space, values))
        except Exception:
            return  # degenerate family; coverage identity tested elsewhere
    from emeasure import EKernel

    k = EKernel(space, sample, cols)
    if k.eclass < EClass.CAPACITY:
        return
    report = check_econsequence_bound(k, pa, table)
    for entry in report.entries:
        qi = model.index(entry.case)
        pi = model.index(entry.point)
        miss = Fraction(0)
        for xi in range(sample.size):
            hid = space.family.id_of(
                hypothesis_for_bound(table, 0, table.entries[qi][0]).bits
            )
            if k.value(hid, xi) >= XValue(1) / XValue(alpha):
                miss += pa.pmfs[pi].mass[xi]
        assert entry.stat == XValue(miss / alpha)


def consequence_entries(k, pa, table, integrand):
    """(benchmark, point, stat) of each consequence-bound entry, by the
    definitions: one benchmark per distinct row, named by its first point;
    one entry per point whose row dominates it; at outcome x the integrand
    gets the evidence against each decision's bound hypothesis, the points
    whose consequence is at least as bad as the benchmark's."""
    model, n = table.model, table.model.size
    firsts = {}
    for qi in range(n):
        firsts.setdefault(table.entries[qi], qi)
    out = []
    for qi in firsts.values():
        bound_ids = [
            k.space.family.id_of(sum(
                1 << pj for pj in range(n)
                if table.cspace.at_least(table.entries[pj][d], table.entries[qi][d])
            ))
            for d in range(len(table.decisions))
        ]
        var = [integrand([k.value(h, xi) for h in bound_ids], xi) for xi in range(k.sample.size)]
        for pi in range(n):
            if table.row_dominates(pi, qi):
                stat = helpers.oracle_expectation(pa.pmfs[pi], var)
                out.append((model.points[qi], model.points[pi], stat))
    return out


def miss_rate(values, level):
    """1{some value >= 1/level} / level: a miss of any decision's confidence set."""
    missed = any(v >= XValue(1) / level for v in values)
    return (XValue(1) if missed else XValue(0)) / level


def consequence_instance(r, n_decisions=2):
    n = r.randint(1, 3)
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    table = rand_numeric_loss(r, model, n_decisions=n_decisions).to_consequence_table()
    space = build_consequence_class(table)
    sample = helpers.rand_sample(r)
    return table, space, sample


def test_posthoc_consequence_bound_rules():
    """The canonical level 1/(worst evidence) makes each entry the uniform
    bound's; a constant level 1/3 keeps a valid kernel's bound."""
    r = helpers.rng(191)
    zeros = infs = 0
    for case in range(16):
        table, space, sample = consequence_instance(r)
        pa = helpers.rand_pa(r, table.model, sample, full_support=case % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        const = {x: XValue(Fraction(1, 3)) for x in sample.outcomes}
        assert check_posthoc_consequence_bound(k, pa, table, const).ok
        canonical = check_posthoc_consequence_bound(k, pa, table, "canonical")
        assert canonical.ok
        expected = consequence_entries(
            k, pa, table, lambda values, xi: miss_rate(values, XValue(1) / max(values))
        )
        assert [(e.case, e.point, e.stat) for e in canonical.entries] == expected
        values = [v for col in k.columns for v in col.values[1:]]
        zeros += any(v.is_zero for v in values)
        infs += any(v.is_inf for v in values)
    assert zeros and infs


def test_fixed_level_consequence_bound_matches_its_definition():
    """Per outcome level: a miss is any bound hypothesis of a decision at or
    above 1/level, weighted by 1/level; on tables with zero and infinite
    evidence and with values exactly at 1/level."""
    r = helpers.rng(197)
    grid = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)]
    zeros = infs = ties = 0
    for _ in range(30):
        table, space, sample = consequence_instance(r, n_decisions=r.randint(1, 3))
        pa = helpers.rand_pa(r, table.model, sample, full_support=False)
        k = EKernel(space, sample, [helpers.rand_capacity(r, space) for _ in sample.outcomes])
        levels = [XValue(r.choice(grid)) for _ in sample.outcomes]
        rule = dict(zip(sample.outcomes, levels))
        report = check_posthoc_consequence_bound(k, pa, table, rule)
        expected = consequence_entries(k, pa, table, lambda values, xi: miss_rate(values, levels[xi]))
        assert [(e.case, e.point, e.stat) for e in report.entries] == expected
        zeros += any(v.is_zero for col in k.columns for v in col.values)
        infs += any(v.is_inf for col in k.columns for v in col.values[1:])
        ties += any(
            v == XValue(1) / level for col, level in zip(k.columns, levels) for v in col.values
        )
    assert zeros and infs and ties


LEVELS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5, 2)]


def test_every_check_entry_is_the_oracle_expectation_of_its_variable():
    """Validity, fixed-level post-hoc, FWE, FER, predictive and the three
    decide bounds: each variable is built here from the definitions, and
    each entry is its plain Fraction expectation. Distributions have zero
    masses and tables have zero and infinite values."""
    r = helpers.rng(211)
    zero_against_inf = 0
    for _ in range(25):
        space = helpers.rand_ic_space(r, max_points=4)
        members, points = space.family.members, space.model.points
        sample = SampleSpace(points)  # predictive checks read points as outcomes
        pa = helpers.rand_pa(r, space.model, sample, full_support=False)
        k = EKernel(space, sample, [helpers.rand_capacity(r, space) for _ in points])
        expect = helpers.oracle_expectation
        pairs = [(hid, pi) for hid in space.family.nonempty_ids() for pi in members[hid].indices()]
        zero_against_inf += any(
            m == 0 and v.is_inf for hid, pi in pairs for m, v in zip(pa.pmfs[pi].mass, k.variable(hid))
        )

        def stats(report):
            return [(e.point, e.hid, e.stat) for e in report.entries]

        assert stats(check_validity(k, pa)) == [
            (points[pi], hid, expect(pa.pmfs[pi], k.variable(hid))) for hid, pi in pairs
        ]
        levels = [XValue(r.choice(LEVELS)) for _ in points]
        cuts = [XValue(1) / level for level in levels]
        miss = {hid: [c if v >= c else XValue(0) for v, c in zip(k.variable(hid), cuts)]
                for hid, _ in pairs}
        assert stats(check_posthoc_validity(k, pa, dict(zip(points, levels)))) == [
            (points[pi], hid, expect(pa.pmfs[pi], miss[hid])) for hid, pi in pairs
        ]
        true_ids = [[hid for hid, m in enumerate(members) if pi in m] for pi in range(len(points))]
        sup_true = [[sup_of(col.values[h] for h in ids) for col in k.columns] for ids in true_ids]
        assert stats(check_fwe(k, pa)) == [
            (p, None, expect(pa.pmfs[pi], sup_true[pi])) for pi, p in enumerate(points)
        ]
        selected = [hid for hid, _ in pairs if r.random() < 0.5]
        rule = SelectionRule.fixed(sample, selected)
        fep = [
            [sum((col.values[h] for h in selected if pi in members[h]), XValue(0))
             / XValue(max(len(selected), 1)) for col in k.columns]
            for pi in range(len(points))
        ]
        assert stats(check_fer(k, pa, rule)) == [
            (p, None, expect(pa.pmfs[pi], fep[pi])) for pi, p in enumerate(points)
        ]
        sup_at_outcome = [sup_true[xi][xi] for xi in range(len(points))]
        assert stats(check_predictive_validity(k, pa.pmfs).stats) == [
            (None, None, expect(pmf, sup_at_outcome)) for pmf in pa.pmfs
        ]

        table, cspace, csample = consequence_instance(r)
        cpa = helpers.rand_pa(r, table.model, csample, full_support=False)
        ck = EKernel(cspace, csample, [helpers.rand_capacity(r, cspace) for _ in csample.outcomes])
        report = check_econsequence_bound(ck, cpa, table)
        assert [(e.case, e.point, e.stat) for e in report.entries] == consequence_entries(
            ck, cpa, table, lambda values, xi: sup_of(values)
        )
        clevels = [XValue(r.choice(LEVELS)) for _ in csample.outcomes]
        report = check_posthoc_consequence_bound(ck, cpa, table, dict(zip(csample.outcomes, clevels)))
        assert [(e.case, e.point, e.stat) for e in report.entries] == consequence_entries(
            ck, cpa, table, lambda values, xi: miss_rate(values, clevels[xi])
        )
        loss = rand_numeric_loss(r, table.model)
        lspace = build_consequence_class(loss.to_consequence_table())
        lk = EKernel(lspace, csample, [helpers.rand_capacity(r, lspace) for _ in csample.outcomes])
        integrated = [
            [shilkret_integral(OrderMeasurableFn(lspace, loss.column(d)), col) for col in lk.columns]
            for d in range(len(loss.decisions))
        ]
        ratios = [
            [sup_of(loss.entries[pi][d] / integrated[d][xi] for d in range(len(loss.decisions)))
             for xi in range(csample.size)]
            for pi in range(table.model.size)
        ]
        assert [(e.point, e.stat) for e in check_grunwald_bound(lk, cpa, loss).entries] == [
            (p, expect(cpa.pmfs[pi], ratios[pi])) for pi, p in enumerate(table.model.points)
        ]
    assert zero_against_inf >= 5


def test_posthoc_consequence_bound_catches_invalid_kernels():
    r = helpers.rng(193)
    model = Model(("P1", "P2"))
    loss = rand_numeric_loss(r, model, n_decisions=2)
    table = loss.to_consequence_table()
    space = build_consequence_class(table)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    bad = helpers.constant_two_kernel(space, sample)
    rule = {x: XValue(Fraction(1, 2)) for x in sample.outcomes}
    assert not check_posthoc_consequence_bound(bad, pa, table, rule).ok
    with pytest.raises(KernelError, match="outside"):
        check_posthoc_consequence_bound(bad, pa, table, {x: XValue(0) for x in sample.outcomes})


def assert_markov_ratios(k, loss):
    """loss / integrated loss <= e(bound hypothesis | x) at every (point,
    outcome, decision): the integral is a sup over levels of c / e({f >= c})."""
    table = loss.to_consequence_table()
    space = k.space
    for d in range(len(loss.decisions)):
        fn = OrderMeasurableFn(space, loss.column(d))
        for xi in range(k.sample.size):
            integrated = shilkret_integral(fn, k.columns[xi])
            for pi in range(space.model.size):
                bound = hypothesis_for_bound(table, d, table.entries[pi][d]).bits
                ratio = loss.entries[pi][d] / integrated
                assert ratio <= k.value(space.family.id_of(bound), xi)


def test_grunwald_bound_constant_losses():
    r, model, loss, space, sample, pa, k = one_decision_setup(197)
    const = NumericLoss(
        model, ("d1",), tuple((XValue(3),) for _ in model.points)
    )
    cspace = build_consequence_class(const.to_consequence_table())
    kk = helpers.valid_capacity_kernel(r, model and cspace, pa)
    assert_markov_ratios(kk, const)
    assert check_grunwald_bound(kk, pa, const).ok


def test_grunwald_bound_random_and_slack():
    r = helpers.rng(199)
    for _ in range(15):
        n = r.randint(1, 3)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        loss = rand_numeric_loss(r, model, n_decisions=2)
        space = build_consequence_class(loss.to_consequence_table())
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        assert_markov_ratios(k, loss)
        assert check_grunwald_bound(k, pa, loss).ok


def test_admissibility_identical_and_dominated_columns():
    model = Model(("P1", "P2"))
    same = NumericLoss(
        model, ("d1", "d2"), ((XValue(1), XValue(1)), (XValue(4), XValue(4)))
    )
    table = same.to_consequence_table()
    space = build_consequence_class(table)
    e = unit_measure(space)
    result = admissible_decisions(e, table)
    assert result.admissible == ("d1", "d2")

    skewed = NumericLoss(
        model, ("good", "bad"), ((XValue(1), XValue(4)), (XValue(2), XValue(5)))
    )
    table = skewed.to_consequence_table()
    space = build_consequence_class(table)
    # 'bad' has pointwise higher losses, so each of its bound hypotheses
    # contains the matching one of 'good' and carries at most its evidence;
    # the evidence preorder therefore puts good above bad
    e = from_values(
        space,
        [INF if m.is_empty else XValue(4 - m.popcount) for m in space.family.members],
    )
    result = admissible_decisions(e, table)
    geq = result.order
    assert geq[0][1]
    assert not geq[1][0]
    assert result.admissible == ("good",)


def test_admissibility_incomparable_pair_keeps_both():
    model = Model(("P1", "P2"))
    loss = NumericLoss(
        model, ("d1", "d2"), ((XValue(0), XValue(5)), (XValue(5), XValue(0)))
    )
    table = loss.to_consequence_table()
    space = build_consequence_class(table)
    e = from_values(
        space,
        {
            hid: INF if m.is_empty else XValue(Fraction(1, 1 + m.popcount))
            for hid, m in enumerate(space.family.members)
        }.values(),
    )
    result = admissible_decisions(e, table)
    assert result.admissible == ("d1", "d2")


def test_admissibility_requires_measurable_bounds():
    model = Model(("P1", "P2"))
    loss = NumericLoss(model, ("d1",), ((XValue(3),), (XValue(1),)))
    table = loss.to_consequence_table()
    trivial = __import__("emeasure").space_from_generators(model, [["P1", "P2"]])
    with pytest.raises(OrderMeasurabilityViolation) as err:
        admissible_decisions(unit_measure(trivial), table)
    assert "d1" in str(err.value)


def test_optimality_dominant_decision_owns_the_model():
    model = Model(("P1", "P2", "P3"))
    loss = NumericLoss(
        model,
        ("win", "lose"),
        tuple((XValue(0), XValue(1)) for _ in model.points),
    )
    result = optimality_class(loss)
    assert result.decision_sets["win"].bits == 0b111
    assert result.decision_sets["lose"].bits == 0
    assert result.optimal == {p: "win" for p in model.points}


def test_optimality_ties_join_every_group():
    model = Model(("P1",))
    loss = NumericLoss(model, ("d1", "d2"), ((XValue(1), XValue(1)),))
    result = optimality_class(loss)
    assert result.decision_sets["d1"].bits == 0b1
    assert result.decision_sets["d2"].bits == 0b1
    assert result.optimal is None
    with pytest.raises(DecisionError):
        evidence_against_optimality(
            constant_kernel(
                helpers.power_space(1), SampleSpace(("x",)),
                unit_measure(helpers.power_space(1)),
            ),
            loss,
        )


def mle_instance():
    """Three full-support distributions over four outcomes, ratio-style loss."""
    model = Model(("P1", "P2", "P3"))
    sample = SampleSpace(("x1", "x2", "x3", "x4"))
    masses = {
        "P1": (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)),
        "P2": (Fraction(1, 5), Fraction(2, 5), Fraction(1, 5), Fraction(1, 5)),
        "P3": (Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)),
    }
    pa = ProbabilityAssignment(model, tuple(Pmf(sample, masses[p]) for p in model.points))

    def divergence(p, q):
        # chi-square style: zero exactly at p = q, rational throughout
        return XValue(
            sum((a - b) * (a - b) / b for a, b in zip(masses[p], masses[q]))
        )

    loss = NumericLoss(
        model,
        model.points,
        tuple(
            tuple(divergence(p, q) for q in model.points) for p in model.points
        ),
    )
    space = helpers.power_space(3)
    reference = Pmf(sample, (Fraction(1, 4),) * 4)
    kernel = likelihood_kernel(space, pa, reference)
    return model, sample, pa, loss, space, kernel, masses, reference


def test_mle_instance_groups_are_singletons_and_argmax_matches():
    model, sample, pa, loss, space, kernel, masses, reference = mle_instance()
    result = optimality_class(loss)
    for pi, p in enumerate(model.points):
        assert result.decision_sets[p].bits == 1 << pi
    assert len(result.space.family) == 8
    for xi, x in enumerate(sample.outcomes):
        best_by_evidence = min(
            model.points, key=lambda p: kernel.value(space.least_id(p), xi)
        )
        best_by_likelihood = max(model.points, key=lambda p: masses[p][xi])
        assert best_by_evidence == best_by_likelihood


def test_mle_energy_bound_and_pushforward():
    model, sample, pa, loss, space, kernel, masses, reference = mle_instance()
    # E-consequence bound on the divergence to the data-picked decision
    report = check_econsequence_bound(kernel, pa, loss.to_consequence_table())
    assert report.ok
    table = loss.to_consequence_table()
    for pi, p in enumerate(model.points):
        stat = XValue(0)
        for xi in range(sample.size):
            picked = max(model.points, key=lambda q: masses[q][xi])
            d = loss.decisions.index(picked)
            hid = space.family.id_of(
                hypothesis_for_bound(table, d, table.entries[pi][d]).bits
            )
            stat = stat + XValue(pa.pmfs[pi].mass[xi]) * kernel.value(hid, xi)
        assert stat <= XValue(1)
    pushed, report = evidence_against_optimality(kernel, loss, pa)
    assert report.ok
    for xi in range(sample.size):
        for pi, p in enumerate(model.points):
            target_hid = pushed.space.family.id_of(1 << pi)
            assert pushed.value(target_hid, xi) == kernel.value(space.family.id_of(1 << pi), xi)
