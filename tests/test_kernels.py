"""Data-indexed evidence: validity and everything built on it."""

from fractions import Fraction

import pytest

import helpers
from helpers import from_values
from emeasure import (
    ConsequenceTable,
    EClass,
    EKernel,
    EProcess,
    FiltrationTree,
    INF,
    Model,
    ONE,
    Pmf,
    ProbabilityAssignment,
    SampleSpace,
    Space,
    XValue,
    check_anytime_validity,
    check_econsequence_bound,
    check_fer,
    check_fwe,
    check_grunwald_bound,
    check_posthoc_consequence_bound,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    close_kernel,
    eposterior,
    merge_convex,
    pushforward_kernel,
)
from emeasure.evidence import ClassMismatch, EvidenceError
from emeasure import kernels as kn
from emeasure.kernels import Entry, KernelError, MeasurabilityError, Report
from emeasure.multiplicity import SelectionRule
from emeasure import golden


def small_setup(seed=101, max_points=3, full_support=True):
    r = helpers.rng(seed)
    space = helpers.rand_ic_space(r, max_points=max_points)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, space.model, sample, full_support)
    return r, space, sample, pa


def raw_setup(seed, full_support=True):
    """`small_setup` on a union-closed space that is not intersection-closed,
    where `eposterior` keeps the raw product."""
    r = helpers.rng(seed)
    space = helpers.rand_uc_space(r, max_points=3)
    while space.intersection_closed:
        space = helpers.rand_uc_space(r, max_points=3)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, space.model, sample, full_support)
    return r, space, sample, pa


def test_pmf_must_sum_to_one():
    sample = SampleSpace(("a", "b"))
    with pytest.raises(KernelError):
        Pmf(sample, (Fraction(1, 2), Fraction(1, 3)))
    Pmf(sample, (Fraction(1, 2), Fraction(1, 2)))


def test_expectation_uses_zero_times_infinity():
    sample = SampleSpace(("a", "b"))
    pmf = Pmf(sample, (Fraction(1), Fraction(0)))
    assert helpers.expectation(pmf, [XValue(2), INF]) == XValue(2)
    assert helpers.expectation(pmf, [INF, XValue(0)]) == INF


def test_constant_one_kernel_is_valid():
    _, space, sample, pa = small_setup(3)
    k = helpers.constant_kernel(space, sample, helpers.unit_measure(space))
    report = check_validity(k, pa)
    assert report.ok
    assert all(e.stat <= XValue(1) for e in report.entries)


def test_likelihood_kernel_is_valid_with_equality_on_singletons():
    r = helpers.rng(7)
    space = helpers.power_space(3)
    sample = SampleSpace(("x1", "x2", "x3", "x4"))
    pa = helpers.rand_pa(r, space.model, sample, full_support=True)
    reference = helpers.rand_pmf(r, sample, full_support=True)
    k = helpers.likelihood_kernel(space, pa, reference)
    assert k.eclass is EClass.MEASURE
    report = check_validity(k, pa)
    assert report.ok
    # On a singleton the expectation telescopes to the reference total mass.
    for pi, p in enumerate(space.model.points):
        hid = space.family.id_of(1 << pi)
        assert helpers.expectation(pa.pmfs[pi], k.rows[hid]) == XValue(1)


def test_likelihood_kernel_is_valid_when_points_share_a_least_hypothesis():
    # a and b share the least hypothesis {a, b}; each keeps its own ratio.
    model = Model(("a", "b", "c"))
    space = helpers.space_from_generators(model, [["a", "b"], ["c"]])
    sample = SampleSpace(("x1", "x2"))

    def pmf(*masses):
        return Pmf(sample, tuple(Fraction(m) for m in masses))

    pa = ProbabilityAssignment(model, (pmf("1/2", "1/2"), pmf("9/10", "1/10"), pmf("1/4", "3/4")))
    report = check_validity(helpers.likelihood_kernel(space, pa, pmf("1/2", "1/2")), pa)
    ab = space.family.id_of(0b011)
    stats = {(e.hid, e.point): e.stat for e in report.entries}
    assert stats[ab, "a"] == XValue(Fraction(7, 9))
    assert stats[ab, "b"] == XValue(Fraction(3, 5))
    assert report.ok
    for seed in range(100):
        r = helpers.rng(seed)
        space = helpers.rand_ic_space(r, max_points=4)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=seed % 2 == 0)
        reference = helpers.rand_pmf(r, sample, full_support=seed % 3 == 0)
        assert check_validity(helpers.likelihood_kernel(space, pa, reference), pa).ok


def test_likelihood_kernel_is_valid_on_spaces_that_are_not_intersection_closed():
    tested = 0
    for seed in range(300):
        r = helpers.rng(seed)
        space = helpers.rand_uc_space(r, max_points=4)
        if space.intersection_closed:
            continue
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, space.model, sample, full_support=seed % 2 == 0)
        reference = helpers.rand_pmf(r, sample, full_support=seed % 3 == 0)
        k = helpers.likelihood_kernel(space, pa, reference)
        assert k.eclass is EClass.MEASURE
        assert check_validity(k, pa).ok
        tested += 1
    assert tested >= 100


def test_constant_two_kernel_is_invalid_with_witness():
    _, space, sample, pa = small_setup(11)
    k = helpers.constant_two_kernel(space, sample)
    report = check_validity(k, pa)
    assert not report.ok
    witness = report.first_violation()
    assert witness is not None and witness.stat == XValue(2)


def test_entry_holds_its_statistic_against_its_bound():
    _, _, _, pa = small_setup(11)
    empty = kn._pair_report(pa, [], [])
    assert empty.ok and empty.entries == () and empty.largest() is None
    assert helpers.worst(empty) is None and empty.first_violation() is None


def test_every_check_returns_the_one_report_class():
    """On one seeded instance, the power set of three points that are also
    the outcomes, every check's pairs come back as a `kernels.Report`:
    validity, post-hoc, FWE, FER with and without a rule, the posterior on
    an intersection-closed space and off one, the pushforward, decide's
    three bounds, and the reports inside the predictive and the anytime
    results."""
    r = helpers.rng(4201)
    space = helpers.power_space(3)
    sample = SampleSpace(space.model.points)
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_capacity_kernel(r, space, pa)
    prior = helpers.rand_capacity(r, space, allow_inf=False)
    table = ConsequenceTable.numeric(
        space.model, ("a", "b"), [[XValue(r.randint(0, 3)) for _ in "ab"] for _ in space.model.points]
    )
    unit = helpers.constant_kernel(space, sample, helpers.unit_measure(space))
    anytime = check_anytime_validity(EProcess(FiltrationTree(sample, list(sample.outcomes)), [unit, k]), pa)
    predictive = check_predictive_validity(k, pa)
    r2, space2, _, pa2 = raw_setup(4202)
    reports = [
        check_validity(k, pa),
        check_posthoc_validity(k, pa, "canonical"),
        check_posthoc_validity(k, pa, {x: XValue(Fraction(1, 2)) for x in sample.outcomes}),
        check_fwe(k, pa),
        check_fer(k, pa),
        check_fer(k, pa, SelectionRule.fixed(sample, [1, 2])),
        eposterior(prior, k, pa)[1],
        eposterior(helpers.rand_capacity(r2, space2), helpers.valid_capacity_kernel(r2, space2, pa2), pa2)[1],
        pushforward_kernel(k, {p: p for p in space.model.points}, space, pa)[1],
        check_econsequence_bound(k, pa, table),
        check_posthoc_consequence_bound(k, pa, table, {x: XValue(Fraction(1, 2)) for x in sample.outcomes}),
        check_grunwald_bound(k, pa, table),
        anytime.stats,
        predictive.identity,
        predictive.stats,
    ]
    assert all(type(report) is Report for report in reports)


def test_every_report_gives_its_verdict_and_worst_entry():
    """On valid, scaled x3 and constant-two kernels: the verdict is every
    entry's, `helpers.worst` is the first entry with the largest statistic, and the
    rate of uniform FER names the (H, p) pair of the largest validity
    statistic, found here by the definition."""
    verdicts, ties = set(), 0
    for seed in range(24):
        r, space, sample, pa = small_setup(400 + seed, full_support=seed % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if seed % 3 == 1:
            k = helpers.scaled_kernel(k, XValue(3))
        elif seed % 3 == 2:
            k = helpers.constant_two_kernel(space, sample)
        reports = [
            check_validity(k, pa),
            check_posthoc_validity(k, pa, "canonical"),
            check_fwe(k, pa),
            check_fer(k, pa),
            eposterior(helpers.rand_capacity(r, space, allow_inf=False), k, pa)[1],
        ]
        for report in reports:
            assert report.ok == all(e.ok for e in report.entries)
            assert report.first_violation() == next((e for e in report.entries if not e.ok), None)
            largest = max(e.stat for e in report.entries)
            attaining = [e for e in report.entries if e.stat == largest]
            assert helpers.worst(report) == attaining[0]
            ties += len(attaining) > 1
            verdicts.add(report.ok)
        pairs = [
            (hid, pi, helpers.oracle_expectation(pa.pmfs[pi], k.rows[hid]))
            for hid in space.family.nonempty_ids()
            for pi in space.family.indices(hid)
        ]
        hid, pi, stat = max(pairs, key=lambda pair: pair[2])
        worst = helpers.worst(check_fer(k, pa))
        assert (worst.hid, worst.point, worst.stat) == (hid, space.model.points[pi], stat)
    assert verdicts == {True, False} and ties


def test_close_kernel_keeps_measures_and_matches_bruteforce():
    sample = SampleSpace(("x1", "x2"))
    ic = helpers.power_space(2)
    tangled = helpers.space_from_generators(Model(("P1", "P2", "P3")), [["P1", "P2"], ["P2", "P3"]])
    assert not tangled.intersection_closed
    for space, values in ((ic, ["inf", 4, 2, 1]), (tangled, ["inf", 3, 2, 5])):
        table = from_values(space, values)
        closed = close_kernel(helpers.constant_kernel(space, sample, table))
        for col in closed.columns:
            assert list(col.values) == helpers.oracle_closure(table)
        measure_kernel = helpers.constant_kernel(space, sample, closed.columns[0])
        again = close_kernel(measure_kernel)
        for a, b in zip(again.columns, measure_kernel.columns):
            assert a.values == b.values


def test_close_kernel_dominates_any_input():
    """Closing raises every table to its smallest dominating measure, so the
    closed kernel dominates its input whether or not that is a capacity."""
    r = helpers.rng(11)
    for case in range(20):
        space = helpers.rand_uc_space(r) if case % 2 else helpers.rand_ic_space(r)
        sample = helpers.rand_sample(r)
        cols = []
        for _ in sample.outcomes:
            raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
            raw[space.family.empty_id] = INF
            cols.append(helpers.classify(space, raw))
        k = helpers.kernel_of(space, sample, cols)
        closed = close_kernel(k)
        assert helpers.dominates(closed, k)
        for col, before in zip(closed.columns, k.columns):
            assert list(col.values) == helpers.oracle_closure(before)


def test_close_kernel_preserves_validity_verdict():
    r, space, sample, pa = small_setup(13)
    for _ in range(20):
        k = helpers.valid_capacity_kernel(r, space, pa)
        closed = close_kernel(k)
        assert closed.eclass is EClass.MEASURE
        assert check_validity(closed, pa).ok == check_validity(k, pa).ok
    bad = helpers.constant_two_kernel(space, sample)
    assert check_validity(close_kernel(bad), pa).ok == check_validity(bad, pa).ok
    # On seeded intersection-closed spaces, closing a valid capacity kernel
    # keeps it valid and dominates it.
    for seed in range(40):
        r, space, sample, pa = small_setup(1300 + seed, max_points=4, full_support=seed % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        closed = close_kernel(k)
        assert k.eclass >= EClass.CAPACITY and check_validity(k, pa).ok
        assert check_validity(closed, pa).ok and helpers.dominates(closed, k)


def test_close_kernel_can_lose_validity_off_intersection_closed_spaces():
    """On points a, b, c with generators {a,b}, {a,c} and {b,c}, a valid
    capacity kernel whose closure raises {a,b} to (2, 2): each point's
    claim is a max over two members holding it."""
    model = Model(("a", "b", "c"))
    space = helpers.space_from_generators(model, [["a", "b"], ["a", "c"], ["b", "c"]])
    sample = SampleSpace(("x1", "x2"))
    half = Pmf(sample, (Fraction(1, 2), Fraction(1, 2)))
    pa = ProbabilityAssignment(model, (half, half, half))
    rows = {0b011: (0, 2), 0b101: (2, 0), 0b110: (2, 0), 0b111: (0, 0)}
    k = EKernel(space, sample, [
        tuple(map(XValue, rows[m])) if m else (INF, INF) for m in space.family.members
    ])
    assert not space.intersection_closed and k.eclass is EClass.CAPACITY
    assert check_validity(k, pa).ok
    report = check_validity(close_kernel(k), pa)
    ab = space.family.id_of(0b011)
    assert [(e.hid, e.point, e.stat) for e in report.entries if not e.ok] == [
        (ab, "a", XValue(2)), (ab, "b", XValue(2))
    ]


def test_merged_valid_kernels_stay_valid():
    r, space, sample, pa = small_setup(17)
    for _ in range(10):
        k1 = helpers.valid_measure_kernel(r, space, pa)
        k2 = helpers.valid_measure_kernel(r, space, pa)
        merged = merge_convex([k1, k2], [Fraction(1, 4), Fraction(3, 4)])
        assert merged.eclass >= EClass.CAPACITY
        assert check_validity(merged, pa).ok


def _constant_kernel_on(outcomes):
    space = helpers.power_space(2)
    return helpers.constant_kernel(space, SampleSpace(outcomes), helpers.unit_measure(space))


@pytest.mark.parametrize("first, second", [
    (("H", "T"), ("x", "y")),  # the same size, other labels
    (("H", "T"), ("H", "T", "Z")),  # a third outcome
    (("H", "T", "Z"), ("H", "T")),  # the longer kernel first
], ids=["relabelled", "extra-outcome", "longer-first"])
def test_merge_refuses_kernels_on_different_sample_spaces(first, second):
    """Rows are merged outcome by outcome, so the inputs must list the same
    outcomes; the refusal names both lists."""
    kernels = [_constant_kernel_on(first), _constant_kernel_on(second)]
    with pytest.raises(EvidenceError, match="share one sample space") as refused:
        merge_convex(kernels, [Fraction(1, 2), Fraction(1, 2)])
    assert str(list(first)) in str(refused.value) and str(list(second)) in str(refused.value)


def confidence_set(k, alpha, x):
    """Hypotheses whose evidence at x stays below 1/alpha."""
    threshold = XValue(1) / XValue(alpha)
    return tuple(hid for hid, v in enumerate(k.column(x).values) if v < threshold)


def test_confidence_set_thresholds():
    _, space, sample, pa = small_setup(19)
    k = helpers.constant_kernel(space, sample, helpers.unit_measure(space))
    # at alpha = 1 the threshold is 1, so constant-1 evidence is never below it
    assert confidence_set(k, 1, 0) == ()
    zero = helpers.constant_kernel(
        space, sample,
        from_values(space, [
            0 if m else "inf" for m in space.family.members
        ]),
    )
    assert confidence_set(zero, Fraction(1, 20), 0) == space.family.nonempty_ids()


def test_confidence_set_on_the_stepup_column():
    from emeasure import multiplicity as mtp

    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    result = __import__("emeasure").multiplicity.ebh(base, gids, Fraction(1, 20))
    sample = SampleSpace(("x",))
    k = helpers.constant_kernel(space, sample, result.table)
    excluded = set(space.family.nonempty_ids()) - set(confidence_set(k, Fraction(1, 20), 0))
    g1_bits = space.family.member(golden.row_id(space, "G_1"))
    # exactly the nonempty members inside the first circle are excluded
    assert excluded == {
        hid
        for hid in space.family.nonempty_ids()
        if space.family.member(hid) & ~g1_bits == 0
    }
    labeled = {lab: golden.row_id(space, lab) for lab in golden.ROW_LABELS}
    assert {lab for lab, hid in labeled.items() if hid in excluded} == {
        "H_1", "H_12", "H_13", "H_123", "G_1",
    }


def test_posthoc_constant_rule_reduces_to_coverage():
    r, space, sample, pa = small_setup(23)
    k = helpers.valid_measure_kernel(r, space, pa)
    alpha = Fraction(1, 5)
    rule = {x: XValue(alpha) for x in sample.outcomes}
    report = check_posthoc_validity(k, pa, rule)
    assert report.ok
    # statistic equals P(H not in C_alpha)/alpha entry by entry
    for entry in report.entries:
        pi = space.model.index(entry.point)
        miss = Fraction(0)
        for xi in range(sample.size):
            if helpers.kernel_value(k, entry.hid, xi) >= XValue(1) / XValue(alpha):
                miss += helpers.pmf_mass(pa.pmfs[pi])[xi]
        assert entry.stat == XValue(miss / alpha)


def canonical_miss_rate(v):
    """1{v >= 1/level} / level at the canonical level 1/v, in XValue arithmetic."""
    level = XValue(1) / v
    return (XValue(1) if v >= XValue(1) / level else XValue(0)) / level


def test_posthoc_canonical_rule_matches_validity_statistic():
    """Each (H, p) entry is E_p of 1{e(H|X) >= 1/level} / level at the
    level 1/e(H|X), which is e(H|X) itself, zero and infinite values too."""
    verdicts, zeros, infs = set(), 0, 0
    for seed in range(29, 37):
        r, space, sample, pa = small_setup(seed, full_support=seed % 2 == 0)
        for trial in range(4):
            k = helpers.valid_capacity_kernel(r, space, pa)
            if trial % 2:
                k = helpers.scaled_kernel(k, XValue(4))
            report = check_posthoc_validity(k, pa, "canonical")
            expected = [
                (space.model.points[pi], hid, helpers.oracle_expectation(
                    pa.pmfs[pi], [canonical_miss_rate(v) for v in k.rows[hid]]
                ))
                for hid in space.family.nonempty_ids()
                for pi in space.family.indices(hid)
            ]
            assert [(e.point, e.hid, e.stat) for e in report.entries] == expected
            verdicts.add(report.ok)
            values = [v for col in k.columns for v in col.values[1:]]
            zeros += any(v.is_zero for v in values)
            infs += any(v.is_inf for v in values)
    assert verdicts == {True, False} and zeros and infs


def test_posthoc_adversarial_rule_flags_invalid_kernel():
    _, space, sample, pa = small_setup(31)
    k = helpers.constant_two_kernel(space, sample)
    report = check_posthoc_validity(k, pa, {x: XValue(Fraction(1, 2)) for x in sample.outcomes})
    assert not report.ok


@pytest.mark.parametrize("level", [XValue(0), INF], ids=["zero", "inf"])
def test_posthoc_fixed_level_must_lie_strictly_between_0_and_inf(level):
    _, space, sample, pa = small_setup(31)
    k = helpers.constant_two_kernel(space, sample)
    with pytest.raises(KernelError, match="outside"):
        check_posthoc_validity(k, pa, {x: level for x in sample.outcomes})


def test_eposterior_raw_with_unit_prior_is_plain_validity():
    r, space, sample, pa = raw_setup(37)
    k = helpers.valid_capacity_kernel(r, space, pa)
    prior = helpers.unit_measure(space)
    post, report = eposterior(prior, k, pa)
    for a, b in zip(post.columns, k.columns):
        assert a.values == b.values
    assert report.ok and report == check_validity(k, pa)


def test_eposterior_raw_names_the_point_attaining_each_bound():
    """Off intersection-closed spaces, a finite positive prior scales a
    hypothesis' expectations alike, so the first of its entries attaining
    its largest statistic names the first point where the product's
    expectation is largest, and the prior times that statistic is that
    expectation. `helpers.worst` is the first pair in walk order attaining
    the largest statistic of all."""
    ties = 0
    for seed in range(20):
        r, space, sample, pa = raw_setup(500 + seed, full_support=seed % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if seed % 2:
            k = helpers.constant_two_kernel(space, sample)
        prior = helpers.rand_capacity(r, space, allow_inf=False)
        post, report = eposterior(prior, k, pa)
        held = [hid for hid in space.family.nonempty_ids() if not prior.values[hid].is_zero]
        assert list(dict.fromkeys(e.hid for e in report.entries)) == held
        for hid in held:
            entries = [e for e in report.entries if e.hid == hid]
            worst = max(entries, key=lambda e: e.stat)
            stats = [
                (helpers.oracle_expectation(pa.pmfs[pi], post.rows[hid]), pi)
                for pi in space.family.indices(hid)
            ]
            largest = max(stat for stat, _ in stats)
            attaining = [pi for stat, pi in stats if stat == largest]
            assert worst.point == space.model.points[attaining[0]]
            assert prior.values[hid] * worst.stat == largest
            ties += len(attaining) > 1
        top = max((e.stat for e in report.entries), default=None)
        assert helpers.worst(report) == next((e for e in report.entries if e.stat == top), None)
    assert ties


def test_eposterior_raw_scaled_atom_prior():
    r, space, sample, pa = raw_setup(41)
    k = helpers.valid_capacity_kernel(r, space, pa)
    # scale a minimal nonempty member by 3; antitonicity survives because
    # canonical order puts minimal members first
    atom = space.family.nonempty_ids()[0]
    values = [
        XValue(3) if hid == atom else v
        for hid, v in enumerate(helpers.unit_measure(space).values)
    ]
    prior = from_values(space, values)
    assert prior.eclass >= EClass.CAPACITY
    post, report = eposterior(prior, k, pa)
    assert report.ok
    entries = [e for e in report.entries if e.hid == atom]
    assert [e.point for e in entries] == [space.model.points[pi] for pi in space.family.indices(atom)]
    for e in entries:
        product = helpers.oracle_expectation(pa.pmfs[space.model.points.index(e.point)], post.rows[atom])
        assert e.bound == XValue(1) and XValue(3) * e.stat == product <= XValue(3)


def test_eposterior_raw_holds_each_pair_of_the_prior_support_against_one():
    """prior(H)·E_p[e(H|X)] <= prior(H) holds exactly where E_p[e(H|X)] <= 1
    or prior(H) is 0 or inf. So off intersection-closed spaces the report
    is the kernel's pair walk over the hypotheses of finite positive prior,
    each E_p[e(H|X)] against 1, and its verdict is the product held
    against the prior at every pair. The priors are random capacities,
    with 0 and inf values, and the unit prior with a minimal member scaled
    by 3."""
    verdicts, unbounded = set(), 0
    for seed in range(24):
        r, space, sample, pa = raw_setup(500 + seed, full_support=seed % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if seed % 3 == 1:
            k = helpers.constant_two_kernel(space, sample)
        if seed % 4 == 3:
            # antitonicity survives: canonical order puts minimal members first
            atom = space.family.nonempty_ids()[0]
            unit = helpers.unit_measure(space).values
            prior = from_values(space, [XValue(3) if hid == atom else v for hid, v in enumerate(unit)])
        else:
            prior = helpers.rand_capacity(r, space, allow_inf=seed % 2 == 1)
        post, report = eposterior(prior, k, pa)
        points, pairs, holds = space.model.points, [], True
        for hid, pi in ((hid, pi) for hid in space.family.nonempty_ids() for pi in space.family.indices(hid)):
            p, stat = prior.values[hid], helpers.oracle_expectation(pa.pmfs[pi], k.rows[hid])
            holds &= helpers.oracle_expectation(pa.pmfs[pi], post.rows[hid]) <= p
            if p.is_zero or p.is_inf:
                unbounded += stat > XValue(1)
                continue
            assert p * stat == helpers.oracle_expectation(pa.pmfs[pi], post.rows[hid])
            pairs.append((hid, points[pi], stat, XValue(1), stat <= XValue(1)))
        assert [(e.hid, e.point, e.stat, e.bound, e.ok) for e in report.entries] == pairs
        assert report.ok == holds
        verdicts.add(holds)
    assert verdicts == {True, False} and unbounded


def test_raw_product_of_measures_can_lose_the_measure_law():
    """On the power set of two points the product of a measure prior and a
    measure kernel is a capacity but no measure; the posterior is its
    closure, a measure."""
    space = helpers.power_space(2)
    sample = SampleSpace(("x",))
    prior = from_values(space, ["inf", 4, 2, 2])
    kernel_fn = from_values(space, ["inf", 1, 3, 1])
    k = helpers.constant_kernel(space, sample, kernel_fn)
    pa = ProbabilityAssignment(
        space.model, tuple(Pmf(sample, (Fraction(1),)) for _ in space.model.points)
    )
    product = helpers.product_kernel(prior, k).columns[0]
    assert product.eclass is EClass.CAPACITY
    assert product.values[space.family.id_of(0b11)] == XValue(2)
    assert min(product.values[space.family.id_of(0b01)], product.values[space.family.id_of(0b10)]) == XValue(4)
    post, _ = eposterior(prior, k, pa)
    assert post.columns[0].eclass is EClass.MEASURE
    assert list(post.columns[0].values) == helpers.oracle_closure(product)


@pytest.mark.parametrize("function", ["prior", "kernel"])
def test_eposterior_refuses_a_prior_or_a_kernel_that_is_no_capacity(function):
    """Updating needs capacities: a prior or a kernel of the function class,
    here one whose full member carries more evidence than a singleton, is
    refused before any product is built."""
    space = helpers.power_space(2)
    sample = SampleSpace(("x",))
    pa = ProbabilityAssignment(space.model, tuple(Pmf(sample, (ONE,)) for _ in space.model.points))
    values = [INF, ONE, ONE, XValue(5)]
    capacity = EKernel(space, sample, [(INF,), (ONE,), (ONE,), (ONE,)])
    prior, k = helpers.unit_measure(space), capacity
    if function == "prior":
        prior = from_values(space, values)
    else:
        k = EKernel(space, sample, [(v,) for v in values])
    assert min(prior.eclass, k.eclass) is EClass.FUNCTION
    with pytest.raises(ClassMismatch, match="^updating needs capacities$"):
        eposterior(prior, k, pa)


def test_eposterior_closed_bounds_and_domination():
    r, space, sample, pa = small_setup(43)
    for _ in range(10):
        k = helpers.valid_capacity_kernel(r, space, pa)
        prior = helpers.rand_capacity(r, space, allow_inf=False)
        closed, report = eposterior(prior, k, pa)
        assert report.ok
        assert all(col.eclass is EClass.MEASURE for col in closed.columns)
        assert helpers.dominates(closed, helpers.product_kernel(prior, k))


def test_eposterior_closed_on_toy_space_with_nonuniform_prior():
    space = golden.toy_space()
    sample = SampleSpace(("x1", "x2"))
    r = helpers.rng(47)
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_measure_kernel(r, space, pa)
    prior = golden.base_efunction(space)
    closed, report = eposterior(prior, k, pa)
    assert report.ok


# -- processes ---------------------------------------------------------


def depth2_binary_tree():
    sample = SampleSpace(("HH", "HT", "TH", "TT"))
    return FiltrationTree(sample, [["HH", "HT"], ["TH", "TT"]])


def test_tree_levels_and_stopping_times():
    tree = depth2_binary_tree()
    assert tree.depth == 2
    levels = helpers.tree_levels(tree)
    assert levels[0] == ((0, 1, 2, 3),)
    assert levels[1] == ((0, 1), (2, 3))
    assert levels[2] == ((0,), (1,), (2,), (3,))
    rules = helpers.oracle_stopping_times(tree)
    assert len(rules) == tree.count_stopping_times() == 1 + (1 + 1) * (1 + 1)
    assert (0, 0, 0, 0) in rules and (2, 2, 2, 2) in rules and (1, 1, 2, 2) in rules


def test_uneven_tree_keeps_shallow_leaves_as_atoms():
    sample = SampleSpace(("a", "b", "c"))
    tree = FiltrationTree(sample, ["a", ["b", "c"]])
    assert tree.depth == 2
    levels = helpers.tree_levels(tree)
    assert levels[1] == ((0,), (1, 2))
    assert levels[2] == ((0,), (1,), (2,))
    rules = helpers.oracle_stopping_times(tree)
    assert set(rules) == {(0, 0, 0), (1, 1, 1), (1, 2, 2)}
    assert len(rules) == tree.count_stopping_times() == 3
    with pytest.raises(KernelError, match="neither an outcome label nor a non-empty list"):
        FiltrationTree(sample, ["a", ["b", "c", []]])


def test_a_leaf_that_is_no_list_or_mapping_names_its_outcome_by_its_text():
    """YAML types leaves such as 1, yes or ~; the tree reads them with str,
    as the file readers read outcome keys. A mapping is no node."""
    sample = SampleSpace(("1", "True", "None", "1.5"))
    tree = FiltrationTree(sample, [[1, True], [None, 1.5]])
    assert tree.depth == 2 and tree.count_stopping_times() == 5
    with pytest.raises(KernelError, match="tree node {'b': 'c'} is neither"):
        FiltrationTree(SampleSpace(("a", "b")), ["a", {"b": "c"}])


def _reordered(order, pa, kernels):
    """The distributions and kernels over the sample that lists their
    outcomes in `order`, as positions in their own sample."""
    sample = SampleSpace(tuple(pa.sample.outcomes[o] for o in order))
    pmfs = tuple(Pmf(sample, [helpers.pmf_mass(pmf)[o] for o in order]) for pmf in pa.pmfs)
    moved = [EKernel(k.space, sample, [tuple(row[o] for o in order) for row in k.rows]) for k in kernels]
    return sample, ProbabilityAssignment(pa.model, pmfs), moved


def test_a_sample_in_another_order_gives_the_anytime_and_predictive_reports_unchanged():
    """The anytime check reads the outcomes in the tree's leaf order and the
    predictive check in the space's point order, so listing the sample's
    outcomes in another order, as a model file's first row may, changes
    no entry, verdict or stop rule. A tree whose leaves miss an outcome is
    still refused."""
    moved_any = 0
    for seed in range(16):
        r = helpers.rng(4400 + seed)
        space = helpers.power_space(r.randint(1, 3))
        tree = helpers.rand_tree(r, max_depth=2)
        pa = helpers.rand_pa(r, space.model, tree.sample, full_support=seed % 2 == 0)
        proc = helpers.rand_process(r, space, tree, allow_inf=seed % 3 == 0)
        order = list(range(tree.sample.size))
        r.shuffle(order)
        moved_any += order != sorted(order)
        sample, moved_pa, kernels = _reordered(order, pa, proc.kernels)
        moved = EProcess(FiltrationTree(sample, tree.shape), kernels)
        assert check_anytime_validity(moved, moved_pa) == check_anytime_validity(proc, pa)

        outcomes = SampleSpace(space.model.points)
        pa = helpers.rand_pa(r, space.model, outcomes, full_support=seed % 2 == 1)
        k = helpers.valid_measure_kernel(r, space, pa)
        if seed % 2:
            k = helpers.scaled_kernel(k, XValue(3))
        order = list(range(outcomes.size))
        r.shuffle(order)
        _, moved_pa, (moved_k,) = _reordered(order, pa, [k])
        assert check_predictive_validity(moved_k, moved_pa) == check_predictive_validity(k, pa)
    assert moved_any
    with pytest.raises(KernelError) as refused:
        FiltrationTree(SampleSpace(("a", "b", "c")), ["a", ["b", "b"]])
    assert str(refused.value) == "tree leaves must name each outcome once; they miss ['c'] and repeat ['b']"
    with pytest.raises(KernelError) as refused:
        FiltrationTree(SampleSpace(("a", "b")), ["a", ["b", "d"]])
    assert str(refused.value) == "tree leaves must name each outcome once; they add ['d'], which the sample lacks"


def test_a_5000_deep_chain_flattens_and_counts_without_recursion():
    shape = "x"
    for _ in range(5000):
        shape = [shape]
    tree = FiltrationTree(SampleSpace(("x",)), shape)
    assert tree.depth == 5000 and len(tree.nodes) == 5001
    assert tree.nodes[0] == (5000, 0, 1, ()) and tree.nodes[-1] == (0, 0, 1, (4999,))
    assert tree.count_stopping_times() == 5001


def test_constant_one_process_is_anytime_valid():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(53)
    pa = helpers.rand_pa(r, space.model, tree.sample)
    one = helpers.constant_kernel(space, tree.sample, helpers.unit_measure(space))
    proc = EProcess(tree, [one, one, one])
    report = check_anytime_validity(proc, pa)
    assert report.stats.ok and report.rules_checked == 5


def test_constant_two_process_stops_at_the_root_on_ties():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    pa = helpers.rand_pa(helpers.rng(57), space.model, tree.sample)
    two = helpers.constant_two_kernel(space, tree.sample)
    report = check_anytime_validity(EProcess(tree, [two, two, two]), pa)
    entry = report.stats.first_violation()
    assert not report.stats.ok and report.rule == (0, 0, 0, 0)
    assert (entry.hid, entry.point, entry.stat) == (1, "P1", XValue(2))


def coin_pa(sample, heads_probs):
    """Two-toss outcome distributions for coins with the given heads chances."""
    model = Model(tuple(f"coin{i}" for i in range(len(heads_probs))))
    pmfs = []
    for h in heads_probs:
        t = 1 - h
        pmfs.append(Pmf(sample, (h * h, h * t, t * h, t * t)))
    return ProbabilityAssignment(model, tuple(pmfs))


def test_likelihood_ratio_process_is_anytime_valid():
    """Per-point product-ratio process on a depth-2 binary tree."""
    tree = depth2_binary_tree()
    sample = tree.sample
    heads = [Fraction(1, 2), Fraction(1, 4)]
    pa = coin_pa(sample, heads)
    space = helpers.power_space(2)
    ref = Fraction(1, 3)

    def step_ratio(pi, outcome, t):
        num = Fraction(1)
        den = Fraction(1)
        for s in range(t):
            is_head = outcome[s] == "H"
            num *= ref if is_head else 1 - ref
            p = heads[pi]
            den *= p if is_head else 1 - p
        return XValue(num) / XValue(den)

    kernels = []
    for t in range(3):
        cols = []
        for outcome in sample.outcomes:
            density = {
                space.family.id_of(1 << pi): step_ratio(pi, outcome, t)
                for pi in range(2)
            }
            values = {
                hid: helpers.inf_of(density[space.family.id_of(1 << pi)] for pi in helpers.points_of(m))
                for hid, m in enumerate(space.family.members)
            }
            cols.append(helpers.classify(space, values))
        kernels.append(helpers.kernel_of(space, sample, cols))
    proc = EProcess(tree, kernels)
    proc.require_measurable()
    report = check_anytime_validity(proc, pa)
    assert report.stats.ok


def test_peeking_process_fails_measurability_before_validity():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(59)
    pa = helpers.rand_pa(r, space.model, tree.sample)
    one = helpers.constant_kernel(space, tree.sample, helpers.unit_measure(space))
    # time-0 kernel that already distinguishes outcomes
    peek_cols = [helpers.unit_measure(space) for _ in tree.sample.outcomes]
    peek_cols[0] = from_values(space, ["inf", 2, 1, 1])
    peeking = helpers.kernel_of(space, tree.sample, peek_cols)
    proc = EProcess(tree, [peeking, one, one])
    message = "step 0 gives hypothesis P1 different values at outcomes HH and HT"
    with pytest.raises(MeasurabilityError, match=message):
        proc.require_measurable()
    with pytest.raises(MeasurabilityError, match=message):
        check_anytime_validity(proc, pa)


def random_processes(seed, count):
    """Seeded (process, distributions) pairs on random, often uneven trees;
    some outcomes carry zero mass and some evidence is infinite."""
    r = helpers.rng(seed)
    for _ in range(count):
        space = helpers.rand_uc_space(r, max_points=3, max_members=6)
        tree = helpers.rand_tree(r)
        proc = helpers.rand_process(r, space, tree, allow_inf=r.random() < 0.4)
        pa = helpers.rand_pa(r, space.model, tree.sample, full_support=r.random() < 0.5)
        yield proc, pa


def leaf_depths(shape, t=0):
    return [t] if isinstance(shape, str) else [d for c in shape for d in leaf_depths(c, t + 1)]


def stats_by_pair(proc, report):
    """A report's statistics keyed as helpers.oracle_anytime keys them."""
    points = proc.space.model.points
    return {(e.hid, points.index(e.point)): e.stat for e in report.stats.entries}


def test_envelope_equals_the_max_over_every_stopping_rule():
    verdicts, uneven, zero_mass = set(), 0, 0
    for proc, pa in random_processes(101, 120):
        best = helpers.oracle_anytime(proc, pa)
        report = check_anytime_validity(proc, pa)
        assert stats_by_pair(proc, report) == best
        assert report.stats.ok == all(stat <= 1 for stat in best.values())
        assert report.rules_checked == len(helpers.oracle_stopping_times(proc.tree))
        verdicts.add(report.stats.ok)
        uneven += len(set(leaf_depths(proc.tree.shape))) > 1
        zero_mass += any(0 in helpers.pmf_mass(pmf) for pmf in pa.pmfs)
    assert verdicts == {True, False} and uneven and zero_mass


def test_the_walk_does_no_xvalue_arithmetic(monkeypatch):
    """Every tree node is walked in ints: with XValue's + and * refused, the
    check still returns the oracle's values."""
    cases = [(proc, pa, helpers.oracle_anytime(proc, pa)) for proc, pa in random_processes(107, 40)]

    def refuse(*args):
        raise AssertionError("XValue arithmetic in the anytime walk")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(XValue, name, refuse)
    verdicts = set()
    for proc, pa, best in cases:
        report = check_anytime_validity(proc, pa)
        assert stats_by_pair(proc, report) == best
        verdicts.add(report.stats.ok)
    assert verdicts == {True, False}


def test_the_witness_rule_is_built_once_per_check_at_most(monkeypatch):
    builds = []
    build = kn._stop_rule
    monkeypatch.setattr(kn, "_stop_rule", lambda *args: builds.append(args) or build(*args))
    most_violations = 0
    for proc, pa in random_processes(109, 60):
        builds.clear()
        report = check_anytime_validity(proc, pa)
        assert len(builds) == (not report.stats.ok)
        most_violations = max(most_violations, sum(not e.ok for e in report.stats.entries))
    assert most_violations > 1


def test_witness_rule_reproduces_the_first_violating_pair():
    witnesses, infinite, zero_against_inf = 0, 0, 0
    for proc, pa in random_processes(103, 60):
        report = check_anytime_validity(proc, pa)
        if report.stats.ok:
            assert report.rule is None
            continue
        rule, entry = report.rule, report.stats.first_violation()
        best = helpers.oracle_anytime(proc, pa)
        first = next(key for key, stat in best.items() if stat > 1)
        pi = proc.space.model.index(entry.point)
        assert (entry.hid, pi) == first and entry.stat == best[first] and not entry.ok
        mass = helpers.pmf_mass(pa.pmfs[pi])
        assert rule == helpers.oracle_stop_rule(proc, entry.hid, mass)
        stopped = check_validity(helpers.stopped_kernel(proc, rule), pa)
        assert any(
            (e.hid, e.point, e.stat) == (entry.hid, entry.point, entry.stat)
            for e in stopped.entries
        )
        witnesses += 1
        infinite += entry.stat == INF
        zero_against_inf += any(
            m == 0 and k.columns[xi].values[entry.hid] == INF
            for k in proc.kernels
            for xi, m in enumerate(mass)
        )
    assert witnesses and infinite and zero_against_inf


def ternary_ratio_process(depth, scale_at=None):
    """Likelihood ratio against a uniform three-way reference, per point,
    on a complete ternary tree; the step at scale_at is scaled by 3/2."""
    steps = [(Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
             (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))]
    words = [""]
    for _ in range(depth):
        words = [w + s for w in words for s in "HMT"]

    def shape(prefix):
        return prefix if len(prefix) == depth else [shape(prefix + s) for s in "HMT"]

    tree = FiltrationTree(SampleSpace(tuple(words)), shape(""))
    space = helpers.power_space(2)
    model_pmfs = []
    for step in steps:
        masses = []
        for w in words:
            m = Fraction(1)
            for s in w:
                m *= step["HMT".index(s)]
            masses.append(m)
        model_pmfs.append(Pmf(tree.sample, tuple(masses)))
    pa = ProbabilityAssignment(space.model, tuple(model_pmfs))
    kernels = []
    for t in range(depth + 1):
        factor = Fraction(3, 2) if t == scale_at else Fraction(1)
        cols = []
        for w in words:
            ratios = []
            for step in steps:
                v = factor
                for s in w[:t]:
                    v *= Fraction(1, 3) / step["HMT".index(s)]
                ratios.append(v)
            cols.append(from_values(space, ["inf", ratios[0], ratios[1], min(ratios)]))
        kernels.append(helpers.kernel_of(space, tree.sample, cols))
    return EProcess(tree, kernels), pa


def test_ternary_depth_five_tree_past_the_enumeration_reach():
    """243 outcomes and about 5.9e25 stopping rules: far past any enumeration."""
    proc, pa = ternary_ratio_process(5)
    report = check_anytime_validity(proc, pa)
    assert report.stats.ok and report.rule is None
    rules = 1
    for _ in range(5):
        rules = 1 + rules ** 3  # stop at the root, or follow a rule in each subtree
    assert report.rules_checked == rules
    bad_proc, pa = ternary_ratio_process(5, scale_at=2)
    report = check_anytime_validity(bad_proc, pa)
    assert not report.stats.ok
    entry = report.stats.first_violation()
    assert report.rule == (2,) * 243
    assert (entry.hid, entry.point, entry.stat) == (1, "P1", XValue(Fraction(3, 2)))


def test_close_process_keeps_measures_and_verdicts():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(61)
    pa = helpers.rand_pa(r, space.model, tree.sample)
    levels = helpers.tree_levels(tree)
    for _ in range(10):
        kernels = []
        for t in range(3):
            fn_by_atom = {}
            cols = []
            for atom in levels[t]:
                fn_by_atom[atom] = helpers.rand_capacity(r, space)
            for xi in range(tree.sample.size):
                atom = next(a for a in levels[t] if xi in a)
                cols.append(fn_by_atom[atom])
            kernels.append(helpers.kernel_of(space, tree.sample, cols))
        proc = EProcess(tree, kernels)
        closed = EProcess(tree, [close_kernel(k) for k in proc.kernels])
        assert helpers.dominates(closed, proc)
        assert min(k.eclass for k in closed.kernels) is EClass.MEASURE
        before = check_anytime_validity(proc, pa)
        after = check_anytime_validity(closed, pa)
        assert before.stats.ok == after.stats.ok


def test_closed_process_equals_pointwise_infimum_family():
    """For a composite hypothesis the closed process is the infimum of the
    per-point processes."""
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(67)
    kernels = []
    levels = helpers.tree_levels(tree)
    for t in range(3):
        fn_by_atom = {atom: helpers.rand_capacity(r, space) for atom in levels[t]}
        cols = []
        for xi in range(tree.sample.size):
            atom = next(a for a in levels[t] if xi in a)
            cols.append(fn_by_atom[atom])
        kernels.append(helpers.kernel_of(space, tree.sample, cols))
    proc = EProcess(tree, kernels)
    closed = EProcess(tree, [close_kernel(k) for k in proc.kernels])
    full = space.family.id_of(0b11)
    for t in range(3):
        for xi in range(tree.sample.size):
            singles = [
                helpers.kernel_value(proc.kernels[t], space.family.id_of(1 << pi), xi) for pi in range(2)
            ]
            assert helpers.kernel_value(closed.kernels[t], full, xi) == min(singles)


# -- predictive --------------------------------------------------------


def predictive_setup(seed, n=3):
    r = helpers.rng(seed)
    space = helpers.power_space(n)
    # rename outcomes to match the model points
    sample = SampleSpace(space.model.points)
    pa = helpers.rand_pa(r, space.model, sample)
    return r, space, sample, pa


def test_predictive_identity_reduces_to_diagonal_on_power_set():
    r, space, sample, pa = predictive_setup(71)
    for _ in range(10):
        cols = [helpers.rand_capacity(r, space) for _ in sample.outcomes]
        k = helpers.kernel_of(space, sample, cols)
        report = check_predictive_validity(k, pa)
        assert report.identity.ok
        for xi, entry in enumerate(report.identity.entries):
            assert entry.ok and entry.bound == helpers.kernel_value(k, space.family.id_of(1 << xi), xi)
        # the identity makes the sup variable the least-hypothesis variable
        least_var = [helpers.kernel_value(k, space.least_id(xi), xi) for xi in range(sample.size)]
        least_stats = tuple(helpers.oracle_expectation(pmf, least_var) for pmf in pa.pmfs)
        assert tuple(e.stat for e in report.stats.entries) == least_stats
        assert report.stats.ok == all(s <= XValue(1) for s in least_stats)


def test_predictive_identity_fails_off_capacities():
    """A table that is not antitone can put more evidence on a true superset
    than on the outcome's least hypothesis; the identity then reports it."""
    r, space, sample, pa = predictive_setup(77)
    failures = 0
    for _ in range(20):
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        k = helpers.kernel_of(space, sample, [helpers.classify(space, raw)] * sample.size)
        report = check_predictive_validity(k, pa)
        expected = [
            helpers.sup_of(v for m, v in zip(space.family.members, k.columns[xi].values)
                           if m >> xi & 1) == helpers.kernel_value(k, space.least_id(xi), xi)
            for xi in range(sample.size)
        ]
        assert [e.ok for e in report.identity.entries] == expected
        assert report.identity.ok == all(expected)
        failures += not report.identity.ok
    assert failures


def test_predictive_binary_prediction_set_coverage():
    # reject outcome 'P1' only: the prediction set is {P2, P3}
    r, space, sample, pa = predictive_setup(73)
    alpha = Fraction(1, 4)
    cols = []
    for xi in range(sample.size):
        values = {}
        for hid, m in enumerate(space.family.members):
            if not m:
                values[hid] = INF
            else:
                # only the claim "the outcome is P1" is rejected; the table stays antitone
                values[hid] = XValue(1) / XValue(alpha) if m == 0b001 else XValue(0)
        cols.append(helpers.classify(space, values))
    k = helpers.kernel_of(space, sample, cols)
    assert k.eclass >= EClass.CAPACITY
    report = check_predictive_validity(k, pa)
    # the sup variable is 1/alpha exactly when the true outcome is P1
    assert report.identity.ok
    for pmf, entry in zip(pa.pmfs, report.stats.entries, strict=True):
        assert entry.stat == XValue(helpers.pmf_mass(pmf)[0] / alpha)
    assert report.stats.ok == all(helpers.pmf_mass(pmf)[0] <= alpha for pmf in pa.pmfs)


def test_predictive_requires_matching_spaces():
    r = helpers.rng(79)
    space = helpers.power_space(2)
    sample = SampleSpace(("a", "b"))
    k = helpers.constant_kernel(space, sample, helpers.unit_measure(space))
    with pytest.raises(Exception):
        check_predictive_validity(k, helpers.rand_pa(r, space.model, sample))


# -- work per distinct row: the capacity test and the claims ----------------


def _joins(family):
    """(member id, id of its union with a join-irreducible member it misses
    part of) for every such pair, once each."""
    members = family.members
    return [
        (a, family.id_of(m | members[j]))
        for a, m in enumerate(members)
        for j in family.irreducible_ids()
        if members[j] & ~m
    ]


def _violating_pairs(k):
    """The (member, union) id pairs of the family's joins whose union has
    more evidence than the member at some outcome, compared on XValues."""
    rows = k.rows
    return {
        (a, joined)
        for a, joined in _joins(k.space.family)
        if any(u > v for u, v in zip(rows[joined], rows[a]))
    }


def _broken_at_one_join(r, k, shared):
    """`k` with one union's row raised at one outcome, into a fresh row
    object, just above the row of one member it joins, so that exactly
    that (member, union) pair of the joins breaks antitonicity. The
    member's row is one shared with another member when `shared`, and
    otherwise a fresh copy of its own. None if no join allows it."""
    rows = list(k.rows)
    counts = {}
    for row in rows:
        counts[id(row)] = counts.get(id(row), 0) + 1
    joins = _joins(k.space.family)
    r.shuffle(joins)
    for a, u in joins:
        if shared and counts[id(rows[a])] < 2:
            continue
        for x in r.sample(range(k.sample.size), k.sample.size):
            low = rows[a][x]
            others = [rows[b][x] for b, w in joins if w == u and b != a]
            if low.is_inf or any(v <= low for v in others):
                continue
            above = [v for v in others if not v.is_inf] + [low + XValue(1)]
            raised = list(rows[u])
            raised[x] = (low + min(above)) / XValue(2)
            rows[u] = tuple(raised)
            if not shared:
                rows[a] = tuple(XValue(v.record()) for v in rows[a])
            return EKernel(k.space, k.sample, rows)
    return None


def _row_kernel_cases(seed, count):
    """Seeded kernels whose rows share objects, on intersection-closed,
    tangled and power-set spaces with the points as the outcomes: least-point
    measures, with zero rows and inf cells; the same with some rows
    replaced by equal-valued distinct objects; those broken at exactly one
    join, between two unshared rows or between a shared and an unshared
    row; and tables whose rows are drawn from a small pool of objects."""
    r = helpers.rng(seed)
    made = tries = 0
    while made < count:
        tries += 1
        space = (
            helpers.rand_lattice_space(r, tries % 4)
            if tries % 3
            else helpers.rand_ic_space(r, max_points=5)
        )
        sample = SampleSpace(space.model.points)
        kind = ("measure", "copies", "unshared", "shared", "pool")[made % 5]
        k = helpers.least_point_kernel(r, space, sample)
        if kind == "copies":
            k = EKernel(space, sample, [
                tuple(XValue(v.record()) for v in row) if r.random() < 0.5 else row
                for row in k.rows
            ])
        elif kind in ("unshared", "shared"):
            k = _broken_at_one_join(r, k, kind == "shared")
        elif kind == "pool":
            pool = [
                tuple(helpers.rand_xvalue(r) if r.random() < 0.8 else XValue(0) for _ in sample.outcomes)
                for _ in range(r.randint(1, 3))
            ]
            inf_row = tuple([INF] * sample.size)
            k = EKernel(
                space, sample, [inf_row] + [r.choice(pool) for _ in space.family.members[1:]]
            )
        if k is not None:
            made += 1
            yield kind, k, helpers.rand_pa(r, space.model, sample, full_support=made % 2 == 0)


def test_capacity_test_and_claims_on_distinct_rows_match_their_definitions():
    """The capacity verdict of `eclass`, `claims`, the statistics of
    `check_fwe` and the sups of `check_predictive_validity`, all computed
    once per distinct row, against the definitions on 250 seeded kernels of
    shared row objects."""
    kinds, verdicts, cells = {}, set(), set()
    for kind, k, pa in _row_kernel_cases(1709, 250):
        capacity = helpers.oracle_is_capacity(k)
        assert (k.eclass >= EClass.CAPACITY) == capacity, kind
        if kind in ("unshared", "shared"):
            assert not capacity and len(_violating_pairs(k)) == 1
        elif kind != "pool":
            assert capacity
        verdicts.add(capacity)
        kinds[kind] = kinds.get(kind, 0) + 1
        for row in k.rows[1:]:
            cells.add("zero-row" if all(v.is_zero for v in row) else "inf" if INF in row else "value")
        claims = helpers.oracle_claims(k)
        assert k.claims() == claims
        assert [e.stat for e in check_fwe(k, pa).entries] == [
            helpers.oracle_expectation(pa.pmfs[pi], [claim[pi] for claim in claims])
            for pi in range(k.space.model.size)
        ]
        if k.space.intersection_closed:
            sups = [e.stat for e in check_predictive_validity(k, pa).identity.entries]
            assert sups == [claim[xi] for xi, claim in enumerate(claims)]
    assert verdicts == {True, False} and cells == {"inf", "zero-row", "value"}
    assert min(kinds.values()) >= 40 and len(kinds) == 5


# -- pushforward -------------------------------------------------------


def test_pushforward_identity_is_the_same_kernel():
    r, space, sample, pa = small_setup(83)
    k = helpers.valid_measure_kernel(r, space, pa)
    mapping = {p: p for p in space.model.points}
    pushed, report = pushforward_kernel(k, mapping, space, pa)
    for a, b in zip(pushed.columns, k.columns):
        assert a.values == b.values
    assert report.ok == check_validity(k, pa).ok


def test_pushforward_needs_distributions_and_returns_its_report_as_the_posterior_does():
    r, space, sample, pa = small_setup(83)
    k = helpers.valid_measure_kernel(r, space, pa)
    identity = {p: p for p in space.model.points}
    with pytest.raises(TypeError):
        pushforward_kernel(k, identity, space)
    pushed, report = pushforward_kernel(k, identity, space, pa)
    assert type(pushed) is EKernel and type(report) is Report


def test_pushforward_collapsing_two_points():
    r = helpers.rng(89)
    space = helpers.power_space(3)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_measure_kernel(r, space, pa)
    target = helpers.power_space(2)
    mapping = {"P1": "P1", "P2": "P1", "P3": "P2"}
    pushed, report = pushforward_kernel(k, mapping, target, pa)
    assert report.ok
    # evidence on a target hypothesis equals evidence on its preimage
    for gid, member in enumerate(target.family.members):
        pre_bits = 0
        for pi, p in enumerate(space.model.points):
            if member >> target.model.index(mapping[p]) & 1:
                pre_bits |= 1 << pi
        for xi in range(sample.size):
            assert helpers.kernel_value(pushed, gid, xi) == helpers.kernel_value(
                k, space.family.id_of(pre_bits), xi
            )
    assert pushed.eclass is EClass.MEASURE


def test_pushforward_rejects_unmeasurable_maps():
    r = helpers.rng(97)
    model = Model(("P1", "P2", "P3"))
    space = helpers.space_from_generators(model, [["P1", "P2"], ["P3"]])
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    k = helpers.constant_kernel(space, sample, helpers.unit_measure(space))
    target = helpers.power_space(2)
    mapping = {"P1": "P1", "P2": "P2", "P3": "P2"}  # preimage of {P1} is {P1}, missing
    with pytest.raises(MeasurabilityError):
        pushforward_kernel(k, mapping, target, pa)


# -- invariants the file readers pre-empt -------------------------------------


def test_a_sample_space_refuses_a_repeated_outcome():
    with pytest.raises(KernelError, match="^outcome labels must be unique$"):
        SampleSpace(("a", "b", "a"))


def test_a_pmf_refuses_a_mass_count_other_than_the_outcome_count():
    sample = SampleSpace(("a", "b"))
    for masses in ((Fraction(1),), (Fraction(1, 3),) * 3):
        with pytest.raises(KernelError, match="^one mass per outcome is required$"):
            Pmf(sample, masses)


def test_an_assignment_refuses_a_distribution_count_other_than_the_point_count():
    sample = SampleSpace(("a", "b"))
    pmf = Pmf(sample, (Fraction(1, 2), Fraction(1, 2)))
    model = Model(("P1", "P2"))
    for pmfs in ((pmf,), (pmf,) * 3):
        with pytest.raises(KernelError, match="^one distribution per model point is required$"):
            ProbabilityAssignment(model, pmfs)


def test_a_kernel_refuses_rows_of_the_wrong_shape():
    """Too few rows, too many, and a row one value short or long."""
    space = helpers.power_space(2)
    sample = SampleSpace(("a", "b"))
    rows = [(INF, INF)] + [(XValue(1), XValue(1))] * 3
    short, long = (XValue(1),), (XValue(1),) * 3
    for bad in (rows[:3], rows + rows[1:2], rows[:3] + [short], rows[:3] + [long]):
        with pytest.raises(KernelError, match="^one row of one value per outcome per hypothesis is required$"):
            EKernel(space, sample, bad)
    EKernel(space, sample, rows)


def test_a_process_refuses_kernels_of_another_space():
    """Kernels over equal samples but two spaces, or over one space but two
    samples, make no process."""
    sample = SampleSpace(("a", "b"))
    tree = FiltrationTree(sample, ["a", "b"])
    unit = helpers.unit_measure
    two, three = helpers.power_space(2), helpers.power_space(3)
    other = SampleSpace(("b", "a"))
    for first, second in (
        (helpers.constant_kernel(two, sample, unit(two)), helpers.constant_kernel(three, sample, unit(three))),
        (helpers.constant_kernel(two, sample, unit(two)), helpers.constant_kernel(two, other, unit(two))),
    ):
        with pytest.raises(KernelError, match="^kernels must share the space and sample$"):
            EProcess(tree, [first, second])
    k = helpers.constant_kernel(two, sample, unit(two))
    EProcess(tree, [k, k])


def test_a_process_of_one_space_and_sample_object_builds_no_record_key(monkeypatch):
    """A record equals itself with no field read (`Record.__eq__`): a
    process whose step kernels share one space and one sample object
    compares them without building a key, while equal records that are
    distinct objects still compare by their fields."""
    keys = []
    key = kn.Record._key
    monkeypatch.setattr(kn.Record, "_key", lambda self: keys.append(self) or key(self))
    sample = SampleSpace(("a", "b"))
    two = helpers.power_space(2)
    k = helpers.constant_kernel(two, sample, helpers.unit_measure(two))
    del keys[:]
    EProcess(FiltrationTree(sample, ["a", "b"]), [k, EKernel(two, sample, k.rows)])
    assert keys == []
    assert SampleSpace(("a", "b")) == sample and len(keys) == 2
