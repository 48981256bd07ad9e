"""Data-indexed evidence: validity and everything built on it."""

from fractions import Fraction

import pytest

import helpers
from emeasure import (
    EClass,
    EKernel,
    EProcess,
    FiltrationTree,
    INF,
    Model,
    Pmf,
    ProbabilityAssignment,
    SampleSpace,
    Space,
    XValue,
    check_anytime_validity,
    check_fer,
    check_fwe,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    close_kernel,
    close_process,
    confidence_set,
    constant_kernel,
    eposterior_closed,
    eposterior_raw,
    likelihood_kernel,
    merge_convex_kernels,
    pushforward_kernel,
    rejection_set,
    space_from_generators,
    unit_measure,
)
from emeasure.evidence import from_values
from emeasure.kernels import Entry, KernelError, MeasurabilityError, Report, _envelope
from emeasure import golden


def small_setup(seed=101, max_points=3, full_support=True):
    r = helpers.rng(seed)
    space = helpers.rand_ic_space(r, max_points=max_points)
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
    assert pmf.expectation([XValue(2), INF]) == XValue(2)
    assert pmf.expectation([INF, XValue(0)]) == INF


def test_constant_one_kernel_is_valid():
    _, space, sample, pa = small_setup(3)
    k = constant_kernel(space, sample, unit_measure(space))
    report = check_validity(k, pa)
    assert report.ok
    assert all(e.stat <= XValue(1) for e in report.entries)


def test_likelihood_kernel_is_valid_with_equality_on_singletons():
    r = helpers.rng(7)
    space = helpers.power_space(3)
    sample = SampleSpace(("x1", "x2", "x3", "x4"))
    pa = helpers.rand_pa(r, space.model, sample, full_support=True)
    reference = helpers.rand_pmf(r, sample, full_support=True)
    k = likelihood_kernel(space, pa, reference)
    assert k.eclass is EClass.MEASURE
    report = check_validity(k, pa)
    assert report.ok
    # On a singleton the expectation telescopes to the reference total mass.
    for pi, p in enumerate(space.model.points):
        hid = space.family.id_of(1 << pi)
        assert k.expectation(hid, pa.pmfs[pi]) == XValue(1)


def test_likelihood_kernel_is_valid_when_points_share_a_least_hypothesis():
    # a and b share the least hypothesis {a, b}; each keeps its own ratio.
    model = Model(("a", "b", "c"))
    space = space_from_generators(model, [["a", "b"], ["c"]])
    sample = SampleSpace(("x1", "x2"))

    def pmf(*masses):
        return Pmf(sample, tuple(Fraction(m) for m in masses))

    pa = ProbabilityAssignment(model, (pmf("1/2", "1/2"), pmf("9/10", "1/10"), pmf("1/4", "3/4")))
    report = check_validity(likelihood_kernel(space, pa, pmf("1/2", "1/2")), pa)
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
        assert check_validity(likelihood_kernel(space, pa, reference), pa).ok


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
        k = likelihood_kernel(space, pa, reference)
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
    assert Entry("p", XValue(1)).ok and not Entry("p", XValue(Fraction(3, 2))).ok
    assert Entry("p", XValue(2), bound=XValue(2)).ok and not Entry("p", INF, bound=XValue(9)).ok
    assert Report(()).ok and Report(()).worst() is None and Report(()).first_violation() is None


def test_every_report_gives_its_verdict_and_worst_entry():
    """On valid, scaled x3 and constant-two kernels: the verdict is every
    entry's, worst() is the first entry with the largest statistic, and the
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
            eposterior_closed(helpers.rand_capacity(r, space, allow_inf=False), k, pa)[1],
        ]
        for report in reports:
            assert report.ok == all(e.ok for e in report.entries)
            assert report.first_violation() == next((e for e in report.entries if not e.ok), None)
            largest = max(e.stat for e in report.entries)
            attaining = [e for e in report.entries if e.stat == largest]
            assert report.worst() is attaining[0]
            ties += len(attaining) > 1
            verdicts.add(report.ok)
        pairs = [
            (hid, pi, helpers.oracle_expectation(pa.pmfs[pi], k.variable(hid)))
            for hid in space.family.nonempty_ids()
            for pi in space.family.member(hid).indices()
        ]
        hid, pi, stat = max(pairs, key=lambda pair: pair[2])
        worst = check_fer(k, pa).worst()
        assert (worst.hid, worst.point, worst.stat) == (hid, space.model.points[pi], stat)
    assert verdicts == {True, False} and ties


def test_close_kernel_keeps_measures_and_matches_bruteforce():
    sample = SampleSpace(("x1", "x2"))
    ic = helpers.power_space(2)
    tangled = space_from_generators(Model(("P1", "P2", "P3")), [["P1", "P2"], ["P2", "P3"]])
    assert not tangled.intersection_closed
    for space, values in ((ic, ["inf", 4, 2, 1]), (tangled, ["inf", 3, 2, 5])):
        table = from_values(space, values)
        closed = close_kernel(constant_kernel(space, sample, table))
        for col in closed.columns:
            assert list(col.values) == helpers.oracle_closure(table)
        measure_kernel = constant_kernel(space, sample, closed.columns[0])
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
        k = EKernel(space, sample, cols)
        closed = close_kernel(k)
        assert closed.dominates(k)
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


def test_merged_valid_kernels_stay_valid():
    r, space, sample, pa = small_setup(17)
    for _ in range(10):
        k1 = helpers.valid_measure_kernel(r, space, pa)
        k2 = helpers.valid_measure_kernel(r, space, pa)
        merged = merge_convex_kernels([k1, k2], [Fraction(1, 4), Fraction(3, 4)])
        assert merged.eclass >= EClass.CAPACITY
        assert check_validity(merged, pa).ok


def test_confidence_set_thresholds():
    _, space, sample, pa = small_setup(19)
    k = constant_kernel(space, sample, unit_measure(space))
    # at alpha = 1 the threshold is 1, so constant-1 evidence is never below it
    assert confidence_set(k, 1, 0) == ()
    zero = constant_kernel(
        space, sample,
        from_values(space, [
            "inf" if m.is_empty else 0 for m in space.family.members
        ]),
    )
    assert confidence_set(zero, Fraction(1, 20), 0) == space.family.nonempty_ids()
    with pytest.raises(KernelError):
        confidence_set(k, 0, 0)


def test_confidence_set_on_the_stepup_column():
    from emeasure import multiplicity as mtp

    space = golden.toy_space()
    base = golden.base_efunction(space)
    gids = golden.group_ids(space)
    result = __import__("emeasure").multiplicity.ebh(base, gids, Fraction(1, 20))
    sample = SampleSpace(("x",))
    k = constant_kernel(space, sample, result.table)
    excluded = set(space.family.nonempty_ids()) - set(confidence_set(k, Fraction(1, 20), 0))
    g1_bits = space.family.member(golden.row_id(space, "G_1")).bits
    # exactly the nonempty members inside the first circle are excluded
    assert excluded == {
        hid
        for hid in space.family.nonempty_ids()
        if space.family.member(hid).bits & ~g1_bits == 0
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
            if k.value(entry.hid, xi) >= XValue(1) / XValue(alpha):
                miss += pa.pmfs[pi].mass[xi]
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
                    pa.pmfs[pi], [canonical_miss_rate(v) for v in k.variable(hid)]
                ))
                for hid in space.family.nonempty_ids()
                for pi in space.family.member(hid).indices()
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
    r, space, sample, pa = small_setup(37)
    k = helpers.valid_capacity_kernel(r, space, pa)
    prior = unit_measure(space)
    post, report = eposterior_raw(prior, k, pa)
    for a, b in zip(post.columns, k.columns):
        assert a.values == b.values
    assert report.ok


def test_eposterior_raw_names_the_point_attaining_each_bound():
    """Each entry's statistic is the largest expectation of the product over
    its hypothesis' points, and its point the first one attaining it."""
    ties = 0
    for seed in range(20):
        r, space, sample, pa = small_setup(500 + seed, full_support=seed % 2 == 0)
        k = helpers.valid_capacity_kernel(r, space, pa)
        if seed % 2:
            k = helpers.constant_two_kernel(space, sample)
        prior = helpers.rand_capacity(r, space, allow_inf=False)
        post, report = eposterior_raw(prior, k, pa)
        assert [e.hid for e in report.entries] == list(space.family.nonempty_ids())
        for entry in report.entries:
            stats = [
                (helpers.oracle_expectation(pa.pmfs[pi], post.variable(entry.hid)), pi)
                for pi in space.family.member(entry.hid).indices()
            ]
            largest = max(stat for stat, _ in stats)
            attaining = [pi for stat, pi in stats if stat == largest]
            assert (entry.point, entry.stat) == (space.model.points[attaining[0]], largest)
            assert entry.bound == prior.values[entry.hid]
            ties += len(attaining) > 1
    assert ties


def test_eposterior_raw_scaled_atom_prior():
    r, space, sample, pa = small_setup(41)
    k = helpers.valid_capacity_kernel(r, space, pa)
    # scale a minimal nonempty member by 3; antitonicity survives because
    # canonical order puts minimal members first
    atom = space.family.nonempty_ids()[0]
    values = [
        XValue(3) if hid == atom else v
        for hid, v in enumerate(unit_measure(space).values)
    ]
    prior = from_values(space, values)
    assert prior.eclass >= EClass.CAPACITY
    post, report = eposterior_raw(prior, k, pa)
    assert report.ok
    entry = next(e for e in report.entries if e.hid == atom)
    assert entry.bound == XValue(3)


def test_raw_product_of_measures_can_lose_the_measure_law():
    space = helpers.power_space(2)
    sample = SampleSpace(("x",))
    prior = from_values(space, ["inf", 4, 2, 2])
    kernel_fn = from_values(space, ["inf", 1, 3, 1])
    k = constant_kernel(space, sample, kernel_fn)
    pa = ProbabilityAssignment(
        space.model, tuple(Pmf(sample, (Fraction(1),)) for _ in space.model.points)
    )
    post, _ = eposterior_raw(prior, k, pa)
    assert post.columns[0].eclass is EClass.CAPACITY
    assert post.columns[0].values[space.family.id_of(0b11)] == XValue(2)
    assert min(post.columns[0].values[space.family.id_of(0b01)],
               post.columns[0].values[space.family.id_of(0b10)]) == XValue(4)


def test_eposterior_closed_bounds_and_domination():
    r, space, sample, pa = small_setup(43)
    for _ in range(10):
        k = helpers.valid_capacity_kernel(r, space, pa)
        prior = helpers.rand_capacity(r, space, allow_inf=False)
        raw, _ = eposterior_raw(prior, k, pa)
        closed, report = eposterior_closed(prior, k, pa)
        assert report.ok
        assert all(col.eclass is EClass.MEASURE for col in closed.columns)
        assert closed.dominates(raw)


def test_eposterior_closed_on_toy_space_with_nonuniform_prior():
    space = golden.toy_space()
    sample = SampleSpace(("x1", "x2"))
    r = helpers.rng(47)
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_measure_kernel(r, space, pa)
    prior = golden.base_efunction(space)
    closed, report = eposterior_closed(prior, k, pa)
    assert report.ok


# -- processes ---------------------------------------------------------


def depth2_binary_tree():
    sample = SampleSpace(("HH", "HT", "TH", "TT"))
    return FiltrationTree(sample, [["HH", "HT"], ["TH", "TT"]])


def test_tree_levels_and_stopping_times():
    tree = depth2_binary_tree()
    assert tree.depth == 2
    assert tree.levels[0] == ((0, 1, 2, 3),)
    assert tree.levels[1] == ((0, 1), (2, 3))
    assert tree.levels[2] == ((0,), (1,), (2,), (3,))
    rules = helpers.oracle_stopping_times(tree)
    assert len(rules) == tree.count_stopping_times() == 1 + (1 + 1) * (1 + 1)
    assert (0, 0, 0, 0) in rules and (2, 2, 2, 2) in rules and (1, 1, 2, 2) in rules


def test_uneven_tree_keeps_shallow_leaves_as_atoms():
    sample = SampleSpace(("a", "b", "c"))
    tree = FiltrationTree(sample, ["a", ["b", "c"]])
    assert tree.depth == 2
    assert tree.levels[1] == ((0,), (1, 2))
    assert tree.levels[2] == ((0,), (1,), (2,))
    rules = helpers.oracle_stopping_times(tree)
    assert set(rules) == {(0, 0, 0), (1, 1, 1), (1, 2, 2)}
    assert len(rules) == tree.count_stopping_times() == 3


def test_constant_one_process_is_anytime_valid():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(53)
    pa = helpers.rand_pa(r, space.model, tree.sample)
    one = constant_kernel(space, tree.sample, unit_measure(space))
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
                hid: helpers.inf_of(density[space.family.id_of(1 << pi)] for pi in m.indices())
                for hid, m in enumerate(space.family.members)
            }
            cols.append(helpers.classify(space, values))
        kernels.append(EKernel(space, sample, cols))
    proc = EProcess(tree, kernels)
    assert not proc.measurability_violations()
    report = check_anytime_validity(proc, pa)
    assert report.stats.ok


def test_peeking_process_fails_measurability_before_validity():
    tree = depth2_binary_tree()
    space = helpers.power_space(2)
    r = helpers.rng(59)
    pa = helpers.rand_pa(r, space.model, tree.sample)
    one = constant_kernel(space, tree.sample, unit_measure(space))
    # time-0 kernel that already distinguishes outcomes
    peek_cols = [unit_measure(space) for _ in tree.sample.outcomes]
    peek_cols[0] = from_values(space, ["inf", 2, 1, 1])
    peeking = EKernel(space, tree.sample, peek_cols)
    proc = EProcess(tree, [peeking, one, one])
    assert proc.measurability_violations()
    with pytest.raises(MeasurabilityError):
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


def test_envelope_equals_the_max_over_every_stopping_rule():
    verdicts, uneven, zero_mass = set(), 0, 0
    for proc, pa in random_processes(101, 120):
        best = helpers.oracle_anytime(proc, pa)
        for (hid, pi), stat in best.items():
            assert _envelope(proc, hid, pa.pmfs[pi].mass)[0] == stat
        report = check_anytime_validity(proc, pa)
        assert report.stats.ok == all(stat <= 1 for stat in best.values())
        assert report.rules_checked == len(helpers.oracle_stopping_times(proc.tree))
        verdicts.add(report.stats.ok)
        uneven += len(set(leaf_depths(proc.tree.shape))) > 1
        zero_mass += any(0 in pmf.mass for pmf in pa.pmfs)
    assert verdicts == {True, False} and uneven and zero_mass


def test_witness_rule_reproduces_the_first_violating_pair():
    witnesses = 0
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
        stopped = check_validity(helpers.stopped_kernel(proc, rule), pa)
        assert any(
            (e.hid, e.point, e.stat) == (entry.hid, entry.point, entry.stat)
            for e in stopped.entries
        )
        witnesses += 1
    assert witnesses


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
        kernels.append(EKernel(space, tree.sample, cols))
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
    for _ in range(10):
        kernels = []
        for t in range(3):
            fn_by_atom = {}
            cols = []
            for atom in tree.levels[t]:
                fn_by_atom[atom] = helpers.rand_capacity(r, space)
            for xi in range(tree.sample.size):
                atom = next(a for a in tree.levels[t] if xi in a)
                cols.append(fn_by_atom[atom])
            kernels.append(EKernel(space, tree.sample, cols))
        proc = EProcess(tree, kernels)
        closed = close_process(proc)
        assert closed.dominates(proc)
        assert closed.eclass is EClass.MEASURE
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
    for t in range(3):
        fn_by_atom = {atom: helpers.rand_capacity(r, space) for atom in tree.levels[t]}
        cols = []
        for xi in range(tree.sample.size):
            atom = next(a for a in tree.levels[t] if xi in a)
            cols.append(fn_by_atom[atom])
        kernels.append(EKernel(space, tree.sample, cols))
    proc = EProcess(tree, kernels)
    closed = close_process(proc)
    full = space.family.id_of(0b11)
    for t in range(3):
        for xi in range(tree.sample.size):
            singles = [
                proc.kernels[t].value(space.family.id_of(1 << pi), xi) for pi in range(2)
            ]
            assert closed.kernels[t].value(full, xi) == min(singles)


# -- predictive --------------------------------------------------------


def predictive_setup(seed, n=3):
    r = helpers.rng(seed)
    space = helpers.power_space(n)
    # rename outcomes to match the model points
    sample = SampleSpace(space.model.points)
    pmfs = [helpers.rand_pmf(r, sample) for _ in range(r.randint(1, 3))]
    return r, space, sample, pmfs


def test_predictive_identity_reduces_to_diagonal_on_power_set():
    r, space, sample, pmfs = predictive_setup(71)
    for _ in range(10):
        cols = [helpers.rand_capacity(r, space) for _ in sample.outcomes]
        k = EKernel(space, sample, cols)
        report = check_predictive_validity(k, pmfs)
        assert report.identity_holds
        for xi, (x, sup_val, least_val, ok) in enumerate(report.sup_identity):
            assert ok and least_val == k.value(space.family.id_of(1 << xi), xi)
        # the identity makes the sup variable the least-hypothesis variable
        least_var = [k.value(space.least_id(xi), xi) for xi in range(sample.size)]
        least_stats = tuple(helpers.oracle_expectation(pmf, least_var) for pmf in pmfs)
        assert tuple(e.stat for e in report.stats.entries) == least_stats
        assert report.stats.ok == all(s <= XValue(1) for s in least_stats)


def test_predictive_identity_fails_off_capacities():
    """A table that is not antitone can put more evidence on a true superset
    than on the outcome's least hypothesis; the identity then reports it."""
    r, space, sample, pmfs = predictive_setup(77)
    failures = 0
    for _ in range(20):
        raw = {hid: helpers.rand_xvalue(r) for hid in range(len(space.family))}
        raw[space.family.empty_id] = INF
        k = EKernel(space, sample, [helpers.classify(space, raw)] * sample.size)
        report = check_predictive_validity(k, pmfs)
        expected = [
            helpers.sup_of(v for m, v in zip(space.family.members, k.columns[xi].values)
                           if xi in m) == k.value(space.least_id(xi), xi)
            for xi in range(sample.size)
        ]
        assert [ok for *_, ok in report.sup_identity] == expected
        assert report.identity_holds == all(expected)
        failures += not report.identity_holds
    assert failures


def test_predictive_binary_prediction_set_coverage():
    # reject outcome 'P1' only: the prediction set is {P2, P3}
    r, space, sample, pmfs = predictive_setup(73)
    alpha = Fraction(1, 4)
    cols = []
    for xi in range(sample.size):
        values = {}
        for hid, m in enumerate(space.family.members):
            if m.is_empty:
                values[hid] = INF
            else:
                # only the claim "the outcome is P1" is rejected; the table stays antitone
                values[hid] = XValue(1) / XValue(alpha) if m.bits == 0b001 else XValue(0)
        cols.append(helpers.classify(space, values))
    k = EKernel(space, sample, cols)
    assert k.eclass >= EClass.CAPACITY
    report = check_predictive_validity(k, pmfs)
    # the sup variable is 1/alpha exactly when the true outcome is P1
    assert report.identity_holds
    for pmf, entry in zip(pmfs, report.stats.entries, strict=True):
        assert entry.stat == XValue(pmf.mass[0] / alpha)
    assert report.stats.ok == all(pmf.mass[0] <= alpha for pmf in pmfs)


def test_predictive_requires_matching_spaces():
    r = helpers.rng(79)
    space = helpers.power_space(2)
    sample = SampleSpace(("a", "b"))
    k = constant_kernel(space, sample, unit_measure(space))
    with pytest.raises(Exception):
        check_predictive_validity(k, [helpers.rand_pmf(r, sample)])


# -- pushforward -------------------------------------------------------


def test_pushforward_identity_is_the_same_kernel():
    r, space, sample, pa = small_setup(83)
    k = helpers.valid_measure_kernel(r, space, pa)
    mapping = {p: p for p in space.model.points}
    pushed, report = pushforward_kernel(k, mapping, space, pa)
    for a, b in zip(pushed.columns, k.columns):
        assert a.values == b.values
    assert report.ok == check_validity(k, pa).ok


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
            if member.bits >> target.model.index(mapping[p]) & 1:
                pre_bits |= 1 << pi
        for xi in range(sample.size):
            assert pushed.value(gid, xi) == k.value(space.family.id_of(pre_bits), xi)
    assert pushed.eclass is EClass.MEASURE


def test_pushforward_rejects_unmeasurable_maps():
    r = helpers.rng(97)
    model = Model(("P1", "P2", "P3"))
    space = __import__("emeasure").space_from_generators(model, [["P1", "P2"], ["P3"]])
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    k = constant_kernel(space, sample, unit_measure(space))
    target = helpers.power_space(2)
    mapping = {"P1": "P1", "P2": "P2", "P3": "P2"}  # preimage of {P1} is {P1}, missing
    with pytest.raises(MeasurabilityError):
        pushforward_kernel(k, mapping, target, pa)
