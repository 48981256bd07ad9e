"""Consequence tables, induced classes, bounds, admissibility, optimality."""

from fractions import Fraction

import pytest

import helpers
from helpers import from_values
from emeasure import (
    ConsequenceSpace,
    ConsequenceTable,
    EClass,
    INF,
    Model,
    Pmf,
    Preorder,
    ProbabilityAssignment,
    SampleSpace,
    SelectionRule,
    Space,
    XValue,
    admissible_decisions,
    check_econsequence_bound,
    check_fer,
    check_fwe,
    check_grunwald_bound,
    check_posthoc_consequence_bound,
    check_anytime_validity,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    e_integrated_loss,
    optimality_class,
    class_from_preorder,
    ebh,
    preorder_from_class,
    self_consistent_selection,
    shilkret_integral,
    sup_of,
    union_closure,
)
from emeasure import decisions
from emeasure.decisions import DecisionError, OrderMeasurabilityViolation
from emeasure.evidence import measure_from_density
from emeasure.spaces import preimages
from emeasure.kernels import KernelError


def rand_losses(r, model, n_decisions=2, allow_inf=False):
    """Seeded loss rows and their numeric table, decisions d1, d2, ..."""
    decisions = tuple(f"d{i + 1}" for i in range(n_decisions))
    rows = tuple(
        tuple(helpers.rand_xvalue(r, allow_inf=allow_inf) for _ in decisions)
        for _ in model.points
    )
    return rows, ConsequenceTable.numeric(model, decisions, rows)


def rand_numeric_table(r, model, n_decisions=2, allow_inf=False):
    return rand_losses(r, model, n_decisions, allow_inf)[1]


def test_identical_rows_induce_the_trivial_class():
    model = Model(("P1", "P2", "P3"))
    table = ConsequenceTable.numeric(model, ("d1",), ((XValue(2),), (XValue(2),), (XValue(2),)))
    space = helpers.build_consequence_class(table)
    assert set(space.family.members) == {0, 0b111}


def test_incomparable_rows_induce_the_power_set():
    model = Model(("P1", "P2", "P3"))
    # three rows, pairwise incomparable under coordinatewise order
    table = ConsequenceTable.numeric(
        model,
        ("d1", "d2"),
        (
            (XValue(3), XValue(0)),
            (XValue(0), XValue(3)),
            (XValue(2), XValue(2)),
        ),
    )
    space = helpers.build_consequence_class(table)
    assert len(space.family) == 8
    for pi in range(3):
        assert space.family.member(space.least_id(pi)) == 1 << pi


def test_dominated_row_strictly_widens_the_least_hypothesis():
    model = Model(("P1", "P2"))
    table = ConsequenceTable.numeric(
        model, ("d1", "d2"), ((XValue(5), XValue(4)), (XValue(1), XValue(2)))
    )
    space = helpers.build_consequence_class(table)
    worse = space.family.member(space.least_id(0))
    better = space.family.member(space.least_id(1))
    assert worse == 0b01  # only the dominating point
    assert better == 0b11  # the dominated point drags the other along


def rand_explicit_table(r, model, n_decisions=2):
    """A consequence table over 2-4 labelled consequences whose order is a
    random preorder that leaves some pair incomparable."""
    while True:
        m = r.randint(2, 4)
        pre = helpers.rand_preorder(r, m)
        if not all(pre.rows[i] >> j & 1 or pre.rows[j] >> i & 1 for i in range(m) for j in range(m)):
            break
    cspace = ConsequenceSpace(tuple(f"c{i}" for i in range(m)), pre)
    decisions = tuple(f"d{i + 1}" for i in range(n_decisions))
    rows = tuple(tuple(r.randrange(m) for _ in decisions) for _ in model.points)
    return ConsequenceTable(model, decisions, cspace, rows)


def test_a_table_refuses_a_missing_row_a_row_of_the_wrong_length_and_a_bad_cell_by_name():
    """Cells are int indices into the consequence space; `True` is refused
    although it is an int."""
    model = Model(("P1", "P2"))
    cspace = ConsequenceSpace(("lo", "hi"), Preorder.from_pairs(2, [(1, 0)]))
    cases = [
        (((0, 1),), "no consequences for point 'P2'"),
        (((0, 1), (0, 1), (0, 1)), "3 consequence rows for 2 points"),
        (((0, 1), (0,)), "row 'P2' has length 1, not 2"),
        (((0, 1), (1, 0, 1)), "row 'P2' has length 3, not 2"),
        (((0, 1), (1, 2)), "cell 2 of 'P2' under 'd2' is not an index below 2"),
        (((-1, 0), (0, 0)), "cell -1 of 'P1' under 'd1' is not an index below 2"),
        (((0, True), (0, 0)), "cell True of 'P1' under 'd2' is not an index below 2"),
        (((0, 1), ("hi", 0)), "cell 'hi' of 'P2' under 'd1' is not an index below 2"),
        (((0, 1.0), (0, 0)), "cell 1.0 of 'P1' under 'd2' is not an index below 2"),
    ]
    for entries, message in cases:
        with pytest.raises(DecisionError) as err:
            ConsequenceTable(model, ("d1", "d2"), cspace, entries)
        assert str(err.value) == message
    table = ConsequenceTable(model, ("d1", "d2"), cspace, [[0, 1], [1, 1]])
    assert table.entries == ((0, 1), (1, 1))
    with pytest.raises(DecisionError, match="the optimality class needs a numeric loss table"):
        optimality_class(table)
    with pytest.raises(DecisionError, match="the integrated loss needs a numeric loss table"):
        decisions._levels(table, 0)


def by_fraction(v):
    """A loss's place in the value order, read as a Fraction; inf last."""
    return (v.is_inf, 0 if v.is_inf else helpers.as_fraction(v))


def labelled_twin(r, model, decision_labels, losses):
    """The table of `losses` built as a labelled one: the labels are the
    losses' records, listed in a seeded order, and i is at least as bad as j
    when loss i >= loss j as Fractions."""
    values = list({v.record(): v for row in losses for v in row}.values())
    r.shuffle(values)
    order = Preorder(tuple(
        sum(1 << j for j, w in enumerate(values) if by_fraction(v) >= by_fraction(w)) for v in values
    ))
    cspace = ConsequenceSpace(tuple(v.record() for v in values), order)
    cells = tuple(tuple(cspace.index(v.record()) for v in row) for row in losses)
    return ConsequenceTable(model, decision_labels, cspace, cells)


def test_the_numeric_table_agrees_with_its_labelled_twin():
    """`ConsequenceTable.numeric` ranks the losses on order keys; the twin
    orders labels by comparing Fractions. On seeded losses with 0, inf and
    ties the two give the same bound hypothesis at each labelled
    consequence, the same upper sets or refusal, the same consequence-bound
    entries and the same admissible decisions, and the optimality class is
    the argmin over Fractions."""
    r = helpers.rng(233)
    seen = dict.fromkeys(("zero", "inf", "tie", "refused", "dominated"), 0)
    for _ in range(120):
        n = r.randint(1, 5)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        losses, table = rand_losses(r, model, n_decisions=r.randint(1, 3), allow_inf=True)
        twin = labelled_twin(r, model, table.decisions, losses)

        def labelled_bounds(t):
            return [{t.cspace.elements[c]: bits for c, bits in enumerate(b)} for b in t.bounds]

        assert labelled_bounds(table) == labelled_bounds(twin)
        induced = helpers.build_consequence_class(twin)
        ups = {induced.family.member(induced.least_id(pi)) for pi in range(n)}
        gens = [bits for bits in sorted(ups) if r.random() < 0.8]
        space = Space(model, union_closure(n, gens + [r.randrange(1, 1 << n)]))
        try:
            expected = decisions._require_order_measurable(space, twin)
        except OrderMeasurabilityViolation as err:
            seen["refused"] += 1
            with pytest.raises(OrderMeasurabilityViolation) as again:
                decisions._require_order_measurable(space, table)
            assert str(again.value) == str(err)
        else:
            assert decisions._require_order_measurable(space, table) == expected
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample, full_support=False)
        k = helpers.kernel_of(induced, sample, [helpers.rand_capacity(r, induced) for _ in sample.outcomes])

        def entries(t):
            return [(e.case, e.point, e.stat, e.ok) for e in check_econsequence_bound(k, pa, t).entries]

        assert entries(table) == entries(twin)
        adm, twin_adm = admissible_decisions(k.columns[0], table), admissible_decisions(k.columns[0], twin)
        assert (adm.order, adm.admissible) == (twin_adm.order, twin_adm.admissible)
        seen["dominated"] += len(adm.admissible) < len(table.decisions)

        sets, unique = dict.fromkeys(table.decisions, 0), {}
        for pi, row in enumerate(losses):
            best = min(map(by_fraction, row))
            winners = [d for d, v in zip(table.decisions, row) if by_fraction(v) == best]
            for d in winners:
                sets[d] |= 1 << pi
            unique[model.points[pi]] = winners[0] if len(winners) == 1 else None
        result = optimality_class(table)
        tie_free = None not in unique.values()
        assert (result.decision_sets, result.optimal) == (sets, unique if tie_free else None)
        seen["tie"] += not tie_free
        seen["zero"] += any(v.is_zero for row in losses for v in row)
        seen["inf"] += any(v.is_inf for row in losses for v in row)
    assert min(seen.values()) >= 10, seen


def test_induced_class_equals_preimage_of_row_upper_sets():
    """Every bound hypothesis, at every consequence and not only those a
    decision takes, is a member of the induced class, on numeric losses and
    on explicit tables with a non-total order. So admissibility never meets
    a missing member once the bound checks have required the class."""
    r = helpers.rng(163)
    for case in range(30):
        n = r.randint(1, 4)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        if case % 2:
            table = rand_explicit_table(r, model, n_decisions=r.randint(1, 3))
        else:
            table = rand_numeric_table(r, model)
        space = helpers.build_consequence_class(table)
        # every bound hypothesis is an upper set of the dominance preorder
        for d in range(len(table.decisions)):
            for c in range(len(table.cspace.elements)):
                assert helpers.hypothesis_for_bound(table, d, c) in space.family
        admissible_decisions(helpers.unit_measure(space), table)
        # build the row space: one point per distinct row, uniform-dominance order
        rows = sorted({table.entries[pi] for pi in range(n)})
        row_model = Model(tuple(f"r{i}" for i in range(len(rows))))
        idx = {row: i for i, row in enumerate(rows)}
        pairs = [
            (i, j)
            for i, a in enumerate(rows)
            for j, b in enumerate(rows)
            if all(
                helpers.at_least(table.cspace, b[d], a[d]) for d in range(len(table.decisions))
            )
        ]
        row_space = class_from_preorder(
            row_model, Preorder.from_pairs(len(rows), pairs).transitive_closure()
        )
        mapping = {
            model.points[pi]: f"r{idx[table.entries[pi]]}" for pi in range(n)
        }
        bitsets = preimages(model, mapping, row_space)
        assert sorted(set(bitsets)) == sorted(space.family.members)


def rand_decision_table(r, case, max_points=6):
    """Alternately a numeric loss and an explicit table whose consequence
    order is a non-total preorder, on one to `max_points` points."""
    n = r.randint(1, max_points)
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    if case % 2:
        return rand_explicit_table(r, model, n_decisions=r.randint(1, 3))
    return rand_numeric_table(r, model, n_decisions=r.randint(1, 3))


def test_bound_table_and_upper_sets_match_the_per_pair_oracles():
    """`ConsequenceTable.bounds` is `helpers.hypothesis_for_bound` at every
    (decision, consequence), and the upper sets the bound check reads off it
    are the least members of the whole induced class
    (`helpers.build_consequence_class`)."""
    r = helpers.rng(223)
    for case in range(60):
        table = rand_decision_table(r, case)
        assert [len(bounds) for bounds in table.bounds] == [
            len(table.cspace.elements) for _ in table.decisions
        ]
        for d, bounds in enumerate(table.bounds):
            for c, bits in enumerate(bounds):
                assert bits == helpers.hypothesis_for_bound(table, d, c)
        induced = helpers.build_consequence_class(table)
        assert decisions._require_order_measurable(induced, table) == [
            induced.family.member(induced.least_id(pi)) for pi in range(table.model.size)
        ]


def full_class_walk(space, table):
    """The label of the first member of the whole induced class, in
    canonical order, that the space misses; None when it holds them all."""
    for member in helpers.build_consequence_class(table).family.members:
        if member not in space.family:
            return table.model.label(member)
    return None


def test_generator_check_matches_the_full_class_walk():
    """On seeded union-closed spaces that hold some of the induced upper
    sets and some other sets, checking the upper sets alone accepts and
    refuses as the walk over the whole induced class does, and a refusal
    names the same member."""
    r = helpers.rng(227)
    accepted = refused = 0
    for case in range(80):
        table = rand_decision_table(r, case)
        n = table.model.size
        induced = helpers.build_consequence_class(table)
        ups = {induced.family.member(induced.least_id(pi)) for pi in range(n)}
        gens = [bits for bits in sorted(ups) if r.random() < 0.8]
        gens += [r.randrange(1, 1 << n) for _ in range(r.randint(0, 2))]
        space = Space(table.model, union_closure(n, gens))
        missing = full_class_walk(space, table)
        if missing is None:
            decisions._require_order_measurable(space, table)
            accepted += 1
        else:
            with pytest.raises(OrderMeasurabilityViolation) as err:
                decisions._require_order_measurable(space, table)
            assert str(err.value) == f"kernel space misses the bound hypothesis {missing}"
            refused += 1
    assert accepted >= 10 and refused >= 10, (accepted, refused)


def test_hypothesis_for_bound_extremes_and_scan():
    model = Model(("P1", "P2", "P3"))
    table = ConsequenceTable.numeric(
        model,
        ("d1",),
        ((XValue(0),), (XValue(2),), (XValue(5),)),
    )
    assert table.cspace.elements == ("0", "2", "5")
    assert table.bounds == ([0b111, 0b110, 0b100],)
    assert helpers.hypothesis_for_bound(table, "d1", "0") == 0b111
    assert helpers.hypothesis_for_bound(table, "d1", "5") == 0b100
    with pytest.raises(DecisionError):
        helpers.hypothesis_for_bound(table, "d1", "7")
    for c in ("0", "2", "5"):
        bits = helpers.hypothesis_for_bound(table, "d1", c)
        scan = 0
        for pi in range(3):
            if helpers.at_least(table.cspace, table.entries[pi][0], table.cspace.index(c)):
                scan |= 1 << pi
        assert bits == scan == table.bounds[0][table.cspace.index(c)]


def test_integrated_loss_worked_examples():
    space = helpers.power_space(2)
    model = space.model
    losses = ((XValue(8),), (XValue(2),))
    table = ConsequenceTable.numeric(model, ("d",), losses)
    e = from_values(space, ["inf", 4, 2, 2])
    assert e_integrated_loss(table, e, "d") == XValue(2)
    zero = ConsequenceTable.numeric(model, ("d",), ((XValue(0),), (XValue(0),)))
    assert e_integrated_loss(zero, e, "d") == XValue(0)
    for pi, p in enumerate(model.points):
        d_meas = helpers.dirac_measure(space, p)
        assert e_integrated_loss(table, d_meas, "d") == losses[pi][0]


def test_integrated_loss_forms_agree_on_random_instances():
    """The Shilkret integral equals its least-hypothesis form and the sup of
    loss / e(bound hypothesis) over the levels the loss takes."""
    r = helpers.rng(167)
    for _ in range(20):
        n = r.randint(1, 4)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        table = rand_numeric_table(r, model, n_decisions=r.randint(1, 3))
        space = helpers.build_consequence_class(table)
        e = helpers.rand_measure(r, space)
        for d in table.decisions:
            column = helpers.loss_column(table, d)
            by_least = helpers.integral_least_true(helpers.OrderMeasurableFn(space, column), e)
            bound_bits = [
                sum(1 << qi for qi in range(n) if column[qi] >= column[pi]) for pi in range(n)
            ]
            by_bounds = helpers.sup_of(column[pi] / e.value_of(bound_bits[pi]) for pi in range(n))
            assert e_integrated_loss(table, e, d) == by_least == by_bounds


def test_integral_off_the_bound_table_matches_the_function_form():
    """Each decision's integral at the levels read off the bound table
    equals the integral at the levels `helpers.OrderMeasurableFn` builds
    from its loss column, point by point, on seeded numeric losses with 0
    and inf, whose consequence order is their values sorted as Fractions,
    inf last. The spaces are union-closed, hold most induced upper sets and
    some other sets, and are kept where the bound check passes; there the
    oracle's own measurability check passes too. The evidence is a
    measure, a capacity or an arbitrary table."""
    r = helpers.rng(229)
    kinds = ("measure", "capacity", "table")
    seen = dict.fromkeys(kinds + ("zero loss", "inf loss", "refused"), 0)
    for case in range(300):
        n = r.randint(1, 5)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        losses, table = rand_losses(r, model, n_decisions=r.randint(1, 3), allow_inf=True)
        by_fraction = sorted(
            {v for row in losses for v in row},
            key=lambda v: (v.is_inf, 0 if v.is_inf else helpers.as_fraction(v)),
        )
        assert table.cspace.values == tuple(by_fraction)
        assert table.cspace.elements == tuple(v.record() for v in by_fraction)
        induced = helpers.build_consequence_class(table)
        ups = {induced.family.member(induced.least_id(pi)) for pi in range(n)}
        gens = [bits for bits in sorted(ups) if r.random() < 0.9]
        gens += [r.randrange(1, 1 << n) for _ in range(r.randint(0, 2))]
        space = Space(model, union_closure(n, gens))
        try:
            decisions._require_order_measurable(space, table)
        except OrderMeasurabilityViolation:
            seen["refused"] += 1
            continue
        kind = kinds[case % 3]
        if kind == "measure":
            e = measure_from_density(space, [helpers.rand_xvalue(r) for _ in range(n)])
        elif kind == "capacity":
            e = helpers.rand_capacity(r, space)
        else:
            e = from_values(space, [INF] + [helpers.rand_xvalue(r) for _ in space.family.members[1:]])
        for d in range(len(table.decisions)):
            levels = helpers.OrderMeasurableFn(space, [row[d] for row in losses]).levels()
            assert shilkret_integral(e, decisions._levels(table, d)) == shilkret_integral(e, levels)
        seen[kind] += 1
        seen["zero loss"] += any(v.is_zero for row in losses for v in row)
        seen["inf loss"] += any(v.is_inf for row in losses for v in row)
    assert min(seen.values()) >= 20, seen


def one_decision_setup(seed):
    r = helpers.rng(seed)
    n = r.randint(2, 3)
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    table = rand_numeric_table(r, model, n_decisions=1)
    space = helpers.build_consequence_class(table)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    k = helpers.valid_capacity_kernel(r, space, pa)
    return r, model, table, space, sample, pa, k


def test_single_decision_bound_reduces_to_plain_validity():
    from emeasure import check_validity

    _, model, table, space, sample, pa, k = one_decision_setup(173)
    report = check_econsequence_bound(k, pa, table)
    assert report.ok
    validity = check_validity(k, pa)
    # every bound statistic appears among the validity statistics
    stats = {(e.hid, e.point): e.stat for e in validity.entries}
    for entry in report.entries:
        qi = model.index(entry.case)
        hid = k.space.family.id_of(helpers.hypothesis_for_bound(table, 0, table.entries[qi][0]))
        assert entry.stat == stats[(hid, entry.point)]


def test_econsequence_bound_on_random_valid_instances():
    r = helpers.rng(179)
    for _ in range(15):
        n = r.randint(1, 3)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        table = rand_numeric_table(r, model, n_decisions=3)
        space = helpers.build_consequence_class(table)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        assert check_econsequence_bound(k, pa, table).ok


def test_order_measurability_violation_names_the_missing_hypothesis():
    model = Model(("P1", "P2"))
    table = ConsequenceTable.numeric(model, ("d1",), ((XValue(3),), (XValue(1),)))
    trivial = helpers.space_from_generators(model, [["P1", "P2"]])
    sample = SampleSpace(("x",))
    pa = ProbabilityAssignment(model, (Pmf(sample, (Fraction(1),)),) * 2)
    k = helpers.constant_kernel(trivial, sample, helpers.unit_measure(trivial))
    with pytest.raises(OrderMeasurabilityViolation) as err:
        check_econsequence_bound(k, pa, table)
    assert "P1" in str(err.value)


def test_binary_kernel_bound_is_exact_coverage():
    r, model, table, space, sample, pa, _ = one_decision_setup(181)
    alpha = Fraction(1, 4)
    # binary kernel: reject the bound hypothesis of the worst row on one outcome
    worst_qi = max(range(model.size), key=lambda pi: helpers.loss_column(table, 0)[pi])
    target = space.family.id_of(
        helpers.hypothesis_for_bound(table, 0, table.entries[worst_qi][0])
    )
    cols = []
    for xi in range(sample.size):
        values = {}
        for hid, m in enumerate(space.family.members):
            if not m:
                values[hid] = INF
            elif xi == 0 and space.family.member(target) & ~m == 0:
                # rejected set must stay an upper set for antitonicity
                values[hid] = XValue(0)
            elif xi == 0 and m & ~space.family.member(target) == 0:
                values[hid] = XValue(1) / XValue(alpha)
            else:
                values[hid] = XValue(0)
        try:
            cols.append(helpers.classify(space, values))
        except Exception:
            return  # degenerate family; coverage identity tested elsewhere
    k = helpers.kernel_of(space, sample, cols)
    if k.eclass < EClass.CAPACITY:
        return
    report = check_econsequence_bound(k, pa, table)
    for entry in report.entries:
        qi = model.index(entry.case)
        pi = model.index(entry.point)
        miss = Fraction(0)
        for xi in range(sample.size):
            hid = space.family.id_of(
                helpers.hypothesis_for_bound(table, 0, table.entries[qi][0])
            )
            if helpers.kernel_value(k, hid, xi) >= XValue(1) / XValue(alpha):
                miss += helpers.pmf_mass(pa.pmfs[pi])[xi]
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
                if helpers.at_least(table.cspace, table.entries[pj][d], table.entries[qi][d])
            ))
            for d in range(len(table.decisions))
        ]
        var = [
            integrand([helpers.kernel_value(k, h, xi) for h in bound_ids], xi)
            for xi in range(k.sample.size)
        ]
        for pi in range(n):
            if helpers.row_dominates(table, pi, qi):
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
    table = rand_numeric_table(r, model, n_decisions=n_decisions)
    space = helpers.build_consequence_class(table)
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
        k = helpers.kernel_of(space, sample, [helpers.rand_capacity(r, space) for _ in sample.outcomes])
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
        k = helpers.kernel_of(space, sample, [helpers.rand_capacity(r, space) for _ in points])
        expect = helpers.oracle_expectation
        pairs = [(hid, pi) for hid in space.family.nonempty_ids() for pi in space.family.indices(hid)]
        zero_against_inf += any(
            m == 0 and v.is_inf
            for hid, pi in pairs for m, v in zip(helpers.pmf_mass(pa.pmfs[pi]), k.rows[hid])
        )

        def stats(report):
            return [(e.point, e.hid, e.stat) for e in report.entries]

        assert stats(check_validity(k, pa)) == [
            (points[pi], hid, expect(pa.pmfs[pi], k.rows[hid])) for hid, pi in pairs
        ]
        levels = [XValue(r.choice(LEVELS)) for _ in points]
        cuts = [XValue(1) / level for level in levels]
        miss = {hid: [c if v >= c else XValue(0) for v, c in zip(k.rows[hid], cuts)]
                for hid, _ in pairs}
        assert stats(check_posthoc_validity(k, pa, dict(zip(points, levels)))) == [
            (points[pi], hid, expect(pa.pmfs[pi], miss[hid])) for hid, pi in pairs
        ]
        true_ids = [[hid for hid, m in enumerate(members) if m >> pi & 1] for pi in range(len(points))]
        sup_true = [[sup_of(col.values[h] for h in ids) for col in k.columns] for ids in true_ids]
        assert stats(check_fwe(k, pa)) == [
            (p, None, expect(pa.pmfs[pi], sup_true[pi])) for pi, p in enumerate(points)
        ]
        selected = [hid for hid, _ in pairs if r.random() < 0.5]
        rule = SelectionRule.fixed(sample, selected)
        fep = [
            [sum((col.values[h] for h in selected if members[h] >> pi & 1), XValue(0))
             / XValue(max(len(selected), 1)) for col in k.columns]
            for pi in range(len(points))
        ]
        assert stats(check_fer(k, pa, rule)) == [
            (p, None, expect(pa.pmfs[pi], fep[pi])) for pi, p in enumerate(points)
        ]
        sup_at_outcome = [sup_true[xi][xi] for xi in range(len(points))]
        assert stats(check_predictive_validity(k, pa).stats) == [
            (p, None, expect(pmf, sup_at_outcome)) for p, pmf in zip(points, pa.pmfs)
        ]

        table, cspace, csample = consequence_instance(r)
        cpa = helpers.rand_pa(r, table.model, csample, full_support=False)
        ck = helpers.kernel_of(cspace, csample, [helpers.rand_capacity(r, cspace) for _ in csample.outcomes])
        report = check_econsequence_bound(ck, cpa, table)
        assert [(e.case, e.point, e.stat) for e in report.entries] == consequence_entries(
            ck, cpa, table, lambda values, xi: sup_of(values)
        )
        clevels = [XValue(r.choice(LEVELS)) for _ in csample.outcomes]
        report = check_posthoc_consequence_bound(ck, cpa, table, dict(zip(csample.outcomes, clevels)))
        assert [(e.case, e.point, e.stat) for e in report.entries] == consequence_entries(
            ck, cpa, table, lambda values, xi: miss_rate(values, clevels[xi])
        )
        losses, ltable = rand_losses(r, table.model)
        lspace = helpers.build_consequence_class(ltable)
        lk = helpers.kernel_of(lspace, csample, [helpers.rand_capacity(r, lspace) for _ in csample.outcomes])
        loss_levels = [
            helpers.OrderMeasurableFn(lspace, [row[d] for row in losses]).levels()
            for d in range(len(ltable.decisions))
        ]
        integrated = [[shilkret_integral(col, lv) for col in lk.columns] for lv in loss_levels]
        ratios = [
            [sup_of(losses[pi][d] / integrated[d][xi] for d in range(len(ltable.decisions)))
             for xi in range(csample.size)]
            for pi in range(table.model.size)
        ]
        assert [(e.point, e.stat) for e in check_grunwald_bound(lk, cpa, ltable).entries] == [
            (p, expect(cpa.pmfs[pi], ratios[pi])) for pi, p in enumerate(table.model.points)
        ]
    assert zero_against_inf >= 5


def test_posthoc_consequence_bound_catches_invalid_kernels():
    r = helpers.rng(193)
    model = Model(("P1", "P2"))
    table = rand_numeric_table(r, model, n_decisions=2)
    space = helpers.build_consequence_class(table)
    sample = helpers.rand_sample(r)
    pa = helpers.rand_pa(r, model, sample)
    bad = helpers.constant_two_kernel(space, sample)
    rule = {x: XValue(Fraction(1, 2)) for x in sample.outcomes}
    assert not check_posthoc_consequence_bound(bad, pa, table, rule).ok
    with pytest.raises(KernelError, match="outside"):
        check_posthoc_consequence_bound(bad, pa, table, {x: XValue(0) for x in sample.outcomes})


def assert_markov_ratios(k, table):
    """loss / integrated loss <= e(bound hypothesis | x) at every (point,
    outcome, decision): the integral is a sup over levels of c / e({f >= c})."""
    space = k.space
    for d in range(len(table.decisions)):
        column = helpers.loss_column(table, d)
        levels = helpers.OrderMeasurableFn(space, column).levels()
        for xi in range(k.sample.size):
            integrated = shilkret_integral(k.columns[xi], levels)
            for pi in range(space.model.size):
                bound = helpers.hypothesis_for_bound(table, d, table.entries[pi][d])
                ratio = column[pi] / integrated
                assert ratio <= helpers.kernel_value(k, space.family.id_of(bound), xi)


def test_grunwald_bound_constant_losses():
    r, model, table, space, sample, pa, k = one_decision_setup(197)
    const = ConsequenceTable.numeric(
        model, ("d1",), tuple((XValue(3),) for _ in model.points)
    )
    cspace = helpers.build_consequence_class(const)
    kk = helpers.valid_capacity_kernel(r, model and cspace, pa)
    assert_markov_ratios(kk, const)
    assert check_grunwald_bound(kk, pa, const).ok


def test_grunwald_bound_random_and_slack():
    r = helpers.rng(199)
    for _ in range(15):
        n = r.randint(1, 3)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        table = rand_numeric_table(r, model, n_decisions=2)
        space = helpers.build_consequence_class(table)
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample)
        k = helpers.valid_capacity_kernel(r, space, pa)
        assert_markov_ratios(k, table)
        assert check_grunwald_bound(k, pa, table).ok


def test_admissibility_identical_and_dominated_columns():
    model = Model(("P1", "P2"))
    table = ConsequenceTable.numeric(
        model, ("d1", "d2"), ((XValue(1), XValue(1)), (XValue(4), XValue(4)))
    )
    space = helpers.build_consequence_class(table)
    e = helpers.unit_measure(space)
    result = admissible_decisions(e, table)
    assert result.admissible == ("d1", "d2")
    none = ConsequenceTable.numeric(model, (), ((), ()))
    assert admissible_decisions(e, none).admissible == ()

    table = ConsequenceTable.numeric(
        model, ("good", "bad"), ((XValue(1), XValue(4)), (XValue(2), XValue(5)))
    )
    space = helpers.build_consequence_class(table)
    # 'bad' has pointwise higher losses, so each of its bound hypotheses
    # contains the matching one of 'good' and carries at most its evidence;
    # the evidence preorder therefore puts good above bad
    e = from_values(
        space,
        [XValue(4 - m.bit_count()) if m else INF for m in space.family.members],
    )
    result = admissible_decisions(e, table)
    geq = result.order
    assert geq[0][1]
    assert not geq[1][0]
    assert result.admissible == ("good",)


def test_admissibility_incomparable_pair_keeps_both():
    model = Model(("P1", "P2"))
    table = ConsequenceTable.numeric(
        model, ("d1", "d2"), ((XValue(0), XValue(5)), (XValue(5), XValue(0)))
    )
    space = helpers.build_consequence_class(table)
    e = from_values(
        space,
        {
            hid: XValue(Fraction(1, 1 + m.bit_count())) if m else INF
            for hid, m in enumerate(space.family.members)
        }.values(),
    )
    result = admissible_decisions(e, table)
    assert result.admissible == ("d1", "d2")


def test_admissibility_requires_measurable_bounds():
    model = Model(("P1", "P2"))
    table = ConsequenceTable.numeric(model, ("d1",), ((XValue(3),), (XValue(1),)))
    trivial = helpers.space_from_generators(model, [["P1", "P2"]])
    with pytest.raises(OrderMeasurabilityViolation) as err:
        admissible_decisions(helpers.unit_measure(trivial), table)
    assert "d1" in str(err.value)


def test_optimality_dominant_decision_owns_the_model():
    model = Model(("P1", "P2", "P3"))
    table = ConsequenceTable.numeric(
        model,
        ("win", "lose"),
        tuple((XValue(0), XValue(1)) for _ in model.points),
    )
    result = optimality_class(table)
    assert result.decision_sets["win"] == 0b111
    assert result.decision_sets["lose"] == 0
    assert result.optimal == {p: "win" for p in model.points}


def test_optimality_ties_join_every_group():
    model = Model(("P1",))
    table = ConsequenceTable.numeric(model, ("d1", "d2"), ((XValue(1), XValue(1)),))
    result = optimality_class(table)
    assert result.decision_sets["d1"] == 0b1
    assert result.decision_sets["d2"] == 0b1
    assert result.optimal is None
    space, sample = helpers.power_space(1), SampleSpace(("x",))
    with pytest.raises(DecisionError):
        helpers.evidence_against_optimality(
            helpers.constant_kernel(space, sample, helpers.unit_measure(space)),
            table,
            helpers.rand_pa(helpers.rng(1), space.model, sample),
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

    table = ConsequenceTable.numeric(
        model,
        model.points,
        tuple(
            tuple(divergence(p, q) for q in model.points) for p in model.points
        ),
    )
    space = helpers.power_space(3)
    reference = Pmf(sample, (Fraction(1, 4),) * 4)
    kernel = helpers.likelihood_kernel(space, pa, reference)
    return model, sample, pa, table, space, kernel, masses, reference


def test_mle_instance_groups_are_singletons_and_argmax_matches():
    model, sample, pa, table, space, kernel, masses, reference = mle_instance()
    result = optimality_class(table)
    for pi, p in enumerate(model.points):
        assert result.decision_sets[p] == 1 << pi
    for xi, x in enumerate(sample.outcomes):
        best_by_evidence = min(
            model.points, key=lambda p: helpers.kernel_value(kernel, space.least_id(p), xi)
        )
        best_by_likelihood = max(model.points, key=lambda p: masses[p][xi])
        assert best_by_evidence == best_by_likelihood


def test_mle_energy_bound_and_pushforward():
    model, sample, pa, table, space, kernel, masses, reference = mle_instance()
    # E-consequence bound on the divergence to the data-picked decision
    report = check_econsequence_bound(kernel, pa, table)
    assert report.ok
    for pi, p in enumerate(model.points):
        stat = XValue(0)
        for xi in range(sample.size):
            picked = max(model.points, key=lambda q: masses[q][xi])
            d = table.decisions.index(picked)
            hid = space.family.id_of(
                helpers.hypothesis_for_bound(table, d, table.entries[pi][d])
            )
            mass = XValue(helpers.pmf_mass(pa.pmfs[pi])[xi])
            stat = stat + mass * helpers.kernel_value(kernel, hid, xi)
        assert stat <= XValue(1)
    pushed, report = helpers.evidence_against_optimality(kernel, table, pa)
    assert report.ok
    for xi in range(sample.size):
        for pi, p in enumerate(model.points):
            target_hid = pushed.space.family.id_of(1 << pi)
            assert helpers.kernel_value(pushed, target_hid, xi) == helpers.kernel_value(
                kernel, space.family.id_of(1 << pi), xi
            )


def _every_result(seed):
    """Each result record of the package, computed on inputs built anew
    from `seed`: the space report, the anytime and predictive reports, the
    self-consistent and eBH selections, admissibility and the optimality
    class."""
    r = helpers.rng(seed)
    space = helpers.power_space(r.randint(2, 3))
    tree = helpers.rand_tree(r)
    proc = helpers.rand_process(r, space, tree)
    sample = SampleSpace(space.model.points)
    e = helpers.rand_measure(r, space)
    ids, alpha = space.family.nonempty_ids(), Fraction(1, 2)
    table = rand_numeric_table(r, space.model)
    return (
        space.analyze(),
        check_anytime_validity(proc, helpers.rand_pa(r, space.model, tree.sample)),
        check_predictive_validity(
            helpers.least_point_kernel(r, space, sample), helpers.rand_pa(r, space.model, sample)
        ),
        self_consistent_selection(e, ids, alpha),
        ebh(e, ids, alpha),
        admissible_decisions(e, table),
        optimality_class(table),
    )


def test_every_result_compares_by_value():
    """Two computations on equal inputs give equal results, each a record
    compared field by field."""
    for seed in range(5):
        first, second = _every_result(seed), _every_result(seed)
        for a, b in zip(first, second):
            assert a is not b and a == b, type(a).__name__


def test_a_consequence_space_refuses_an_order_of_another_size():
    for size in (1, 3):
        with pytest.raises(DecisionError, match="^order matrix size must match the elements$"):
            ConsequenceSpace(("good", "bad"), Preorder.from_pairs(size, []))


def test_integrated_loss_refuses_a_table_that_is_no_measure():
    """A capacity and a function that is no capacity are both refused."""
    space = helpers.power_space(2)
    table = ConsequenceTable.numeric(space.model, ("d",), ((XValue(8),), (XValue(2),)))
    for values in (["inf", 4, 2, 1], ["inf", 1, 2, 4]):
        e = from_values(space, values)
        assert e.eclass is not EClass.MEASURE
        with pytest.raises(DecisionError, match="^integrated loss needs a measure$"):
            e_integrated_loss(table, e, "d")
