"""L2 and L3 on every small world: each union-closed family on one to four
points, with evidence tables over the alphabet {0, 1/2, 1, inf}.

A family with at most four nonempty members gets every table, a larger one
a fixed seeded sample, and each family gets seeded kernels of two outcomes
made of those tables. The one class walk is checked against the pairwise
definitions (`helpers.oracle_eclass`, its minimum over the columns for a
kernel), the claims against `helpers.oracle_claims`, `close` and
`close_kernel` against the cover search `helpers.oracle_closure` where its
2^F covers are few, and `measure_from_density` against
`helpers.oracle_measure_from_density`.

L3: the first kernel of each family goes through the pair checks under
seeded distributions of masses {0, 1/2, 1}: validity, post-hoc validity at
level 1/2, FWE, and FER with a seeded rule and uniform where the kernel is
a capacity on an intersection-closed space. Each walk's verdict, largest
statistic, worst entry, first violation and entries match the eager
per-pair construction (`helpers.eager_pair_report`) on the same arguments,
and each statistic its definition (`helpers.oracle_expectation` of the
row, the miss rate, the claim, or the FEP of `helpers.fep_fsp`). On every
intersection-closed family, a seeded kernel whose outcomes are the points
goes through the predictive check: each identity entry holds the sup over
true hypotheses (`helpers.sup_over_true`) against the least hypothesis's
value, and each statistic is the expectation of that sup. On every family
on one to three points, ANYTIME_TREES seeded trees of depth at most 2 each
carry three processes through the anytime check: a random one, a
likelihood-ratio martingale, and one whose nonempty members each take the
step rows of one of two members, so that hypotheses share the walk's
slots. Each pair's statistic is the largest expected stopped evidence over
every stopping rule (`helpers.oracle_anytime`), and a violated process's
rule is the one that attains it at its first violating pair
(`helpers.oracle_stop_rule`). On the same families, `eposterior` of a
seeded capacity prior and of the unit prior, against a valid kernel and
that kernel tripled, is the closed product held against the prior at each
point's least hypothesis on an intersection-closed family, and the raw
product, its finite-prior pairs held against 1, on any other.

L5: every numeric table of two decisions with losses in {0, 1, 2} on one
to three points, and on four FOUR_POINT_TABLES per family, drawn from
FOUR_POINT_POOL seeded ones.
The bound hypotheses match `helpers.hypothesis_for_bound`, the optimality
class the per-point argmin, the order-measurability check refuses exactly
when some point's upper set under `helpers.row_dominates` is no member,
and admissibility under a seeded measure is the dominance order of the
evidence against the bounds, or refused exactly when a bound is no member.
"""

import functools
import itertools
from fractions import Fraction

import helpers
from helpers import from_values
from emeasure import (
    ConsequenceTable, EClass, EKernel, EProcess, INF, Model, ONE, Pmf, ProbabilityAssignment,
    SampleSpace, Space, XValue, ZERO, admissible_decisions, check_anytime_validity,
    check_predictive_validity, close, close_kernel, optimality_class,
)
from emeasure import decisions as dec
from emeasure import kernels as kn
from emeasure import multiplicity as mtp
from emeasure.evidence import measure_from_density
from emeasure.spaces import HypothesisClass

ALPHABET = (ZERO, XValue(Fraction(1, 2)), ONE, INF)
SAMPLED = 16  # seeded tables of a family with more than four nonempty members
KERNELS = 4  # seeded two-outcome kernels per family
DENSITIES = 4  # seeded densities per family
COVERED = 6  # the largest family whose closures the cover search checks
PAIR_CHECKED = 1  # kernels per family that go through the pair checks
HALF = XValue(Fraction(1, 2))
LEVEL = HALF  # the post-hoc check's fixed level
MASSES = ((HALF, HALF), (ONE, ZERO), (ZERO, ONE))  # each point's distribution is one of these
LOSSES = (ZERO, ONE, XValue(2))
DECISIONS = ("d1", "d2")
FOUR_POINT_POOL = 256  # seeded loss tables on four points
FOUR_POINT_TABLES = 4  # of them, seeded, per family on four points
MEASURES = 4  # seeded measures per family, taken by the tables in turn
ANYTIME_TREES = 2  # seeded trees per family on one to three points


def _worlds():
    """Every union-closed family on one to four points, as a space."""
    for n in range(1, 5):
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        for members in helpers.oracle_union_closed_families(n):
            yield Space(model, HypothesisClass(n, members))


def _tables(r, space):
    """Each table of the family over the alphabet, or SAMPLED seeded ones;
    inf on the empty member."""
    nonempty = len(space.family) - 1
    if nonempty <= 4:
        rows = itertools.product(ALPHABET, repeat=nonempty)
    else:
        rows = ([r.choice(ALPHABET) for _ in range(nonempty)] for _ in range(SAMPLED))
    return [(INF, *row) for row in rows]


def _recording_walks(monkeypatch):
    """Each pair walk's report with the arguments it was given, in call order."""
    walks = []
    walk = kn._pair_report

    def recorded(*args, **kwargs):
        walks.append((walk(*args, **kwargs), args, kwargs))
        return walks[-1][0]

    monkeypatch.setattr(kn, "_pair_report", recorded)
    monkeypatch.setattr(mtp, "_pair_report", recorded)
    return walks


def _check_pair_walks(r, walks, seen, k):
    """Run the pair checks on k under seeded distributions; check each walk
    against the eager construction and each statistic against its
    definition. Adds to `seen` each verdict, and "tie" where the largest
    statistic is attained by more than one pair."""
    space, sample, n = k.space, k.sample, k.space.model.size
    pa = ProbabilityAssignment(space.model, tuple(Pmf(sample, r.choice(MASSES)) for _ in range(n)))
    rows, claims, threshold = k.rows, helpers.oracle_claims(k), ONE / LEVEL
    # The definition's expectation, once per (point, values).
    expect = functools.cache(lambda pi, values: helpers.oracle_expectation(pa.pmfs[pi], values))
    pairs = [(hid, pi) for hid in space.family.nonempty_ids()
             for pi in helpers.points_of(space.family.member(hid))]
    validity = [(hid, pi, expect(pi, rows[hid])) for hid, pi in pairs]
    want = {
        "validity": validity,
        "posthoc": [
            (hid, pi, expect(pi, tuple(threshold if v >= threshold else ZERO for v in rows[hid])))
            for hid, pi in pairs
        ],
        "fwe": [(None, pi, expect(pi, tuple(c[pi] for c in claims))) for pi in range(n)],
    }
    del walks[:]
    reports = {
        "validity": kn.check_validity(k, pa),
        "posthoc": kn.check_posthoc_validity(k, pa, {x: LEVEL for x in sample.outcomes}),
        "fwe": mtp.check_fwe(k, pa),
    }
    if k.eclass >= EClass.CAPACITY and space.intersection_closed:
        nonempty = space.family.nonempty_ids()
        rule = mtp.SelectionRule(sample, tuple(
            tuple(r.sample(nonempty, r.randint(1, min(2, len(nonempty))))) for _ in sample.outcomes
        ))
        want["fer"] = [
            (None, pi, expect(pi, tuple(helpers.fep_fsp(k, pi, rule, x).fep for x in range(2))))
            for pi in range(n)
        ]
        want["uniform"] = validity
        reports["fer"] = mtp.check_fer(k, pa, rule)
        reports["uniform"] = mtp.check_fer(k, pa)
    assert [id(report) for report, _, _ in walks] == [*map(id, reports.values())]
    for (name, report), (_, args, kwargs) in zip(reports.items(), walks):
        eager = helpers.eager_pair_report(*args, **kwargs)
        assert report.ok == eager.ok, name
        assert report.largest() == eager.largest(), name
        assert helpers.worst(report) == eager.worst(), name
        assert report.first_violation() == eager.first_violation(), name
        assert report._entries is None, name  # nothing above built every entry
        assert report.entries == eager.entries, name
        points = space.model.points
        got = [(e.hid, points.index(e.point), e.stat) for e in report.entries]
        assert got == want[name], (name, space.family.members, rows)
        seen.add(report.ok)
        if [e.stat for e in eager.entries].count(eager.largest()) > 1:
            seen.add("tie")


def _check_world(r, space, pair_check):
    """Check one family against the oracles, and pass its first
    PAIR_CHECKED kernels to `pair_check`; the classes of its tables."""
    tables = _tables(r, space)
    classes = [helpers.oracle_eclass(space, values) for values in tables]
    for values, eclass in zip(tables, classes):
        assert from_values(space, values).eclass is eclass, (space.family.members, values)
    covered = len(space.family) <= COVERED
    closures = {}
    sample = SampleSpace(("x", "y"))
    for n in range(KERNELS):
        pair = [r.randrange(len(tables)) for _ in sample.outcomes]
        shared = {}  # equal rows become one object, as a kernel file makes them
        rows = [shared.setdefault(row, row) for row in zip(*(tables[i] for i in pair))]
        k = EKernel(space, sample, rows)
        if n < PAIR_CHECKED:
            pair_check(k)
        assert k.eclass is min(classes[i] for i in pair), (space.family.members, rows)
        assert k.claims() == helpers.oracle_claims(k)
        if covered:
            for i in pair:
                if i not in closures:
                    table = from_values(space, tables[i])
                    closures[i] = helpers.oracle_closure(table)
                    assert list(close(table).values) == closures[i]
            assert [list(column) for column in zip(*close_kernel(k).rows)] == [
                closures[i] for i in pair
            ]
    for _ in range(DENSITIES):
        density = [r.choice(ALPHABET) for _ in space.model.points]
        got = measure_from_density(space, density).values
        want = helpers.oracle_measure_from_density(space, density)
        assert all(a is b for a, b in zip(got, want)) and len(got) == len(want)
    return set(classes)


def test_every_small_world_agrees_with_the_definitions(monkeypatch):
    r = helpers.rng(3604)
    seen, worlds, verdicts = set(), 0, set()
    pair_check = functools.partial(
        _check_pair_walks, helpers.rng(3705), _recording_walks(monkeypatch), verdicts
    )
    for space in _worlds():
        seen |= _check_world(r, space, pair_check)
        worlds += 1
    assert worlds == 2550 and seen == set(EClass)
    assert verdicts == {True, False, "tie"}


def _raised(r, space, values, antitone):
    """`values` with one seeded nonempty member raised: to the least value
    of the members strictly inside it, which keeps an antitone table
    antitone, or else to inf past that value, which does not. None when no
    member can be so raised."""
    members = space.family.members
    hids = list(space.family.nonempty_ids())
    r.shuffle(hids)
    for hid in hids:
        bits = members[hid]
        inside = min(v for m, v in zip(members, values) if m != bits and m & ~bits == 0)
        new = inside if antitone else INF
        if values[hid] < new and (antitone or inside < INF):
            return (*values[:hid], new, *values[hid + 1 :])
    return None


def test_the_class_walk_agrees_with_the_definitions_on_raised_measures_on_every_small_world():
    """L2 `evidence.table_class` on every small world, where the
    intersection-closed ones take the one-test-per-member decomposition:
    two seeded measures, the first with one member raised so that it stays
    antitone and so that it does not, and an arbitrary table, each alone
    and as the two outcome lanes of a kernel, against the pairwise
    definitions. The worlds include families whose points share every
    member, as {} and {P1,P2} do, which the decomposition must remove as
    one class."""
    r = helpers.rng(5002)
    sample = SampleSpace(("x", "y"))
    seen, shared = set(), set()
    for space in _worlds():
        density = [[r.choice(ALPHABET) for _ in space.model.points] for _ in range(2)]
        measure, other = (measure_from_density(space, d).values for d in density)
        arbitrary = (INF, *(r.choice(ALPHABET) for _ in space.family.nonempty_ids()))
        raised = [_raised(r, space, measure, antitone) for antitone in (True, False)]
        tables = [measure, other, *raised, arbitrary]
        classes = [t and helpers.oracle_eclass(space, t) for t in tables]
        for values, eclass in zip(tables, classes):
            if values is not None:
                assert from_values(space, values).eclass is eclass, (space.family.members, values)
                seen.add((space.intersection_closed, eclass))
        for i, j in ((0, 1), (1, 2), (0, 3), (2, 4)):
            if tables[i] is not None and tables[j] is not None:
                k = EKernel(space, sample, list(zip(tables[i], tables[j])))
                want = min(classes[i], classes[j])
                assert k.eclass is want, (space.family.members, tables[i], tables[j])
        least = space.intersection_closed and space.least_ids()
        if least and len(set(least)) < len(least):
            shared.add(space.family.members)
    assert seen == {(ic, eclass) for ic in (False, True) for eclass in EClass}
    assert {(0, 0b11), (0, 0b11, 0b111)} <= shared


def test_the_predictive_sup_agrees_with_its_definition_on_every_small_world():
    r = helpers.rng(4012)
    worlds, verdicts = 0, set()
    for space in _worlds():
        if not space.intersection_closed:
            continue
        model, n = space.model, space.model.size
        sample = SampleSpace(model.points)
        tables = _tables(r, space)
        columns = [tables[r.randrange(len(tables))] for _ in range(n)]
        k = EKernel(space, sample, list(zip(*columns)))
        pa = helpers.rand_pa(r, model, sample, full_support=False)
        report = check_predictive_validity(k, pa)
        least = helpers.oracle_least_ids(space)
        sups = tuple(helpers.sup_over_true(space, columns[xi], xi) for xi in range(n))
        want = [(x, sups[xi], columns[xi][least[xi]]) for xi, x in enumerate(model.points)]
        got = [(e.point, e.stat, e.bound) for e in report.identity.entries]
        assert got == want, (space.family.members, columns)
        assert [e.ok for e in report.identity.entries] == [s <= b for _, s, b in want]
        expected = [(x, helpers.oracle_expectation(pmf, sups)) for x, pmf in zip(model.points, pa.pmfs)]
        assert [(e.point, e.stat) for e in report.stats.entries] == expected
        verdicts.add((report.identity.ok, report.stats.ok))
        worlds += 1
    assert worlds == 1 + 4 + 29 + 355  # the preorders on one to four points
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _ratio_process(r, space, tree, pa):
    """At each step's atoms, the likelihood ratio of a seeded reference
    distribution against each point's, the least over a member's points: a
    martingale under each point, whose ratio is inf on an atom it does not
    charge."""
    q = helpers.pmf_mass(helpers.rand_pmf(r, tree.sample))
    masses = [helpers.pmf_mass(pmf) for pmf in pa.pmfs]
    kernels = []
    for atoms in helpers.tree_levels(tree):
        columns = [None] * tree.sample.size
        for atom in atoms:
            ratios = [XValue(sum(q[x] for x in atom)) / XValue(sum(m[x] for x in atom)) for m in masses]
            column = [INF] + [min(ratios[pi] for pi in helpers.points_of(bits))
                              for bits in space.family.members[1:]]
            for x in atom:
                columns[x] = column
        kernels.append(EKernel(space, tree.sample, list(zip(*columns))))
    return EProcess(tree, kernels)


def _shared_process(r, proc):
    """`proc` with each nonempty member taking the step rows of one of two
    seeded members at every step."""
    nonempty = proc.space.family.nonempty_ids()
    two = [r.choice(nonempty) for _ in range(2)] if nonempty else []
    source = [0] + [r.choice(two) for _ in nonempty]
    return EProcess(proc.tree, [
        EKernel(proc.space, k.sample, [k.rows[hid] for hid in source]) for k in proc.kernels
    ])


def test_the_anytime_envelope_and_its_rule_agree_with_every_stopping_rule_on_small_worlds():
    r = helpers.rng(4213)
    seen = set()
    for space in _worlds():
        if space.model.size > 3:
            break
        for _ in range(ANYTIME_TREES):
            tree = helpers.rand_tree(r, max_depth=2)
            pa = helpers.rand_pa(r, space.model, tree.sample, full_support=r.random() < 0.5)
            drawn = helpers.rand_process(r, space, tree, allow_inf=r.random() < 0.4)
            processes = {
                "random": drawn, "martingale": _ratio_process(r, space, tree, pa),
                "shared": _shared_process(r, drawn),
            }
            for kind, proc in processes.items():
                report = check_anytime_validity(proc, pa)
                best = helpers.oracle_anytime(proc, pa)
                points = space.model.points
                got = {(e.hid, points.index(e.point)): e.stat for e in report.stats.entries}
                assert got == best, (kind, space.family.members, tree.shape)
                violations = [pair for pair, stat in best.items() if stat > 1]
                assert report.stats.ok == (not violations)
                if violations:
                    hid, pi = violations[0]
                    entry = report.stats.first_violation()
                    assert (entry.hid, entry.point) == (hid, points[pi])
                    want = helpers.oracle_stop_rule(proc, hid, helpers.pmf_mass(pa.pmfs[pi]))
                    assert report.rule == want, (kind, space.family.members, tree.shape)
                else:
                    assert report.rule is None
                shared = len(report.stats.stats) < len(space.family) - 1
                seen.add((kind, report.stats.ok, shared))
    assert {("martingale", True, False), ("shared", True, True), ("shared", False, True),
            ("random", False, False)} <= seen


def test_the_eposterior_agrees_with_its_definitions_on_small_worlds():
    """On every union-closed family on one to three points, a seeded capacity
    prior with 0 and inf values and the unit prior, each against a valid
    kernel and that kernel tripled. On an intersection-closed family the
    posterior is the product closed outcome by outcome by the cover search
    (`helpers.oracle_closure`), each pair held against the prior at its
    point's least hypothesis (`helpers.oracle_least_ids`). Off one it is
    the product itself, each pair of a hypothesis of finite positive prior
    holding E_p[e(H|X)] against 1, and the verdict is the product held
    against the prior at every pair."""
    r = helpers.rng(4414)
    sample = SampleSpace(("x", "y"))
    seen = set()
    for space in _worlds():
        if space.model.size > 3:
            break
        n, family = space.model.size, space.family
        pa = ProbabilityAssignment(space.model, tuple(Pmf(sample, r.choice(MASSES)) for _ in range(n)))
        valid = helpers.valid_capacity_kernel(r, space, pa)
        priors = {"capacity": helpers.rand_capacity(r, space), "unit": helpers.unit_measure(space)}
        kernels = {"valid": valid, "tripled": helpers.scaled_kernel(valid, XValue(3))}
        least = helpers.oracle_least_ids(space)
        pairs = [(hid, pi) for hid in family.nonempty_ids() for pi in helpers.points_of(family.member(hid))]
        for (pname, prior), (kname, k) in itertools.product(priors.items(), kernels.items()):
            post, report = kn.eposterior(prior, k, pa)
            product = [from_values(space, column) for column in zip(*helpers.product_kernel(prior, k).rows)]
            got = [(e.hid, space.model.index(e.point), e.stat, e.bound, e.ok) for e in report.entries]
            if space.intersection_closed:
                closed = list(zip(*map(helpers.oracle_closure, product)))
                assert post.rows == tuple(closed), (space.family.members, pname, kname)
                want = [
                    (hid, pi, stat, prior.values[least[pi]], stat <= prior.values[least[pi]])
                    for hid, pi in pairs
                    for stat in [helpers.oracle_expectation(pa.pmfs[pi], closed[hid])]
                ]
            else:
                assert post.rows == tuple(zip(*(column.values for column in product)))
                finite = [(hid, pi) for hid, pi in pairs
                          if not (prior.values[hid].is_zero or prior.values[hid].is_inf)]
                want = [
                    (hid, pi, stat, ONE, stat <= ONE)
                    for hid, pi in finite for stat in [helpers.oracle_expectation(pa.pmfs[pi], k.rows[hid])]
                ]
                assert report.ok == all(
                    helpers.oracle_expectation(pa.pmfs[pi], post.rows[hid]) <= prior.values[hid]
                    for hid, pi in pairs
                )
                seen.add(("zero-or-inf prior", len(finite) < len(pairs)))
            assert got == want, (space.family.members, pname, kname)
            assert report.ok == all(ok for *_, ok in want)
            seen.add((space.intersection_closed, kname, report.ok))
    assert {(closed, "valid", True) for closed in (True, False)} <= seen
    assert {(closed, "tripled", False) for closed in (True, False)} <= seen
    assert ("zero-or-inf prior", True) in seen


def _loss_tables(r, model, count=None):
    """Each numeric table of DECISIONS over LOSSES on the model's points, or
    `count` seeded ones, with its loss rows."""
    rows = list(itertools.product(LOSSES, repeat=len(DECISIONS)))
    if count is None:
        chosen = itertools.product(rows, repeat=model.size)
    else:
        chosen = ([r.choice(rows) for _ in model.points] for _ in range(count))
    return [(losses, ConsequenceTable.numeric(model, DECISIONS, losses)) for losses in chosen]


def _check_table(table, losses):
    """The bounds against `helpers.hypothesis_for_bound` and the optimality
    class against the per-point argmin; each point's upper set under row
    dominance."""
    n, width = table.model.size, len(table.cspace.elements)
    bounds = tuple(
        [helpers.hypothesis_for_bound(table, d, c) for c in range(width)] for d in range(len(DECISIONS))
    )
    assert table.bounds() == bounds
    best = [min(row) for row in losses]
    ties = any(row.count(low) > 1 for row, low in zip(losses, best))
    assert optimality_class(table) == dec.OptimalityResult(
        {d: sum(1 << pi for pi in range(n) if losses[pi][di] == best[pi]) for di, d in enumerate(DECISIONS)},
        None if ties else {
            p: DECISIONS[row.index(low)] for p, row, low in zip(table.model.points, losses, best)
        },
    )
    ups = [sum(1 << q for q in range(n) if helpers.row_dominates(table, q, p)) for p in range(n)]
    return table, bounds, ups


def _oracle_admissibility(e, bounds):
    """The dominance order of the evidence against each decision's bounds
    and the undominated decisions, from the definition; None when some
    bound is no member."""
    value = dict(zip(e.space.family.members, e.values))
    if any(b not in value for row in bounds for b in row):
        return None
    evidence = [[value[b] for b in row] for row in bounds]
    order = tuple(
        tuple(all(a >= b for a, b in zip(mine, theirs)) for theirs in evidence) for mine in evidence
    )
    n_dec = len(DECISIONS)
    return dec.AdmissibilityResult(order, tuple(
        DECISIONS[i] for i in range(n_dec)
        if not any(order[j][i] and not order[i][j] for j in range(n_dec))
    ))


def _refused(call, *args):
    """What `call` returns, or None where it refuses a bound hypothesis."""
    try:
        return call(*args)
    except dec.OrderMeasurabilityViolation:
        return None


def test_every_small_decision_world_agrees_with_the_definitions():
    r = helpers.rng(4123)
    # Per point count, the tables its families take, each checked once.
    tables = {n: [_check_table(t, losses) for losses, t in _loss_tables(r, Model(points))]
              for n, points in ((1, ("P1",)), (2, ("P1", "P2")), (3, ("P1", "P2", "P3")))}
    four = Model(("P1", "P2", "P3", "P4"))
    tables[4] = [_check_table(t, losses) for losses, t in _loss_tables(r, four, FOUR_POINT_POOL)]
    refused, admissible, worlds = set(), set(), 0
    for space in _worlds():
        model, family = space.model, space.family
        checked = tables[model.size]
        if model.size == 4:
            checked = r.sample(checked, FOUR_POINT_TABLES)
        measures = [
            measure_from_density(space, [r.choice(ALPHABET) for _ in model.points])
            for _ in range(MEASURES)
        ]
        for i, (table, bounds, ups) in enumerate(checked):
            missing = any(up not in family for up in ups)
            assert _refused(dec._require_order_measurable, space, table) == (None if missing else ups)
            refused.add(missing)
            e = measures[i % MEASURES]
            want = _oracle_admissibility(e, bounds)
            assert _refused(admissible_decisions, e, table) == want, (family.members, table.entries)
            admissible.add(want and want.admissible)
            worlds += 1
    assert worlds == 2 * 9 + 7 * 81 + 61 * 729 + 2480 * FOUR_POINT_TABLES
    assert refused == {True, False}
    assert admissible == {None, ("d1",), ("d2",), DECISIONS}
