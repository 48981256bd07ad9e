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
row, the miss rate, the claim, or the FEP of `helpers.fep_fsp`).
"""

import functools
import itertools
from fractions import Fraction

import helpers
from emeasure import (
    EClass, EKernel, INF, Model, ONE, Pmf, ProbabilityAssignment, SampleSpace, Space, XValue,
    ZERO, close, close_kernel,
)
from emeasure import kernels as kn
from emeasure import multiplicity as mtp
from emeasure.evidence import from_values, measure_from_density
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
        assert report.worst() == eager.worst(), name
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
