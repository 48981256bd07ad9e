"""L2 on every small world: each union-closed family on one to four points,
with evidence tables over the alphabet {0, 1/2, 1, inf}.

A family with at most four nonempty members gets every table, a larger one
a fixed seeded sample, and each family gets seeded kernels of two outcomes
made of those tables. The one class walk is checked against the pairwise
definitions (`helpers.oracle_eclass`, its minimum over the columns for a
kernel), the claims against `helpers.oracle_claims`, `close` and
`close_kernel` against the cover search `helpers.oracle_closure` where its
2^F covers are few, and `measure_from_density` against
`helpers.oracle_measure_from_density`.
"""

import itertools
from fractions import Fraction

import helpers
from emeasure import (
    EClass, EKernel, INF, Model, ONE, SampleSpace, Space, XValue, ZERO, close, close_kernel,
)
from emeasure.evidence import from_values, measure_from_density
from emeasure.spaces import HypothesisClass

ALPHABET = (ZERO, XValue(Fraction(1, 2)), ONE, INF)
SAMPLED = 16  # seeded tables of a family with more than four nonempty members
KERNELS = 4  # seeded two-outcome kernels per family
DENSITIES = 4  # seeded densities per family
COVERED = 6  # the largest family whose closures the cover search checks


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


def _check_world(r, space):
    """Check one family against the oracles; the classes of its tables."""
    tables = _tables(r, space)
    classes = [helpers.oracle_eclass(space, values) for values in tables]
    for values, eclass in zip(tables, classes):
        assert from_values(space, values).eclass is eclass, (space.family.members, values)
    covered = len(space.family) <= COVERED
    closures = {}
    sample = SampleSpace(("x", "y"))
    for _ in range(KERNELS):
        pair = [r.randrange(len(tables)) for _ in sample.outcomes]
        shared = {}  # equal rows become one object, as a kernel file makes them
        rows = [shared.setdefault(row, row) for row in zip(*(tables[i] for i in pair))]
        k = EKernel(space, sample, rows)
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


def test_every_small_world_agrees_with_the_definitions():
    r = helpers.rng(3604)
    seen, worlds = set(), 0
    for space in _worlds():
        seen |= _check_world(r, space)
        worlds += 1
    assert worlds == 2550 and seen == set(EClass)
