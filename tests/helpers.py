"""Instance generators and independent oracles shared by the test suite.

The oracles here deliberately use different algorithms than the library:
closures by unrestricted cover enumeration, least hypotheses by brute
intersection, unions by subset enumeration. They were written against the
definitions, not against the implementation.
"""

import argparse
import itertools
import random
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from emeasure import (
    EClass,
    EKernel,
    EProcess,
    FiltrationTree,
    INF,
    ONE,
    Model,
    Pmf,
    Preorder,
    ProbabilityAssignment,
    SampleSpace,
    Space,
    XValue,
    ZERO,
    as_xvalue,
    class_from_preorder,
    classify,
    inf_of,
    optimality_class,
    postprocess_efunction,
    pushforward_kernel,
    sup_of,
    union_closure,
)
from emeasure.decisions import DecisionError, OrderMeasurabilityViolation
from emeasure.evidence import ClassMismatch, EvidenceError, measure_from_density
from emeasure.kernels import Entry
from emeasure.multiplicity import selection_shares
from emeasure.spaces import HypothesisClass, NotAPreorder
from emeasure.xvalue import dot_at_most, order_keys, scale


# -- the rational reader's oracle ---------------------------------------------


def fraction_level_arg(raw):
    """The command line's level reader as it was on ``fractions.Fraction``:
    a positive rational, anything else refused in argparse's words. The
    oracle of ``cli._level_arg`` and of the reader under it,
    ``xvalue.read_rational``."""
    try:
        level = Fraction(raw)
        if level > 0:
            return level
        message = f"a level must be positive, got {raw!r}"
    except (ValueError, ZeroDivisionError):
        message = f"not a rational number: {raw!r}"
    raise argparse.ArgumentTypeError(message)


# -- the per-outcome view of kernels and distributions ----------------------


def from_values(space, values):
    """``classify`` of a table given as one value per hypothesis id, in order;
    values past the family's size are ignored."""
    return classify(space, dict(zip(range(len(space.family)), values)))


def kernel_of(space, sample, columns):
    """The kernel of one evidence table per outcome, in outcome order."""
    assert len(columns) == sample.size and all(col.space == space for col in columns)
    return EKernel(space, sample, zip(*(col.values for col in columns)))


def kernel_value(k, hid, x):
    """The evidence against hypothesis `hid` at outcome `x`, an index or a label."""
    return k.rows[hid][k.sample.index(x) if isinstance(x, str) else x]


def merge_convex(kernels, weights):
    """The convex combination of capacity kernels over one space and one
    sample space, row by row, with rational weights: a capacity kernel.
    Weights that do not sum to 1 and kernels that are no capacities are
    refused."""
    ws = [as_xvalue(w) for w in weights]
    if sum(ws, ZERO) != ONE:
        raise EvidenceError(f"weights sum to {sum(ws, ZERO)}, expected 1")
    if any(k.eclass < EClass.CAPACITY for k in kernels):
        raise ClassMismatch("merging needs capacities")
    rows = [
        tuple(sum(map(mul, cells, ws), ZERO) for cells in zip(*hid_rows))
        for hid_rows in zip(*(k.rows for k in kernels))
    ]
    return EKernel(kernels[0].space, kernels[0].sample, rows)


def merge_tables(functions, weights):
    """The convex merge of evidence tables over one space: each table is
    wrapped as a kernel of one outcome, the kernels are merged row by row,
    and the merged kernel's one table is returned."""
    sample = SampleSpace(("x",))
    kernels = [EKernel(f.space, sample, [(v,) for v in f.values]) for f in functions]
    return merge_convex(kernels, weights).columns[0]


def pmf_mass(pmf):
    """A distribution's masses as Fractions, in outcome order."""
    den, nums, _ = pmf.scaled
    return tuple(Fraction(n, den) for n in nums)


def expectation(masses, values):
    """The package's exact expectation of `values` under `masses`, a Pmf or
    a table of masses: the value `dot_at_most` gives the pair walk on the
    two scaled tables."""
    scaled = masses.scaled if isinstance(masses, Pmf) else scale(masses)
    return dot_at_most(scaled, scale(values))[0]


def points_of(bits):
    """The point indices of a bitset, in increasing order."""
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def labels_of(model, bits):
    """The point labels of a bitset, in index order."""
    return tuple(model.points[i] for i in points_of(bits))


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_fraction(r, max_num=8, max_den=4, allow_zero=True):
    low = 0 if allow_zero else 1
    return Fraction(r.randint(low, max_num), r.randint(1, max_den))


def rand_xvalue(r, allow_inf=True, allow_zero=True):
    if allow_inf and r.random() < 0.15:
        return INF
    return XValue(rand_fraction(r, allow_zero=allow_zero))


def first_primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def rand_preorder(r, n):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j and r.random() < 0.4]
    return Preorder.from_pairs(n, pairs).transitive_closure()


def rand_ic_space(r, max_points=4, max_members=None, min_points=1):
    while True:
        n = r.randint(min_points, max_points)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        space = class_from_preorder(model, rand_preorder(r, n))
        if max_members is None or len(space.family) <= max_members:
            return space


def rand_uc_space(r, max_points=4, max_members=None):
    """Union closure of a few random generators; rarely intersection-closed."""
    while True:
        n = r.randint(1, max_points)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        gens = [r.randrange(1, 1 << n) for _ in range(r.randint(1, 4))]
        space = Space(model, union_closure(n, gens))
        if max_members is None or len(space.family) <= max_members:
            return space


def power_space(n):
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    return Space(model, HypothesisClass(n, range(1 << n)))


def space_from_generators(model, generators):
    """The union closure of generators given as lists of point labels."""
    sets = [model.bits_of(g) for g in generators]
    return Space(model, union_closure(model.size, sets))


def rand_capacity(r, space, allow_inf=True):
    """Random antitone table: each value is the best raw value over supersets."""
    members = space.family.members
    raw = [rand_xvalue(r, allow_inf) for _ in members]
    values = {}
    for hid, m in enumerate(members):
        values[hid] = sup_of(
            raw[j] for j, mm in enumerate(members) if m & ~mm == 0
        )
    values[space.family.empty_id] = INF
    e = classify(space, values)
    assert e.eclass >= EClass.CAPACITY
    return e


def rand_measure(r, space, zero_chance=0):
    """Random density on the least hypotheses, spread by the union law.

    Each density is 0 with probability zero_chance, on top of the zeros
    rand_xvalue draws itself.
    """
    least = space.least_ids()
    density = {
        lid: ZERO if zero_chance and r.random() < zero_chance else rand_xvalue(r)
        for lid in set(least)
    }
    values = {
        hid: inf_of(density[least[i]] for i in points_of(m))
        for hid, m in enumerate(space.family.members)
    }
    e = classify(space, values)
    assert e.eclass is EClass.MEASURE
    return e


def dirac_measure(space, point):
    """Unit evidence on hypotheses containing the point, infinite elsewhere."""
    pi = space.model.index(point)
    return measure_from_density(space, [ONE if i == pi else INF for i in range(space.model.size)])


def unit_measure(space):
    """Constant evidence 1 on every nonempty hypothesis."""
    return measure_from_density(space, [ONE] * space.model.size)


def rand_sample(r, max_outcomes=3, min_outcomes=1):
    k = r.randint(min_outcomes, max_outcomes)
    return SampleSpace(tuple(f"x{i + 1}" for i in range(k)))


def rand_pmf(r, sample, full_support=True):
    weights = [
        r.randint(1, 6) if full_support else r.randint(0, 6) for _ in sample.outcomes
    ]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return Pmf(sample, tuple(Fraction(w, total) for w in weights))


def rand_pa(r, model, sample, full_support=True):
    return ProbabilityAssignment(
        model, tuple(rand_pmf(r, sample, full_support) for _ in model.points)
    )


def valid_measure_kernel(r, space, pa):
    """Sub-pmf ratio E-variable per point; hypotheses take the point minimum.

    Valid because each point variable has expectation at most one and the
    hypothesis value never exceeds the variable of a contained point.
    """
    sample = pa.sample
    evars = []
    for pi in range(space.model.size):
        pmf = pa.pmfs[pi]
        qs = [r.randint(0, 4) for _ in sample.outcomes]
        slack = 1 if r.random() < 0.7 else 2
        denom = max(sum(qs), 1) * slack
        evars.append(
            [XValue(Fraction(q, denom)) / XValue(pmf_mass(pmf)[xi]) for xi, q in enumerate(qs)]
        )
    cols = []
    for xi in range(sample.size):
        values = {
            hid: inf_of(evars[pi][xi] for pi in points_of(m))
            for hid, m in enumerate(space.family.members)
        }
        cols.append(classify(space, values))
    return kernel_of(space, sample, cols)


def valid_capacity_kernel(r, space, pa):
    """Convex mixture of two valid measure kernels; valid, often not a measure."""
    k1 = valid_measure_kernel(r, space, pa)
    k2 = valid_measure_kernel(r, space, pa)
    return merge_convex([k1, k2], [Fraction(1, 3), Fraction(2, 3)])


def least_point_kernel(r, space, sample, infinite=True):
    """A measure kernel in which each nonempty member's row is one object:
    the row of its least-density point, so there are at most as many
    distinct rows as points.

    The points are ranked at random and their rows rise with the rank,
    outcome by outcome, from a first row that is all zeros a quarter of
    the time. Each rise is positive, and to inf one time in eight when
    `infinite` is set; without inf every point has its own row. So a
    member's least point at every outcome is its lowest-ranked point."""
    rank = list(range(space.model.size))
    r.shuffle(rank)
    row = [ZERO if r.random() < 0.25 else rand_xvalue(r, allow_inf=False) for _ in sample.outcomes]
    point_rows = [None] * len(rank)
    for p in rank:
        point_rows[p] = tuple(row)
        row = [
            INF if infinite and r.random() < 0.125 else v + rand_xvalue(r, False, False)
            for v in row
        ]
    inf_row = tuple([INF] * sample.size)
    rows = [inf_row] + [
        point_rows[min(points_of(m), key=rank.index)] for m in space.family.members[1:]
    ]
    return EKernel(space, sample, rows)


def constant_kernel(space, sample, fn):
    """The same table at every outcome."""
    return kernel_of(space, sample, [fn] * sample.size)


def likelihood_kernel(space, pa, reference):
    """Inverse-likelihood kernel relative to a reference distribution.

    Each point p carries reference(x) / P_p(x) at outcome x, and a
    hypothesis gets the least ratio among its points. Valid on every
    union-closed space whenever the reference is a probability mass
    function: under P_p the expectation of e(H) for H containing p is at
    most that of p's own ratio, which sums the reference over the outcomes
    P_p charges.
    """
    cols = [
        measure_from_density(space, [XValue(ref) / XValue(pmf_mass(pmf)[xi]) for pmf in pa.pmfs])
        for xi, ref in enumerate(pmf_mass(reference))
    ]
    return kernel_of(space, reference.sample, cols)


def constant_two_kernel(space, sample):
    values = {
        hid: XValue(2) if m else INF
        for hid, m in enumerate(space.family.members)
    }
    fn = classify(space, values)
    return kernel_of(space, sample, [fn] * sample.size)


def product_kernel(prior, k):
    """The hypothesis-wise product prior(H)·e(H|x), one row per hypothesis."""
    return EKernel(k.space, k.sample, [tuple(p * v for v in row) for p, row in zip(prior.values, k.rows)])


def scaled_kernel(k, factor):
    cols = []
    for col in k.columns:
        values = {hid: v * XValue(factor) for hid, v in enumerate(col.values)}
        cols.append(classify(k.space, values))
    return kernel_of(k.space, k.sample, cols)


def rand_tree(r, max_depth=3, max_branching=3, max_rules=200):
    """Random filtration tree on outcomes x1..xn; shallow leaves make it uneven."""
    while True:
        leaves = []

        def node(depth):
            if depth == max_depth or (depth > 0 and r.random() < 0.3):
                leaves.append(f"x{len(leaves) + 1}")
                return leaves[-1]
            return [node(depth + 1) for _ in range(r.randint(1, max_branching))]

        shape = node(0)
        tree = FiltrationTree(SampleSpace(tuple(leaves)), shape)
        if tree.count_stopping_times() <= max_rules:
            return tree


def tree_levels(tree):
    """The filtration's atoms per step 0..depth, each a tuple of outcome
    indices: level t groups the outcomes by their depth-t ancestor, and a
    leaf shallower than t stays its own atom from its depth onward."""

    def leaves(shape):
        return [shape] if isinstance(shape, str) else [x for c in shape for x in leaves(c)]

    def atoms(shape, t):
        if isinstance(shape, str) or t == 0:
            return [tuple(tree.sample.index(x) for x in leaves(shape))]
        return [atom for child in shape for atom in atoms(child, t - 1)]

    return tuple(tuple(atoms(tree.shape, t)) for t in range(tree.depth + 1))


def rand_process(r, space, tree, allow_inf=True):
    """Random adapted process: one scaled random capacity per atom and step."""
    kernels = []
    for atoms in tree_levels(tree):
        cols = [None] * tree.sample.size
        for atom in atoms:
            fn = rand_capacity(r, space, allow_inf)
            scale = XValue(Fraction(1, r.randint(1, 6)))
            fn = classify(space, {hid: v * scale for hid, v in enumerate(fn.values)})
            for xi in atom:
                cols[xi] = fn
        kernels.append(kernel_of(space, tree.sample, cols))
    return EProcess(tree, kernels)


def as_fraction(v):
    """A finite value as a Fraction, read off its scaled form."""
    den, (num,), inf = scale([v])
    if inf:
        raise ValueError("infinite value has no rational representation")
    return Fraction(num, den)


class OrderMeasurableFn:
    """A function on model points whose super-level sets are members: the
    oracle that builds a function's levels point by point, for
    ``shilkret_integral(e, f.levels())``.

    Every positive level is checked at construction, so a failure names
    the offending level.
    """

    __slots__ = ("space", "values")

    def __init__(self, space, values):
        self.space = space
        self.values = tuple(values)
        if len(self.values) != space.model.size:
            raise ValueError("one value per model point is required")
        for level in self.positive_levels():
            if self.superlevel_bits(level) not in space.family:
                raise OrderMeasurabilityViolation(f"super-level set at {level} is not a hypothesis")

    @classmethod
    def of(cls, space, values):
        return cls(space, [as_xvalue(v) for v in values])

    def positive_levels(self):
        """Distinct positive values taken by the function, ascending: the
        finite ones sorted as Fractions, then inf."""
        levels = {v for v in self.values if not v.is_zero}
        finite = sorted((v for v in levels if not v.is_inf), key=as_fraction)
        return tuple(finite + [INF] if INF in levels else finite)

    def superlevel_bits(self, level):
        """The bitset of {f >= level}."""
        return sum(1 << i for i, v in enumerate(self.values) if v >= level)

    def levels(self):
        """Each positive level with its super-level set."""
        return [(c, self.superlevel_bits(c)) for c in self.positive_levels()]


def loss_column(table, decision):
    """A numeric table's losses under one decision (index or label), point by point."""
    if isinstance(decision, str):
        decision = table.decisions.index(decision)
    return tuple(table.cspace.values[row[decision]] for row in table.entries)


def rand_order_measurable(r, space, max_levels=3, allow_inf=True):
    """Random order-measurable function: levels stacked on a member chain.

    Intersecting random members yields a descending chain (the space is
    intersection-closed), so every super-level set is a chain member.
    """
    members = space.family.members
    current = (1 << space.model.size) - 1
    chain = []
    for _ in range(r.randint(1, max_levels)):
        current &= members[r.randrange(len(members))]
        chain.append(current)
    levels = []
    height = Fraction(0)
    for _ in chain:
        height += rand_fraction(r, allow_zero=False)
        levels.append(XValue(height))
    if allow_inf and r.random() < 0.15:
        levels[-1] = INF
    values = []
    for i in range(space.model.size):
        v = ZERO
        for bits, lev in zip(chain, levels):
            if bits >> i & 1 and lev > v:
                v = lev
        values.append(v)
    return OrderMeasurableFn(space, tuple(values))


def rand_order_measurable_pair(r, space, max_levels=3):
    """Two order-measurable functions with f >= g pointwise, on one chain."""
    members = space.family.members
    current = (1 << space.model.size) - 1
    chain = []
    for _ in range(r.randint(1, max_levels)):
        current &= members[r.randrange(len(members))]
        chain.append(current)
    g_levels = []
    f_levels = []
    height = Fraction(0)
    for _ in chain:
        height += rand_fraction(r, allow_zero=False)
        g_levels.append(XValue(height))
        f_levels.append(XValue(height + rand_fraction(r)))

    def build(levels):
        values = []
        for i in range(space.model.size):
            v = ZERO
            for bits, lev in zip(chain, levels):
                if bits >> i & 1 and lev > v:
                    v = lev
            values.append(v)
        return OrderMeasurableFn(space, tuple(values))

    return build(f_levels), build(g_levels)


def indicator(space, hid):
    """The indicator of one member, as an order-measurable function."""
    member = space.family.member(hid)
    return OrderMeasurableFn.of(space, [member >> i & 1 for i in range(space.model.size)])


# -- input files --------------------------------------------------------------


def space_yaml(space):
    """A space file whose generators are every nonempty member."""
    members = [labels_of(space.model, m) for m in space.family.members if m]
    return f"points: [{', '.join(space.model.points)}]\ngenerators: [" + ", ".join(
        f"[{', '.join(labels)}]" for labels in members
    ) + "]\n"


def model_yaml(pa):
    """A model file of one distribution per point."""
    rows = []
    for point, pmf in zip(pa.model.points, pa.pmfs):
        masses = ", ".join(
            f"{x}: {XValue(m).record()}" for x, m in zip(pmf.sample.outcomes, pmf_mass(pmf))
        )
        rows.append(f"  {point}: {{{masses}}}\n")
    return "pmf:\n" + "".join(rows)


def kernel_yaml(k, r=None, empty=True):
    """A kernel file of one row per member, labelled as the command line
    prints it; with a random source `r`, each row lists its outcomes in a
    shuffled order. The empty member's row is written when `empty` is set."""
    rows = []
    for hid, row in enumerate(k.rows):
        if hid == k.space.family.empty_id and not empty:
            continue
        cells = [f"{x}: {v.record()}" for x, v in zip(k.sample.outcomes, row)]
        if r is not None:
            r.shuffle(cells)
        rows.append(f'  "{member_label(k.space, hid)}": {{{", ".join(cells)}}}\n')
    return "kernel:\n" + "".join(rows)


# -- independent oracles ---------------------------------------------------


def member_label(space, hid):
    """A member's label by its definition: its point labels in index order
    joined by ',', and '{}' for the empty member."""
    member = space.family.member(hid)
    if not member:
        return "{}"
    return ",".join(labels_of(space.model, member))


def lookup_resolve(sf, path, label):
    """`SpaceFile.resolve` by table lookup, parsing only a label the table
    lacks. The table maps every member's `member_label`, then 'empty' and
    '{}', then the declared names, each overriding what comes before it.
    Member labels are left out when a point label is empty, holds a ',' or
    has surrounding spaces, as the comma list would then be read otherwise."""
    from emeasure.fileio import SchemaError

    space = sf.space
    ids = {}
    if all(p and "," not in p and p.strip() == p for p in space.model.points):
        ids = {member_label(space, hid): hid for hid in range(len(space.family))}
    ids["empty"] = ids["{}"] = space.family.empty_id
    ids.update(sf.names)
    if label in ids:
        return ids[label]
    parts = [p.strip() for p in label.split(",") if p.strip()]
    try:
        bits = space.model.bits_of(parts)
    except Exception:
        raise SchemaError(path, f"unknown hypothesis label {label!r}") from None
    if bits not in space.family:
        raise SchemaError(path, f"{label!r} is not a member of the family")
    return space.family.id_of(bits)


def integral_least_true(f, e):
    """The integral against a measure on an intersection-closed space,
    through least hypotheses: sup over points P of f(P) / e(H_P)."""
    assert e.eclass is EClass.MEASURE and e.space.intersection_closed
    least = e.space.least_ids()
    return sup_of(f.values[i] / e.values[least[i]] for i in range(e.space.model.size))


def dominates(a, b) -> bool:
    """`a` is at least `b` everywhere: value by value for evidence tables,
    row by row for kernels and kernel by kernel for e-processes."""
    if isinstance(a, EProcess):
        return all(map(dominates, a.kernels, b.kernels))
    rows = zip(a.rows, b.rows) if isinstance(a, EKernel) else [(a.values, b.values)]
    return all(x >= y for mine, theirs in rows for x, y in zip(mine, theirs))


def oracle_union_closure(gen_bits):
    """Union of every subset of the generators, by subset enumeration."""
    gens = list(gen_bits)
    out = set()
    for mask in range(1 << len(gens)):
        u = 0
        for i, g in enumerate(gens):
            if mask >> i & 1:
                u |= g
        out.add(u)
    return out


def oracle_transitive_closure(matrix):
    """Warshall's closure of a square bool matrix, entry by entry."""
    n = len(matrix)
    mat = [list(row) for row in matrix]
    for k in range(n):
        for i in range(n):
            if mat[i][k]:
                row_k = mat[k]
                row_i = mat[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    return tuple(tuple(row) for row in mat)


def oracle_validate(matrix):
    """Refuse a bool matrix (entry (i, j) reads i <= j) that is not square,
    reflexive and transitive, naming the first failing point or triple."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise NotAPreorder("relation matrix is not square")
    for i in range(n):
        if not matrix[i][i]:
            raise NotAPreorder(f"relation is not reflexive at {i}")
    for i in range(n):
        for j in range(n):
            if not matrix[i][j]:
                continue
            for k in range(n):
                if matrix[j][k] and not matrix[i][k]:
                    raise NotAPreorder(
                        f"relation is not transitive: {i}<={j}<={k} but not {i}<={k}"
                    )


def oracle_least_bits(space, point):
    """Brute intersection of every member containing the point."""
    acc = (1 << space.model.size) - 1
    hit = False
    for m in space.family.members:
        if m >> point & 1:
            acc &= m
            hit = True
    return acc if hit else None


def oracle_least_ids(space):
    """Per point, the id of the meet of every member containing it, when
    that meet is a member; None otherwise. The all-members walk, F x n."""
    meets = [oracle_least_bits(space, i) for i in range(space.model.size)]
    return tuple(space.family.id_of(m) if m in space.family else None for m in meets)


def oracle_union_closed_families(n):
    """Every union-closed family on n points that holds the empty set, each
    as a set of bitsets, by testing every set of nonempty subsets: 1, 2, 7,
    61 and 2480 of them for n = 0 to 4 (OEIS A102896)."""
    subsets = range(1, 1 << n)
    found = []
    for mask in range(1 << len(subsets)):
        family = {0} | {s for i, s in enumerate(subsets) if mask >> i & 1}
        if all(a | b in family for a in family for b in family):
            found.append(family)
    return found


def oracle_irreducibles(members):
    """The nonempty members that are not the union of the members strictly
    inside them."""
    found = set()
    for m in members:
        below = 0
        for s in members:
            if s != m and s & ~m == 0:
                below |= s
        if m and below != m:
            found.add(m)
    return found


def oracle_intersection_closed(n, members):
    """Whether the members hold the full set of n points and every pairwise
    intersection."""
    return (1 << n) - 1 in members and all(a & b in members for a in members for b in members)


def oracle_preorders(n):
    """Every preorder on n points, by testing every relation that holds the
    diagonal for transitivity: 1, 4, 29 and 355 of them for n = 1 to 4."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = []
    for mask in range(1 << len(pairs)):
        pre = Preorder.from_pairs(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])
        matrix = tuple(tuple(bool(row >> j & 1) for j in range(n)) for row in pre.rows)
        if oracle_transitive_closure(matrix) == matrix:
            found.append(pre)
    return found


def oracle_measure_from_density(space, density):
    """Each member's least density, found among its point-index tuple on the
    density's order keys (the first least point in index order), and INF on
    the empty member."""
    keys = order_keys(density)
    family = space.family
    values = []
    for hid in range(len(family)):
        least = min(family.indices(hid), key=keys.__getitem__, default=None)
        values.append(INF if least is None else density[least])
    return tuple(values)


def rand_lattice_space(r, case):
    """One of four kinds of family by `case`, on one to six points: the union
    closure of generators with duplicates, the empty set and unions of
    others among them; a tangled family, one not intersection-closed; a
    preorder's family; and a power set built directly as a `HypothesisClass`."""
    kind = case % 4
    n = r.randint(2 if kind == 1 else 1, 6)  # one point has no tangled family
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    if kind == 2:
        return class_from_preorder(model, rand_preorder(r, n))
    if kind == 3:
        return Space(model, HypothesisClass(n, range(1 << n)))
    while True:
        gens = [r.randrange(1, 1 << n) for _ in range(r.randint(1, n + 1))]
        gens += [r.choice(gens), 0] + [a | b for a, b in zip(gens, gens[1:]) if r.random() < 0.5]
        r.shuffle(gens)
        space = Space(model, union_closure(n, gens))
        if kind == 0 or not space.intersection_closed:
            return space


def rand_tied_density(r, n):
    """One value per point, drawn from a pool of at most three, which holds
    0 and inf half the time each: ties are the rule. Half the values are
    fresh objects equal to their pool value, so a tie can be between two
    objects."""
    pool = [rand_xvalue(r, allow_inf=False) for _ in range(r.randint(1, 3))]
    if r.random() < 0.5:
        pool.append(ZERO)
    if r.random() < 0.5:
        pool.append(INF)
    values = [r.choice(pool) for _ in range(n)]
    return [XValue(v.record()) if r.random() < 0.5 else v for v in values]


def oracle_closure(e):
    """Unrestricted cover search: best over all subsets of the family."""
    covers = [(0, INF)]  # (union, least evidence) of each subset of the family
    for member, value in zip(e.space.family.members, e.values):
        covers += [(u | member, low if low <= value else value) for u, low in covers]
    return [
        sup_of(low for u, low in covers if m & ~u == 0)
        for m in e.space.family.members
    ]


def oracle_eclass(space, values):
    """Strongest class by the definitions, over every pair of members."""
    members = list(space.family.members)
    pairs = [(a, b) for a in range(len(members)) for b in range(len(members))]
    if any(
        members[a] & ~members[b] == 0 and values[b] > values[a] for a, b in pairs
    ):
        return EClass.FUNCTION
    union_law = all(
        values[space.family.id_of(members[a] | members[b])] == inf_of([values[a], values[b]])
        for a, b in pairs
    )
    return EClass.MEASURE if union_law else EClass.CAPACITY


def sup_over_true(space, values, point):
    """Largest evidence among the hypotheses containing the point, and 0
    when no member contains it: one maximum over the members, by the
    definition of a point's claim."""
    if isinstance(point, str):
        point = space.model.index(point)
    return max(
        (v for m, v in zip(space.family.members, values) if m >> point & 1), default=ZERO
    )


def oracle_is_capacity(k):
    """Antitonicity by the definition: e(B|x) <= e(A|x) for every pair of
    members A strictly inside B and every outcome x, compared on XValues."""
    members, rows = k.space.family.members, k.rows
    return all(
        all(map(XValue.__le__, rows[b], rows[a]))
        for a, inner in enumerate(members)
        for b, outer in enumerate(members)
        if inner != outer and inner & ~outer == 0
    )


def oracle_claims(k):
    """Per outcome and point, the largest value of a member containing the
    point, and 0 where no member does: `sup_over_true` on each row column."""
    columns = list(zip(*k.rows))
    return [
        [sup_over_true(k.space, column, pi) for pi in range(k.space.model.size)]
        for column in columns
    ]


class FepFsp:
    """The false evidence proportion and the selected true share at one
    (point, outcome) of a selection rule."""

    def __init__(self, fep, fsp):
        self.fep = fep
        self.fsp = fsp


def fep_fsp(k, point, rule, x):
    """The FER oracle: the evidence against the selected hypotheses that
    hold the point, summed and divided by how many are selected, and the
    share of the selection that holds it (0/0 reads 0)."""
    if isinstance(point, str):
        point = k.space.model.index(point)
    if isinstance(x, str):
        x = k.sample.index(x)
    selected = rule.selected[x]
    true = [hid for hid in selected if k.space.family.member(hid) >> point & 1]
    size = max(len(selected), 1)
    fep = sum((kernel_value(k, hid, x) for hid in true), ZERO) / XValue(size)
    return FepFsp(fep, Fraction(len(true), size))


def oracle_expectation(pmf, values):
    """Plain Fraction expectation, infinite terms tracked by hand."""
    total = Fraction(0)
    for mass, v in zip(pmf_mass(pmf), values):
        if mass == 0:
            continue
        if v.is_inf:
            return INF
        total += mass * as_fraction(v)
    return XValue(total)


def worst(report):
    """The entry of a `kernels.Report` that attains its largest statistic,
    the first such pair in walk order (members, then points), built alone;
    None when the report read no pair. It is the witness a sup-type check
    would name."""
    top = report.largest()
    if top is None:
        return None
    tops = [sum(1 << pi for pi, stat in enumerate(row) if stat == top) for row in report.stats]
    return report._entry(*report._first(tops))


class EagerReport(NamedTuple):
    """A report as a plain tuple of entries, the reference `kernels.Report`
    is held to: it holds when every entry does, its first violation is the
    first failing entry, and its worst entry the first with the largest
    statistic."""

    entries: tuple

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def first_violation(self):
        return next((e for e in self.entries if not e.ok), None)

    def largest(self):
        return max((e.stat for e in self.entries), default=None)

    def worst(self):
        return max(self.entries, key=lambda e: e.stat, default=None)


def eager_pair_report(pa, members, variables, cases=None, bounds=None, slots=None):
    """The pair walk (`kernels._pair_report`) built eagerly, pair by pair:
    one `Entry` per point of each member, in member and then point order,
    with its own expectation of the member's variable `variables[slots[m]]`
    (else `variables[m]`) and its verdict from comparing the two exact
    values, in an `EagerReport`. Nothing is shared between pairs; the walk
    must give the same entries, verdict, worst entry and first violation."""
    points = pa.model.points
    bounds = [ONE] * len(points) if bounds is None else bounds
    if slots is not None:
        variables = [variables[slot] for slot in slots]
    entries = []
    for m, (bits, var) in enumerate(zip(members, variables)):
        hid, case = (m, None) if cases is None else (None, cases[m])
        for pi in points_of(bits):
            stat = dot_at_most(pa.pmfs[pi].scaled, var)[0]
            entries.append(Entry(points[pi], stat, bounds[pi], hid, case, stat <= bounds[pi]))
    return EagerReport(tuple(entries))


def termwise_expectation(masses, values):
    """The expectation term by term, as one integer numerator/denominator
    pair cross-multiplied at each term and reduced once at the end; zero
    mass against inf contributes 0."""
    num, den = 0, 1
    for m, v in zip(masses, values):
        if m:
            if v.is_inf:
                return INF
            m, f = Fraction(m), as_fraction(v)
            term_num = m.numerator * f.numerator
            term_den = m.denominator * f.denominator
            if term_den == den:
                num += term_num
            else:
                num, den = num * term_den + term_num * den, den * term_den
    return XValue(Fraction(num, den))


def oracle_stopping_times(tree):
    """Every adapted stopping rule, as a stop depth per outcome.

    A rule is a cut through the tree: each root-to-leaf path stops at
    exactly one node, so the decision at time t uses only level-t
    information. Enumerates every cut, one per rule.
    """

    def leaves(shape):
        return [shape] if isinstance(shape, str) else [x for c in shape for x in leaves(c)]

    def cuts(shape, depth):
        mine = {tree.sample.index(x): depth for x in leaves(shape)}
        if isinstance(shape, str):
            return [mine]
        partial = [{}]
        for child in shape:
            partial = [{**p, **c} for p in partial for c in cuts(child, depth + 1)]
        return [mine, *partial]

    return [tuple(c[i] for i in range(tree.sample.size)) for c in cuts(tree.shape, 0)]


def stopped_kernel(proc, rule):
    """The kernel that reads each outcome's table at its stop depth."""
    cols = [proc.kernels[t].columns[xi] for xi, t in enumerate(rule)]
    return kernel_of(proc.space, proc.tree.sample, cols)


def oracle_anytime(proc, pa):
    """Largest expected stopped evidence per (hid, point index), over every rule."""
    best = {}
    for rule in oracle_stopping_times(proc.tree):
        k = stopped_kernel(proc, rule)
        for hid in proc.space.family.nonempty_ids():
            for pi in points_of(proc.space.family.member(hid)):
                stat = oracle_expectation(pa.pmfs[pi], k.rows[hid])
                if (hid, pi) not in best or stat > best[hid, pi]:
                    best[hid, pi] = stat
    return best



def oracle_stop_rule(proc, hid, mass):
    """The rule attaining the Snell envelope of one pair, as a stop depth per
    outcome: recursively, in XValue, a node stops when its stop value
    P(node) e_t(H | node) is at least the sum of its children's envelopes
    (ties stop), and a leaf always stops."""

    def walk(shape, t, lo):
        # Returns (W, the node's mass, stop depths of its leaves, next leaf).
        if isinstance(shape, str):
            hi, node_mass, cont, rule = lo + 1, mass[lo], None, ()
        else:
            hi, node_mass, cont, rule = lo, Fraction(0), XValue(0), ()
            for child in shape:
                w, m, r, hi = walk(child, t + 1, hi)
                node_mass, cont, rule = node_mass + m, cont + w, rule + r
        stop = XValue(node_mass) * proc.kernels[t].columns[lo].values[hid]
        if cont is None or stop >= cont:
            return stop, node_mass, (t,) * (hi - lo), hi
        return cont, node_mass, rule, hi

    return walk(proc.tree.shape, 0, 0)[2]

def oracle_fixed_points(e, family_ids, alpha):
    """Every subset of the candidates whose rejections at 1/alpha are the
    subset itself, each with its post-processed values on the candidates.

    Subsets are tried by descending size and canonical order inside a size,
    each with a full post-processed table.
    """
    ids = sorted(family_ids)
    threshold = XValue(1) / XValue(alpha)
    for size in range(len(ids), -1, -1):
        for combo in itertools.combinations(ids, size):
            inflated = postprocess_efunction(e, selection_shares(e.space, combo))
            rejected = tuple(g for g in ids if inflated.values[g] >= threshold)
            if rejected == combo:
                yield combo, {g: inflated.values[g] for g in ids}


def oracle_self_consistent(e, family_ids, alpha):
    """Largest self-consistent selection by trying every subset of the
    candidates: the first of ``oracle_fixed_points``. Returns (selected,
    witness, is_fixed_point)."""
    for combo, witness in oracle_fixed_points(e, family_ids, alpha):
        return combo, witness, True
    return (), {}, False


def evidence_against_optimality(k, table, pa):
    """The kernel pushed forward along the optimal-decision map, onto the
    power set of the decisions: for each set of decisions, the evidence
    against the claim that the truly optimal decision lies in it. The
    oracle of the command line's linear optimality ranking, whose values
    are its singletons. Returns (kernel, report) as
    ``pushforward_kernel`` does; ties leave no map and raise DecisionError.
    """
    result = optimality_class(table)
    if result.optimal is None:
        raise DecisionError("optimal decisions are not unique; no pushforward map")
    target_model = Model(tuple(table.decisions))
    n = target_model.size
    target = Space(target_model, HypothesisClass(n, range(1 << n)))
    return pushforward_kernel(k, result.optimal, target, pa)


def at_least(cspace, a, b):
    """Consequence a is at least as bad as consequence b (indices)."""
    return bool(cspace.order.rows[a] >> b & 1)


def row_dominates(table, hi, lo):
    """Point hi's consequence row is at least as bad as point lo's under
    every decision."""
    return all(
        at_least(table.cspace, a, b) for a, b in zip(table.entries[hi], table.entries[lo])
    )


def hypothesis_for_bound(table, decision, c):
    """The bound hypothesis of a decision at consequence c (index or
    label), point by point: the points whose consequence is at least as bad
    as c."""
    if isinstance(decision, str):
        decision = table.decisions.index(decision)
    if isinstance(c, str):
        c = table.cspace.index(c)
    return sum(
        1 << pi
        for pi, row in enumerate(table.entries)
        if at_least(table.cspace, row[decision], c)
    )


def build_consequence_class(table):
    """The whole class the table induces: the union closure of the upper
    sets of row dominance, built from every dominating pair."""
    n = table.model.size
    pairs = [(lo, hi) for lo in range(n) for hi in range(n) if row_dominates(table, hi, lo)]
    return class_from_preorder(table.model, Preorder.from_pairs(n, pairs).transitive_closure())
