"""Instance generators and independent oracles shared by the test suite.

The oracles here deliberately use different algorithms than the library:
closures by unrestricted cover enumeration, least hypotheses by brute
intersection, unions by subset enumeration. They were written against the
definitions, not against the implementation.
"""

import itertools
import random
from fractions import Fraction

from emeasure import (
    EClass,
    EKernel,
    EProcess,
    FiltrationTree,
    INF,
    Model,
    Pmf,
    PointSet,
    Preorder,
    ProbabilityAssignment,
    SampleSpace,
    Space,
    XValue,
    ZERO,
    class_from_preorder,
    classify,
    inf_of,
    postprocess_efunction,
    sup_of,
    union_closure,
)


def rng(seed: int) -> random.Random:
    return random.Random(seed)


def rand_fraction(r, max_num=8, max_den=4, allow_zero=True):
    low = 0 if allow_zero else 1
    return Fraction(r.randint(low, max_num), r.randint(1, max_den))


def rand_xvalue(r, allow_inf=True, allow_zero=True):
    if allow_inf and r.random() < 0.15:
        return INF
    return XValue(rand_fraction(r, allow_zero=allow_zero))


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
        gens = [PointSet(n, r.randrange(1, 1 << n)) for _ in range(r.randint(1, 4))]
        space = Space(model, union_closure(n, gens))
        if max_members is None or len(space.family) <= max_members:
            return space


def power_space(n):
    model = Model(tuple(f"P{i + 1}" for i in range(n)))
    from emeasure import HypothesisClass

    return Space(model, HypothesisClass(n, range(1 << n), check=False))


def rand_capacity(r, space, allow_inf=True):
    """Random antitone table: each value is the best raw value over supersets."""
    members = space.family.members
    raw = [rand_xvalue(r, allow_inf) for _ in members]
    values = {}
    for hid, m in enumerate(members):
        values[hid] = sup_of(
            raw[j] for j, mm in enumerate(members) if m.bits & ~mm.bits == 0
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
        hid: inf_of(density[least[i]] for i in m.indices())
        for hid, m in enumerate(space.family.members)
    }
    e = classify(space, values)
    assert e.eclass is EClass.MEASURE
    return e


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
            [XValue(Fraction(q, denom)) / XValue(pmf.mass[xi]) for xi, q in enumerate(qs)]
        )
    cols = []
    for xi in range(sample.size):
        values = {
            hid: inf_of(evars[pi][xi] for pi in m.indices())
            for hid, m in enumerate(space.family.members)
        }
        cols.append(classify(space, values))
    return EKernel(space, sample, cols)


def valid_capacity_kernel(r, space, pa):
    """Convex mixture of two valid measure kernels; valid, often not a measure."""
    from emeasure import merge_convex_kernels

    k1 = valid_measure_kernel(r, space, pa)
    k2 = valid_measure_kernel(r, space, pa)
    return merge_convex_kernels([k1, k2], [Fraction(1, 3), Fraction(2, 3)])


def constant_two_kernel(space, sample):
    values = {
        hid: INF if m.is_empty else XValue(2)
        for hid, m in enumerate(space.family.members)
    }
    fn = classify(space, values)
    return EKernel(space, sample, [fn] * sample.size)


def scaled_kernel(k, factor):
    cols = []
    for col in k.columns:
        values = {hid: v * XValue(factor) for hid, v in enumerate(col.values)}
        cols.append(classify(k.space, values))
    return EKernel(k.space, k.sample, cols)


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


def rand_process(r, space, tree, allow_inf=True):
    """Random adapted process: one scaled random capacity per atom and step."""
    kernels = []
    for atoms in tree.levels:
        cols = [None] * tree.sample.size
        for atom in atoms:
            fn = rand_capacity(r, space, allow_inf)
            scale = XValue(Fraction(1, r.randint(1, 6)))
            fn = classify(space, {hid: v * scale for hid, v in enumerate(fn.values)})
            for xi in atom:
                cols[xi] = fn
        kernels.append(EKernel(space, tree.sample, cols))
    return EProcess(tree, kernels)


def rand_order_measurable(r, space, max_levels=3, allow_inf=True):
    """Random order-measurable function: levels stacked on a member chain.

    Intersecting random members yields a descending chain (the space is
    intersection-closed), so every super-level set is a chain member.
    """
    from emeasure import OrderMeasurableFn

    members = space.family.members
    current = (1 << space.model.size) - 1
    chain = []
    for _ in range(r.randint(1, max_levels)):
        current &= members[r.randrange(len(members))].bits
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
    from emeasure import OrderMeasurableFn

    members = space.family.members
    current = (1 << space.model.size) - 1
    chain = []
    for _ in range(r.randint(1, max_levels)):
        current &= members[r.randrange(len(members))].bits
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
    from emeasure import OrderMeasurableFn

    member = space.family.member(hid)
    return OrderMeasurableFn.of(space, [1 if i in member else 0 for i in range(space.model.size)])


# -- independent oracles ---------------------------------------------------


def member_label(space, hid):
    """A member's label by its definition: its point labels in index order
    joined by ',', and '{}' for the empty member."""
    member = space.family.member(hid)
    if member.is_empty:
        return "{}"
    return ",".join(member.labels(space.model))


def integral_least_true(f, e):
    """The integral against a measure on an intersection-closed space,
    through least hypotheses: sup over points P of f(P) / e(H_P)."""
    assert e.eclass is EClass.MEASURE and e.space.intersection_closed
    least = e.space.least_ids()
    return sup_of(f.values[i] / e.values[least[i]] for i in range(e.space.model.size))


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


def oracle_least_bits(space, point):
    """Brute intersection of every member containing the point."""
    acc = (1 << space.model.size) - 1
    hit = False
    for m in space.family.members:
        if m.bits >> point & 1:
            acc &= m.bits
            hit = True
    return acc if hit else None


def oracle_closure(e):
    """Unrestricted cover search: best over all subsets of the family."""
    covers = [(0, INF)]  # (union, least evidence) of each subset of the family
    for member, value in zip(e.space.family.members, e.values):
        covers += [(u | member.bits, low if low <= value else value) for u, low in covers]
    return [
        sup_of(low for u, low in covers if m.bits & ~u == 0)
        for m in e.space.family.members
    ]


def oracle_eclass(space, values):
    """Strongest class by the definitions, over every pair of members."""
    members = [m.bits for m in space.family.members]
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


def oracle_expectation(pmf, values):
    """Plain Fraction expectation, infinite terms tracked by hand."""
    total = Fraction(0)
    for mass, v in zip(pmf.mass, values):
        if mass == 0:
            continue
        if v.is_inf:
            return INF
        total += mass * v.as_fraction()
    return XValue(total)


def termwise_expectation(masses, values):
    """The expectation term by term, as one integer numerator/denominator
    pair cross-multiplied at each term and reduced once at the end; zero
    mass against inf contributes 0."""
    num, den = 0, 1
    for m, v in zip(masses, values):
        if m:
            if v.is_inf:
                return INF
            m, f = Fraction(m), v.as_fraction()
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
    return EKernel(proc.space, proc.tree.sample, cols)


def oracle_anytime(proc, pa):
    """Largest expected stopped evidence per (hid, point index), over every rule."""
    best = {}
    for rule in oracle_stopping_times(proc.tree):
        k = stopped_kernel(proc, rule)
        for hid in proc.space.family.nonempty_ids():
            for pi in proc.space.family.member(hid).indices():
                stat = oracle_expectation(pa.pmfs[pi], k.variable(hid))
                if (hid, pi) not in best or stat > best[hid, pi]:
                    best[hid, pi] = stat
    return best


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
            inflated = postprocess_efunction(e, combo)
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
