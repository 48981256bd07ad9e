"""Data-indexed evidence tables and every expectation-based check.

An E-kernel assigns an evidence table to each outcome of a finite sample
space: one row per hypothesis, the evidence against it as a function of
the outcome. Validity of a kernel (and of stopped processes, the
E-posterior `eposterior`, pushforwards, predictive kernels) is decided by
exact rational expectations of those rows; nothing here is simulated. A
kernel is stored as its row index, its distinct row objects and each
hypothesis's slot among them (`EKernel`). The row reader of a kernel file
hands over the index it read, one row per distinct row text; a kernel
built from rows finds it once. Each distinct row is scaled once, and the
checks work once per slot or (slot, point), not once per hypothesis or
pair.

Every statistic the package holds against a bound is one walk,
`_pair_report`, over members (point bitsets), each with a slot among
scaled variables:
the hypotheses for validity, post-hoc levels, the E-posterior, the
pushforward and the anytime envelope; each point alone for FWE, FER with a
rule and the Grünwald bound; each distinct benchmark row's upper set for
decide's bounds; all points at once for the predictive sup and its
identity. The walk keeps one statistic per distinct (variable, point),
decided on integers before its one exact value is built, and a mask of the
points where each variable fails. That is the one `Report`; it builds an
`Entry` only where one is read, and the command line renders its records
from the walk itself. The per-outcome tables are built only for the checks
that read one outcome at a time.
"""

from __future__ import annotations

from operator import mul
from typing import Callable, Mapping, NamedTuple, Optional, Sequence, Union

from . import evidence as ev
from .evidence import EClass, EFunction, EvidenceError
from .spaces import Model, Record, Space, SpaceError, _indices, preimages
from .xvalue import INF, ONE, ZERO, Scaled, XValue, as_xvalue, dot_at_most, ratio, scale


class KernelError(EvidenceError):
    pass


class MeasurabilityError(KernelError):
    pass


class SampleSpace(Record):
    __slots__ = ("outcomes", "positions")
    _compared = ("outcomes",)

    def __init__(self, outcomes: tuple[str, ...]):
        if not outcomes:
            raise KernelError("a sample space needs at least one outcome")
        positions = {x: i for i, x in enumerate(outcomes)}
        if len(positions) != len(outcomes):
            raise KernelError("outcome labels must be unique")
        self.outcomes = outcomes
        # Each outcome label's index; the labels alone fix it.
        self.positions = positions

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise KernelError(f"unknown outcome {label!r}; the outcomes are {list(self.outcomes)}") from None


class Pmf(Record):
    """Probability mass function over a sample space; masses sum to one exactly.

    The masses, XValues or any other rationals (ints, Fractions), are
    scaled to their common denominator once, here (`scaled`), their signs
    checked on the scaled table; that is the stored form, and every
    expectation (`_pair_report`) is a dot product with it. Equal masses
    give equal scaled tables, so they are what a Pmf is compared by.
    """

    __slots__ = _compared = ("sample", "scaled")

    def __init__(self, sample: SampleSpace, mass: Sequence[XValue | int]):
        if len(mass) != sample.size:
            raise KernelError("one mass per outcome is required")
        scaled = scale(mass)
        den, nums, inf = scaled
        if inf:
            raise KernelError("masses must be finite")
        if any(n < 0 for n in nums):
            raise KernelError("masses must be non-negative")
        if sum(nums) != den:
            raise KernelError(f"masses sum to {ratio(sum(nums), den)}, expected 1")
        self.sample = sample
        self.scaled = scaled

    @classmethod
    def of(cls, sample: SampleSpace, table: Mapping[str, object]) -> "Pmf":
        return cls(sample, [table.get(x, ZERO) for x in sample.outcomes])


class ProbabilityAssignment(Record):
    """One distribution per model point."""

    __slots__ = _compared = ("model", "pmfs")

    def __init__(self, model: Model, pmfs: tuple[Pmf, ...]):
        if len(pmfs) != model.size:
            raise KernelError("one distribution per model point is required")
        self.model = model
        self.pmfs = pmfs

    @property
    def sample(self) -> SampleSpace:
        return self.pmfs[0].sample


class EKernel:
    """Evidence against each hypothesis as a function of the outcome.

    `rows[hid]` holds one value per outcome, in outcome order, for each
    hypothesis id of one space, and the empty hypothesis carries inf at
    every outcome. A kernel is stored as its row index: the distinct row
    objects (`distinct`) and each hypothesis's slot among them (`slots`).
    ``fileio.load_kernel``'s row reader has that index as it reads and
    hands it over (`from_index`); a kernel built from rows (the general
    reader, library callers) finds it here, by the identity of the row
    objects. `rows` is built from the index when first read. Each distinct
    row is scaled once, when first read (`tables`), to its least common
    denominator, its integer numerators and the mask of its infinite
    outcomes. The per-outcome tables (`columns`) are built on first read.
    `eclass` is the weakest class among the outcomes' tables, from one
    `evidence.table_class` walk; `claims` gives each point's largest
    evidence per outcome, from which `close_kernel` closes the kernel.
    Both read the distinct rows only.
    """

    def __init__(self, space: Space, sample: SampleSpace, rows: Sequence[Sequence[XValue]]):
        rows = tuple(map(tuple, rows))
        self._store(space, sample, *ev.identity_index(rows))
        self._rows = rows

    @classmethod
    def from_index(
        cls, space: Space, sample: SampleSpace, distinct: list[tuple[XValue, ...]], slots: list[int]
    ) -> "EKernel":
        """The kernel whose hypothesis `hid` has the row `distinct[slots[hid]]`,
        with no pass over the rows; each distinct row is checked once."""
        k = cls.__new__(cls)
        k._store(space, sample, distinct, slots)
        return k

    def _store(self, space, sample, distinct, slots) -> None:
        if len(slots) != len(space.family) or {*map(len, distinct)} != {sample.size}:
            raise KernelError("one row of one value per outcome per hypothesis is required")
        if not all(v.is_inf for v in distinct[slots[space.family.empty_id]]):
            raise ev.NotAnEFunction("the empty hypothesis must carry infinite evidence")
        self.space = space
        self.sample = sample
        self.distinct = distinct
        self.slots = slots
        self._rows: Optional[tuple[tuple[XValue, ...], ...]] = None
        self._tables: Optional[list[Optional[Scaled]]] = None
        self._columns: Optional[tuple[EFunction, ...]] = None
        self._eclass: Optional[EClass] = None

    @property
    def rows(self) -> tuple[tuple[XValue, ...], ...]:
        """Each hypothesis's row, in id order, built on first read."""
        if self._rows is None:
            self._rows = tuple(map(self.distinct.__getitem__, self.slots))
        return self._rows

    def tables(self) -> list[Optional[Scaled]]:
        """Per distinct row object, its scaled table, built on first use;
        None for the empty hypothesis's row unless another shares it."""
        if self._tables is None:
            read = set(self.slots[1:])
            self._tables = [scale(row) if s in read else None for s, row in enumerate(self.distinct)]
        return self._tables

    @property
    def columns(self) -> tuple[EFunction, ...]:
        """One evidence table per outcome, built on first read as an index:
        the distinct rows' values at the outcome, and the kernel's slots."""
        if self._columns is None:
            space, slots = self.space, self.slots
            self._columns = tuple(EFunction.from_index(space, [*col], slots) for col in zip(*self.distinct))
        return self._columns

    @property
    def eclass(self) -> EClass:
        """The weakest class among the outcomes' tables, computed on first
        read: one `evidence.table_class` walk, with one lane per outcome,
        over the keys of the distinct row objects."""
        if self._eclass is None:
            self._eclass = ev.table_class(self.space, list(zip(*self.distinct)), self.slots)
        return self._eclass

    def claims(self) -> list[list[XValue]]:
        """Per outcome, per point, the most evidence of a member containing
        the point (its claim at that outcome), and 0 where none does.

        The work is per distinct row object: each gets the union of its
        members' points, and per outcome `evidence._claims` sweeps those
        rows, largest value first, in place of the members.
        """
        covers = ev.slot_covers(self.space.family.members, self.slots, len(self.distinct))
        n = self.space.model.size
        return [ev._claims(n, covers, values) for values in zip(*self.distinct)]

    def column(self, x: int | str) -> EFunction:
        if isinstance(x, str):
            x = self.sample.index(x)
        return self.columns[x]


# -- one report shape for every expectation held against a bound -----------


class Entry(Record):
    """One statistic held against its bound at a point (None for a statistic
    per distribution). Pair checks name the hypothesis id, others may name a
    case such as a benchmark row or an outcome. `ok` is whether the
    statistic is at most the bound, as the walk decided it on integers."""

    __slots__ = _compared = ("point", "stat", "bound", "hid", "case", "ok")

    def __init__(
        self, point: Optional[str], stat: XValue, bound: XValue,
        hid: Optional[int], case: Optional[str], ok: bool,
    ):
        self.point = point
        self.stat = stat
        self.bound = bound
        self.hid = hid
        self.case = case
        self.ok = ok


# -- hypothesis-wise validity ------------------------------------------


def check_validity(k: EKernel, pa: ProbabilityAssignment) -> Report:
    """Exact expectation of every (nonempty hypothesis, contained point) pair."""
    return _pair_report(pa, k.space.family.members, k.tables(), slots=k.slots)


def _pair_report(
    pa: ProbabilityAssignment, members: Sequence[int], variables: Sequence[Optional[Scaled]],
    cases: Optional[Sequence[Optional[str]]] = None, bounds: Optional[Sequence[XValue]] = None,
    statistic: Optional[Callable[[Scaled, int], tuple[XValue, bool]]] = None,
    slots: Optional[Sequence[int]] = None,
) -> Report:
    """The package's one walk of statistics held against a bound. Each
    member is a bitset over `pa`'s model points with a scaled variable,
    `variables[slots[m]]` (by default member m has slot m), and each of its
    points, in point order, makes one pair: the expectation of the variable
    under the point's distribution against the point's bound (by default
    1), or `statistic(variable, point index)`, a (value, holds) pair (the
    anytime envelope, the predictive identity). A pair names its member by
    its index, a hypothesis id, or its case in `cases`; an empty member
    makes none.

    The work is per slot, not per pair: a slot's members are ORed into one
    cover, one step per member, and the slot's statistics are computed over
    its cover's points. Slots of equal variables share them, so each
    (variable, point) statistic is computed once; the `Report` keeps them,
    and the mask of points where they fail, once per distinct variable, and
    each member's index among those. A member's pairs are read off them, so
    no pair costs a step of its own, and a variable whose cover is empty
    (the empty member's) is never read. A kernel's checks pass its row
    index (`EKernel.slots`, `EKernel.tables`). A walk of v distinct
    variables over n points costs at most v·n statistics (an anytime one
    walks the tree once): r·n for a kernel of r distinct rows, where the
    pairs of a power set number n·2^(n-1); tests/test_growth.py holds that
    count, and the records that render it, to a log-log slope of at most
    2.2 in n. A walk of one singleton member per point (FWE, FER with a
    rule, the Grünwald bound) or of one member of every point (the
    predictive check) costs exactly n, which tests/test_growth.py also
    holds; decide's walk of one member per distinct benchmark row costs at
    most that many times n.
    """
    n = pa.model.size
    bounds = [ONE] * n if bounds is None else bounds
    masses = [pmf.scaled for pmf in pa.pmfs]
    covers = ev.slot_covers(members, range(len(members)) if slots is None else slots, len(variables))
    group: dict[Scaled, int] = {}  # each distinct variable read, by value
    stats: list[list[Optional[XValue]]] = []  # per group, its statistics by point
    computed: list[int] = []
    failed: list[int] = []
    of_slot: list[Optional[int]] = []
    for var, cover in zip(variables, covers):
        if not cover:
            of_slot.append(None)
            continue
        g = group.setdefault(var, len(stats))
        if g == len(stats):
            stats.append([None] * n)
            computed.append(0)
            failed.append(0)
        of_slot.append(g)
        todo = cover & ~computed[g]
        if todo:
            computed[g] |= todo
            row = stats[g]
            while todo:
                low = todo & -todo
                todo ^= low
                pi = low.bit_length() - 1
                if statistic is None:
                    row[pi], ok = dot_at_most(masses[pi], var, bounds[pi])
                else:
                    row[pi], ok = statistic(var, pi)
                if not ok:
                    failed[g] |= low
    groups = of_slot if slots is None else list(map(of_slot.__getitem__, slots))
    return Report(pa.model.points, bounds, members, cases, groups, stats, failed)


class Report(Record):
    """The one report shape, a walk as it left off (`_pair_report`): per
    slot (a distinct variable), its statistic at each point it read and the
    mask of the points where that statistic fails its bound; per member,
    its bitset, slot and name (its index, or its case). It holds when no
    slot fails. `largest()`
    compares each statistic once; `first_violation()` builds the one entry
    it names, the first pair in walk order (members, then points) whose
    statistic fails; `entries`, one per pair in walk order, are built when
    first read, and compared."""

    __slots__ = ("points", "bounds", "members", "cases", "slots", "stats", "failed", "_entries")
    _compared = ("entries",)

    def __init__(
        self, points: tuple[str, ...], bounds: Sequence[XValue], members: Sequence[int],
        cases: Optional[Sequence[Optional[str]]], slots: list[Optional[int]],
        stats: list[list[Optional[XValue]]], failed: list[int],
    ):
        self.points = points
        self.bounds = bounds
        self.members = members
        self.cases = cases
        self.slots = slots
        self.stats = stats
        self.failed = failed
        self._entries: Optional[tuple[Entry, ...]] = None

    @property
    def entries(self) -> tuple[Entry, ...]:
        if self._entries is None:
            self._entries = tuple(
                self._entry(m, pi) for m, bits in enumerate(self.members) for pi in _indices(bits)
            )
        return self._entries

    def _entry(self, m: int, pi: int) -> Entry:
        """The entry of member m at point pi."""
        slot = self.slots[m]
        hid, case = (m, None) if self.cases is None else (None, self.cases[m])
        ok = not self.failed[slot] >> pi & 1
        return Entry(self.points[pi], self.stats[slot][pi], self.bounds[pi], hid, case, ok)

    def _first(self, masks: Sequence[int]) -> Optional[tuple[int, int]]:
        """The first pair in walk order, as (member, point index), whose
        point is in its slot's mask."""
        for m, (bits, slot) in enumerate(zip(self.members, self.slots)):
            hit = bits and bits & masks[slot]
            if hit:
                return m, (hit & -hit).bit_length() - 1
        return None

    @property
    def ok(self) -> bool:
        return not any(self.failed)

    def first_violation(self) -> Optional[Entry]:
        first = None if self.ok else self._first(self.failed)
        return first and self._entry(*first)

    def largest(self) -> Optional[XValue]:
        return max((stat for row in self.stats for stat in row if stat is not None), default=None)


def close_kernel(k: EKernel) -> EKernel:
    """Close every outcome's table: the measure of its claims (`claims`, one
    sweep of the distinct rows), as `evidence.close` closes one table. The
    closure dominates the kernel, so validity is never gained. On an
    intersection-closed space a valid capacity kernel stays valid: each
    point's claim sits on its least hypothesis, which bounds the closure of
    every member holding the point. Elsewhere validity can be lost, since a
    claim is an outcome-wise max over several members holding the point,
    and the closure can raise a member to it at every outcome."""
    closed = [ev.measure_from_density(k.space, claims).values for claims in k.claims()]
    return EKernel(k.space, k.sample, zip(*closed))


# -- confidence sets and post-hoc levels -------------------------------


LevelRule = Union[str, Mapping[str, XValue]]


def outcome_thresholds(k: EKernel, rule: Mapping[str, object]) -> Scaled:
    """1/level of a fixed rule's level per outcome, in outcome order, as a
    scaled table; each level lies in (0, inf)."""
    table = {x: as_xvalue(v) for x, v in rule.items()}
    for x, level in table.items():
        if level.is_zero or level.is_inf:
            raise KernelError(f"level {level} at outcome {x!r} is outside (0, inf)")
    return scale([ONE / table[x] for x in k.sample.outcomes])


def miss_variable(var: Scaled, thresholds: Scaled) -> Scaled:
    """1{miss} / level as a scaled table: the threshold 1/level at each
    outcome where the scaled variable reaches it, where the level's
    confidence set misses, and 0 elsewhere."""
    den, nums, inf = var
    t_den, t_nums, _ = thresholds
    missed = (inf >> i & 1 or n * t_den >= t * den for i, (n, t) in enumerate(zip(nums, t_nums)))
    return t_den, tuple(t if miss else 0 for t, miss in zip(t_nums, missed)), 0


def check_posthoc_validity(
    k: EKernel, pa: ProbabilityAssignment, rule: LevelRule
) -> Report:
    """Expected miss rate of the level-rule confidence sets, at the rule's level.

    For each pair the statistic is the expectation of
    1{e(H|X) >= 1/level(X)} / level(X). At the canonical level 1/e(H|x) the
    integrand is e(H|x) itself, 0 and inf included, so the canonical rule is
    the plain validity pass. At a fixed rule the integrand depends only on
    the outcomes where H misses: it is built once per row object, and
    hypotheses with one miss mask share their statistics.
    """
    if rule == "canonical":
        return check_validity(k, pa)
    thresholds = outcome_thresholds(k, rule)
    misses = [var and miss_variable(var, thresholds) for var in k.tables()]
    return _pair_report(pa, k.space.family.members, misses, slots=k.slots)


# -- updating -----------------------------------------------------------


def eposterior(prior: EFunction, k: EKernel, pa: ProbabilityAssignment) -> tuple[EKernel, Report]:
    """The E-posterior of a prior table and a kernel, and its report; the
    space chooses the object. On an intersection-closed space it is the
    hypothesis-wise product prior(H)·e(H|x) closed outcome by outcome
    (`close_kernel`), each pair held against the prior at its point's least
    hypothesis. Elsewhere it is the product, a capacity whose bound
    prior(H)·E_p[e(H|X)] <= prior(H) holds exactly where E_p[e(H|X)] <= 1
    or prior(H) is 0 or inf: its report is the kernel's own pair walk over
    the hypotheses of finite positive prior, held against 1.
    """
    if prior.eclass < EClass.CAPACITY or k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("updating needs capacities")
    space = k.space
    post = EKernel(space, k.sample, [tuple(p * v for v in row) for p, row in zip(prior.values, k.rows)])
    if space.intersection_closed:
        post = close_kernel(post)
        bounds = [prior.values[hid] for hid in space.least_ids()]
        report = _pair_report(pa, space.family.members, post.tables(), bounds=bounds, slots=post.slots)
        return post, report
    members = [0 if p.is_zero or p.is_inf else m for p, m in zip(prior.values, space.family.members)]
    return post, _pair_report(pa, members, k.tables(), slots=k.slots)


# -- finite-horizon processes -------------------------------------------

TreeShape = Union[str, list["TreeShape"]]

# A tree node: its depth t, its outcomes lo..hi-1 and its children's indices
# in the node list.
TreeNode = tuple[int, int, int, tuple[int, ...]]


class FiltrationTree:
    """Finite rooted tree whose leaves are the outcomes; depth is the horizon.

    The tree is flattened once, without recursion, into `nodes` in
    post-order: every child comes before its parent and the root is last.
    At step t the filtration's atoms are the depth-t nodes; a leaf shallower
    than t stays its own atom from its depth onward. The leaves may list
    the outcomes in any order; the checks read them in leaf order, each
    leaf at its outcome's index in the sample (`order`).
    """

    def __init__(self, sample: SampleSpace, shape: TreeShape):
        self.sample = sample
        self.shape = shape
        self.nodes, self.leaves = _flatten(shape)
        faults = _leaf_faults(self.leaves, sample)
        if faults:
            raise KernelError(f"tree leaves must name each outcome once; they {' and '.join(faults)}")
        self.order = [sample.positions[x] for x in self.leaves]
        self.depth = max(t for t, _, _, _ in self.nodes)

    def count_stopping_times(self) -> int:
        """Number of adapted stopping rules: cuts through the tree that meet
        each root-to-leaf path exactly once."""
        counts = []
        for _, _, _, children in self.nodes:
            prod = 1
            for c in children:
                prod *= counts[c]
            counts.append(1 + prod if children else 1)
        return counts[-1]


def _leaf_faults(leaves: list[str], sample: SampleSpace) -> list[str]:
    """What the leaves get wrong, as clauses: the outcomes they miss, the
    ones they repeat and the ones they add, which the sample lacks."""
    count: dict[str, int] = {}
    for x in leaves:
        count[x] = count.get(x, 0) + 1
    found = (
        ("miss", [x for x in sample.outcomes if x not in count], ""),
        ("repeat", [x for x, c in count.items() if c > 1], ""),
        ("add", [x for x in count if x not in sample.positions], ", which the sample lacks"),
    )
    return [f"{verb} {xs}{note}" for verb, xs, note in found if xs]


_CLOSE = object()


def _flatten(shape: TreeShape) -> tuple[list[TreeNode], list[str]]:
    """The post-order nodes of a tree shape and its leaves, left to right.
    The nodes are visited in pre-order. A node that is neither a list nor a
    mapping is the outcome `str(node)`, as the file readers label outcome
    keys; the first mapping or empty list is refused."""
    nodes: list[TreeNode] = []
    leaves: list[str] = []
    # The internal nodes not yet closed, as (depth, first leaf, child
    # indices); the bottom entry collects the root.
    opened: list[tuple[int, int, list[int]]] = [(0, 0, [])]
    todo = [(shape, 0)]
    while todo:
        node, t = todo.pop()
        if node is _CLOSE:
            t, lo, kids = opened.pop()
            node = (t, lo, len(leaves), tuple(kids))
        elif not isinstance(node, (list, dict)):
            leaves.append(str(node))
            node = (t, len(leaves) - 1, len(leaves), ())
        elif isinstance(node, dict) or not node:
            raise KernelError(
                f"tree node {node!r} is neither an outcome label nor a non-empty list of nodes"
            )
        else:
            opened.append((t, len(leaves), []))
            todo.append((_CLOSE, t))
            todo.extend((child, t + 1) for child in reversed(node))
            continue
        opened[-1][2].append(len(nodes))
        nodes.append(node)
    return nodes, leaves


class EProcess:
    """A kernel per time step, measurable against a filtration tree."""

    def __init__(self, tree: FiltrationTree, kernels: Sequence[EKernel]):
        t, given = tree.depth, len(kernels)
        if given != t + 1:
            raise KernelError(f"a tree of depth {t} needs one kernel per step 0..{t}, got {given}")
        space = kernels[0].space
        for k in kernels:
            if k.space != space or k.sample != tree.sample:
                raise KernelError("kernels must share the space and sample")
        self.tree = tree
        self.kernels = tuple(kernels)
        self.space = space

    def require_measurable(self) -> list[list[tuple[XValue, ...]]]:
        """Per step, the values at each outcome by hypothesis, in leaf
        order, one transpose of its rows. Raise MeasurabilityError at the
        first step, in time and then leaf order, whose tables differ inside
        one of its atoms."""
        outcomes, order = self.tree.leaves, self.tree.order
        by_outcome = [[columns[o] for o in order] for columns in (tuple(zip(*k.rows)) for k in self.kernels)]
        for t, lo, hi, children in sorted(self.tree.nodes):
            if not children:
                continue  # a leaf is a one-outcome atom
            base = by_outcome[t][lo]
            for xi in range(lo + 1, hi):
                other = by_outcome[t][xi]
                if other != base:
                    hid = next(h for h, (a, b) in enumerate(zip(base, other)) if a != b)
                    raise MeasurabilityError(
                        f"step {t} gives hypothesis {self.space.label(hid)} different "
                        f"values at outcomes {outcomes[lo]} and {outcomes[xi]}, "
                        f"which share one atom at that step"
                    )
        return by_outcome


class AnytimeReport(NamedTuple):
    """Per pair, the largest expected stopped evidence over the
    `rules_checked` stopping rules; `rule` attains it at the first violating
    pair, as a stop depth per outcome in the tree's leaf order (None when
    every pair holds)."""

    rules_checked: int
    stats: Report
    rule: Optional[tuple[int, ...]]


def check_anytime_validity(proc: EProcess, pa: ProbabilityAssignment) -> AnytimeReport:
    """Largest expected stopped evidence of every pair, by backward induction.

    For each (nonempty hypothesis, contained point) pair the sup of
    E_P[e_tau(H)] over adapted stopping rules tau is the Snell envelope at
    the root, in unnormalised masses: W(node) = max(P(node) e_t(H | node),
    sum of W over the children), and a leaf's W is its own stop value.

    The envelope is the pair walk's statistic (`_pair_report`) on ints: node
    masses are slice sums of each point's scaled distribution, and each
    hypothesis's step values on the nodes are one scaled vector
    (measurability makes e_t constant on a depth-t node, so its first
    outcome stands in). A vector is scaled once per distinct tuple of its
    hypothesis's step-row slots, and equal vectors share a slot, so the
    tree is walked once per distinct (step vector, point). A stop value is
    the product of two numerators, and the root's W over the two
    denominators is the pair's one exact value. Zero mass against inf gives
    0; positive mass against inf makes it inf. The maximising rule stops
    wherever stopping attains W (ties stop); it is built after the walk, for
    the first violating pair only.
    """
    by_outcome = proc.require_measurable()
    nodes = proc.tree.nodes
    children = [c for _, _, _, c in nodes]
    # Per point: its denominator, its node mass numerators, the nodes it charges.
    masses, order = [], proc.tree.order
    for pmf in pa.pmfs:
        den, nums, _ = pmf.scaled
        nums = [nums[o] for o in order]
        mass = [sum(nums[lo:hi]) for _, lo, hi, _ in nodes]
        charged = sum(1 << i for i, m in enumerate(mass) if m)
        masses.append((den, mass, charged))

    def stops(var: Scaled, pi: int) -> tuple[list[int], int]:
        """A pair's stop values, and its nodes where mass meets inf."""
        _, mass, charged = masses[pi]
        return list(map(mul, mass, var[1])), var[2] & charged

    def envelope(var: Scaled, pi: int) -> tuple[XValue, bool]:
        stop, blown = stops(var, pi)
        w, den = _snell(children, stop)[-1], masses[pi][0] * var[0]
        return (INF, False) if blown else (ratio(w, den), w <= den)

    steps = [by_outcome[t][lo] for t, lo, _, _ in nodes]
    family = proc.space.family  # the empty hypothesis, id 0, has no variable
    variables: list = [None]
    slots = [0]
    slot_of: dict = {}  # by the slots of a hypothesis's step rows, which fix its vector
    for hid in family.nonempty_ids():
        key = tuple(k.slots[hid] for k in proc.kernels)
        slot = slot_of.get(key)
        if slot is None:
            slot = slot_of[key] = len(variables)
            variables.append(scale([step[hid] for step in steps]))
        slots.append(slot)
    report = _pair_report(pa, family.members, variables, statistic=envelope, slots=slots)
    first = None if report.ok else report._first(report.failed)
    rule = first and _stop_rule(nodes, children, *stops(variables[slots[first[0]]], first[1]))
    return AnytimeReport(proc.tree.count_stopping_times(), report, rule)


def _snell(children: Sequence[tuple[int, ...]], stop: Sequence[int]) -> list[int]:
    """W per node in post-order: max(stop, sum of the children's W)."""
    w: list[int] = []
    get = w.__getitem__
    for s, kids in zip(stop, children):
        if kids:
            cont = sum(map(get, kids))
            if cont > s:
                s = cont
        w.append(s)
    return w


def _stop_rule(
    nodes: Sequence[TreeNode], children: Sequence[tuple[int, ...]], stop: Sequence[int], blown: int
) -> tuple[int, ...]:
    """The rule that stops where stopping attains W, as a stop depth per outcome.

    `blown` marks the nodes where positive mass meets infinite evidence.
    Their stop value and every W above them is inf, which the int arrays do
    not hold: such a node stops, and a node with one below it continues.
    """
    w = _snell(children, stop)
    inf_below = []  # per node, whether it or a node below it is blown
    for i, kids in enumerate(children):
        inf_below.append(bool(blown >> i & 1) or any(inf_below[k] for k in kids))
    rule = [0] * nodes[-1][2]
    todo = [len(nodes) - 1]
    while todo:
        i = todo.pop()
        t, lo, hi, kids = nodes[i]
        stops = blown >> i & 1 if inf_below[i] else stop[i] == w[i]
        if stops or not kids:
            rule[lo:hi] = [t] * (hi - lo)
        else:
            todo.extend(kids)
    return tuple(rule)


# -- predictive kernels ---------------------------------------------------


class PredictiveReport(NamedTuple):
    """Per outcome, the sup over true hypotheses held against the least
    hypothesis's value (`identity`); per distribution, named by its point,
    the expected sup (`stats`). The sup is never below the least value, so an identity
    entry holds exactly where the two agree."""

    identity: Report
    stats: Report


def check_predictive_validity(k: EKernel, pa: ProbabilityAssignment) -> PredictiveReport:
    """Prediction-style validity when hypotheses are sets of outcomes.

    Per outcome, the largest evidence among true hypotheses must match the
    evidence against the outcome's least hypothesis, which it is never
    below; where it does, the sup variable is that single variable, so its
    statistics decide both criteria. The sups are the kernel's claims
    (`EKernel.claims`), one sweep per outcome over the distinct rows. Both
    reports are the pair walk of one member holding every point: the
    identity's statistic is the sup at the point's outcome, against the
    least hypothesis's value there, so its entries come in the space's
    point order, whatever order the sample lists the outcomes in.
    """
    positions, outcomes = k.space.model.positions, k.sample.outcomes
    if sorted(positions) != sorted(outcomes):
        raise SpaceError("predictive checks need the model to be the sample space")
    k.space.require_intersection_closed()
    least = k.space.least_ids()
    claims = k.claims()
    at = [k.sample.positions[p] for p in positions]  # each point's outcome index
    sup = [claims[xi][pi] for pi, xi in enumerate(at)]
    least_value = [k.distinct[k.slots[least[pi]]][xi] for pi, xi in enumerate(at)]
    sup_var = scale([sup[positions[x]] for x in outcomes])
    every = [(1 << len(at)) - 1]
    identity = _pair_report(
        pa, every, [sup_var], [None], least_value, lambda _, pi: (sup[pi], sup[pi] <= least_value[pi])
    )
    return PredictiveReport(identity, _pair_report(pa, every, [sup_var], [None]))


# -- pushforwards ----------------------------------------------------------


def pushforward_kernel(
    k: EKernel, mapping: Mapping[str, str], target: Space, pa: ProbabilityAssignment
) -> tuple[EKernel, Report]:
    """Evidence on a coarser space via preimages of its hypotheses, with
    its validity re-checked in the pushed-forward sense.

    Fails if some target hypothesis has a preimage outside the source
    family. Points are charged only to hypotheses containing their image:
    the report is the pair walk over the pushed kernel with each target
    member's points read off its preimage.
    """
    source = k.space
    bitsets = preimages(source.model, mapping, target)
    for member, bits in zip(target.family.members, bitsets):
        if bits not in source.family:
            raise MeasurabilityError(
                f"preimage of {target.model.label(member)} is not a source hypothesis"
            )
    pushed = EKernel(target, k.sample, [k.rows[source.family.id_of(bits)] for bits in bitsets])
    return pushed, _pair_report(pa, bitsets, pushed.tables(), slots=pushed.slots)
