"""Data-indexed evidence tables and every expectation-based check.

An E-kernel assigns an evidence table to each outcome of a finite sample
space. Validity of a kernel (and of stopped processes, posteriors,
pushforwards, predictive kernels) is decided by exact rational
expectations; nothing here is simulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from . import evidence as ev
from .evidence import EClass, EFunction, EvidenceError
from .spaces import Model, Space, SpaceError, preimages
from .xvalue import ONE, ZERO, Scaled, XValue, as_xvalue, dot, scale


class KernelError(EvidenceError):
    pass


class MeasurabilityError(KernelError):
    pass


@dataclass(frozen=True)
class SampleSpace:
    outcomes: tuple[str, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise KernelError("a sample space needs at least one outcome")
        if len(set(self.outcomes)) != len(self.outcomes):
            raise KernelError("outcome labels must be unique")

    @property
    def size(self) -> int:
        return len(self.outcomes)

    def index(self, label: str) -> int:
        try:
            return self.outcomes.index(label)
        except ValueError:
            raise KernelError(f"unknown outcome {label!r}") from None


@dataclass(frozen=True)
class Pmf:
    """Probability mass function over a sample space; masses sum to one exactly.

    The masses are scaled to their common denominator once, here (`scaled`),
    and every expectation is a dot product with that scaled table.
    """

    sample: SampleSpace
    mass: tuple[Fraction, ...]
    scaled: Scaled = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.mass) != self.sample.size:
            raise KernelError("one mass per outcome is required")
        scaled = scale(self.mass)
        den, nums, _ = scaled
        if any(n < 0 for n in nums):
            raise KernelError("masses must be non-negative")
        if sum(nums) != den:
            raise KernelError(f"masses sum to {Fraction(sum(nums), den)}, expected 1")
        object.__setattr__(self, "scaled", scaled)

    @classmethod
    def of(cls, sample: SampleSpace, table: Mapping[str, object]) -> "Pmf":
        masses = (table.get(x, 0) for x in sample.outcomes)
        return cls(sample, tuple(m if type(m) is Fraction else Fraction(m) for m in masses))

    def __call__(self, x: int | str) -> Fraction:
        if isinstance(x, str):
            x = self.sample.index(x)
        return self.mass[x]

    def expectation(self, values: Sequence[XValue]) -> XValue:
        """Exact expectation; infinite values against zero mass contribute 0."""
        return dot(self.scaled, scale(values))


@dataclass(frozen=True)
class ProbabilityAssignment:
    """One distribution per model point."""

    model: Model
    pmfs: tuple[Pmf, ...]

    def __post_init__(self):
        if len(self.pmfs) != self.model.size:
            raise KernelError("one distribution per model point is required")

    @classmethod
    def of(cls, model: Model, table: Mapping[str, Pmf]) -> "ProbabilityAssignment":
        missing = [p for p in model.points if p not in table]
        if missing:
            raise KernelError(f"no distribution for points {missing}")
        return cls(model, tuple(table[p] for p in model.points))

    def pmf(self, point: int | str) -> Pmf:
        if isinstance(point, str):
            point = self.model.index(point)
        return self.pmfs[point]

    @property
    def sample(self) -> SampleSpace:
        return self.pmfs[0].sample


class EKernel:
    """Per-outcome evidence tables sharing one hypothesis space."""

    def __init__(self, space: Space, sample: SampleSpace, columns: Sequence[EFunction]):
        if len(columns) != sample.size:
            raise KernelError("one evidence table per outcome is required")
        for col in columns:
            if col.space != space:
                raise KernelError("all outcome tables must share the space")
        self.space = space
        self.sample = sample
        self.columns = tuple(columns)

    @property
    def eclass(self) -> EClass:
        return min(col.eclass for col in self.columns)

    def column(self, x: int | str) -> EFunction:
        if isinstance(x, str):
            x = self.sample.index(x)
        return self.columns[x]

    def value(self, hid: int, x: int | str) -> XValue:
        return self.column(x).values[hid]

    def variable(self, hid: int) -> tuple[XValue, ...]:
        """The evidence against one hypothesis as a function of the outcome."""
        return tuple(col.values[hid] for col in self.columns)

    def expectation(self, hid: int, pmf: Pmf) -> XValue:
        return pmf.expectation(self.variable(hid))

    def dominates(self, other: "EKernel") -> bool:
        return all(a.dominates(b) for a, b in zip(self.columns, other.columns))


def constant_kernel(space: Space, sample: SampleSpace, fn: EFunction) -> EKernel:
    return EKernel(space, sample, [fn] * sample.size)


def likelihood_kernel(space: Space, pa: ProbabilityAssignment, reference: Pmf) -> EKernel:
    """Inverse-likelihood kernel relative to a reference distribution.

    Each point p carries reference(x) / P_p(x) at outcome x, and a
    hypothesis gets the least ratio among its points. Valid on every
    union-closed space whenever the reference is a probability mass
    function: under P_p the expectation of e(H) for H containing p is at
    most that of p's own ratio, which sums the reference over the outcomes
    P_p charges.
    """
    cols = []
    for xi in range(reference.sample.size):
        ref = XValue(reference.mass[xi])
        cols.append(
            ev.measure_from_density(space, [ref / XValue(pmf.mass[xi]) for pmf in pa.pmfs])
        )
    return EKernel(space, reference.sample, cols)


# -- one report shape for every expectation held against a bound -----------


@dataclass(slots=True)
class Entry:
    """One statistic held against its bound at a point (None for a statistic
    per distribution). Pair checks name the hypothesis id, others may name a
    case such as a benchmark row or an outcome. One is built per pair, so
    the class is slotted and not frozen, which makes it cheaper to build."""

    point: Optional[str]
    stat: XValue
    bound: XValue = ONE
    hid: Optional[int] = None
    case: Optional[str] = None
    ok: bool = field(init=False)

    def __post_init__(self):
        self.ok = self.stat <= self.bound


@dataclass(frozen=True)
class Report:
    """A check's entries; it holds when every entry does."""

    entries: tuple[Entry, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def first_violation(self) -> Optional[Entry]:
        return next((e for e in self.entries if not e.ok), None)

    def worst(self) -> Optional[Entry]:
        """The entry with the largest statistic, the first one on ties."""
        return max(self.entries, key=lambda e: e.stat, default=None)


# -- hypothesis-wise validity ------------------------------------------


def check_validity(k: EKernel, pa: ProbabilityAssignment) -> Report:
    """Exact expectation of every (nonempty hypothesis, contained point) pair."""
    points, family = k.space.model.points, k.space.family
    entries = []
    for hid in family.nonempty_ids():
        var = scale(k.variable(hid))
        for pi in family.indices(hid):
            entries.append(Entry(points[pi], dot(pa.pmfs[pi].scaled, var), hid=hid))
    return Report(tuple(entries))


def close_kernel(k: EKernel) -> EKernel:
    """Close every outcome's table; validity is neither gained nor lost."""
    return EKernel(k.space, k.sample, [ev.close(col) for col in k.columns])


def merge_convex_kernels(kernels: Sequence[EKernel], weights: Sequence[Fraction | int]) -> EKernel:
    first = kernels[0]
    cols = []
    for xi in range(first.sample.size):
        cols.append(ev.merge_convex([k.columns[xi] for k in kernels], weights))
    return EKernel(first.space, first.sample, cols)


# -- confidence sets and post-hoc levels -------------------------------


def confidence_set(k: EKernel, alpha: Fraction | int, x: int | str) -> tuple[int, ...]:
    """Hypotheses whose evidence at x stays below 1/alpha (never the empty one)."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise KernelError("alpha must be positive")
    threshold = ONE / XValue(alpha)
    col = k.column(x)
    return tuple(
        hid for hid in range(len(k.space.family)) if col.values[hid] < threshold
    )


def rejection_set(k: EKernel, alpha: Fraction | int, x: int | str) -> tuple[int, ...]:
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise KernelError("alpha must be positive")
    threshold = ONE / XValue(alpha)
    col = k.column(x)
    return tuple(
        hid for hid in k.space.family.nonempty_ids() if col.values[hid] >= threshold
    )


LevelRule = Union[str, Mapping[str, XValue]]


def outcome_thresholds(k: EKernel, rule: Mapping[str, object]) -> list[XValue]:
    """1/level of a fixed rule's level per outcome, in outcome order; each
    level lies in (0, inf)."""
    table = {x: as_xvalue(v) for x, v in rule.items()}
    for x, level in table.items():
        if level.is_zero or level.is_inf:
            raise KernelError(f"level {level} at outcome {x!r} is outside (0, inf)")
    return [ONE / table[x] for x in k.sample.outcomes]


def miss_rate(value: XValue, threshold: XValue) -> XValue:
    """1{value >= 1/level} / level, given threshold = 1/level: a miss of the
    confidence set at `level`, weighted by the level's reciprocal."""
    return threshold if value >= threshold else ZERO


def check_posthoc_validity(
    k: EKernel, pa: ProbabilityAssignment, rule: LevelRule
) -> Report:
    """Expected miss rate of the level-rule confidence sets, at the rule's level.

    For each pair the statistic is the expectation of
    1{e(H|X) >= 1/level(X)} / level(X). At the canonical level 1/e(H|x) the
    integrand is e(H|x) itself, 0 and inf included, so the canonical rule is
    the plain validity pass.
    """
    if rule == "canonical":
        return check_validity(k, pa)
    thresholds = outcome_thresholds(k, rule)
    points, family = k.space.model.points, k.space.family
    entries = []
    for hid in family.nonempty_ids():
        var = scale(map(miss_rate, k.variable(hid), thresholds))
        for pi in family.indices(hid):
            entries.append(Entry(points[pi], dot(pa.pmfs[pi].scaled, var), hid=hid))
    return Report(tuple(entries))


# -- updating -----------------------------------------------------------


def _product_columns(prior: EFunction, k: EKernel) -> list[EFunction]:
    cols = []
    for col in k.columns:
        values = [p * v for p, v in zip(prior.values, col.values)]
        cols.append(ev.from_values(k.space, values))
    return cols


def eposterior_raw(
    prior: EFunction, k: EKernel, pa: ProbabilityAssignment
) -> tuple[EKernel, Report]:
    """Hypothesis-wise product of a prior table with a kernel.

    The product stays a capacity, and the worst expectation over the
    points of each hypothesis is bounded by the prior's evidence there;
    each entry names the point attaining it, the first in member order on
    ties.
    """
    if prior.eclass < EClass.CAPACITY or k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("updating needs capacities")
    post = EKernel(k.space, k.sample, _product_columns(prior, k))
    entries = []
    for hid in k.space.family.nonempty_ids():
        var = scale(post.variable(hid))
        stats = {pi: dot(pa.pmfs[pi].scaled, var) for pi in k.space.family.indices(hid)}
        pi = max(stats, key=stats.__getitem__)
        entries.append(
            Entry(k.space.model.points[pi], stats[pi], bound=prior.values[hid], hid=hid)
        )
    return post, Report(tuple(entries))


def eposterior_closed(
    prior: EFunction, k: EKernel, pa: ProbabilityAssignment
) -> tuple[EKernel, Report]:
    """Product followed by per-outcome closure; bounds go through least hypotheses."""
    if prior.eclass < EClass.CAPACITY or k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("updating needs capacities")
    k.space.require_intersection_closed()
    cols = [ev.close(col) for col in _product_columns(prior, k)]
    post = EKernel(k.space, k.sample, cols)
    least = k.space.least_ids()
    points = k.space.model.points
    entries = []
    for hid in k.space.family.nonempty_ids():
        var = scale(post.variable(hid))
        for pi in k.space.family.indices(hid):
            entries.append(
                Entry(points[pi], dot(pa.pmfs[pi].scaled, var), prior.values[least[pi]], hid)
            )
    return post, Report(tuple(entries))


# -- finite-horizon processes -------------------------------------------

TreeShape = Union[str, Sequence["TreeShape"]]


class FiltrationTree:
    """Finite rooted tree whose leaves are the outcomes; depth is the horizon.

    Level t of the filtration groups outcomes by their depth-t ancestor;
    a leaf shallower than t stays its own atom from its depth onward.
    """

    def __init__(self, sample: SampleSpace, shape: TreeShape):
        self.sample = sample
        self.shape = shape
        leaves = list(self._leaves(shape))
        if tuple(leaves) != sample.outcomes:
            raise KernelError("tree leaves must enumerate the outcomes in order")
        self.depth = self._depth(shape)
        self.levels = tuple(
            tuple(self._atoms(shape, t)) for t in range(self.depth + 1)
        )

    @staticmethod
    def _leaves(shape: TreeShape):
        if isinstance(shape, str):
            yield shape
        else:
            for child in shape:
                yield from FiltrationTree._leaves(child)

    @staticmethod
    def _depth(shape: TreeShape) -> int:
        if isinstance(shape, str):
            return 0
        return 1 + max(FiltrationTree._depth(c) for c in shape)

    def _atoms(self, shape: TreeShape, t: int) -> list[tuple[int, ...]]:
        if isinstance(shape, str) or t == 0:
            return [tuple(self.sample.index(x) for x in self._leaves(shape))]
        out = []
        for child in shape:
            out.extend(self._atoms(child, t - 1))
        return out

    def count_stopping_times(self) -> int:
        """Number of adapted stopping rules: cuts through the tree that meet
        each root-to-leaf path exactly once."""

        def count(shape: TreeShape) -> int:
            if isinstance(shape, str):
                return 1
            prod = 1
            for child in shape:
                prod *= count(child)
            return 1 + prod

        return count(self.shape)


class EProcess:
    """A kernel per time step, measurable against a filtration tree."""

    def __init__(self, tree: FiltrationTree, kernels: Sequence[EKernel]):
        if len(kernels) != tree.depth + 1:
            raise KernelError("one kernel per time step 0..T is required")
        space = kernels[0].space
        for k in kernels:
            if k.space != space or k.sample != tree.sample:
                raise KernelError("kernels must share the space and sample")
        self.tree = tree
        self.kernels = tuple(kernels)
        self.space = space

    def measurability_violations(self) -> list[tuple[int, tuple[int, ...], int]]:
        """(t, atom, hid) triples where a step peeks beyond its information."""
        out = []
        for t, atoms in enumerate(self.tree.levels):
            k = self.kernels[t]
            for atom in atoms:
                base = k.columns[atom[0]].values
                for xi in atom[1:]:
                    other = k.columns[xi].values
                    for hid, (a, b) in enumerate(zip(base, other)):
                        if a != b:
                            out.append((t, atom, hid))
                            break
        return out

    @property
    def eclass(self) -> EClass:
        return min(k.eclass for k in self.kernels)

    def dominates(self, other: "EProcess") -> bool:
        return all(a.dominates(b) for a, b in zip(self.kernels, other.kernels))


@dataclass(frozen=True)
class AnytimeReport:
    """Per pair, the largest expected stopped evidence over the
    `rules_checked` stopping rules; `rule` attains it at the first violating
    pair, as a stop depth per outcome (None when every pair holds)."""

    rules_checked: int
    stats: Report
    rule: Optional[tuple[int, ...]]


def check_anytime_validity(proc: EProcess, pa: ProbabilityAssignment) -> AnytimeReport:
    """Largest expected stopped evidence of every pair, by backward induction.

    For each (nonempty hypothesis, contained point) pair the sup of
    E_P[e_tau(H)] over adapted stopping rules tau is the Snell envelope at
    the root, in unnormalised masses: W(node) = max(P(node) e_t(H | node),
    sum of W over the children), and a leaf's W is its own stop value.
    Zero-mass nodes contribute 0 even against infinite evidence. The
    maximising rule stops at every node where stopping attains W (ties
    stop); the first violating pair, in check_validity order, is reported
    with that rule.
    """
    violations = proc.measurability_violations()
    if violations:
        t, atom, hid = violations[0]
        raise MeasurabilityError(
            f"step {t} varies inside atom {atom} at hypothesis {hid}"
        )
    entries = []
    witness = None
    for hid in proc.space.family.nonempty_ids():
        for pi in proc.space.family.indices(hid):
            stat, rule = _envelope(proc, hid, pa.pmfs[pi].mass)
            entries.append(Entry(proc.space.model.points[pi], stat, hid=hid))
            if witness is None and not entries[-1].ok:
                witness = rule
    return AnytimeReport(proc.tree.count_stopping_times(), Report(tuple(entries)), witness)


def _envelope(
    proc: EProcess, hid: int, mass: Sequence[Fraction]
) -> tuple[XValue, tuple[int, ...]]:
    """Snell envelope at the root and its rule, as a stop depth per outcome."""

    def walk(shape: TreeShape, t: int, lo: int):
        # Returns (W, the node's mass, stop depths of its leaves, next leaf).
        if isinstance(shape, str):
            hi, node_mass, cont = lo + 1, mass[lo], None
        else:
            hi, node_mass, cont, rule = lo, Fraction(0), XValue(0), ()
            for child in shape:
                w, m, r, hi = walk(child, t + 1, hi)
                node_mass, cont, rule = node_mass + m, cont + w, rule + r
        # Measurability makes e_t constant on the node, so its first leaf stands in.
        stop = XValue(node_mass) * proc.kernels[t].columns[lo].values[hid]
        if cont is None or stop >= cont:
            return stop, node_mass, (t,) * (hi - lo), hi
        return cont, node_mass, rule, hi

    w, _, rule, _ = walk(proc.tree.shape, 0, 0)
    return w, rule


def close_process(proc: EProcess) -> EProcess:
    """Close every step; the closure dominates its input, validity is untouched."""
    return EProcess(proc.tree, [close_kernel(k) for k in proc.kernels])


# -- predictive kernels ---------------------------------------------------


@dataclass(frozen=True)
class PredictiveReport:
    """Per outcome, (outcome, sup over true hypotheses, least-hypothesis
    value, whether they agree); per distribution, the expected sup."""

    sup_identity: tuple[tuple[str, XValue, XValue, bool], ...]
    stats: Report

    @property
    def identity_holds(self) -> bool:
        return all(ok for *_, ok in self.sup_identity)


def check_predictive_validity(k: EKernel, pmfs: Iterable[Pmf]) -> PredictiveReport:
    """Prediction-style validity when hypotheses are sets of outcomes.

    Per outcome, the largest evidence among true hypotheses must match the
    evidence against the outcome's least hypothesis; where it does, the sup
    variable is that single variable, so its statistics decide both
    criteria.
    """
    if k.space.model.points != k.sample.outcomes:
        raise SpaceError("predictive checks need the model to be the sample space")
    k.space.require_intersection_closed()
    least = k.space.least_ids()
    identity = []
    sup_var = []
    for xi, x in enumerate(k.sample.outcomes):
        col = k.columns[xi]
        sup_val = ev.sup_over_true(k.space, col.values, xi)
        least_val = col.values[least[xi]]
        identity.append((x, sup_val, least_val, sup_val == least_val))
        sup_var.append(sup_val)
    stats = Report(tuple(Entry(None, p.expectation(sup_var)) for p in pmfs))
    return PredictiveReport(tuple(identity), stats)


# -- pushforwards ----------------------------------------------------------


def pushforward_kernel(
    k: EKernel,
    mapping: Mapping[str, str],
    target: Space,
    pa: Optional[ProbabilityAssignment] = None,
) -> tuple[EKernel, Optional[Report]]:
    """Evidence on a coarser space via preimages of its hypotheses.

    Fails if some target hypothesis has a preimage outside the source
    family. When distributions are supplied, validity is re-checked in the
    pushed-forward sense: points are charged only to hypotheses containing
    their image.
    """
    source = k.space
    bitsets = preimages(source.model, mapping, target)
    for member, bits in zip(target.family.members, bitsets):
        if bits not in source.family:
            raise MeasurabilityError(
                f"preimage of {member.labels(target.model)} is not a source hypothesis"
            )
    preimage_ids = [source.family.id_of(bits) for bits in bitsets]
    cols = []
    for col in k.columns:
        cols.append(ev.from_values(target, [col.values[pid] for pid in preimage_ids]))
    pushed = EKernel(target, k.sample, cols)
    report = None
    if pa is not None:
        entries = []
        for gid in target.family.nonempty_ids():
            var = scale(pushed.variable(gid))
            for pi, p in enumerate(source.model.points):
                if bitsets[gid] >> pi & 1:
                    entries.append(Entry(p, dot(pa.pmfs[pi].scaled, var), hid=gid))
        report = Report(tuple(entries))
    return pushed, report
