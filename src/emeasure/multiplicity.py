"""Cross-hypothesis validity: familywise evidence, false evidence rate,
selection post-processing, e-value step-up rejections and their closed
variant, and the general disutility-based notion that nests them all.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import evidence as ev
from .evidence import EClass, EFunction, EvidenceError
from .kernels import EKernel, Entry, ProbabilityAssignment, Report, SampleSpace, check_validity
from .xvalue import INF, ONE, XValue, as_xvalue, inf_of

SELECTION_SUBSET_CAP = 1 << 20


class MultiplicityError(EvidenceError):
    pass


@dataclass(frozen=True)
class SelectionRule:
    """Finitely many selected hypothesis ids per outcome, fixed in advance."""

    sample: SampleSpace
    selected: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.selected) != self.sample.size:
            raise MultiplicityError("one selection per outcome is required")

    @classmethod
    def fixed(cls, sample: SampleSpace, ids: Sequence[int]) -> "SelectionRule":
        return cls(sample, tuple(tuple(ids) for _ in sample.outcomes))

    def at(self, x: int | str) -> tuple[int, ...]:
        if isinstance(x, str):
            x = self.sample.index(x)
        return self.selected[x]


def familywise_evidence(k: EKernel, point: int | str, x: int | str) -> XValue:
    """Largest evidence among hypotheses containing the point, at outcome x."""
    return ev.sup_over_true(k.space, k.column(x).values, point)


def check_fwe(k: EKernel, pa: ProbabilityAssignment) -> Report:
    """Expected familywise evidence per point; each outcome's familywise
    evidence of every point comes from one sweep, as in the closure."""
    sups = [ev._claims(k.space, col.values) for col in k.columns]
    return Report(tuple(
        Entry(point, pa.pmfs[pi].expectation([sup[pi] for sup in sups]))
        for pi, point in enumerate(k.space.model.points)
    ))


@dataclass(frozen=True)
class FepFsp:
    fep: XValue
    fsp: Fraction


def fep_fsp(k: EKernel, point: int | str, rule: SelectionRule, x: int | str) -> FepFsp:
    """Average evidence against selected true hypotheses, and their share."""
    if isinstance(point, str):
        point = k.space.model.index(point)
    ids = rule.at(x)
    col = k.column(x)
    denom = max(len(ids), 1)
    true_ids = [hid for hid in ids if point in k.space.family.member(hid)]
    total = XValue(0)
    for hid in true_ids:
        total = total + col.values[hid]
    return FepFsp(fep=total / denom, fsp=Fraction(len(true_ids), denom))


def check_fer(
    k: EKernel, pa: ProbabilityAssignment, rule: Optional[SelectionRule] = None
) -> Report:
    """False-evidence-rate control of a fixed selection rule, or of every
    singleton rule when no rule is given; the rate is the largest statistic.

    With a rule, each point's statistic is its expected FEP. The singleton
    rule {H} has FEP e(H|x) on H's points and 0 elsewhere, so with no rule
    the report is one validity pass: the rate is the largest validity
    statistic and it is controlled exactly when the kernel is valid.
    """
    if k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("the false-evidence bound needs a capacity kernel")
    k.space.require_intersection_closed()
    if rule is None:
        return check_validity(k, pa)
    return Report(tuple(
        Entry(point, pa.pmfs[pi].expectation(
            [fep_fsp(k, pi, rule, xi).fep for xi in range(k.sample.size)]
        ))
        for pi, point in enumerate(k.space.model.points)
    ))


# -- selection post-processing -------------------------------------------


def selection_shares(space, selected: Sequence[int]) -> list[Fraction]:
    """Per point, the share of the selected hypotheses that contain it."""
    denom = max(len(selected), 1)
    members = space.family
    return [
        Fraction(sum(1 for hid in selected if pi in members.member(hid)), denom)
        for pi in range(space.model.size)
    ]


def postprocess_selection(k: EKernel, rule: SelectionRule) -> EKernel:
    """Trade uniform validity for selection-specific validity by inflating
    the least-hypothesis evidence with the reciprocal selection share.
    """
    if k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("post-processing needs a capacity kernel")
    cols = [postprocess_efunction(col, rule.at(xi)) for xi, col in enumerate(k.columns)]
    return EKernel(k.space, k.sample, cols)


def postprocess_efunction(e: EFunction, selected: Sequence[int]) -> EFunction:
    """Single-table version of the selection inflation (data already fixed):
    each point's least-hypothesis evidence divided by its selection share,
    spread by the union law."""
    space = e.space
    space.require_intersection_closed()
    least = space.least_ids()
    shares = selection_shares(space, selected)
    return ev.measure_from_density(
        space,
        [e.values[least[pi]] / XValue(share) for pi, share in enumerate(shares)],
    )


@dataclass(frozen=True)
class SelectionResult:
    selected: tuple[int, ...]
    witness: dict[int, XValue]
    is_fixed_point: bool
    subsets_tried: int


def self_consistent_selection(
    e: EFunction, family_ids: Sequence[int], alpha: Fraction
) -> SelectionResult:
    """Largest selection that equals its own post-processed rejection set.

    A selection S of size k rejects the candidate g when its inflated value
    inf over p in g of e(H_p) / (c_S(p) / k) reaches 1/alpha, where c_S(p)
    counts the members of S containing p (0/0 = 0, c/0 = inf); this is g's
    value in ``postprocess_efunction(e, S)``. Every point of a selected g
    has c_S(p) >= 1, so g can belong to a fixed point of size k only if
    k * e(H_p) >= 1/alpha for every p in g; each size enumerates only the
    candidates that pass. Sizes are searched in descending order, canonical
    order inside a size; the first fixed point wins, which makes ties
    deterministic. If no subset is a fixed point the empty selection is
    returned and flagged.

    The search tries at most 1 + sum over k >= 1 of C(n_k, k) subsets, n_k
    being the number of candidates that pass at size k. That sum is added up
    from k = 0 and stops as soon as it passes SELECTION_SUBSET_CAP; then
    CapExceeded names the partial sum as a lower bound, before any subset
    is tried.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise MultiplicityError("alpha must be positive")
    space = e.space
    space.require_intersection_closed()
    ids = sorted(family_ids)
    big_k = len(ids)
    points = [space.family.indices(g) for g in ids]
    least_value = [e.values[hid] for hid in space.least_ids()]
    threshold = ONE / XValue(alpha)

    # Smallest selection size each candidate can belong to; big_k + 1 is never.
    min_size = []
    for pts in points:
        need = threshold / inf_of(least_value[p] for p in pts)  # 0 for inf, inf for 0
        min_size.append(big_k + 1 if need.is_inf else max(1, math.ceil(need.as_fraction())))
    ranked = sorted(min_size)
    eligible = [bisect.bisect_right(ranked, size) for size in range(big_k + 1)]
    cost = 0
    for size in range(big_k + 1):
        cost += math.comb(eligible[size], size)
        if cost > SELECTION_SUBSET_CAP:
            raise ev.CapExceeded(
                f"the selection search over {big_k} candidates would try at least "
                f"{cost} subsets, over the cap {SELECTION_SUBSET_CAP}"
            )

    def inflated(i: int, count: list[int], shares: list[XValue]) -> XValue:
        return inf_of(least_value[p] / shares[count[p]] for p in points[i])

    tried = 0
    for size in range(big_k, -1, -1):
        if eligible[size] < size:
            continue
        pool = [i for i in range(big_k) if min_size[i] <= size]
        # shares[c] is the selection share c / size of a point in c members
        shares = [XValue(Fraction(c, max(size, 1))) for c in range(size + 1)]
        for combo in itertools.combinations(pool, size):
            tried += 1
            count = [0] * space.model.size
            for i in combo:
                for p in points[i]:
                    count[p] += 1
            chosen = set(combo)
            if all(
                (inflated(i, count, shares) >= threshold) == (i in chosen)
                for i in range(big_k)
            ):
                return SelectionResult(
                    selected=tuple(ids[i] for i in combo),
                    witness={ids[i]: inflated(i, count, shares) for i in range(big_k)},
                    is_fixed_point=True,
                    subsets_tried=tried,
                )
    return SelectionResult(selected=(), witness={}, is_fixed_point=False, subsets_tried=tried)


# -- e-value step-up rejections --------------------------------------------


@dataclass(frozen=True)
class StepUpResult:
    rejected: tuple[int, ...]
    rejected_cells: tuple[int, ...]
    table: EFunction


def _binary_rejection_table(e_space, rejected_g: Sequence[int], alpha: Fraction) -> tuple[tuple[int, ...], EFunction]:
    """Binary table implied by G-level rejections.

    A least hypothesis is rejected exactly when it is contained in some
    rejected family member; the rest of the family follows by closure.
    """
    space = e_space
    space.require_intersection_closed()
    level = ONE / XValue(alpha)
    members = space.family
    least = space.least_ids()
    rejected_cells = tuple(
        cell
        for cell in sorted(set(least))
        if any(
            members.member(cell).issubset(members.member(g)) for g in rejected_g
        )
    )
    density = [level if cell in rejected_cells else XValue(0) for cell in least]
    return rejected_cells, ev.measure_from_density(space, density)


def ebh(e: EFunction, family_ids: Sequence[int], alpha: Fraction) -> StepUpResult:
    """Step-up rejection over a finite family of e-values.

    With K candidates sorted by decreasing evidence, keep the largest k
    whose k-th value reaches K/(alpha*k); the rejections are rendered as a
    binary table over the whole space.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise MultiplicityError("alpha must be positive")
    e.space.require_intersection_closed()
    ids = sorted(family_ids)
    ranked = sorted(ids, key=lambda g: (e.values[g], -g), reverse=True)
    big_k = len(ids)
    best_k = 0
    for kth, g in enumerate(ranked, start=1):
        if e.values[g] >= XValue(Fraction(big_k, 1)) / XValue(alpha * kth):
            best_k = kth
    rejected = tuple(sorted(ranked[:best_k]))
    cells, table = _binary_rejection_table(e.space, rejected, alpha)
    return StepUpResult(rejected=rejected, rejected_cells=cells, table=table)


def closed_ebh(e: EFunction, family_ids: Sequence[int], alpha: Fraction) -> StepUpResult:
    """Reject the largest self-consistent selection instead of the step-up set."""
    selection = self_consistent_selection(e, family_ids, alpha)
    cells, table = _binary_rejection_table(e.space, selection.selected, Fraction(alpha))
    return StepUpResult(rejected=selection.selected, rejected_cells=cells, table=table)


# -- general disutility-based validity --------------------------------------


class PhiFlagViolation(MultiplicityError):
    def __init__(self, flag: str, detail: str):
        self.flag = flag
        super().__init__(f"disutility is not {flag}: {detail}")


class PhiSpec:
    """Disutility of an evidence table when a given point is the truth.

    Subclasses implement ``value``; the three structural flags (local,
    positively homogeneous, monotone) are verified on sampled tables, not
    proved.
    """

    name = "custom"

    def value(self, space, point: int, table: Sequence[XValue]) -> XValue:
        raise NotImplementedError

    def one_table(self, space, point: int) -> tuple[XValue, ...]:
        return tuple(
            ONE if point in m else XValue(0) for m in space.family.members
        )

    def phi_one(self, space, point: int) -> XValue:
        return self.value(space, point, self.one_table(space, point))

    def verify_flags(self, space, samples: Sequence[Sequence[XValue]]) -> None:
        scalars = [XValue(0), XValue(Fraction(1, 3)), XValue(2)]
        for table in samples:
            table = tuple(as_xvalue(v) for v in table)
            for point in range(space.model.size):
                masked = tuple(
                    v * w for v, w in zip(table, self.one_table(space, point))
                )
                if self.value(space, point, table) != self.value(space, point, masked):
                    raise PhiFlagViolation("local", f"table {table} at point {point}")
                base = self.value(space, point, table)
                for c in scalars:
                    scaled = tuple(v * c for v in table)
                    if self.value(space, point, scaled) != base * c:
                        raise PhiFlagViolation(
                            "positively homogeneous",
                            f"scale {c} of table {table} at point {point}",
                        )
                lowered = tuple(
                    XValue(0) if i % 2 else v for i, v in enumerate(table)
                )
                if self.value(space, point, lowered) > base:
                    raise PhiFlagViolation(
                        "monotone", f"lowering {table} raised the value at {point}"
                    )


class SupOverTrue(PhiSpec):
    """Worst evidence among true hypotheses; recovers familywise control."""

    name = "sup-over-true"

    def value(self, space, point, table):
        return ev.sup_over_true(space, table, point)


class AvgOverSelection(PhiSpec):
    """Average evidence over the true part of a fixed selection; recovers FER."""

    name = "avg-over-selection"

    def __init__(self, selected: Sequence[int]):
        self.selected = tuple(selected)

    def value(self, space, point, table):
        denom = max(len(self.selected), 1)
        total = XValue(0)
        for hid in self.selected:
            if point in space.family.member(hid):
                total = total + table[hid]
        return total / denom


class CustomPhi(PhiSpec):
    def __init__(self, fn: Callable[[int, Sequence[XValue]], XValue], name: str = "custom"):
        self._fn = fn
        self.name = name

    def value(self, space, point, table):
        return self._fn(point, table)


def _phi_samples(space, k: EKernel) -> list[tuple[XValue, ...]]:
    n = len(space.family)
    grid = [XValue(0), XValue(1), XValue(2), INF]
    samples = [tuple(grid[(i + s) % len(grid)] for i in range(n)) for s in range(4)]
    samples.extend(tuple(col.values) for col in k.columns)
    return samples


def check_phi_validity(
    k: EKernel, pa: ProbabilityAssignment, phi: PhiSpec
) -> tuple[Report, Report]:
    """Disutility-based validity via the least-hypothesis bound.

    The first report holds phi(e(.|x)) against e(H_P|x) * phi(1_P) for
    every point and outcome (the outcome is each entry's case), the second
    E_P[phi] against 1 per point. Refuses disutilities that fail a sampled
    structural flag.
    """
    if k.eclass < EClass.CAPACITY:
        raise ev.ClassMismatch("the least-hypothesis bound needs a capacity kernel")
    k.space.require_intersection_closed()
    phi.verify_flags(k.space, _phi_samples(k.space, k))
    least = k.space.least_ids()
    pointwise = []
    general = []
    for pi, point in enumerate(k.space.model.points):
        factor = phi.phi_one(k.space, pi)
        phi_var = [phi.value(k.space, pi, col.values) for col in k.columns]
        for xi, x in enumerate(k.sample.outcomes):
            bound = k.value(least[pi], xi) * factor
            pointwise.append(Entry(point, phi_var[xi], bound, case=x))
        general.append(Entry(point, pa.pmfs[pi].expectation(phi_var)))
    return Report(tuple(pointwise)), Report(tuple(general))
