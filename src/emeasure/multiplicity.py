"""Cross-hypothesis validity: familywise evidence, false evidence rate,
selection post-processing, e-value step-up rejections and their closed
variant. FWE and FER are the two disutilities of the paper's general
notion, and each has its own check here. Each builds one variable per
point, and the kernels' one expectation walk, ``kernels._pair_report``,
takes its expectation under that point's distribution as one singleton
member.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import evidence as ev
from .evidence import EFunction, EvidenceError
from .kernels import (
    EKernel, ProbabilityAssignment, Report, SampleSpace, _pair_report, check_validity,
)
from .xvalue import ONE, ZERO, XValue, inf_of, scale


class MultiplicityError(EvidenceError):
    pass


class SelectionRule:
    """Finitely many selected hypothesis ids per outcome, fixed in advance."""

    __slots__ = ("sample", "selected")

    def __init__(self, sample: SampleSpace, selected: tuple[tuple[int, ...], ...]):
        if len(selected) != sample.size:
            raise MultiplicityError("one selection per outcome is required")
        self.sample = sample
        self.selected = selected

    @classmethod
    def fixed(cls, sample: SampleSpace, ids: Sequence[int]) -> "SelectionRule":
        return cls(sample, tuple(tuple(ids) for _ in sample.outcomes))


def check_fwe(k: EKernel, pa: ProbabilityAssignment) -> Report:
    """Expected familywise evidence per point. Each point's familywise
    evidence at each outcome is its claim there, the largest evidence
    against a member that holds it (`EKernel.claims`): one sweep per
    outcome over the kernel's distinct rows, as the closure sweeps its
    members, and no per-outcome table is built."""
    claims, n = k.claims(), k.space.model.size
    variables = [scale([claim[pi] for claim in claims]) for pi in range(n)]
    return _pair_report(pa, [1 << pi for pi in range(n)], variables, [None] * n)


def _fep(k: EKernel, point: int, ids: Sequence[int], xi: int) -> XValue:
    """The FEP at outcome `xi`: the evidence against the selected `ids`
    that hold `point`, summed and divided by how many are selected."""
    member, rows = k.space.family.member, k.rows
    total = ZERO
    for hid in ids:
        if member(hid) >> point & 1:
            total = total + rows[hid][xi]
    return total / max(len(ids), 1)


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
    if not k.is_capacity:
        raise ev.ClassMismatch("the false-evidence bound needs a capacity kernel")
    k.space.require_intersection_closed()
    if rule is None:
        return check_validity(k, pa)
    n = k.space.model.size
    variables = [
        scale([_fep(k, pi, ids, xi) for xi, ids in enumerate(rule.selected)]) for pi in range(n)
    ]
    return _pair_report(pa, [1 << pi for pi in range(n)], variables, [None] * n)


# -- selection post-processing -------------------------------------------


def selection_shares(space, selected: Sequence[int]) -> list[Fraction]:
    """Per point, the share of the selected hypotheses that contain it."""
    denom = max(len(selected), 1)
    members = space.family
    return [
        Fraction(sum(1 for hid in selected if members.member(hid) >> pi & 1), denom)
        for pi in range(space.model.size)
    ]


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


class SelectionResult:
    __slots__ = ("selected", "witness", "is_fixed_point")

    def __init__(
        self, selected: tuple[int, ...], witness: dict[int, XValue], is_fixed_point: bool
    ):
        self.selected = selected
        self.witness = witness
        self.is_fixed_point = is_fixed_point


def self_consistent_selection(
    e: EFunction, family_ids: Sequence[int], alpha: Fraction
) -> SelectionResult:
    """The selection that equals its own post-processed rejection set.

    A selection S rejects the candidate g when its inflated value
    inf over p in g of e(H_p) / (c_S(p) / |S|) reaches 1/alpha, where c_S(p)
    counts the members of S containing p (0/0 = 0, c/0 = inf); this is g's
    value in ``postprocess_efunction(e, S)``. Such a fixed point S = R(S) is
    unique when it exists, and is S*, the candidates with no point p of
    e(H_p) = 0:
    - a candidate with such a point has inflated value 0 under every S, so
      no fixed point holds it;
    - every other candidate is rejected by any fixed point S. A point in no
      member of S has the term e(H_p)/0 = inf; a point in a selected member
      has the same term as in that member, which S rejects, so the term is
      at least 1/alpha.

    One pass counts c_{S*} and computes every candidate's inflated value,
    the witness. If each member of S* reaches 1/alpha it is returned;
    otherwise no selection is a fixed point, and the empty selection is
    returned and flagged.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise MultiplicityError("alpha must be positive")
    space = e.space
    space.require_intersection_closed()
    ids = sorted(family_ids)
    points = [space.family.indices(g) for g in ids]
    least_value = [e.values[hid] for hid in space.least_ids()]
    chosen = [i for i, pts in enumerate(points) if not any(least_value[p].is_zero for p in pts)]
    count = [0] * space.model.size
    for i in chosen:
        for p in points[i]:
            count[p] += 1
    size = max(len(chosen), 1)
    term = [v / XValue(Fraction(c, size)) for v, c in zip(least_value, count)]
    inflated = [inf_of(term[p] for p in pts) for pts in points]
    threshold = ONE / XValue(alpha)
    if any(inflated[i] < threshold for i in chosen):
        return SelectionResult(selected=(), witness={}, is_fixed_point=False)
    return SelectionResult(
        selected=tuple(ids[i] for i in chosen),
        witness=dict(zip(ids, inflated)),
        is_fixed_point=True,
    )


# -- e-value step-up rejections --------------------------------------------


class StepUpResult:
    __slots__ = ("rejected", "table")

    def __init__(self, rejected: tuple[int, ...], table: EFunction):
        self.rejected = rejected
        self.table = table


def _binary_rejection_table(space, rejected_g: Sequence[int], alpha: Fraction) -> EFunction:
    """Binary table implied by G-level rejections.

    The least hypothesis of a point lies in a member exactly when the point
    does, so it is rejected when some rejected member holds its point; the
    rest of the family follows by closure.
    """
    space.require_intersection_closed()
    level = ONE / XValue(alpha)
    rejected = set()
    for g in rejected_g:
        rejected.update(space.family.indices(g))
    density = [level if p in rejected else XValue(0) for p in range(space.model.size)]
    return ev.measure_from_density(space, density)


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
    return StepUpResult(rejected=rejected, table=_binary_rejection_table(e.space, rejected, alpha))


def closed_ebh(e: EFunction, family_ids: Sequence[int], alpha: Fraction) -> StepUpResult:
    """Reject the self-consistent selection instead of the step-up set.

    The rejections are the fixed point of ``self_consistent_selection``, or
    nothing when there is none, rendered as a binary table like ``ebh``'s.
    """
    selected = self_consistent_selection(e, family_ids, alpha).selected
    return StepUpResult(rejected=selected, table=_binary_rejection_table(e.space, selected, Fraction(alpha)))
