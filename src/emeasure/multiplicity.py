"""Cross-hypothesis validity: familywise evidence, false evidence rate,
selection post-processing, e-value step-up rejections and their closed
variant. FWE and FER are the two disutilities of the paper's general
notion, and each has its own check here. Each builds one variable per
point, and the kernels' one expectation walk, ``kernels._pair_report``,
takes its expectation under that point's distribution as one singleton
member.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import evidence as ev
from .evidence import EClass, EFunction, EvidenceError
from .kernels import (
    EKernel, ProbabilityAssignment, Report, SampleSpace, _pair_report, check_validity,
)
from .xvalue import ONE, ZERO, Rationalish, XValue, as_xvalue, inf_of, ratio, scale


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
    if k.eclass < EClass.CAPACITY:
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


def selection_shares(space, selected: Sequence[int]) -> list[XValue]:
    """Per point, the share of the selected hypotheses that contain it:
    one walk of each selected member's points."""
    count = [0] * space.model.size
    for hid in selected:
        for p in space.family.indices(hid):
            count[p] += 1
    size = max(len(selected), 1)
    return [ratio(c, size) for c in count]


def postprocess_efunction(e: EFunction, shares: Sequence[XValue]) -> EFunction:
    """Single-table version of the selection inflation (data already fixed):
    each point's least-hypothesis evidence divided by its share of the
    selection (`selection_shares`), spread by the union law."""
    space = e.space
    space.require_intersection_closed()
    least = space.least_ids()
    return ev.measure_from_density(
        space,
        [e.values[least[pi]] / share for pi, share in enumerate(shares)],
    )


class SelectionResult(NamedTuple):
    selected: tuple[int, ...]
    witness: dict[int, XValue]
    is_fixed_point: bool
    shares: tuple[XValue, ...]  # per point, its share of the selection


def self_consistent_selection(
    e: EFunction, family_ids: Sequence[int], alpha: Rationalish
) -> SelectionResult:
    """The selection that equals its own post-processed rejection set.

    A selection S rejects the candidate g when its inflated value
    inf over p in g of e(H_p) / (c_S(p) / |S|) reaches 1/alpha, where c_S(p)
    counts the members of S containing p (0/0 = 0, c/0 = inf); this is g's
    value in ``postprocess_efunction(e, selection_shares(space, S))``. Such
    a fixed point S = R(S) is unique when it exists, and is S*, the
    candidates with no point p of e(H_p) = 0:
    - a candidate with such a point has inflated value 0 under every S, so
      no fixed point holds it;
    - every other candidate is rejected by any fixed point S. A point in no
      member of S has the term e(H_p)/0 = inf; a point in a selected member
      has the same term as in that member, which S rejects, so the term is
      at least 1/alpha.

    The shares c_{S*}(p) / |S*| (`selection_shares`) give every
    candidate's inflated value, the witness. If each member of S* reaches
    1/alpha it is returned with its shares; otherwise no selection is a
    fixed point, and the empty selection, all of whose shares are 0, is
    returned and flagged.
    """
    alpha = _level(alpha)
    space = e.space
    space.require_intersection_closed()
    ids = sorted(family_ids)
    points = [space.family.indices(g) for g in ids]
    least_value = [e.values[hid] for hid in space.least_ids()]
    chosen = [i for i, pts in enumerate(points) if not any(least_value[p].is_zero for p in pts)]
    shares = selection_shares(space, [ids[i] for i in chosen])
    term = [v / share for v, share in zip(least_value, shares)]
    inflated = [inf_of(term[p] for p in pts) for pts in points]
    threshold = ONE / alpha
    if any(inflated[i] < threshold for i in chosen):
        return SelectionResult(selected=(), witness={}, is_fixed_point=False, shares=(ZERO,) * len(shares))
    return SelectionResult(
        selected=tuple(ids[i] for i in chosen),
        witness=dict(zip(ids, inflated)),
        is_fixed_point=True,
        shares=tuple(shares),
    )


# -- e-value step-up rejections --------------------------------------------


class StepUpResult(NamedTuple):
    rejected: tuple[int, ...]
    table: EFunction


def _level(alpha: Rationalish) -> XValue:
    """A level alpha as an XValue; one at most 0, or inf, is refused."""
    try:
        level = as_xvalue(alpha)
    except ValueError:  # a negative level
        level = ZERO
    if level.is_zero or level.is_inf:
        raise MultiplicityError("alpha must be positive and finite")
    return level


def _binary_rejection_table(space, rejected_g: Sequence[int], alpha: XValue) -> EFunction:
    """Binary table implied by G-level rejections.

    The least hypothesis of a point lies in a member exactly when the point
    does, so it is rejected when some rejected member holds its point; the
    rest of the family follows by closure.
    """
    space.require_intersection_closed()
    level = ONE / alpha
    rejected = set()
    for g in rejected_g:
        rejected.update(space.family.indices(g))
    density = [level if p in rejected else XValue(0) for p in range(space.model.size)]
    return ev.measure_from_density(space, density)


def ebh(e: EFunction, family_ids: Sequence[int], alpha: Rationalish) -> StepUpResult:
    """Step-up rejection over a finite family of e-values.

    With K candidates sorted by decreasing evidence, keep the largest k
    whose k-th value reaches K/(alpha*k); the rejections are rendered as a
    binary table over the whole space.
    """
    alpha = _level(alpha)
    e.space.require_intersection_closed()
    ids = sorted(family_ids)
    ranked = sorted(ids, key=lambda g: (e.values[g], -g), reverse=True)
    big_k = len(ids)
    best_k = 0
    for kth, g in enumerate(ranked, start=1):
        if e.values[g] >= XValue(big_k) / (alpha * kth):
            best_k = kth
    rejected = tuple(sorted(ranked[:best_k]))
    return StepUpResult(rejected=rejected, table=_binary_rejection_table(e.space, rejected, alpha))


def closed_ebh(e: EFunction, family_ids: Sequence[int], alpha: Rationalish) -> StepUpResult:
    """Reject the self-consistent selection instead of the step-up set.

    The rejections are the fixed point of ``self_consistent_selection``, or
    nothing when there is none, rendered as a binary table like ``ebh``'s.
    """
    alpha = _level(alpha)
    selected = self_consistent_selection(e, family_ids, alpha).selected
    return StepUpResult(rejected=selected, table=_binary_rejection_table(e.space, selected, alpha))
