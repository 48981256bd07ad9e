"""Decision making under evidence: consequence tables, the hypothesis
class they induce, consequence bounds, integrated loss, admissibility and
the optimality class of a loss.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import kernels as kn
from .evidence import EClass, EFunction, EvidenceError
from .integration import OrderMeasurabilityViolation, OrderMeasurableFn, shilkret_integral
from .kernels import EKernel, Entry, ProbabilityAssignment, Report
from .spaces import (
    Model,
    Preorder,
    Space,
    class_from_preorder,
    union_closure,
)
from .xvalue import XValue, as_xvalue, dot_at_most, scale, sup_of


class DecisionError(EvidenceError):
    pass


class ConsequenceSpace:
    """Consequence labels with an explicit preorder; `order.holds(i, j)`
    reads i >= j ('i is at least as bad as j')."""

    __slots__ = ("elements", "order", "positions")

    def __init__(self, elements: tuple[str, ...], order: Preorder):
        positions = {c: i for i, c in enumerate(elements)}
        if len(positions) != len(elements):
            raise DecisionError("consequence labels must be unique")
        if order.size != len(elements):
            raise DecisionError("order matrix size must match the elements")
        order.validate()
        self.elements = elements
        self.order = order
        # Each element label's index; the labels alone fix it.
        self.positions = positions

    @classmethod
    def numeric(cls, values: Sequence[XValue]) -> "ConsequenceSpace":
        """The distinct values in increasing order, each at least as bad as
        itself and every smaller one."""
        distinct = sorted(set(values), key=lambda v: (v.is_inf, 0 if v.is_inf else v.as_fraction()))
        labels = tuple(v.record() for v in distinct)
        return cls(labels, Preorder(tuple((1 << (i + 1)) - 1 for i in range(len(labels)))))

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise DecisionError(f"unknown consequence {label!r}") from None

    def at_least(self, a: str, b: str) -> bool:
        """True when consequence a is at least as bad as b."""
        return self.order.holds(self.index(a), self.index(b))


class ConsequenceTable:
    """Total map (decision, point) -> consequence element."""

    __slots__ = ("model", "decisions", "cspace", "entries")

    def __init__(
        self, model: Model, decisions: tuple[str, ...], cspace: ConsequenceSpace,
        entries: tuple[tuple[str, ...], ...],  # entries[point][decision]
    ):
        if len(entries) != model.size:
            raise DecisionError("one row per model point is required")
        for row in entries:
            if len(row) != len(decisions):
                raise DecisionError("one consequence per decision is required")
            for c in row:
                cspace.index(c)
        self.model = model
        self.decisions = decisions
        self.cspace = cspace
        self.entries = entries

    @classmethod
    def of(
        cls,
        model: Model,
        decisions: Sequence[str],
        cspace: ConsequenceSpace,
        table: Mapping[str, Mapping[str, str]],
    ) -> "ConsequenceTable":
        rows = []
        for p in model.points:
            if p not in table:
                raise DecisionError(f"no consequences for point {p!r}")
            rows.append(tuple(table[p][d] for d in decisions))
        return cls(model, tuple(decisions), cspace, tuple(rows))

    def row_dominates(self, hi: int, lo: int) -> bool:
        """Row hi is uniformly at least as bad as row lo across decisions."""
        return all(
            self.cspace.at_least(self.entries[hi][d], self.entries[lo][d])
            for d in range(len(self.decisions))
        )


class NumericLoss:
    """Non-negative extended losses per (point, decision)."""

    __slots__ = ("model", "decisions", "entries")

    def __init__(
        self, model: Model, decisions: tuple[str, ...],
        entries: tuple[tuple[XValue, ...], ...],  # entries[point][decision]
    ):
        if len(entries) != model.size:
            raise DecisionError("one row per model point is required")
        for row in entries:
            if len(row) != len(decisions):
                raise DecisionError("one loss per decision is required")
        self.model = model
        self.decisions = decisions
        self.entries = entries

    @classmethod
    def of(
        cls,
        model: Model,
        decisions: Sequence[str],
        table: Mapping[str, Mapping[str, object]],
    ) -> "NumericLoss":
        rows = []
        for p in model.points:
            rows.append(tuple(as_xvalue(table[p][d]) for d in decisions))
        return cls(model, tuple(decisions), tuple(rows))

    def column(self, decision: int | str) -> tuple[XValue, ...]:
        if isinstance(decision, str):
            decision = self.decisions.index(decision)
        return tuple(row[decision] for row in self.entries)

    def to_consequence_table(self) -> ConsequenceTable:
        values = [v for row in self.entries for v in row]
        cspace = ConsequenceSpace.numeric(values)
        rows = tuple(tuple(v.record() for v in row) for row in self.entries)
        return ConsequenceTable(self.model, self.decisions, cspace, rows)


def build_consequence_class(table: ConsequenceTable) -> Space:
    """Smallest intersection-closed family exposing every lower-bound claim.

    Points are preordered by uniform dominance of their consequence rows;
    the class of upper sets of that preorder is returned. Every bound
    hypothesis is such an upper set: a point whose row dominates another's
    is at least as bad under every decision.
    """
    n = table.model.size
    pairs = [
        (lo, hi)
        for lo in range(n)
        for hi in range(n)
        if table.row_dominates(hi, lo)
    ]
    pre = Preorder.from_pairs(n, pairs).transitive_closure()
    return class_from_preorder(table.model, pre)


def hypothesis_for_bound(table: ConsequenceTable, decision: int | str, c: str) -> int:
    """Points whose consequence of the decision is at least as bad as c."""
    if isinstance(decision, str):
        decision = table.decisions.index(decision)
    table.cspace.index(c)
    bits = 0
    for pi in range(table.model.size):
        if table.cspace.at_least(table.entries[pi][decision], c):
            bits |= 1 << pi
    return bits


def _require_order_measurable(space: Space, table: ConsequenceTable) -> Space:
    induced = build_consequence_class(table)
    for member in induced.family.members:
        if member not in space.family:
            raise OrderMeasurabilityViolation(
                f"kernel space misses the bound hypothesis {table.model.label(member)}"
            )
    return induced


def _distinct_rows(table: ConsequenceTable) -> list[tuple[str, int]]:
    """One representative point per distinct consequence row."""
    seen: dict[tuple[str, ...], int] = {}
    for pi in range(table.model.size):
        seen.setdefault(table.entries[pi], pi)
    return [(table.model.points[pi], pi) for pi in seen.values()]


def _bound_ids(space: Space, table: ConsequenceTable, qi: int) -> list[int]:
    """Per decision, the id of the bound hypothesis at point qi's consequence:
    the points whose consequence is at least as bad."""
    return [
        space.family.id_of(hypothesis_for_bound(table, d, table.entries[qi][d]))
        for d in range(len(table.decisions))
    ]


def check_econsequence_bound(
    k: EKernel, pa: ProbabilityAssignment, table: ConsequenceTable
) -> Report:
    """Uniform consequence bound: for each benchmark row (an entry's case)
    and each point whose row dominates it, the expected worst evidence
    across decisions is at most one."""
    return _consequence_report(k, pa, table, None)


def check_posthoc_consequence_bound(
    k: EKernel,
    pa: ProbabilityAssignment,
    table: ConsequenceTable,
    rule: kn.LevelRule,
) -> Report:
    """Post-hoc version: expected miss rate of the per-decision confidence
    sets under a data-dependent level. A decision misses when the row's
    worst evidence does, so the canonical level 1/worst-evidence is the
    uniform bound itself."""
    if rule == "canonical":
        return check_econsequence_bound(k, pa, table)
    return _consequence_report(k, pa, table, rule)


def _consequence_report(
    k: EKernel,
    pa: ProbabilityAssignment,
    table: ConsequenceTable,
    rule: Optional[Mapping[str, object]],
) -> Report:
    """Per benchmark row, the worst evidence across its bound hypotheses, or
    with a fixed `rule` its miss rate, in expectation at each dominating point."""
    induced = _require_order_measurable(k.space, table)
    thresholds = None if rule is None else kn.outcome_thresholds(k, rule)
    points = k.space.model.points
    entries = []
    for label, qi in _distinct_rows(table):
        bound_rows = [k.rows[hid] for hid in _bound_ids(k.space, table, qi)]
        var = scale([sup_of(values) for values in zip(*bound_rows)])
        if thresholds is not None:
            var = kn.miss_variable(kn.miss_mask(var, thresholds), thresholds)
        for pi in induced.family.indices(induced.least_id(qi)):
            stat, ok = dot_at_most(pa.pmfs[pi].scaled, var)
            entries.append(Entry(points[pi], stat, case=label, ok=ok))
    return Report(tuple(entries))


def e_integrated_loss(loss: NumericLoss, e: EFunction, decision: int | str) -> XValue:
    """Evidence-weighted worst loss of a decision: the Shilkret integral of
    its loss column. On a measure over an intersection-closed space it
    equals the sup over points of loss / e(least hypothesis).
    """
    if isinstance(decision, str):
        decision = loss.decisions.index(decision)
    if e.eclass is not EClass.MEASURE:
        raise DecisionError("integrated loss needs a measure")
    e.space.require_intersection_closed()
    return shilkret_integral(OrderMeasurableFn(e.space, loss.column(decision)), e)


def check_grunwald_bound(
    k: EKernel, pa: ProbabilityAssignment, loss: NumericLoss, table: ConsequenceTable
) -> Report:
    """Integrated-loss ratio bound; `table` is the loss's
    ``to_consequence_table()``.

    Per point the expectation of the worst ratio loss/integrated-loss must
    stay at most one. By the integral's definition each ratio is at most
    the evidence against the matching bound hypothesis (Markov), which
    caps the statistic by the uniform-consequence statistic.
    """
    _require_order_measurable(k.space, table)
    n_dec = len(loss.decisions)
    model = k.space.model
    integrated: list[list[XValue]] = []  # [decision][outcome]
    for d in range(n_dec):
        column = loss.column(d)
        fn = OrderMeasurableFn(k.space, column)
        integrated.append(
            [shilkret_integral(fn, k.columns[xi]) for xi in range(k.sample.size)]
        )

    entries = []
    for pi in range(model.size):
        ratio_var = [
            sup_of(loss.entries[pi][d] / integrated[d][xi] for d in range(n_dec))
            for xi in range(k.sample.size)
        ]
        entries.append(Entry(model.points[pi], pa.pmfs[pi].expectation(ratio_var)))
    return Report(tuple(entries))


class AdmissibilityResult:
    __slots__ = ("order", "admissible")

    def __init__(
        self,
        order: tuple[tuple[bool, ...], ...],  # order[i][j]: decision i at least as good
        admissible: tuple[str, ...],
    ):
        self.order = order
        self.admissible = admissible


def admissible_decisions(e: EFunction, table: ConsequenceTable) -> AdmissibilityResult:
    """Uniform evidential dominance between decisions and the undominated set.

    A decision is preferred when, against every benchmark consequence, it
    carries at least as much evidence that the truth is at least that bad.
    Every bound hypothesis must be measurable; a missing one is reported by
    name instead of guessed around.
    """
    n_dec = len(table.decisions)
    evidence_at: list[list[XValue]] = []
    for d in range(n_dec):
        row = []
        for c in table.cspace.elements:
            bits = hypothesis_for_bound(table, d, c)
            if bits not in e.space.family:
                raise OrderMeasurabilityViolation(
                    f"evidence is undefined on the bound hypothesis "
                    f"{table.model.label(bits)} for decision "
                    f"{table.decisions[d]!r} at consequence {c!r}"
                )
            row.append(e.value_of(bits))
        evidence_at.append(row)
    geq = tuple(
        tuple(
            all(evidence_at[i][ci] >= evidence_at[j][ci] for ci in range(len(table.cspace.elements)))
            for j in range(n_dec)
        )
        for i in range(n_dec)
    )
    admissible = tuple(
        table.decisions[i]
        for i in range(n_dec)
        if not any(geq[j][i] and not geq[i][j] for j in range(n_dec))
    )
    return AdmissibilityResult(order=geq, admissible=admissible)


class OptimalityResult:
    __slots__ = ("space", "decision_sets", "optimal")

    def __init__(
        self, space: Space, decision_sets: dict[str, int],
        optimal: Optional[dict[str, str]],  # point -> unique best decision
    ):
        self.space = space
        self.decision_sets = decision_sets
        self.optimal = optimal


def optimality_class(loss: NumericLoss) -> OptimalityResult:
    """Group points by which decisions are best for them.

    Argmin ties put the point into every tying group, so the map back to a
    single optimal decision exists only in the tie-free case.
    """
    model = loss.model
    sets: dict[str, int] = {d: 0 for d in loss.decisions}
    unique: dict[str, str] = {}
    tie_free = True
    for pi in range(model.size):
        row = loss.entries[pi]
        best = min(row)
        winners = [d for d, v in zip(loss.decisions, row) if v == best]
        for d in winners:
            sets[d] |= 1 << pi
        if len(winners) == 1:
            unique[model.points[pi]] = winners[0]
        else:
            tie_free = False
    return OptimalityResult(
        space=Space(model, union_closure(model.size, sets.values())),
        decision_sets=sets,
        optimal=unique if tie_free else None,
    )

