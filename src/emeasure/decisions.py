"""Decision making under evidence: consequence tables, the hypothesis
class they induce, consequence bounds, integrated loss, admissibility and
the optimality class of a loss.

Everything reads one table of bound hypotheses per decision
(`ConsequenceTable.bounds`): at each consequence, the points whose
consequence is at least as bad. The induced class is the upper sets of row
dominance (point q is above p when q's consequence is at least as bad
under every decision). It is checked at its generators, the principal
upper sets, each the meet of a point's bounds, and never built: a
union-closed kernel space that holds every generator holds the whole
class. For a numeric loss the bounds are its super-level sets, so the
integrated loss is read off them too, and admissibility compares
decisions on the evidence against their bounds.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import kernels as kn
from .evidence import EClass, EFunction, EvidenceError, shilkret_integral
from .kernels import EKernel, Entry, ProbabilityAssignment, Report
from .spaces import Model, Preorder, Space
from .xvalue import XValue, as_xvalue, dot_at_most, order_keys, packed_keys, scale, sup_of


class DecisionError(EvidenceError):
    pass


class OrderMeasurabilityViolation(EvidenceError):
    """A bound hypothesis the computation needs is not a member of the space."""


class ConsequenceSpace:
    """Consequence labels with an explicit preorder: `order.rows[i]` holds
    the consequences j that i is at least as bad as. A numeric space keeps
    each label's value in `values`; any other holds None there."""

    __slots__ = ("elements", "order", "positions", "values")

    def __init__(self, elements: tuple[str, ...], order: Preorder):
        positions = {c: i for i, c in enumerate(elements)}
        if len(positions) != len(elements):
            raise DecisionError("consequence labels must be unique")
        if order.size != len(elements):
            raise DecisionError("order matrix size must match the elements")
        order.validate()  # the meets of bound hypotheses are upper sets only on a preorder
        self.elements = elements
        self.order = order
        # Each element label's index; the labels alone fix it.
        self.positions = positions
        self.values: Optional[tuple[XValue, ...]] = None

    @classmethod
    def numeric(cls, values: Sequence[XValue]) -> "ConsequenceSpace":
        """The distinct values in increasing order of their order keys, each
        at least as bad as itself and every smaller one. The labels are
        distinct and the order is total by construction, so ``__init__``
        and its checks are skipped, as ``EKernel.from_rows`` skips
        ``EKernel.__init__``."""
        distinct = dict(zip(order_keys(values), values))
        space = cls.__new__(cls)
        space.values = tuple(distinct[key] for key in sorted(distinct))
        space.elements = tuple(v.record() for v in space.values)
        space.order = Preorder(tuple((1 << (i + 1)) - 1 for i in range(len(space.values))))
        space.positions = {c: i for i, c in enumerate(space.elements)}
        return space

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise DecisionError(f"unknown consequence {label!r}") from None


class ConsequenceTable:
    """Total map (decision, point) -> consequence element."""

    __slots__ = ("model", "decisions", "cspace", "entries", "_bounds")

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
        self._bounds: Optional[tuple[dict[str, int], ...]] = None

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

    def bounds(self) -> tuple[dict[str, int], ...]:
        """Per decision, each consequence's bound hypothesis: the bitset of
        the points whose consequence is at least as bad. Built once.

        One pass per decision groups the points by consequence, and each
        group joins the bounds of the consequences below its own.
        """
        if self._bounds is None:
            elements, rows = self.cspace.elements, self.cspace.order.rows
            below: dict[str, list[str]] = {}
            table = []
            for d in range(len(self.decisions)):
                groups: dict[str, int] = {}
                for pi, row in enumerate(self.entries):
                    groups[row[d]] = groups.get(row[d], 0) | 1 << pi
                bounds = dict.fromkeys(elements, 0)
                for c, group in groups.items():
                    if c not in below:  # read off the row's binary digits, lowest first
                        digits = bin(rows[self.cspace.positions[c]])[:1:-1]
                        below[c] = [e for e, bit in zip(elements, digits) if bit == "1"]
                    for e in below[c]:
                        bounds[e] |= group
                table.append(bounds)
            self._bounds = tuple(table)
        return self._bounds


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

    def to_consequence_table(self) -> ConsequenceTable:
        values = [v for row in self.entries for v in row]
        cspace = ConsequenceSpace.numeric(values)
        rows = tuple(tuple(v.record() for v in row) for row in self.entries)
        return ConsequenceTable(self.model, self.decisions, cspace, rows)


def _require_order_measurable(space: Space, table: ConsequenceTable) -> list[int]:
    """Per point, its upper set under row dominance, the meet of its bound
    hypotheses; each must be a member of `space`.

    These generate the induced class, so a union-closed space holding them
    all holds it. A missing member is the union of the upper sets inside
    it, so some one of them is missing too: the first missing upper set in
    canonical order (popcount, then value) is the first missing member.
    """
    bounds, full = table.bounds(), (1 << table.model.size) - 1
    ups = []
    for row in table.entries:
        up = full
        for bound, c in zip(bounds, row):
            up &= bound[c]
        ups.append(up)
    missing = [up for up in set(ups) if up not in space.family]
    if missing:
        first = min(missing, key=lambda bits: (bits.bit_count(), bits))
        raise OrderMeasurabilityViolation(
            f"kernel space misses the bound hypothesis {table.model.label(first)}"
        )
    return ups


def _distinct_rows(table: ConsequenceTable) -> list[tuple[str, int]]:
    """One representative point per distinct consequence row."""
    seen: dict[tuple[str, ...], int] = {}
    for pi in range(table.model.size):
        seen.setdefault(table.entries[pi], pi)
    return [(table.model.points[pi], pi) for pi in seen.values()]


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
    ups = _require_order_measurable(k.space, table)
    thresholds = None if rule is None else kn.outcome_thresholds(k, rule)
    points, family, bounds = k.space.model.points, k.space.family, table.bounds()
    entries = []
    for label, qi in _distinct_rows(table):
        row = table.entries[qi]
        bound_rows = [k.rows[family.id_of(bound[c])] for bound, c in zip(bounds, row)]
        var = scale([sup_of(values) for values in zip(*bound_rows)])
        if thresholds is not None:
            var = kn.miss_variable(kn.miss_mask(var, thresholds), thresholds)
        for pi in family.indices(family.id_of(ups[qi])):
            stat, ok = dot_at_most(pa.pmfs[pi].scaled, var)
            entries.append(Entry(points[pi], stat, case=label, ok=ok))
    return Report(tuple(entries))


def _levels(table: ConsequenceTable, d: int) -> list[tuple[XValue, int]]:
    """The positive losses decision d takes in a numeric table, each with
    its bound hypothesis there: the super-level sets of its loss."""
    values, positions, bounds = table.cspace.values, table.cspace.positions, table.bounds()[d]
    if values is None:
        raise DecisionError("the integrated loss needs a numeric loss table")
    levels = []
    for c in dict.fromkeys(row[d] for row in table.entries):
        value = values[positions[c]]
        if not value.is_zero:
            levels.append((value, bounds[c]))
    return levels


def e_integrated_loss(table: ConsequenceTable, e: EFunction, decision: int | str) -> XValue:
    """Evidence-weighted worst loss of a decision: the Shilkret integral of
    its loss column, from a numeric loss's ``to_consequence_table()``. On a
    measure over an intersection-closed space it equals the sup over points
    of loss / e(least hypothesis).
    """
    if isinstance(decision, str):
        decision = table.decisions.index(decision)
    if e.eclass is not EClass.MEASURE:
        raise DecisionError("integrated loss needs a measure")
    e.space.require_intersection_closed()
    return shilkret_integral(e, _levels(table, decision))


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
        levels = _levels(table, d)
        integrated.append([shilkret_integral(col, levels) for col in k.columns])

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
    name instead of guessed around. Each decision's evidence against its
    bounds is packed into one int of order keys (`packed_keys`), so one
    subtraction compares two decisions at every consequence.
    """
    n_dec, family, keys = len(table.decisions), e.space.family, order_keys(e.values)
    rows = []
    for d, bounds in enumerate(table.bounds()):
        row = []
        for c, bits in bounds.items():
            if bits not in family:
                raise OrderMeasurabilityViolation(
                    f"evidence is undefined on the bound hypothesis "
                    f"{table.model.label(bits)} for decision "
                    f"{table.decisions[d]!r} at consequence {c!r}"
                )
            row.append(keys[family.id_of(bits)])
        rows.append(row)
    packed, guard = packed_keys(list(zip(*rows)))
    geq = tuple(
        tuple(((packed[i] | guard) - packed[j]) & guard == guard for j in range(n_dec))
        for i in range(n_dec)
    )
    admissible = tuple(
        table.decisions[i]
        for i in range(n_dec)
        if not any(geq[j][i] and not geq[i][j] for j in range(n_dec))
    )
    return AdmissibilityResult(order=geq, admissible=admissible)


class OptimalityResult:
    __slots__ = ("decision_sets", "optimal")

    def __init__(
        self, decision_sets: dict[str, int],
        optimal: Optional[dict[str, str]],  # point -> unique best decision
    ):
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
    return OptimalityResult(decision_sets=sets, optimal=unique if tie_free else None)

