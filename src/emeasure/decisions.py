"""Decision making under evidence: consequence tables, the hypothesis
class they induce, consequence bounds, integrated loss, admissibility and
the optimality class of a loss.

A decision problem is one `ConsequenceTable`, whose cells are indices into
its consequence space. A numeric loss is the table `ConsequenceTable.numeric`
builds: its consequences are the distinct losses, ranked, so its cells
compare as the losses do and index their values.

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

The bound checks are the kernels' one expectation walk,
``kernels._pair_report``: per distinct benchmark row, its upper set with
the row's worst evidence or miss rate, and for the Grünwald bound each
point alone with its worst loss ratio.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from . import kernels as kn
from .evidence import EClass, EFunction, EvidenceError, shilkret_integral
from .kernels import EKernel, ProbabilityAssignment, Report
from .spaces import Model, Preorder, Space
from .xvalue import XValue, order_keys, packed_keys, scale, sup_of


class DecisionError(EvidenceError):
    pass


class OrderMeasurabilityViolation(EvidenceError):
    """A bound hypothesis the computation needs is not a member of the space."""


class ConsequenceSpace:
    """Consequence labels with an explicit preorder: `order.rows[i]` holds
    the consequences j that i is at least as bad as. A numeric space keeps
    each consequence's loss in `values`; any other holds None there."""

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

    def index(self, label: str) -> int:
        try:
            return self.positions[label]
        except (KeyError, TypeError):
            raise DecisionError(f"unknown consequence {label!r}") from None


class ConsequenceTable:
    """Total map (point, decision) -> consequence, each cell an index into
    `cspace.elements`. A numeric table (`numeric`) ranks its losses, so
    its cells compare as its losses do."""

    __slots__ = ("model", "decisions", "cspace", "entries", "_bounds")

    def __init__(
        self, model: Model, decisions: tuple[str, ...], cspace: ConsequenceSpace,
        entries: Sequence[Sequence[int]],  # entries[point][decision]
    ):
        size, width = len(cspace.elements), len(decisions)
        if len(entries) > model.size:
            raise DecisionError(f"{len(entries)} consequence rows for {model.size} points")
        for pi, p in enumerate(model.points):
            if pi == len(entries):
                raise DecisionError(f"no consequences for point {p!r}")
            if len(entries[pi]) != width:
                raise DecisionError(f"row {p!r} has length {len(entries[pi])}, not {width}")
            for d, c in zip(decisions, entries[pi]):
                if type(c) is not int or not 0 <= c < size:  # bool is an int subclass
                    raise DecisionError(
                        f"cell {c!r} of {p!r} under {d!r} is not an index below {size}"
                    )
        self.model = model
        self.decisions = decisions
        self.cspace = cspace
        self.entries = tuple(map(tuple, entries))
        self._bounds: Optional[tuple[list[int], ...]] = None

    @classmethod
    def numeric(
        cls, model: Model, decisions: tuple[str, ...],
        losses: Sequence[Sequence[XValue]],  # losses[point][decision]
    ) -> "ConsequenceTable":
        """The table of non-negative extended losses: its consequences are the
        distinct losses, ranked on their order keys, each at least as bad as
        itself and every smaller one; each cell is its loss's rank. Labels
        and order are right by construction, so ``ConsequenceSpace.__init__``
        and its checks are skipped."""
        flat = [v for row in losses for v in row]
        keys = order_keys(flat)
        distinct = dict(zip(keys, flat))
        rank = {key: i for i, key in enumerate(sorted(distinct))}
        cspace = ConsequenceSpace.__new__(ConsequenceSpace)
        cspace.values = tuple(distinct[key] for key in rank)
        cspace.elements = tuple(v.record() for v in cspace.values)
        cspace.order = Preorder(tuple((1 << (i + 1)) - 1 for i in range(len(rank))))
        cspace.positions = {c: i for i, c in enumerate(cspace.elements)}
        cells = iter(keys)
        entries = tuple(tuple(rank[next(cells)] for _ in row) for row in losses)
        return cls(model, decisions, cspace, entries)

    def bounds(self) -> tuple[list[int], ...]:
        """Per decision, the bound hypothesis at each consequence index: the
        bitset of the points whose consequence is at least as bad. Built once.

        One pass per decision groups the points by consequence, and each
        group joins the bounds of the consequences below its own.
        """
        if self._bounds is None:
            rows, size = self.cspace.order.rows, len(self.cspace.elements)
            below: dict[int, list[int]] = {}
            table = []
            for d in range(len(self.decisions)):
                groups: dict[int, int] = {}
                for pi, row in enumerate(self.entries):
                    groups[row[d]] = groups.get(row[d], 0) | 1 << pi
                bounds = [0] * size
                for c, group in groups.items():
                    if c not in below:  # read off the row's binary digits, lowest first
                        below[c] = [e for e, bit in enumerate(bin(rows[c])[:1:-1]) if bit == "1"]
                    for e in below[c]:
                        bounds[e] |= group
                table.append(bounds)
            self._bounds = tuple(table)
        return self._bounds


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
    family, bounds = k.space.family, table.bounds()
    first: dict[tuple[int, ...], int] = {}  # each distinct row's first point
    for qi, row in enumerate(table.entries):
        first.setdefault(row, qi)
    variables = []
    for row in first:
        bound_rows = [k.rows[family.id_of(bound[c])] for bound, c in zip(bounds, row)]
        var = scale([sup_of(values) for values in zip(*bound_rows)])
        variables.append(var if thresholds is None else kn.miss_variable(var, thresholds))
    cases = [table.model.points[qi] for qi in first.values()]
    return kn._pair_report(pa, [ups[qi] for qi in first.values()], variables, cases)


def _levels(table: ConsequenceTable, d: int) -> list[tuple[XValue, int]]:
    """The positive losses decision d takes in a numeric table, each with
    its bound hypothesis there: the super-level sets of its loss."""
    values, bounds = table.cspace.values, table.bounds()[d]
    if values is None:
        raise DecisionError("the integrated loss needs a numeric loss table")
    taken = dict.fromkeys(row[d] for row in table.entries)
    return [(values[c], bounds[c]) for c in taken if not values[c].is_zero]


def e_integrated_loss(table: ConsequenceTable, e: EFunction, decision: int | str) -> XValue:
    """Evidence-weighted worst loss of a decision: the Shilkret integral of
    its loss column in a numeric table (``ConsequenceTable.numeric``). On a
    measure over an intersection-closed space it equals the sup over points
    of loss / e(least hypothesis).
    """
    if isinstance(decision, str):
        decision = table.decisions.index(decision)
    if e.eclass is not EClass.MEASURE:
        raise DecisionError("integrated loss needs a measure")
    e.space.require_intersection_closed()
    return shilkret_integral(e, _levels(table, decision))


def check_grunwald_bound(k: EKernel, pa: ProbabilityAssignment, table: ConsequenceTable) -> Report:
    """Integrated-loss ratio bound of a numeric table.

    Per point the expectation of the worst ratio loss/integrated-loss must
    stay at most one. By the integral's definition each ratio is at most
    the evidence against the matching bound hypothesis (Markov), which
    caps the statistic by the uniform-consequence statistic.
    """
    _require_order_measurable(k.space, table)
    n_dec, n, values = len(table.decisions), k.space.model.size, table.cspace.values
    integrated: list[list[XValue]] = []  # [decision][outcome]
    for d in range(n_dec):
        levels = _levels(table, d)
        integrated.append([shilkret_integral(col, levels) for col in k.columns])
    variables = [
        scale([sup_of(values[table.entries[pi][d]] / integrated[d][xi] for d in range(n_dec))
               for xi in range(k.sample.size)])
        for pi in range(n)
    ]
    return kn._pair_report(pa, [1 << pi for pi in range(n)], variables, [None] * n)


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
        for c, bits in enumerate(bounds):
            if bits not in family:
                raise OrderMeasurabilityViolation(
                    f"evidence is undefined on the bound hypothesis "
                    f"{table.model.label(bits)} for decision "
                    f"{table.decisions[d]!r} at consequence {table.cspace.elements[c]!r}"
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


def optimality_class(table: ConsequenceTable) -> OptimalityResult:
    """Group points by which decisions are best for them in a numeric table.

    Its cells rank its losses, so the argmin runs on them. Argmin ties put
    the point into every tying group, so the map back to a single optimal
    decision exists only in the tie-free case.
    """
    if table.cspace.values is None:
        raise DecisionError("the optimality class needs a numeric loss table")
    model = table.model
    sets: dict[str, int] = {d: 0 for d in table.decisions}
    unique: dict[str, str] = {}
    tie_free = True
    for pi in range(model.size):
        row = table.entries[pi]
        best = min(row)
        winners = [d for d, c in zip(table.decisions, row) if c == best]
        for d in winners:
            sets[d] |= 1 << pi
        if len(winners) == 1:
            unique[model.points[pi]] = winners[0]
        else:
            tie_free = False
    return OptimalityResult(decision_sets=sets, optimal=unique if tie_free else None)

