"""Built-in worked example: a three-circle family over eight cells.

The model has one point per cell of the Venn diagram of the baseline
hypotheses G1, G2, G3 plus the outside cell. The bundled cell evidence and
the reference columns for the multiplicity procedures are embedded here so
the golden comparison needs no input files.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import evidence as ev
from . import multiplicity as mtp
from .evidence import EFunction
from .spaces import Model, Space, union_closure
from .xvalue import INF, XValue, ratio

CELLS = ("c1", "c2", "c3", "c12", "c13", "c23", "c123", "cOut")

CELL_EVIDENCE = dict(zip(CELLS, map(XValue, (60, 29, 11, 70, 65, 40, 100, 5))))

GROUPS = {
    "G1": ("c1", "c12", "c13", "c123"),
    "G2": ("c2", "c12", "c23", "c123"),
    "G3": ("c3", "c13", "c23", "c123"),
}

ROW_LABELS = ("H_C", "H_1", "H_2", "H_3", "H_12", "H_13", "H_23", "H_123", "G_1", "G_2", "G_3")

_ROW_CELLS = {
    "H_C": ("cOut",),
    "H_1": ("c1",),
    "H_2": ("c2",),
    "H_3": ("c3",),
    "H_12": ("c12",),
    "H_13": ("c13",),
    "H_23": ("c23",),
    "H_123": ("c123",),
    "G_1": GROUPS["G1"],
    "G_2": GROUPS["G2"],
    "G_3": GROUPS["G3"],
}

DEFAULT_ALPHA = ratio(1, 20)


def toy_space() -> Space:
    model = Model(CELLS)
    cells = [model.bits_of([c]) for c in CELLS]
    return Space(model, union_closure(model.size, cells))


def row_id(space: Space, label: str) -> int:
    return space.family.id_of(space.model.bits_of(_ROW_CELLS[label]))


def group_ids(space: Space) -> tuple[int, ...]:
    return tuple(row_id(space, g) for g in ("G_1", "G_2", "G_3"))


def base_efunction(space: Optional[Space] = None) -> EFunction:
    """The bundled cell evidence closed over the whole family."""
    space = space or toy_space()
    return ev.measure_from_density(space, [CELL_EVIDENCE[c] for c in space.model.points])


class ReferenceTable(NamedTuple):
    """One row per labeled hypothesis; the selection share is absent on G rows."""

    alpha: XValue
    rows: tuple[str, ...]
    base: dict[str, XValue]
    inflated: dict[str, XValue]
    fsp: dict[str, Optional[XValue]]
    stepup: dict[str, XValue]
    closed_stepup: dict[str, XValue]


def compute_reference_table(alpha: XValue = DEFAULT_ALPHA) -> ReferenceTable:
    """Recompute every column from the eight cell values alone."""
    space = toy_space()
    base = base_efunction(space)
    gids = group_ids(space)

    stepup = mtp.ebh(base, gids, alpha)
    closed = mtp.closed_ebh(base, gids, alpha)
    inflated = mtp.postprocess_efunction(base, closed.rejected)

    ids = {label: row_id(space, label) for label in ROW_LABELS}
    shares = mtp.selection_shares(space, closed.rejected)
    fsp: dict[str, Optional[XValue]] = {
        label: None if label.startswith("G") else shares[space.model.index(_ROW_CELLS[label][0])]
        for label in ROW_LABELS
    }

    return ReferenceTable(
        alpha=alpha,
        rows=ROW_LABELS,
        base={lab: base.values[ids[lab]] for lab in ROW_LABELS},
        inflated={lab: inflated.values[ids[lab]] for lab in ROW_LABELS},
        fsp=fsp,
        stepup={lab: stepup.table.values[ids[lab]] for lab in ROW_LABELS},
        closed_stepup={lab: closed.table.values[ids[lab]] for lab in ROW_LABELS},
    )


def expected_reference_table() -> ReferenceTable:
    """The embedded golden values at the default level 1/20."""
    x, f = XValue, ratio
    return ReferenceTable(
        alpha=DEFAULT_ALPHA,
        rows=ROW_LABELS,
        base={
            "H_C": x(5), "H_1": x(60), "H_2": x(29), "H_3": x(11),
            "H_12": x(70), "H_13": x(65), "H_23": x(40), "H_123": x(100),
            "G_1": x(60), "G_2": x(29), "G_3": x(11),
        },
        inflated={
            "H_C": INF, "H_1": x(180), "H_2": x(87), "H_3": x(33),
            "H_12": x(105), "H_13": f(195, 2), "H_23": x(60), "H_123": x(100),
            "G_1": f(195, 2), "G_2": x(60), "G_3": x(33),
        },
        fsp={
            "H_C": x(0), "H_1": f(1, 3), "H_2": f(1, 3), "H_3": f(1, 3),
            "H_12": f(2, 3), "H_13": f(2, 3), "H_23": f(2, 3), "H_123": x(1),
            "G_1": None, "G_2": None, "G_3": None,
        },
        stepup={
            "H_C": x(0), "H_1": x(20), "H_2": x(0), "H_3": x(0),
            "H_12": x(20), "H_13": x(20), "H_23": x(0), "H_123": x(20),
            "G_1": x(20), "G_2": x(0), "G_3": x(0),
        },
        closed_stepup={
            "H_C": x(0), "H_1": x(20), "H_2": x(20), "H_3": x(20),
            "H_12": x(20), "H_13": x(20), "H_23": x(20), "H_123": x(20),
            "G_1": x(20), "G_2": x(20), "G_3": x(20),
        },
    )


EVIDENCE_COLUMNS = ("base", "inflated", "stepup", "closed_stepup")


class CellDiff(NamedTuple):
    row: str
    column: str
    computed: object
    expected: object


def diff_reference_tables(computed: ReferenceTable, expected: ReferenceTable) -> list[CellDiff]:
    diffs = []
    for row in expected.rows:
        for column in EVIDENCE_COLUMNS + ("fsp",):
            got, want = getattr(computed, column)[row], getattr(expected, column)[row]
            if got != want:
                diffs.append(CellDiff(row, column, got, want))
    return diffs
