"""Built-in worked example: the paper's Table 1 over a three-circle family
of eight cells.

The model has one point per cell of the Venn diagram of the baseline
hypotheses G1, G2, G3 plus the outside cell. Table 1 is one row table:
per labeled hypothesis, in `ROW_LABELS` order, one cell per column of
`COLUMNS`, the names the command line prints. `compute_reference_table`
recomputes it from the bundled cell evidence alone, and `EXPECTED` embeds
it at the default level, so the golden comparison needs no input files.
"""

from __future__ import annotations

from typing import Optional

from . import evidence as ev
from . import multiplicity as mtp
from .evidence import EFunction
from .spaces import Model, Space, union_closure
from .xvalue import INF, ONE, ZERO, XValue, ratio

CELLS = ("c1", "c2", "c3", "c12", "c13", "c23", "c123", "cOut")

CELL_EVIDENCE = dict(zip(CELLS, map(XValue, (60, 29, 11, 70, 65, 40, 100, 5))))

# The cells of each row's hypothesis, in print order.
_ROW_CELLS = {
    "H_C": ("cOut",), "H_1": ("c1",), "H_2": ("c2",), "H_3": ("c3",),
    "H_12": ("c12",), "H_13": ("c13",), "H_23": ("c23",), "H_123": ("c123",),
    "G_1": ("c1", "c12", "c13", "c123"),
    "G_2": ("c2", "c12", "c23", "c123"),
    "G_3": ("c3", "c13", "c23", "c123"),
}

ROW_LABELS = tuple(_ROW_CELLS)

# The e-value, the value inflated by the selection, the selection share
# (none on a G row), and the e-BH and closed step-up tables.
COLUMNS = ("e", "e_selected", "fsp", "step_up", "closed_step_up")

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


# Table 1 at the default level, per row label its cells in `COLUMNS` order.
EXPECTED = {
    "H_C": (XValue(5), INF, ZERO, ZERO, ZERO),
    "H_1": (XValue(60), XValue(180), ratio(1, 3), XValue(20), XValue(20)),
    "H_2": (XValue(29), XValue(87), ratio(1, 3), ZERO, XValue(20)),
    "H_3": (XValue(11), XValue(33), ratio(1, 3), ZERO, XValue(20)),
    "H_12": (XValue(70), XValue(105), ratio(2, 3), XValue(20), XValue(20)),
    "H_13": (XValue(65), ratio(195, 2), ratio(2, 3), XValue(20), XValue(20)),
    "H_23": (XValue(40), XValue(60), ratio(2, 3), ZERO, XValue(20)),
    "H_123": (XValue(100), XValue(100), ONE, XValue(20), XValue(20)),
    "G_1": (XValue(60), ratio(195, 2), None, XValue(20), XValue(20)),
    "G_2": (XValue(29), XValue(60), None, ZERO, XValue(20)),
    "G_3": (XValue(11), XValue(33), None, ZERO, XValue(20)),
}


def compute_reference_table(alpha: XValue) -> dict[str, tuple[Optional[XValue], ...]]:
    """Table 1 at level `alpha`, recomputed from the eight cell values
    alone: per row label, in `ROW_LABELS` order, its cells in `COLUMNS`
    order. A G row has no selection share (None)."""
    space = toy_space()
    base = base_efunction(space)
    gids = group_ids(space)
    stepup = mtp.ebh(base, gids, alpha).table.values
    # closed_ebh's table from one selection, whose shares serve the
    # inflated and fsp columns too: they are counted once.
    selection = mtp.self_consistent_selection(base, gids, alpha)
    closed = mtp._binary_rejection_table(space, selection.selected, alpha).values
    shares = selection.shares
    inflated = mtp.postprocess_efunction(base, shares).values
    table = {}
    for label, cells in _ROW_CELLS.items():
        hid = row_id(space, label)
        share = None if label.startswith("G") else shares[space.model.index(cells[0])]
        table[label] = (base.values[hid], inflated[hid], share, stepup[hid], closed[hid])
    return table


def diff_reference_tables(
    computed: dict[str, tuple], expected: dict[str, tuple]
) -> list[tuple[str, str, object, object]]:
    """Every cell where the tables differ, as (row, column, computed,
    expected), in print order: rows, then `COLUMNS`."""
    return [
        (row, column, got, want)
        for row, cells in expected.items()
        for column, got, want in zip(COLUMNS, computed[row], cells)
        if got != want
    ]
