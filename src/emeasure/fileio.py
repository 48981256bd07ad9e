"""YAML input schemas for the command-line tool.

Schema errors carry the file path and the offending key so the CLI can
fail with context. Numeric values are parsed with decimal semantics
(97.5 -> 195/2) and 'inf' marks infinite evidence.

A file becomes Python objects exactly as ``yaml.safe_load`` would make them.
``_LOADER`` (libyaml's parser where PyYAML has it) composes the document into
nodes, resolving the tag of each distinct plain scalar once per read. The
tree is then built from the nodes directly: string scalars are their text,
maps and sequences are a dict and a list, and every other scalar goes through
the loader's safe constructor. A document with an alias of a map or sequence,
a merge ``<<`` or value ``=`` key, a map or sequence as a key, any other
collection tag (``!!set``, ``!!omap``, ``!!pairs``, local tags) or a scalar
tagged as a collection is instead built whole by PyYAML's
``construct_document``. A table that names one hypothesis twice, a kernel
row with an outcome the model lacks and a distribution for a point outside
the space are schema errors.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import yaml

from .decisions import ConsequenceSpace, ConsequenceTable, NumericLoss
from .kernels import EKernel, Pmf, ProbabilityAssignment, SampleSpace
from .spaces import (
    MODEL_POINT_CAP,
    Model,
    PointSet,
    Preorder,
    Space,
    SpaceError,
    union_closure,
)
from .xvalue import XValue, parse_xvalue


class SchemaError(Exception):
    def __init__(self, path: Path | str, message: str):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


# libyaml's parser where PyYAML was built with it; both compose the same
# nodes and resolve the same implicit tags.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_STR = "tag:yaml.org,2002:str"
_SEQ = "tag:yaml.org,2002:seq"
_MAP = "tag:yaml.org,2002:map"
_MERGE_OR_VALUE = ("tag:yaml.org,2002:merge", "tag:yaml.org,2002:value")


class _Fallback(Exception):
    """The document needs PyYAML's own constructor."""


def _memoise_resolve(loader) -> None:
    """Resolve each distinct plain scalar of this read once.

    A plain scalar's tag depends on its text alone: safe loaders have no
    path resolvers. Quoted scalars and collections match no pattern."""
    resolve = loader.resolve
    memo: dict[str, str] = {}

    def resolve_once(kind, value, implicit):
        if kind is not yaml.ScalarNode or not implicit[0]:
            return resolve(kind, value, implicit)
        try:
            return memo[value]
        except KeyError:
            tag = memo[value] = resolve(kind, value, implicit)
            return tag

    loader.resolve = resolve_once


def _build(loader, node, seen: set):
    """The Python object of `node`, as ``yaml.safe_load`` builds it.

    Plain maps, sequences and strings are built here; other scalars go
    through the loader's constructor. `seen` holds the maps and sequences
    built so far. Anything else raises ``_Fallback``.
    """
    tag = node.tag
    if isinstance(node, yaml.ScalarNode):
        return node.value if tag == _STR else loader.construct_object(node)
    if node in seen or tag not in (_SEQ, _MAP):
        raise _Fallback  # an alias, or a set, omap, pairs or local tag
    seen.add(node)
    if tag == _SEQ:
        return [_build(loader, item, seen) for item in node.value]
    out = {}
    for key, value in node.value:
        if not isinstance(key, yaml.ScalarNode) or key.tag in _MERGE_OR_VALUE:
            raise _Fallback  # an unhashable key, '<<' or '='
        out[_build(loader, key, seen)] = _build(loader, value, seen)
    return out


def _load_yaml(path: Path | str) -> dict:
    try:
        with open(path) as fh:
            loader = _LOADER(fh)
            _memoise_resolve(loader)
            try:
                root = loader.get_single_node()
                try:
                    data = None if root is None else _build(loader, root, set())
                    if loader.state_generators:  # a scalar tagged as a collection
                        raise _Fallback
                except _Fallback:
                    data = loader.construct_document(root)
            finally:
                del loader.resolve  # the memo refers back to the loader
                loader.dispose()
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except yaml.YAMLError as exc:
        raise SchemaError(path, f"not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise SchemaError(path, "top level must be a mapping")
    return data


def _fraction(path, raw) -> Fraction:
    try:
        if isinstance(raw, float):
            return Fraction(str(raw))
        return Fraction(raw)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(path, f"not a rational number: {raw!r}") from None


def _xvalue(path, raw) -> XValue:
    try:
        return parse_xvalue(raw)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(path, f"not an evidence value: {raw!r}") from None


def _xvalue_reader(path) -> Callable[[object], XValue]:
    """``_xvalue`` for one file read, parsing each distinct scalar once.

    The memo is keyed by type as well as value: YAML ``true`` equals and
    hashes like ``1``, and must still be refused. Unhashable values skip the
    memo and are refused by ``_xvalue``.
    """
    memo: dict[tuple[type, object], XValue] = {}

    def read(raw) -> XValue:
        key = (type(raw), raw)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = _xvalue(path, raw)
            return value
        except TypeError:
            return _xvalue(path, raw)

    return read


class SpaceFile:
    """Parsed space file: the model, the family and the named hypotheses."""

    def __init__(self, space: Space, names: dict[str, int]):
        self.space = space
        self.names = names

    def resolve(self, path, label: str) -> int:
        """A hypothesis label is a declared name, 'empty', or a comma-separated
        list of point labels."""
        if label in self.names:
            return self.names[label]
        if label in ("empty", "{}"):
            return self.space.family.empty_id
        parts = [p.strip() for p in str(label).split(",") if p.strip()]
        try:
            bits = PointSet.of(self.space.model, parts).bits
        except Exception:
            raise SchemaError(path, f"unknown hypothesis label {label!r}") from None
        if bits not in self.space.family:
            raise SchemaError(path, f"{label!r} is not a member of the family")
        return self.space.family.id_of(bits)


class _LabelReader:
    """Resolves the hypothesis labels of one table, refusing a member named twice."""

    def __init__(self, path, sf: SpaceFile):
        self.path = path
        self.sf = sf
        self.seen: dict[int, str] = {}

    def resolve(self, label) -> int:
        label = str(label)
        hid = self.sf.resolve(self.path, label)
        if hid in self.seen:
            first = self.seen[hid]
            raise SchemaError(self.path, f"{first!r} and {label!r} name the same hypothesis")
        self.seen[hid] = label
        return hid


def load_space(path: Path | str) -> SpaceFile:
    data = _load_yaml(path)
    points = data.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise SchemaError(path, "'points' must be a list of labels")
    if len(points) > MODEL_POINT_CAP:
        raise SchemaError(
            path, f"{len(points)} points exceed the model cap {MODEL_POINT_CAP}"
        )
    model = Model(tuple(points))
    names: dict[str, list[str]] = {}
    if "generators" in data:
        gens = data["generators"]
        if isinstance(gens, dict):
            names = {str(k): v for k, v in gens.items()}
            generators = list(names.values())
        elif isinstance(gens, list):
            generators = gens
        else:
            raise SchemaError(path, "'generators' must be a list or a mapping")
        sets = []
        for g in generators:
            if not isinstance(g, list):
                raise SchemaError(path, f"generator {g!r} is not a list of point labels")
            try:
                sets.append(PointSet.of(model, g))
            except Exception:
                raise SchemaError(path, f"generator {g!r} uses unknown points") from None
        space = Space(model, union_closure(model.size, sets))
    elif "preorder" in data:
        entries = data["preorder"]
        if not isinstance(entries, list):
            raise SchemaError(path, "'preorder' must be a list of pairs")
        pairs = []
        for pair in entries:
            if not isinstance(pair, list) or len(pair) != 2:
                raise SchemaError(path, f"preorder entry {pair!r} is not a pair")
            pairs.append(tuple(_point_index(path, model, p) for p in pair))
        from .spaces import class_from_preorder

        try:
            space = class_from_preorder(model, Preorder.from_pairs(model.size, pairs))
        except Exception as exc:
            raise SchemaError(path, str(exc)) from None
    else:
        raise SchemaError(path, "need 'generators' or 'preorder'")
    name_ids = {}
    for name, labels in names.items():
        name_ids[name] = space.family.id_of(PointSet.of(model, labels).bits)
    return SpaceFile(space, name_ids)


def _point_index(path, model: Model, raw) -> int:
    """A point label or a plain integer index; the range is the preorder's check."""
    if isinstance(raw, str):
        try:
            return model.index(raw)
        except SpaceError:
            raise SchemaError(path, f"unknown point label {raw!r}") from None
    if isinstance(raw, int) and not isinstance(raw, bool):
        return raw
    raise SchemaError(path, f"{raw!r} is neither a point label nor an integer index")


def load_evidence(path: Path | str, sf: SpaceFile) -> dict[int, XValue]:
    data = _load_yaml(path)
    table = data.get("evidence")
    if not isinstance(table, dict):
        raise SchemaError(path, "'evidence' must map hypothesis labels to values")
    read = _xvalue_reader(path)
    hypotheses = _LabelReader(path, sf)
    out: dict[int, XValue] = {}
    for label, raw in table.items():
        out[hypotheses.resolve(label)] = read(raw)
    out.setdefault(sf.space.family.empty_id, read("inf"))
    return out


def load_pmfs(path: Path | str, model: Model) -> ProbabilityAssignment:
    data = _load_yaml(path)
    table = data.get("pmf")
    if not isinstance(table, dict):
        raise SchemaError(path, "'pmf' must map point labels to outcome masses")
    outcomes: Optional[tuple[str, ...]] = None
    pmfs = {}
    for point, masses in table.items():
        if not isinstance(masses, dict):
            raise SchemaError(path, f"masses for {point!r} must be a mapping")
        if outcomes is None:
            outcomes = tuple(str(x) for x in masses.keys())
            sample = SampleSpace(outcomes)
        pmfs[str(point)] = Pmf.of(
            sample, {str(x): _fraction(path, m) for x, m in masses.items()}
        )
    if outcomes is None:
        raise SchemaError(path, "'pmf' is empty")
    unknown = [p for p in pmfs if p not in model.points]
    if unknown:
        raise SchemaError(path, f"distributions for points not in the space: {unknown}")
    missing = [p for p in model.points if p not in pmfs]
    if missing:
        raise SchemaError(path, f"no distribution for points {missing}")
    try:
        return ProbabilityAssignment.of(model, pmfs)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None


def load_kernel(
    path: Path | str, sf: SpaceFile, sample: Optional[SampleSpace] = None
) -> EKernel:
    data = _load_yaml(path)
    table = data.get("kernel")
    if not isinstance(table, dict):
        raise SchemaError(path, "'kernel' must map hypothesis labels to outcome rows")
    if sample is None:
        declared = data.get("outcomes")
        if not isinstance(declared, list):
            raise SchemaError(
                path, "'outcomes' list is required when no model file fixes them"
            )
        sample = SampleSpace(tuple(str(x) for x in declared))
    read = _xvalue_reader(path)
    hypotheses = _LabelReader(path, sf)
    rows: dict[int, dict[str, XValue]] = {}
    for label, row in table.items():
        if not isinstance(row, dict):
            raise SchemaError(path, f"row for {label!r} must be a mapping")
        hid = hypotheses.resolve(label)
        rows[hid] = {str(x): read(v) for x, v in row.items()}
    empty = sf.space.family.empty_id
    rows.setdefault(empty, {x: read("inf") for x in sample.outcomes})
    n = len(sf.space.family)
    missing = [hid for hid in range(n) if hid not in rows]
    if missing:
        labels = [
            ",".join(sf.space.family.member(h).labels(sf.space.model)) for h in missing
        ]
        raise SchemaError(path, f"kernel misses hypotheses: {labels}")
    for hid, row in rows.items():
        for x in sample.outcomes:
            if x not in row:
                raise SchemaError(path, f"hypothesis id {hid} misses outcome {x!r}")
        if len(row) > len(sample.outcomes):  # every outcome is there, and more
            unknown = [x for x in row if x not in sample.outcomes]
            raise SchemaError(
                path, f"row for {hypotheses.seen[hid]!r} has unknown outcomes {unknown}"
            )
    try:
        return EKernel.from_table(sf.space, sample, rows)
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None


def load_decision_problem(path: Path | str, model: Model):
    """Returns (ConsequenceTable, NumericLoss or None)."""
    data = _load_yaml(path)
    decisions = data.get("decisions")
    if not isinstance(decisions, list) or not decisions:
        raise SchemaError(path, "'decisions' must be a non-empty list")
    decisions = tuple(str(d) for d in decisions)
    if "loss" in data:
        table = data["loss"]
        if not isinstance(table, dict):
            raise SchemaError(path, "'loss' must map points to decision losses")
        try:
            loss = NumericLoss.of(
                model,
                decisions,
                {
                    str(p): {str(d): _xvalue(path, v) for d, v in row.items()}
                    for p, row in table.items()
                },
            )
        except KeyError as exc:
            raise SchemaError(path, f"loss table misses entry {exc}") from None
        return loss.to_consequence_table(), loss
    cons = data.get("consequences")
    table = data.get("table")
    if not isinstance(cons, dict) or not isinstance(table, dict):
        raise SchemaError(path, "need 'consequences' and 'table' (or 'loss')")
    elements = cons.get("elements")
    order_pairs = cons.get("order", [])
    if not isinstance(elements, list) or not elements:
        raise SchemaError(path, "'consequences.elements' must be a non-empty list")
    elements = tuple(str(e) for e in elements)
    idx = {e: i for i, e in enumerate(elements)}
    pairs = []
    for pair in order_pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(path, f"order entry {pair!r} is not a pair")
        a, b = (str(pair[0]), str(pair[1]))
        if a not in idx or b not in idx:
            raise SchemaError(path, f"order pair {pair!r} uses unknown elements")
        pairs.append((idx[a], idx[b]))
    pre = Preorder.from_pairs(len(elements), pairs).transitive_closure()
    try:
        cspace = ConsequenceSpace(elements, pre)
        ctable = ConsequenceTable.of(
            model,
            decisions,
            cspace,
            {str(p): {str(d): str(c) for d, c in row.items()} for p, row in table.items()},
        )
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None
    return ctable, None
