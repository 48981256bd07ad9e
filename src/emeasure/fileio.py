"""YAML input schemas for the command-line tool.

Schema errors carry the file path and the offending key so the CLI can
fail with context. Numeric values are parsed with decimal semantics
(97.5 -> 195/2) and 'inf' marks infinite evidence.

Table, model, space and tree files share one shape, which a line reader
(``_read_table``) reads without a YAML parser, into exactly the Python
objects ``yaml.safe_load`` makes of it:

- a top-level block mapping, its keys at column 0;
- each value on its key's line, or a block mapping one level deeper whose
  lines share one indentation and carry their values on the line;
- each value a plain scalar, or a flow list or mapping of plain scalars on
  one line, nested or not;
- keys plain, or double-quoted with no escape; a key in a flow mapping is
  plain and is followed by ": ";
- a plain scalar without spaces, made of ASCII letters, digits and
  ``_ . ~ / + - :``, where ':' sits only between two other such characters
  and a leading '-' is followed by one;
- no key or plain scalar longer than 1000 characters;
- lines of printable ASCII; blank lines and whole-line '#' comments.

Each distinct plain scalar of a read gets its tag from the loader's resolver
and, unless it is a string, its value from PyYAML's ``SafeConstructor``.
Every other file, from anchors, tags, quoted values and tabs to documents
that are no YAML at all, goes whole to ``yaml.load`` with ``_LOADER``, so
its errors name the file. Where PyYAML has libyaml, ``_LOADER`` is libyaml's
parser, which differs from ``yaml.safe_load`` on a few documents: it reads
a tab after a key's colon, which safe_load refuses, and refuses
``a: [1:]``, which safe_load reads.

A hypothesis label, a key of an evidence or kernel table or an item of
``--family``, is a name declared under ``generators``, ``empty`` or ``{}``
for the empty member, or the member's points as a comma-separated list of
point labels in any order, with or without spaces after the commas
(``a,b`` or ``b, a``). The command line prints each member as its points in
the order of ``points``, joined by ',' with no spaces, and ``{}`` for the
empty member. A label naming a point the space does not declare, or a set
of points that is not a member, is a schema error.

A table that names one hypothesis twice, a row with an outcome, point or
decision its file does not declare, a distribution for a point outside the
space, a model or decision list naming a label twice and an evidence table
that does not classify are schema errors, named by their file.
"""

from __future__ import annotations

import re
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import yaml

from .decisions import ConsequenceSpace, ConsequenceTable, NumericLoss
from .evidence import EFunction, EvidenceError, classify, from_values
from .kernels import EKernel, FiltrationTree, Pmf, ProbabilityAssignment, SampleSpace
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


# libyaml's parser where PyYAML was built with it: the full-YAML path.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# Builds the non-string scalars of the line reader; its scalar constructors
# keep no state.
_CONSTRUCTOR = yaml.constructor.SafeConstructor()
_STR = "tag:yaml.org,2002:str"

# A plain scalar here has no spaces: one or more of the characters of `_C`,
# where a ':' may sit only between two of them and a leading '-' must be
# followed by one. So in block and in flow context it holds no indicator.
_C = r"[A-Za-z0-9_.~/+-]"
_PLAIN = re.compile(rf"(?!-(?!{_C})){_C}+(?::{_C}+)*")
# Structure is matched with this looser class; each distinct scalar is then
# checked against `_PLAIN` when it is first typed.
_S = r"[A-Za-z0-9_.~/+:-]+"
# A block-mapping line: indentation, a plain or escape-free double-quoted
# key, and an optional value. The value is a plain scalar, a flat flow
# mapping or sequence (plain scalars one ": " or ", " apart: kernel and model
# rows, split without the tokenizer), or any other flow collection.
_ENTRY = re.compile(
    rf'( *)(?:({_S})|"([ !#-\[\]-~]*)"):(?: +(?:({_S})'
    rf"|\{{({_S}: {_S}(?:, {_S}: {_S})*)\}}|\[({_S}(?:, {_S})*)\]|([\[{{].*[\]}}])))? *"
)
_BLANK = re.compile(r" *(?:#[ -~]*)?")
# One token of a flow collection; group 4 is a character no token starts with.
_FLOW_TOKEN = re.compile(rf" *(?:([\[\]{{}},])|({_C}+(?::{_C}+)*)(: )?|(.))")
# A longer implicit key is no key to a YAML scanner, which gives up at 1024.
_KEY_MAX = 1000
_NONE = object()


class _Scalars(dict):
    """The value of each distinct plain scalar of one read, as safe_load
    builds it: the tag comes from the loader's resolver and a non-string
    is built by the safe constructor. A text that is no plain scalar of the
    line reader raises KeyError."""

    def __missing__(self, text):
        if len(text) > _KEY_MAX or not _PLAIN.fullmatch(text):
            raise KeyError(text)
        # A safe loader's resolver reads only class attributes.
        tag = _LOADER.resolve(_LOADER, yaml.ScalarNode, text, (True, False))
        if tag == _STR:
            value = text
        else:
            node = yaml.ScalarNode(tag, text)
            value = _CONSTRUCTOR.yaml_constructors[tag](_CONSTRUCTOR, node)
        self[text] = value
        return value


def _flow(text: str, scalars: _Scalars):
    """The list or dict of a one-line flow collection of plain scalars, or
    None if `text` is not one."""
    stack: list = []  # the open collections, innermost last
    root = key = _NONE  # key: a mapping key read, awaiting its value
    after = False  # an item was read: a ',' or a closing bracket comes next
    for punct, plain, colon, other in _FLOW_TOKEN.findall(text):
        if other or (root is not _NONE and not stack):
            return None  # no token, or a token after the root closed
        if punct == ",":
            if not after:
                return None
            after = False
        elif punct in ("]", "}"):
            top = stack.pop()
            if key is not _NONE or (punct == "]") != (type(top) is list):
                return None
            after = True
        elif after:
            return None
        elif stack and type(stack[-1]) is dict and key is _NONE:
            if not colon:  # a collection, or a scalar with no ": ", as a key
                return None
            key = scalars[plain]
        elif colon:
            return None
        else:
            item = scalars[plain] if plain else [] if punct == "[" else {}
            if not stack:
                root = item
            elif type(stack[-1]) is list:
                stack[-1].append(item)
            else:
                stack[-1][key] = item
                key = _NONE
            if plain:
                after = True
            else:
                stack.append(item)
    return None if stack else root


def _read_table(text: str):
    """The document as ``yaml.safe_load`` builds it, if it has the table
    shape (see the module docstring); else None."""
    scalars = _Scalars()
    get = scalars.__getitem__
    top: dict = {}
    open_key = _NONE  # the top-level key whose value may be a nested mapping
    inner = None  # that nested mapping, once its first line is read
    width = 0  # its indentation
    try:
        for line in text.split("\n"):
            m = _ENTRY.fullmatch(line)
            if m is None:
                if _BLANK.fullmatch(line):
                    continue
                return None
            indent, plain_key, quoted_key, plain, pairs, items, flow = m.groups()
            if plain_key is not None:
                key = get(plain_key)
            elif len(quoted_key) > _KEY_MAX:
                return None
            else:
                key = quoted_key
            if plain is not None:
                value = get(plain)
            elif pairs is not None:
                cells = list(map(get, pairs.replace(": ", ", ").split(", ")))
                value = dict(zip(cells[::2], cells[1::2]))
            elif items is not None:
                value = list(map(get, items.split(", ")))
            elif flow is not None:
                value = _flow(flow, scalars)
                if value is None:
                    return None
            elif indent:
                return None  # a nested key with its value on later lines
            else:
                value = _NONE  # null, or the nested mapping that follows
            if not indent:
                open_key = key if value is _NONE else _NONE
                top[key] = None if value is _NONE else value
                inner = None
            elif inner is None:
                if open_key is _NONE:
                    return None  # a continuation line, or a deeper block
                inner = top[open_key] = {key: value}
                width = len(indent)
            elif len(indent) != width:
                return None
            else:
                inner[key] = value
    except KeyError:  # a scalar that is not plain
        return None
    return top or None


def _load_yaml(path: Path | str) -> dict:
    try:
        with open(path) as fh:
            data = _read_table(fh.read())
            if data is None:
                fh.seek(0)
                data = yaml.load(fh, Loader=_LOADER)
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except yaml.YAMLError as exc:
        raise SchemaError(path, f"not valid YAML: {exc}") from None
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not text: {exc}") from None
    except ValueError as exc:
        # PyYAML's constructors refuse a scalar they cannot build, such as an
        # int of more than 4300 digits or a date that does not exist; the
        # advice after ';' is about the interpreter, not the file.
        raise SchemaError(path, f"value out of range: {str(exc).partition(';')[0]}") from None
    if not isinstance(data, dict):
        raise SchemaError(path, "top level must be a mapping")
    return data


def _fraction(path, raw) -> Fraction:
    """A rational from an int, a 'p/q' string or a decimal float; a YAML
    boolean is refused, as ``parse_xvalue`` refuses it."""
    try:
        if not isinstance(raw, bool):
            return Fraction(str(raw) if isinstance(raw, float) else raw)
    except (ValueError, TypeError, ZeroDivisionError):
        pass
    raise SchemaError(path, f"not a rational number: {raw!r}")


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


def _refuse_unknown(path, message: str, names, known) -> None:
    """Refuse the `names` that are not in `known`, listing them after `message`."""
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SchemaError(path, f"{message} {unknown}")


class SpaceFile:
    """Parsed space file: the model, the family and the named hypotheses."""

    def __init__(self, space: Space, names: dict[str, int]):
        self.space = space
        self.names = names
        self._printed: Optional[dict[str, int]] = None

    def resolve(self, path, label: str) -> int:
        """The id of a hypothesis label (see the module docstring)."""
        if label in self.names:
            return self.names[label]
        if label in ("empty", "{}"):
            return self.space.family.empty_id
        hid = self._printed_ids().get(label)
        if hid is not None:
            return hid
        parts = [p.strip() for p in str(label).split(",") if p.strip()]
        try:
            bits = PointSet.of(self.space.model, parts).bits
        except Exception:
            raise SchemaError(path, f"unknown hypothesis label {label!r}") from None
        if bits not in self.space.family:
            raise SchemaError(path, f"{label!r} is not a member of the family")
        return self.space.family.id_of(bits)

    def _printed_ids(self) -> dict[str, int]:
        """Each member's printed label (``Space.label``) to its id, built on
        first use. Left empty when a point label is empty, holds a ',' or
        has surrounding spaces: the comma list would then be read otherwise."""
        if self._printed is None:
            space = self.space
            if all(p and "," not in p and p.strip() == p for p in space.model.points):
                self._printed = {space.label(hid): hid for hid in range(len(space.family))}
            else:
                self._printed = {}
        return self._printed


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
    try:
        model = Model(tuple(points))
    except SpaceError as exc:
        raise SchemaError(path, str(exc)) from None
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


def load_evidence(path: Path | str, sf: SpaceFile) -> EFunction:
    """The evidence table, classified; the empty hypothesis defaults to inf."""
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
    try:
        return classify(sf.space, out)
    except EvidenceError as exc:
        raise SchemaError(path, str(exc)) from None


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
        row = {str(x): _fraction(path, m) for x, m in masses.items()}
        if outcomes is None:
            outcomes = tuple(row)
            sample = SampleSpace(outcomes)
        _refuse_unknown(path, f"row for {point!r} has unknown outcomes", row, outcomes)
        pmfs[str(point)] = Pmf.of(sample, row)
    if outcomes is None:
        raise SchemaError(path, "'pmf' is empty")
    _refuse_unknown(path, "distributions for points not in the space:", pmfs, model.points)
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
    family = sf.space.family
    outcomes = sample.outcomes
    outcome_ids = {x: xi for xi, x in enumerate(outcomes)}
    full = (1 << sample.size) - 1
    # Cells go straight into one column per outcome, indexed by hypothesis id.
    columns: list[list] = [[None] * len(family) for _ in outcomes]
    # The first row, in file order, that misses an outcome or names an unknown
    # one; it is refused after a missing hypothesis would be.
    bad_row = None
    for label, row in table.items():
        if not isinstance(row, dict):
            raise SchemaError(path, f"row for {label!r} must be a mapping")
        hid = hypotheses.resolve(label)
        got, unknown = 0, False
        for x, raw in row.items():
            value = read(raw)
            xi = outcome_ids.get(str(x))
            if xi is None:
                unknown = True
            else:
                columns[xi][hid] = value
                got |= 1 << xi
        if bad_row is None and (got != full or unknown):
            bad_row = (hid, got, row)
    empty = family.empty_id
    if empty not in hypotheses.seen:
        inf = read("inf")
        for column in columns:
            column[empty] = inf
    missing = [hid for hid in range(len(family)) if hid not in hypotheses.seen and hid != empty]
    if missing:
        labels = [sf.space.label(h) for h in missing]
        raise SchemaError(path, f"kernel misses hypotheses: {labels}")
    if bad_row is not None:
        hid, got, row = bad_row
        if got != full:
            x = next(x for xi, x in enumerate(outcomes) if not got >> xi & 1)
            raise SchemaError(path, f"hypothesis id {hid} misses outcome {x!r}")
        label = hypotheses.seen[hid]
        names = dict.fromkeys(str(x) for x in row)
        _refuse_unknown(path, f"row for {label!r} has unknown outcomes", names, outcomes)
    try:
        return EKernel(sf.space, sample, [from_values(sf.space, column) for column in columns])
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None


def load_tree(path: Path | str, sample: SampleSpace) -> FiltrationTree:
    """The filtration tree of a 'tree' entry, whose leaves are the outcomes."""
    shape = _load_yaml(path).get("tree")
    if shape is None:
        raise SchemaError(path, "need a 'tree' entry")
    return FiltrationTree(sample, _tree_shape(path, shape))


def _tree_shape(path, node):
    if isinstance(node, str):
        return node
    if not isinstance(node, list) or not node:
        raise SchemaError(
            path, f"tree node {node!r} is neither an outcome label nor a non-empty list of nodes"
        )
    return [_tree_shape(path, child) for child in node]


def _decision_rows(path, table: dict, model: Model, decisions) -> dict[str, dict]:
    """The rows of a `loss` or `table` entry by point label, each keyed by
    decision; a point outside the space or an undeclared decision is refused."""
    rows = {}
    for point, row in table.items():
        if not isinstance(row, dict):
            raise SchemaError(path, f"row for {point!r} must map decisions to entries")
        rows[str(point)] = cells = {str(d): v for d, v in row.items()}
        _refuse_unknown(path, f"row for {point!r} has unknown decisions", cells, decisions)
    _refuse_unknown(path, "rows for points not in the space:", rows, model.points)
    return rows


def load_decision_problem(path: Path | str, model: Model):
    """Returns (ConsequenceTable, NumericLoss or None)."""
    data = _load_yaml(path)
    decisions = data.get("decisions")
    if not isinstance(decisions, list) or not decisions:
        raise SchemaError(path, "'decisions' must be a non-empty list")
    decisions = tuple(str(d) for d in decisions)
    if len(set(decisions)) != len(decisions):
        raise SchemaError(path, "decision labels must be unique")
    if "loss" in data:
        table = data["loss"]
        if not isinstance(table, dict):
            raise SchemaError(path, "'loss' must map points to decision losses")
        rows = _decision_rows(path, table, model, decisions)
        try:
            loss = NumericLoss.of(
                model,
                decisions,
                {p: {d: _xvalue(path, v) for d, v in row.items()} for p, row in rows.items()},
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
    if not isinstance(order_pairs, list):
        raise SchemaError(path, "'consequences.order' must be a list of pairs")
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
    rows = _decision_rows(path, table, model, decisions)
    try:
        cspace = ConsequenceSpace(elements, pre)
        ctable = ConsequenceTable.of(
            model,
            decisions,
            cspace,
            {p: {d: str(c) for d, c in row.items()} for p, row in rows.items()},
        )
    except Exception as exc:
        raise SchemaError(path, str(exc)) from None
    return ctable, None
