"""YAML input schemas for the command-line tool.

Schema errors carry the file path and the offending key so the CLI can
fail with context. Numeric values are parsed with decimal semantics
(97.5 -> 195/2) and 'inf' marks infinite evidence.

Table, model, space and tree files share one shape, which a line reader
(``_read_table``) reads without a YAML parser, into Python objects equal to
those ``yaml.safe_load`` makes of it:

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

Each distinct plain scalar of a read is typed once (``_Scalars``). On these
characters the safe loader's implicit resolvers can make no string of a
scalar unless it is one of its 22 bool and null words (``_WORDS``) or
starts with a sign, a '.' or a digit (``_NUMERIC``); a test holds that
against PyYAML's table. So the reader types a name of ASCII letters and
digits led by a letter that is no word (``o1``, ``x``) as a string in one
step, with no pattern; of the other scalars, a decimal int such as ``0`` or
``17`` as an int, a digit ratio such as ``3/4`` and every scalar that is
neither a word nor so led (``inf``, ``a:b``) as a string; and leaves the
rest (``on``, ``~``, ``08``, ``0x1f``, ``1:30``, ``2001-12-14``, ``1st``,
...) to PyYAML's safe resolver and ``SafeConstructor`` (``_safe_scalar``),
which imports yaml. Every other file, from anchors, tags, quoted values and
tabs to documents that are no YAML at all, goes whole to ``yaml.load`` with
PyYAML's pure-Python ``SafeLoader``, so its errors name the file and it
reads as ``yaml.safe_load`` reads it whether or not PyYAML was built with
libyaml, whose parser reads a few documents otherwise. So a run whose files
all have the table shape imports yaml only for a scalar of the rest.

A hypothesis label, a key of an evidence or kernel table or an item of
``--family``, is a name declared under ``generators``, ``empty`` or ``{}``
for the empty member, or the member's points as a comma-separated list of
point labels in any order, with or without spaces after the commas
(``a,b`` or ``b, a``). The command line prints each member as its points in
the order of ``points``, joined by ',' with no spaces, and ``{}`` for the
empty member. A label naming a point the space does not declare, or a set
of points that is not a member, is a schema error. A label is first looked
up, in one table built on the first read: every member's printed label
(``Space.printed_ids``, which also builds ``Space.label``), then ``empty``
and ``{}``, then the declared names. Printed labels stay out of the table
when a point label is empty, holds a ',' or has surrounding spaces. Any
other label is split at its commas, each part stripped and found in the
model's table of point indices (``Model.positions``).

A table that names one hypothesis twice, a row with an outcome, point or
decision its file does not declare, a distribution for a point outside the
space, a model or decision list naming a label twice and an evidence table
that does not classify are schema errors, named by their file.

A kernel file is read as it is laid out, one row of outcome values per
hypothesis over the model's outcomes, into the kernel's rows in file order
(``EKernel``). Its refusals come in one order: a value that is no evidence
value as it is read, then a missing hypothesis, then the first row in file
order that misses an outcome or names an unknown one, then a finite value
of the empty member.

Kernel, model and evidence files mostly have the row shape, which the
command line prints: a ``kernel:``, ``pmf:`` or ``evidence:`` line, then
only rows indented by two spaces, ``KEY: {x1: v, ..., xk: v}`` (flat) or
``KEY: v``, their keys as above, with no blank, comment or padding. A row
reader (`_rows`) matches all rows of such a file with one pattern of a key
and a value, a flat row's inside its braces. It and the line reader spell
a key and a flat row's inside with one grammar (`_KEY`, `_PAIRS`), so a
quoted key past 1000 characters leaves both for PyYAML. Each distinct
inside is checked once against the flat-row pattern; the distinct insides
are joined and split once, and taken when every one has the first's width
and names, typed once, in order. Each distinct key is typed once, and each
distinct row text's tuple and cell's XValue built once, the cells in a
memo of the file (`_Cells`), so equal rows of one file are one object; the
general path builds each row anew. A cell the command line prints, a
decimal int or a digit ratio with a nonzero denominator, is an XValue in
one step in that memo; any other is read as the general path reads it, the
one step's oracle. Evidence and kernel rows keyed, as the command line
lists them, by the quoted printed labels of members 1, 2, ... in id order
fill the table by position, unless a name or 'empty' takes a printed label
(`SpaceFile._order`). The
row reader takes the file only when every row reads as the general path
reads it: a label of the label table, each member once, keys typed to the
outcomes in order (a model's first row's keys), evidence values and finite
masses summing to 1. Every other file, and every refusal, goes from the
same read to the general path (`_read_table`, else PyYAML), which is also
the row reader's oracle. Every file is read by raw reads until one comes
back empty, as a FIFO may deliver less at a time (`_read_text`).

The row reader hands a kernel or an evidence table the index it read, its
distinct rows (value objects, `distinct`) and each member's slot among them
(`slots`), through `EKernel.from_index` and `EFunction.from_index`, and
builds a model's `Pmf` once per distinct row.
"""

from __future__ import annotations

import functools
import io
import locale
import os
import re
from pathlib import Path
from typing import Optional

from .decisions import ConsequenceSpace, ConsequenceTable
from .evidence import EFunction, EvidenceError, classify
from .kernels import EKernel, FiltrationTree, Pmf, ProbabilityAssignment, SampleSpace
from .spaces import (
    MODEL_POINT_CAP,
    Model,
    Preorder,
    Space,
    SpaceError,
    class_from_preorder,
    union_closure,
)
from .xvalue import INF, XValue, parse_xvalue, ratio, read_rational


class SchemaError(Exception):
    def __init__(self, path: Path | str, message: str):
        self.path = str(path)
        super().__init__(f"{path}: {message}")


def _yaml():
    """PyYAML, imported where a read first needs it: for a file the line
    reader does not read (`_load_full`), or for a plain scalar that the
    safe resolver may type as no string (`_safe_scalar`)."""
    import yaml

    return yaml


# A plain scalar here has no spaces: one or more of the characters of `_C`,
# where a ':' may sit only between two of them and a leading '-' must be
# followed by one. So in block and in flow context it holds no indicator.
_C = r"[A-Za-z0-9_.~/+-]"
_PLAIN = re.compile(rf"(?!-(?!{_C})){_C}+(?::{_C}+)*")
# Plain scalars whose tag the reader decides itself, as the safe resolver
# does: a decimal int without sign, '_' or leading zero (group 1), and a
# ratio of two digit runs, which no resolver matches and so is a string.
_TYPED = re.compile(r"([1-9][0-9]*|0)|[0-9]+/[0-9]+")
# The plain scalars of `_PLAIN` that the safe resolver may type as no
# string: its bool and null words, and any that starts with a character of
# `_NUMERIC`, as floats, ints and timestamps do. Every other one is a
# string; a test holds both against PyYAML's table.
_WORDS = frozenset(
    "yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF ~ null Null NULL".split()
)
_NUMERIC = "-+.0123456789"
# Structure is matched with this looser class; each distinct scalar is then
# checked against `_PLAIN` when it is first typed.
_S = r"[A-Za-z0-9_.~/+:-]+"
# A longer implicit key is no key to a YAML scanner, which gives up at 1024.
_KEY_MAX = 1000
# The key grammar of both readers: the inside of an escape-free double-quoted
# key of at most `_KEY_MAX` characters (group 1), else a plain one (group 2);
# and a flat flow mapping's inside, plain scalars one ": " or ", " apart.
_KEY = rf'(?:"([ !#-\[\]-~]{{0,{_KEY_MAX}}})"|({_S}))'
_PAIRS = rf"{_S}: {_S}(?:, {_S}: {_S})*"
# A block-mapping line: indentation, a key and an optional value: a plain
# scalar, a flat flow mapping or sequence (rows), an empty sequence or one of
# flat ones (generators, preorders, two-level trees), split without the
# tokenizer, or any other flow collection.
_ENTRY = re.compile(
    rf"( *){_KEY}:(?: +(?:({_S})|\{{({_PAIRS})\}}|\[({_S}(?:, {_S})*)\]"
    rf"|\[((?:\[{_S}(?:, {_S})*\](?:, \[{_S}(?:, {_S})*\])*)?)\]|([\[{{].*[\]}}])))? *"
)
_BLANK = re.compile(r" *(?:#[ -~]*)?")
# One token of a flow collection; group 4 is a character no token starts with.
_FLOW_TOKEN = re.compile(rf" *(?:([\[\]{{}},])|({_C}+(?::{_C}+)*)(: )?|(.))")
_NONE = object()


class _Scalars(dict):
    """The value of each distinct plain scalar of one read, as safe_load
    builds it. A text that is no plain scalar of the line reader raises
    KeyError.

    A decimal int and a digit ratio (`_TYPED`) are typed here, as are the
    scalars that are no word of `_WORDS` and start with no character of
    `_NUMERIC`: all strings. The rest, such as ``on``, ``~``, ``08``,
    ``1:30`` or ``1st``, are typed by `_safe_scalar`."""

    def __missing__(self, text):
        if len(text) > _KEY_MAX:
            raise KeyError(text)
        if text.isalnum() and text.isascii() and text[0].isalpha() and text not in _WORDS:
            value = text  # a name such as ``o1``, its own value with no pattern
        elif not _PLAIN.fullmatch(text):
            raise KeyError(text)
        elif typed := _TYPED.fullmatch(text):
            value = int(text) if typed[1] else text
        elif text in _WORDS or text[0] in _NUMERIC:
            value = _safe_scalar(text)
        else:
            value = text
        self[text] = value
        return value


def _safe_scalar(text: str):
    """A plain scalar as `_load_full`'s loader reads it: tagged by the safe
    loader's implicit resolvers and built by its constructor. `resolve`
    reads only tables of the class, so it needs no loader of a stream."""
    yaml = _yaml()
    tag = yaml.SafeLoader.resolve(yaml.SafeLoader, yaml.ScalarNode, text, (True, False))
    constructor = yaml.constructor.SafeConstructor()
    return constructor.yaml_constructors[tag](constructor, yaml.ScalarNode(tag, text))


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
            indent, quoted_key, plain_key, plain, pairs, items, lists, flow = m.groups()
            key = quoted_key if plain_key is None else get(plain_key)
            if plain is not None:
                value = get(plain)
            elif pairs is not None:
                cells = list(map(get, pairs.replace(": ", ", ").split(", ")))
                value = dict(zip(cells[::2], cells[1::2]))
            elif items is not None:
                value = list(map(get, items.split(", ")))
            elif lists is not None:  # '' for []
                value = [list(map(get, p.split(", "))) for p in lists[1:-1].split("], [") if p]
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


def _read_text(path: Path | str) -> str:
    """The file's text: raw reads of up to 64 KiB until one comes back
    empty, decoded with the encoding text mode would use, its line ends
    translated as text mode does."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 16):
                chunks.append(chunk)
        finally:
            os.close(fd)
        text = b"".join(chunks).decode(locale.getpreferredencoding(False))
    except FileNotFoundError:
        raise SchemaError(path, "file not found") from None
    except OSError as exc:  # a directory, or a file it may not read
        raise SchemaError(path, exc.strerror or str(exc)) from None
    except UnicodeDecodeError as exc:
        raise SchemaError(path, f"not text: {exc}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _parse(path: Path | str, text: str) -> dict:
    """The document of a file's text, by the line reader or else PyYAML."""
    try:
        data = _read_table(text)
        if data is None:
            data = _load_full(path, text)
    except ValueError as exc:
        # PyYAML's constructors refuse a scalar they cannot build, such as an
        # int of more than 4300 digits or a date that does not exist; the
        # advice after ';' is about the interpreter, not the file.
        raise SchemaError(path, f"value out of range: {str(exc).partition(';')[0]}") from None
    if not isinstance(data, dict):
        raise SchemaError(path, "top level must be a mapping")
    return data


def _load_yaml(path: Path | str) -> dict:
    return _parse(path, _read_text(path))


def _load_full(path: Path | str, text: str):
    """The text as PyYAML's pure-Python safe loader reads it, which reads a
    file as ``yaml.safe_load`` does whether or not PyYAML was built with
    libyaml. It reads the text as a stream named by the file, in chunks as
    it reads a file, so its marks name the file."""
    yaml = _yaml()
    stream = io.StringIO(text)
    stream.name = str(path)
    try:
        return yaml.load(stream, Loader=yaml.SafeLoader)
    except yaml.YAMLError as exc:
        raise SchemaError(path, f"not valid YAML: {exc}") from None


@functools.cache
def _row_pattern(flat: bool) -> tuple[re.Pattern, Optional[re.Pattern]]:
    """The pattern of one row line: two spaces, a key (`_KEY`, as the line
    reader's), and a plain value, or the inside of a flow mapping; and for
    that inside, the pattern of a flat one (`_PAIRS`)."""
    if not flat:
        return re.compile(rf"^  {_KEY}: ({_S})$", re.M), None
    return re.compile(rf"^  {_KEY}: \{{(.*)\}}$", re.M), re.compile(_PAIRS)


class _Cells(dict):
    """The XValue of each distinct cell text of one row file: in one step
    for a decimal int or a digit ratio of `_TYPED` with a nonzero
    denominator and at most `_KEY_MAX` characters, else as the general
    path, this one's oracle, reads the text."""

    def __init__(self, path, scalars: _Scalars):
        self.path = path
        self.scalars = scalars

    def __missing__(self, text):
        if len(text) <= _KEY_MAX and _TYPED.fullmatch(text):
            num, _, den = text.partition("/")
            if den := int(den or 1):
                self[text] = value = ratio(int(num), den)
                return value
        self[text] = value = _xvalue(self.path, self.scalars[text])
        return value


def _rows(path, text: str, head: str, ids: dict, size: int, empty=None, outcomes=None, order=None):
    """A file of the row shape (module docstring), matched by one pattern,
    as its row index: per id of the `size` ids, in id order, the slot of
    the row whose label `ids` maps to it, the outcomes their keys name, and
    the distinct rows in file order, one per distinct row text. A flat
    row is one tuple of XValues, keyed by `outcomes` (else the first row's
    keys) in order; a plain row is its XValue. `empty`, if given, is the
    empty member's row, written or not; unwritten, it is a row of its own.
    The distinct flat rows are split at once, and taken when each names
    the first row's keys, typed once, in its order. Rows whose quoted keys
    are `order`, the labels of ids 1, 2, ... in order, fill those ids by
    position, with no lookup.
    None for any other file, a missing id, or a label, key or cell the
    general reader would read otherwise or refuse."""
    line, inside = _row_pattern(head != "evidence")
    body = text[len(head) + 2 :]
    found = text.startswith(head + ":\n") and line.findall(body)
    if not found or len(found) != body.count("\n") + (body[-1] != "\n"):
        return None  # a line the pattern does not match
    quoted, _, values = zip(*found)
    scalars = _Scalars()
    cells = _Cells(path, scalars)  # once per distinct text
    texts = list(dict.fromkeys(values))  # each distinct row text, in file order
    slots: list = [None] * size
    try:
        if inside is None:
            distinct = list(map(cells.__getitem__, texts))
        else:
            width = texts[0].count(", ")  # of each row: its outcomes less one
            if not all(map(inside.fullmatch, texts)) or any(t.count(", ") != width for t in texts):
                return None
            parts = ", ".join(texts).replace(": ", ", ").split(", ")
            names = parts[: 2 * width + 1 : 2]
            if outcomes is None and len(set(names)) == len(names):
                outcomes = tuple(names)
            if parts[::2] != names * len(texts) or tuple(map(scalars.__getitem__, names)) != outcomes:
                return None
            row_cells = map(cells.__getitem__, parts[1::2])
            distinct = list(zip(*[row_cells] * (width + 1)))
        rows = dict(zip(texts, range(len(texts))))
        if quoted == order:
            slots[1:] = map(rows.__getitem__, values)
        else:
            for key, name, value in found:
                i = ids.get(scalars[name] if name else key)
                if i is None or slots[i] is not None:
                    return None
                slots[i] = rows[value]
    except (KeyError, ValueError, SchemaError):
        return None
    filled = len(found)
    if empty is not None:  # the empty member sorts first
        if slots[0] is None:
            filled += 1
            slots[0] = len(distinct)
            distinct.append(empty)
        elif distinct[slots[0]] != empty:
            return None
    return None if filled != size else (slots, outcomes, distinct)


def _xvalue(path, raw) -> XValue:
    try:
        return parse_xvalue(raw)
    except (ValueError, TypeError, ZeroDivisionError):
        raise SchemaError(path, f"not an evidence value: {raw!r}") from None


def _mass(path, raw):
    """A model file's mass cell, an int or a rational text (a float by its
    decimal text), as a finite XValue, or -1 when it is negative, which
    ``Pmf`` refuses once the row's outcomes are checked; every other
    refusal, inf and booleans among them, is made here."""
    if type(raw) in (int, float, str):
        try:
            num, den = (raw, 1) if type(raw) is int else read_rational(str(raw))
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return ratio(num, den) if num >= 0 else -1
    raise SchemaError(path, f"not a rational number: {raw!r}")


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
        self._order: Optional[tuple[str, ...]] = None  # ids 1, 2, ... by their own printed labels

    def resolve(self, path, label: str) -> int:
        """The id of a hypothesis label (see the module docstring)."""
        hid = self._labels.get(label)
        if hid is not None:
            return hid
        try:
            bits = self.space.model.bits_of(filter(None, map(str.strip, label.split(","))))
        except SpaceError:
            raise SchemaError(path, f"unknown hypothesis label {label!r}") from None
        try:
            return self.space.family.id_of(bits)
        except SpaceError:
            raise SchemaError(path, f"{label!r} is not a member of the family") from None

    @functools.cached_property
    def _labels(self) -> dict[str, int]:
        """The labels read without parsing, built on the first read: every
        member's printed label, then 'empty' and '{}', then the declared
        names, each overriding what comes before it. Printed labels are left
        out when a point label is empty, holds a ',' or is padded, as a comma
        list would then read as another set than the one it joins."""
        space = self.space
        printed = all(p and "," not in p and p.strip() == p for p in space.model.points)
        ids = space.printed_ids() if printed else {}
        if printed and ids.keys().isdisjoint(["empty", "{}", *self.names]):
            self._order = tuple(ids)
        ids["empty"] = ids["{}"] = space.family.empty_id
        ids.update(self.names)
        return ids


def _named_twice(path, sf: SpaceFile, labels, hid: int, label: str) -> SchemaError:
    """The refusal of `label`, whose member `hid` an earlier one of the
    table's `labels` already named; only this path looks that one up."""
    first = next(str(l) for l in labels if sf.resolve(path, str(l)) == hid)
    return SchemaError(path, f"{first!r} and {label!r} name the same hypothesis")


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
    names: dict = {}  # each declared name: its generator's labels, then its bitset
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
                sets.append(model.bits_of(g))
            except SpaceError:
                raise SchemaError(path, f"generator {g!r} uses unknown points") from None
        names = dict(zip(names, sets))
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
        try:
            space = class_from_preorder(model, Preorder.from_pairs(model.size, pairs))
        except SpaceError as exc:
            raise SchemaError(path, str(exc)) from None
    else:
        raise SchemaError(path, "need 'generators' or 'preorder'")
    return SpaceFile(space, {name: space.family.id_of(bits) for name, bits in names.items()})


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
    text = _read_text(path)
    ids = sf._labels
    found = _rows(path, text, "evidence", ids, len(sf.space.family), INF, None, sf._order)
    if found:  # inf on the empty member
        return EFunction.from_index(sf.space, found[2], found[0])
    table = _parse(path, text).get("evidence")
    if not isinstance(table, dict):
        raise SchemaError(path, "'evidence' must map hypothesis labels to values")
    resolve = sf.resolve
    out: dict[int, XValue] = {}
    for label, raw in table.items():
        label = str(label)
        hid = resolve(path, label)
        if hid in out:
            raise _named_twice(path, sf, table, hid, label)
        out[hid] = _xvalue(path, raw)
    out.setdefault(sf.space.family.empty_id, INF)
    try:
        return classify(sf.space, out)
    except EvidenceError as exc:
        raise SchemaError(path, str(exc)) from None


def load_pmfs(path: Path | str, model: Model) -> ProbabilityAssignment:
    """The distributions of a 'pmf' table, one per model point. The row
    reader builds one `Pmf` per distinct row and refuses the first row, in
    file order, whose masses do not sum to 1, as the general path does; a
    row with an infinite mass goes to the general path, which words that
    refusal."""
    text = _read_text(path)
    found = _rows(path, text, "pmf", model.positions, model.size)
    if found:
        slots, outcomes, distinct = found
        sample = SampleSpace(outcomes)
        pmfs: list[Pmf] = []  # per distinct row
        for row in distinct:
            try:
                pmfs.append(Pmf(sample, row))
            except EvidenceError as exc:
                if any(mass.is_inf for mass in row):
                    break
                raise SchemaError(path, str(exc)) from None
        else:
            return ProbabilityAssignment(model, tuple(map(pmfs.__getitem__, slots)))
    table = _parse(path, text).get("pmf")
    if not isinstance(table, dict):
        raise SchemaError(path, "'pmf' must map point labels to outcome masses")
    outcomes: Optional[tuple[str, ...]] = None
    pmfs = {}
    try:
        for point, masses in table.items():
            if not isinstance(masses, dict):
                raise SchemaError(path, f"masses for {point!r} must be a mapping")
            row = {str(x): _mass(path, m) for x, m in masses.items()}
            if outcomes is None:
                outcomes = tuple(row)
                sample = SampleSpace(outcomes)
            _refuse_unknown(path, f"row for {point!r} has unknown outcomes", row, outcomes)
            pmfs[str(point)] = Pmf.of(sample, row)
    except EvidenceError as exc:  # no outcome, or masses no distribution has
        raise SchemaError(path, str(exc)) from None
    if outcomes is None:
        raise SchemaError(path, "'pmf' is empty")
    _refuse_unknown(path, "distributions for points not in the space:", pmfs, model.points)
    missing = [p for p in model.points if p not in pmfs]
    if missing:
        raise SchemaError(path, f"no distribution for points {missing}")
    return ProbabilityAssignment(model, tuple(pmfs[p] for p in model.points))


def load_kernel(path: Path | str, sf: SpaceFile, sample: SampleSpace) -> EKernel:
    """The kernel of a 'kernel' table over the space's hypotheses, with one
    row per hypothesis over the model's outcomes `sample`. When the row
    reader takes the file, rows of one text are one tuple and the kernel is
    built from the reader's row index; the general path reads every row
    anew."""
    text = _read_text(path)
    n, ids = len(sf.space.family), sf._labels
    found = _rows(path, text, "kernel", ids, n, (INF,) * sample.size, sample.outcomes, sf._order)
    if found:
        return EKernel.from_index(sf.space, sample, found[2], found[0])
    data = _parse(path, text)
    table = data.get("kernel")
    if not isinstance(table, dict):
        raise SchemaError(path, "'kernel' must map hypothesis labels to outcome rows")
    resolve = sf.resolve
    outcomes = sample.outcomes
    # One row of values per hypothesis id, filled in file order.
    rows: list = [None] * len(sf.space.family)
    # The first row, in file order, that misses an outcome or names an unknown
    # one; it is refused after a missing hypothesis would be.
    bad_row = None
    for label, row in table.items():
        if not isinstance(row, dict):
            raise SchemaError(path, f"row for {label!r} must be a mapping")
        label = str(label)
        hid = resolve(path, label)
        if rows[hid] is not None:
            raise _named_twice(path, sf, table, hid, label)
        cells = {str(x): _xvalue(path, raw) for x, raw in row.items()}
        if bad_row is None and cells.keys() != sample.positions.keys():
            bad_row = (label, cells)
        rows[hid] = tuple(map(cells.get, outcomes))
    empty = sf.space.family.empty_id
    if rows[empty] is None:
        rows[empty] = (INF,) * sample.size
    if None in rows:
        labels = [sf.space.label(hid) for hid, row in enumerate(rows) if row is None]
        raise SchemaError(path, f"kernel misses hypotheses: {labels}")
    if bad_row is not None:
        label, cells = bad_row
        for x in outcomes:
            if x not in cells:
                raise SchemaError(path, f"row for {label!r} misses outcome {x!r}")
        _refuse_unknown(path, f"row for {label!r} has unknown outcomes", cells, outcomes)
    try:
        return EKernel(sf.space, sample, rows)
    except EvidenceError as exc:
        raise SchemaError(path, str(exc)) from None


def load_tree(path: Path | str, sample: SampleSpace) -> FiltrationTree:
    """The filtration tree of a 'tree' entry, whose leaves are the outcomes."""
    shape = _load_yaml(path).get("tree")
    if shape is None:
        raise SchemaError(path, "need a 'tree' entry")
    try:
        return FiltrationTree(sample, shape)
    except EvidenceError as exc:  # a node of no tree, or leaves out of order
        raise SchemaError(path, str(exc)) from None


def _decision_rows(path, table: dict, model: Model, decisions) -> dict[str, dict]:
    """The rows of a `loss` or `table` entry by point label, each keyed by
    decision; a point outside the space or an undeclared decision is
    refused, and then, in point order, a point without a row or a row
    without an entry for some decision."""
    rows = {}
    for point, row in table.items():
        if not isinstance(row, dict):
            raise SchemaError(path, f"row for {point!r} must map decisions to entries")
        rows[str(point)] = cells = {str(d): v for d, v in row.items()}
        _refuse_unknown(path, f"row for {point!r} has unknown decisions", cells, decisions)
    _refuse_unknown(path, "rows for points not in the space:", rows, model.points)
    for point in model.points:
        if point not in rows:
            raise SchemaError(path, f"no row for point {point!r}")
        for d in decisions:
            if d not in rows[point]:
                raise SchemaError(path, f"row for {point!r} misses decision {d!r}")
    return rows


def _entry_labels(path, key: str, entries: list) -> tuple[str, ...]:
    """The entries of a `decisions` or `elements` list, an order pair or a
    table row as labels; a null, list or mapping entry is refused."""
    for entry in entries:
        if entry is None or isinstance(entry, (list, dict)):
            raise SchemaError(path, f"{key} entry {entry!r} is not a label")
    return tuple(map(str, entries))


def load_decision_problem(path: Path | str, model: Model) -> ConsequenceTable:
    """The decision problem of a file as one consequence table: a numeric
    table (`ConsequenceTable.numeric`) from a 'loss', or the labelled
    'consequences' with their order and a 'table' of labels, each mapped to
    its index in point order, then decision order, so the first unknown
    label is the one named."""
    data = _load_yaml(path)
    decisions = data.get("decisions")
    if not isinstance(decisions, list) or not decisions:
        raise SchemaError(path, "'decisions' must be a non-empty list")
    decisions = _entry_labels(path, "'decisions'", decisions)
    if len(set(decisions)) != len(decisions):
        raise SchemaError(path, "decision labels must be unique")
    if "loss" in data:
        table = data["loss"]
        if not isinstance(table, dict):
            raise SchemaError(path, "'loss' must map points to decision losses")
        rows = _decision_rows(path, table, model, decisions)
        losses = {p: {d: _xvalue(path, v) for d, v in row.items()} for p, row in rows.items()}
        return ConsequenceTable.numeric(
            model, decisions, [[losses[p][d] for d in decisions] for p in model.points]
        )
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
    elements = _entry_labels(path, "'consequences.elements'", elements)
    idx = {e: i for i, e in enumerate(elements)}
    pairs = []
    for pair in order_pairs:
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(path, f"order entry {pair!r} is not a pair")
        a, b = _entry_labels(path, "'consequences.order'", pair)
        if a not in idx or b not in idx:
            raise SchemaError(path, f"order pair {pair!r} uses unknown elements")
        pairs.append((idx[a], idx[b]))
    pre = Preorder.from_pairs(len(elements), pairs).transitive_closure()
    rows = _decision_rows(path, table, model, decisions)
    labels = [_entry_labels(path, "'table'", [rows[p][d] for d in decisions]) for p in model.points]
    try:
        cspace = ConsequenceSpace(elements, pre)
        cells = [list(map(cspace.index, row)) for row in labels]
        return ConsequenceTable(model, decisions, cspace, cells)
    except (SpaceError, EvidenceError) as exc:
        raise SchemaError(path, str(exc)) from None
