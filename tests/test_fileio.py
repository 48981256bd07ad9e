"""YAML input: the fast loader reads exactly what the safe pure-Python loader reads."""

import gc
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from emeasure import cli, fileio

DATA = Path(__file__).parent / "data"
DATA_FILES = sorted(DATA.glob("*.yaml"))

SCALARS = """\
evidence:
  a: 97.5
  b: 1/3
  c: inf
  d: .inf
  e: -7
  f: 0x1F
  g: 1e3
  h: [yes, no, ~, "2"]
  i: {nested: [1, 2.25, "inf"]}
"""


def typed(obj):
    """The object with every leaf tagged by its type, so 1, 1.0 and True differ."""
    if isinstance(obj, dict):
        return {typed(k): typed(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [typed(v) for v in obj]
    return (type(obj).__name__, obj)


def safe_load_or_error(path):
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError:
        return None
    return data if isinstance(data, dict) else None


def test_the_libyaml_loader_is_used_where_pyyaml_has_it():
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert fileio._LOADER is expected


@pytest.mark.parametrize("path", DATA_FILES, ids=[p.name for p in DATA_FILES])
def test_load_yaml_reads_what_safe_load_reads(path):
    expected = safe_load_or_error(path)
    if expected is None:  # not YAML, or not a mapping at the top
        with pytest.raises(fileio.SchemaError):
            fileio._load_yaml(path)
    else:
        assert typed(fileio._load_yaml(path)) == typed(expected)


def test_load_yaml_keeps_every_scalar_type(tmp_path):
    path = tmp_path / "scalars.yaml"
    path.write_text(SCALARS)
    data = fileio._load_yaml(path)
    assert typed(data) == typed(yaml.safe_load(SCALARS))
    assert data["evidence"]["a"] == 97.5 and data["evidence"]["b"] == "1/3"
    assert data["evidence"]["c"] == "inf" and data["evidence"]["d"] == float("inf")


def test_bad_yaml_exits_2_with_the_pure_python_loader(capsys, monkeypatch):
    monkeypatch.setattr(fileio, "_LOADER", yaml.SafeLoader)
    code = cli.main(["space", "--space", str(DATA / "bad_yaml.yaml"), "--format", "records"])
    assert (code, capsys.readouterr().out) == (cli.EXIT_INPUT, "")


SPACE = DATA / "space_gens_ic.yaml"


@pytest.mark.parametrize("late", ["true", "[1]"], ids=["bool", "list"])
def test_scalar_memo_refuses_what_follows_a_cached_int_one(tmp_path, late):
    sf = fileio.load_space(SPACE)
    evidence = tmp_path / "evidence.yaml"
    evidence.write_text(f"evidence:\n  a: 1\n  c: {late}\n")
    with pytest.raises(fileio.SchemaError, match="not an evidence value"):
        fileio.load_evidence(evidence, sf)
    kernel = tmp_path / "kernel.yaml"
    rows = "".join(f'  "{h}": {{x: 1, y: {late}}}\n' for h in ("a", "c", "a,b", "a,c"))
    kernel.write_text(f"outcomes: [x, y]\nkernel:\n{rows}")
    with pytest.raises(fileio.SchemaError, match="not an evidence value"):
        fileio.load_kernel(kernel, sf)


def test_scalar_memo_parses_each_distinct_scalar_once_per_file(tmp_path):
    sf = fileio.load_space(SPACE)
    evidence = tmp_path / "evidence.yaml"
    evidence.write_text(
        'evidence:\n  a: 1/3\n  c: 1/3\n  "a,b": 1\n  "a,c": 1.0\n'
        '  "c,d": 0\n  "a,b,c": 0\n  "a,c,d": 0\n  "a,b,c,d": 0\n'
    )
    table = fileio.load_evidence(evidence, sf)
    ids = [sf.resolve(evidence, label) for label in ("a", "c", "a,b", "a,c")]
    assert table[ids[0]] is table[ids[1]]
    assert table[ids[2]] == table[ids[3]] and table[ids[2]] is not table[ids[3]]
    assert fileio.load_evidence(evidence, sf)[ids[0]] is not table[ids[0]]


# Documents the node-level builder hands to PyYAML's own constructor, or
# must read exactly as it does: aliases, merge and value keys, unhashable
# keys, collection and scalar tags, odd keys and odd files.
PITFALLS = {
    "shared-anchor": "a: &x {p: 1, q: [2, 3]}\nb: *x\nc: [*x, *x]\n",
    "shared-scalar-anchor": "a: &x 3/4\nb: *x\n",
    "merge-key": "base: &b {x: 1, y: 1}\nderived: {<<: *b, y: 2}\n",
    "merge-key-top": "<<: {x: 1}\ny: 2\n",
    "merge-key-list": "a: &a {x: 1}\nb: &b {y: 2}\nc: {<<: [*a, *b], z: 3}\n",
    "merge-key-scalar": "a: {<<: 5}\n",
    "value-key": "a: {=: 5, b: 1}\n",
    "unhashable-key": "? [a, b]\n: 1\n",
    "mapping-key": "? {a: 1}\n: 1\n",
    "set": "a: !!set {p: null, q: null}\n",
    "omap": "a: !!omap [p: 1, q: 2]\n",
    "pairs": "a: !!pairs [p: 1, p: 2]\n",
    "explicit-str": "a: !!str 1\nb: !!str yes\n",
    "explicit-int": "a: !!int '3'\nb: !!float '1'\nc: !!bool 'yes'\nd: !!null ''\n",
    "binary": "a: !!binary aGVsbG8=\n",
    "timestamps": "a: 2001-12-14\nb: 2001-12-14t21:59:43.10-05:00\nc: 2001-12-15 2:59:43.10\n",
    "local-tag-scalar": "a: !foo bar\n",
    "local-tag-mapping": "a: !foo {b: 1}\n",
    "scalar-tagged-map": "a: !!map foo\n",
    "scalar-tagged-seq": "a: !!seq foo\n",
    "null-key": "~: 1\nnull: 2\n",
    "bool-and-number-keys": "yes: a\n1: b\n1.0: c\nno: d\n0: e\n",
    "duplicate-keys": "a: 1\nb: 2\na: 3\n",
    "empty": "",
    "comment-only": "# nothing\n",
    "top-level-list": "- a\n- b\n",
    "top-level-scalar": "3/4\n",
    "multi-document": "a: 1\n---\nb: 2\n",
    "explicit-single-document": "---\na: 1\n...\n",
    "nested": "tree: [[HH, [HT, TH]], [TT]]\nk: {'p,q': {HH: .inf, HT: -1, TH: 1e3, TT: 0o17}}\n",
}


@pytest.mark.parametrize("text", PITFALLS.values(), ids=PITFALLS.keys())
def test_pitfall_documents_read_as_safe_load_reads_them(tmp_path, text):
    path = tmp_path / "doc.yaml"
    path.write_text(text)
    expected = safe_load_or_error(path)
    if expected is None:
        with pytest.raises(fileio.SchemaError):
            fileio._load_yaml(path)
    else:
        assert typed(fileio._load_yaml(path)) == typed(expected)


def test_a_recursive_alias_builds_the_same_cycle(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text("a: &x [1, *x]\n")
    data = fileio._load_yaml(path)
    assert data["a"][0] == 1 and data["a"][1] is data["a"]


def test_a_shared_anchor_is_one_object_as_in_safe_load(tmp_path):
    path = tmp_path / "doc.yaml"
    path.write_text(PITFALLS["shared-anchor"])
    data = fileio._load_yaml(path)
    assert data["a"] is data["b"] is data["c"][0] is data["c"][1]


def test_two_reads_of_one_file_share_no_memo(tmp_path, monkeypatch):
    """Each read resolves every distinct scalar itself and builds new objects."""
    path = tmp_path / "doc.yaml"
    path.write_text("k: {p: [3/4, 3/4, 1], q: [3/4, 1, o1], r: o1}\n")
    resolved = []
    resolve = fileio._LOADER.resolve

    def counting(self, kind, value, implicit):
        resolved.append(value)
        return resolve(self, kind, value, implicit)

    monkeypatch.setattr(fileio._LOADER, "resolve", counting)
    first = fileio._load_yaml(path)
    per_read = list(resolved)
    second = fileio._load_yaml(path)
    assert resolved == per_read * 2
    scalars = [v for v in per_read if v is not None]
    assert sorted(scalars) == sorted({"k", "p", "q", "r", "3/4", "1", "o1"})
    assert first == second and first["k"] is not second["k"]


def test_a_read_leaves_nothing_for_the_cycle_collector(tmp_path):
    """The loader, its tag memo and the nodes are freed when a read returns."""
    paths = [p for p in DATA_FILES if safe_load_or_error(p) is not None]
    for name in ("merge-key", "shared-anchor", "timestamps"):
        paths.append(tmp_path / f"{name}.yaml")
        paths[-1].write_text(PITFALLS[name])
    gc.collect()
    gc.disable()
    try:
        for path in paths:
            fileio._load_yaml(path)
        assert gc.collect() == 0
    finally:
        gc.enable()


PAIR_SPACE = DATA / "space_coin.yaml"
TWICE = {"point-lists": ("p,q", "q,p"), "padded": ("p,q", "q, p"), "empty": ("empty", "{}")}


@pytest.mark.parametrize("first, second", TWICE.values(), ids=TWICE.keys())
def test_a_hypothesis_given_twice_is_refused_naming_both_labels(tmp_path, first, second):
    sf = fileio.load_space(PAIR_SPACE)
    message = re.escape(f"'{first}' and '{second}' name the same hypothesis")
    evidence = tmp_path / "evidence.yaml"
    evidence.write_text(f'evidence:\n  p: 2\n  q: 3\n  "{first}": 1\n  "{second}": 7\n')
    with pytest.raises(fileio.SchemaError, match=message):
        fileio.load_evidence(evidence, sf)
    kernel = tmp_path / "kernel.yaml"
    rows = "".join(f'  "{h}": {{x: 1, y: 1}}\n' for h in ("p", "q", first, second))
    kernel.write_text(f"outcomes: [x, y]\nkernel:\n{rows}")
    with pytest.raises(fileio.SchemaError, match=message):
        fileio.load_kernel(kernel, sf)


def test_a_declared_name_and_its_point_list_are_one_hypothesis(tmp_path):
    sf = fileio.load_space(DATA / "space_gens_named.yaml")
    evidence = tmp_path / "evidence.yaml"
    evidence.write_text('evidence:\n  left: 3\n  right: 2\n  "a,b,c": 2\n  "a,b": 5\n')
    with pytest.raises(fileio.SchemaError, match="'left' and 'a,b' name the same hypothesis"):
        fileio.load_evidence(evidence, sf)


def test_a_kernel_outcome_the_model_lacks_is_refused():
    sf = fileio.load_space(PAIR_SPACE)
    pa = fileio.load_pmfs(DATA / "model_coin.yaml", sf.space.model)
    with pytest.raises(fileio.SchemaError, match=r"row for 'p' has unknown outcomes \['XX'\]"):
        fileio.load_kernel(DATA / "kernel_coin_unknown_outcome.yaml", sf, pa.sample)


def test_a_declared_outcome_list_bounds_the_kernel_rows_too(tmp_path):
    sf = fileio.load_space(PAIR_SPACE)
    kernel = tmp_path / "kernel.yaml"
    kernel.write_text('outcomes: [x]\nkernel:\n  p: {x: 1}\n  q: {x: 1, y: 2}\n  "p,q": {x: 1}\n')
    with pytest.raises(fileio.SchemaError, match=r"row for 'q' has unknown outcomes \['y'\]"):
        fileio.load_kernel(kernel, sf)


def test_a_distribution_for_a_point_outside_the_space_is_refused():
    model = fileio.load_space(PAIR_SPACE).space.model
    with pytest.raises(fileio.SchemaError, match=r"points not in the space: \['r'\]"):
        fileio.load_pmfs(DATA / "model_coin_unknown_point.yaml", model)


# -- the line reader against safe_load ---------------------------------------

# YAML 1.1 scalars a reader that guessed types would get wrong, and labels.
EDGE = ["yes", "No", "~", "null", "0x1F", "0o17", "1_000", "+1", "-0", ".inf",
        "1e3", "1.0e+3", "1:30", "2001-12-14"]
LABELS = ["p", "o1", "HH", "3/4", "inf", "-7", "97.5", "a:b", "---", "..."]
QUOTED = ['"p,q"', '"a, b"', '"p q"', '"x"', '"1"']
# Text outside the reader's shape; some of it is not YAML at all.
JUNK = ["", "'q'", "a b", "-", "x:", "&a", "*a", "!!str 1", "<<", "=", "a#b", "1:",
        "a,b", ":x", '"e\\x"', '"\u00e9"', "\u00e9", '"t\tb"']
# Edits that take one line of a document out of the reader's shape.
LINE_JUNK = [
    lambda line: line + " # trailing",
    lambda line: line + ",",
    lambda line: line + "\rz: 1",
    lambda line: line + "\u0085z: 1",
    lambda line: line + " x: 1",
    lambda line: line + " [x]",
    lambda line: line + "]",
    lambda line: line.replace(" ", "\t", 1),
    lambda line: line.replace(": ", ":", 1),
    lambda line: line.replace(", ", ", , ", 1),
    lambda line: " " + line,
    lambda line: "   " + line.lstrip(" "),
    lambda line: "- " + line,
    lambda line: "--- " + line,
    lambda line: "---",
]


def rarely(junk, clean, bad):
    """`clean`, or with `junk` one time in sixteen `bad`, so most documents
    that have junk have one piece of it."""
    if not junk:
        return clean
    return st.integers(0, 15).flatmap(lambda n: bad if n == 0 else clean)


@st.composite
def flow(draw, scalars, depth=2):
    """A one-line flow list or mapping, possibly nested, and its spacing."""
    comma = draw(st.sampled_from([", ", ",", " , "]))
    if depth and draw(st.booleans()):
        items = draw(st.lists(flow(scalars, depth - 1) | scalars, max_size=3))
    else:
        items = draw(st.lists(scalars, max_size=4))
    trailing = "," if items and draw(st.booleans()) else ""
    if draw(st.booleans()):
        keys = draw(st.lists(scalars, min_size=len(items), max_size=len(items)))
        return "{" + comma.join(f"{k}: {v}" for k, v in zip(keys, items)) + trailing + "}"
    return "[" + comma.join(items) + trailing + "]"


@st.composite
def table_documents(draw, junk=True):
    """Documents of the line reader's shape, or (with `junk`, half of them)
    near it: one line edited out of the shape, and now and then a junk
    scalar or a quoted value."""
    junk = junk and draw(st.booleans())
    plain = rarely(junk, st.sampled_from(EDGE + LABELS), st.sampled_from(JUNK))
    keys = plain | st.sampled_from(QUOTED)
    values = plain | flow(plain) | rarely(junk, plain, st.sampled_from(QUOTED))
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        key = draw(keys)
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(values)}")
            continue
        lines.append(f"{key}:")
        indent = draw(st.sampled_from(["  ", " ", "    "]))
        for _ in range(draw(st.integers(0, 3))):
            lines.append(f"{indent}{draw(keys)}: {draw(values)}")
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# a comment", "   # indented, too", "  "])))
    if junk:
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from(LINE_JUNK))(lines[at])
    return "\n".join(lines) + "\n"


def read_or_refuse(load, path):
    """`typed` of what `load` reads at `path`, or None if it is no mapping."""
    try:
        data = load(path)
    except (yaml.YAMLError, fileio.SchemaError):
        return None
    return typed(data) if isinstance(data, dict) else None


def assert_reads_as_yaml(path, text):
    """``_load_yaml`` reads `text` as libyaml reads it and, where the line
    reader takes it, as safe_load reads it; or all of them refuse it.

    Where the reader passes a document on, libyaml and the pure-Python
    parser may differ: libyaml reads "a:\tb" as {'a': 'b'} and refuses
    "a: [1:]", and safe_load does the opposite."""
    path.write_text(text)
    got = read_or_refuse(fileio._load_yaml, path)
    assert got == read_or_refuse(lambda p: yaml.load(p.read_text(), fileio._LOADER), path), text
    if fileio._read_table(text) is not None:
        assert got == read_or_refuse(lambda p: yaml.safe_load(p.read_text()), path), text


@settings(max_examples=400)
@given(table_documents())
def test_the_line_reader_reads_what_safe_load_reads(tmp_path_factory, text):
    assert_reads_as_yaml(tmp_path_factory.getbasetemp() / "differential.yaml", text)


TABLE = [
    "# a comment",
    "points: [a, b]",
    "kernel:",
    '  "p,q": {HH: 1/3, TT: .inf}',
    "  p: [1, [2, 3]]",
    "",
    "  # an indented comment",
    "  q: yes",
    "tree: [[HH, HT], [TH, TT]]",
    "empty:",
]
SCALAR_SLOTS = [
    "{}: 1", "a: {}", "a: [x, {}]", "a: {{{}: 1}}", "a: {{x: {}}}", "a: [[{}], y]",
    "a:\n  {}: 1", "a:\n  b: {}",
]


def test_each_line_edit_of_a_table_reads_as_yaml_reads_it(tmp_path):
    for at in range(len(TABLE)):
        for edit in LINE_JUNK:
            lines = list(TABLE)
            lines[at] = edit(lines[at])
            assert_reads_as_yaml(tmp_path / "doc.yaml", "\n".join(lines) + "\n")


def test_each_scalar_in_each_place_reads_as_yaml_reads_it(tmp_path):
    for slot in SCALAR_SLOTS:
        for scalar in EDGE + LABELS + QUOTED + JUNK:
            assert_reads_as_yaml(tmp_path / "doc.yaml", slot.format(scalar) + "\n")


@given(table_documents(junk=False))
def test_documents_of_the_table_shape_take_the_line_reader(text):
    data = fileio._read_table(text)
    assert data is not None and typed(data) == typed(yaml.safe_load(text))


TABLE_FILES = [p for p in DATA_FILES if safe_load_or_error(p) is not None]


@pytest.mark.parametrize("path", TABLE_FILES, ids=[p.name for p in TABLE_FILES])
def test_no_table_file_takes_the_full_yaml_path(monkeypatch, path):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{path.name} went to yaml.load")

    monkeypatch.setattr(fileio.yaml, "load", refuse)
    fileio._load_yaml(path)


def test_a_model_outcome_the_first_row_lacks_is_refused():
    model = fileio.load_space(PAIR_SPACE).space.model
    with pytest.raises(fileio.SchemaError, match=r"row for 'q' has unknown outcomes \['XX'\]"):
        fileio.load_pmfs(DATA / "model_coin_unknown_outcome.yaml", model)


UNKNOWN_POINT = r"rows for points not in the space: \['r'\]"
UNKNOWN_DECISION = r"row for 'p' has unknown decisions \['wait'\]"
DECISION_FILES = {
    "loss-point": ("decisions_coin_unknown_point.yaml", UNKNOWN_POINT),
    "loss-decision": ("decisions_coin_unknown_decision.yaml", UNKNOWN_DECISION),
    "table-point": ("decisions_coin_table_unknown_point.yaml", UNKNOWN_POINT),
    "table-decision": ("decisions_coin_table_unknown_decision.yaml", UNKNOWN_DECISION),
}


@pytest.mark.parametrize("name, message", DECISION_FILES.values(), ids=DECISION_FILES.keys())
def test_a_decision_row_outside_the_space_or_the_decisions_is_refused(name, message):
    model = fileio.load_space(PAIR_SPACE).space.model
    with pytest.raises(fileio.SchemaError, match=message):
        fileio.load_decision_problem(DATA / name, model)
