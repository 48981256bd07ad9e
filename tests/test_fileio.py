"""YAML input: the fast loader reads exactly what the safe pure-Python loader reads."""

import gc
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from emeasure import (
    EvidenceError, Model, Pmf, SampleSpace, Space, XValue, cli, fileio, union_closure,
)

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


def test_the_full_yaml_path_is_the_pure_python_safe_loader(tmp_path, monkeypatch):
    """A file reads as ``yaml.safe_load`` reads it, whether or not PyYAML
    was built with libyaml."""
    loaders = []
    monkeypatch.setattr(yaml, "load", lambda stream, Loader: loaders.append(Loader) or {})
    path = tmp_path / "doc.yaml"
    path.write_text(PITFALLS["shared-anchor"])
    fileio._load_yaml(path)
    assert loaders == [yaml.SafeLoader]


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


def test_bad_yaml_exits_2_with_the_pure_python_loader(capsys):
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
        fileio.load_kernel(kernel, sf, SampleSpace(("x", "y")))


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
    # libyaml reads these two otherwise than safe_load.
    "tab-after-colon": "a:\tb\n",
    "colon-in-flow": "a: [1:]\n",
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
    """Each read types every distinct scalar itself and builds new objects."""
    path = tmp_path / "doc.yaml"
    path.write_text("k: {p: [3/4, 3/4, 1], q: [3/4, 1, o1], r: o1}\ns: [3/4, 1]\nt: [3/4, 1]\n")
    typed_texts = []
    missing = fileio._Scalars.__missing__

    def counting(self, text):
        typed_texts.append(text)
        return missing(self, text)

    monkeypatch.setattr(fileio._Scalars, "__missing__", counting)
    first = fileio._load_yaml(path)
    per_read = list(typed_texts)
    second = fileio._load_yaml(path)
    assert typed_texts == per_read * 2
    assert sorted(per_read) == sorted({"k", "p", "q", "r", "s", "t", "3/4", "1", "o1"})
    assert first == second and first["k"] is not second["k"]
    assert second["s"] is not first["s"]


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


# -- plain scalars typed as the safe resolver types them ----------------------

# YAML 1.1 scalars that look like ints or strings and are not, and pieces
# that join into more plain scalars.
TRAPS = ["017", "08", "0x1f", "0o17", "0b101", "1_000", "1:30", "190:20:30", "on", "Off",
         "y", "N", "yes", "true", "FALSE", "null", "~", ".inf", "-.inf", ".NaN", "1e3",
         "1.0e+3", "6.8523015e+5", "2001-12-14", "2001-12-14t21:59:43.10-05:00", "=", "<<"]
PIECES = TRAPS + ["0", "1", "7", "9", "12", "300", "3/4", "0/5", "12/08", "a", "Z", "p1",
                  "o1", "x", "inf", "/", "+", "-", ".", "_", "~", ":", "e3"]


def resolver_reading(loader, text):
    """A plain scalar's type and value as `loader`'s resolver and PyYAML's
    SafeConstructor build it, with a float by its repr, as nan is no nan."""
    tag = loader.resolve(loader, yaml.ScalarNode, text, (True, False))
    if tag == "tag:yaml.org,2002:str":
        value = text
    else:
        constructor = yaml.constructor.SafeConstructor()
        value = constructor.yaml_constructors[tag](constructor, yaml.ScalarNode(tag, text))
    return type(value).__name__, repr(value)


def reader_reading(text):
    value = fileio._Scalars()[text]
    return type(value).__name__, repr(value)


def plain_scalars():
    """Every plain scalar of the corpus, the traps and seeded joins of pieces."""
    found = set(TRAPS)
    for path in DATA_FILES:
        found.update(re.findall(r"[A-Za-z0-9_.~/+:-]+", path.read_text(errors="replace")))
    r = helpers.rng(29)
    for _ in range(3000):
        found.add(r.choice(["", ":"]).join(r.choice(PIECES) for _ in range(r.randint(1, 3))))
    return sorted(t for t in found if fileio._PLAIN.fullmatch(t) and len(t) <= fileio._KEY_MAX)


def resolver_forms():
    """Seeded scalars of each implicit resolver's forms, in the reader's
    grammar, and one-character edits of them that may fall outside it."""
    r = helpers.rng(31)

    def digits(alphabet="0123456789", most=4):
        return r.choice(alphabet) + "".join(r.choice(alphabet + "_") for _ in range(r.randint(0, most)))

    def sign():
        return r.choice(["", "", "+", "-"])

    def sexagesimal():
        return "".join(f":{r.choice(['', '0', '1', '5'])}{r.randint(0, 9)}" for _ in range(r.randint(1, 3)))

    def exponent():
        return r.choice(["", f"{r.choice('eE')}{r.choice('+-')}{r.randint(0, 400)}"])

    words = ["yes", "no", "true", "false", "on", "off", "null", "y", "n", "nil"]
    makers = [
        lambda: "".join(c.upper() if r.random() < 0.5 else c for c in r.choice(words)),
        lambda: r.choice(["yes", "No", "TRUE", "off", "On", "FALSE", "~", "null", "Null", "NULL"]),
        lambda: sign() + "0b" + digits("01"),
        lambda: sign() + "0" + digits("01234567"),
        lambda: sign() + r.choice("123456789") + digits(most=6),
        lambda: sign() + "0x" + digits("0123456789abcdefABCDEF"),
        lambda: sign() + r.choice("123456789") + digits() + sexagesimal(),
        lambda: sign() + digits() + "." + r.choice(["", digits()]) + exponent(),
        lambda: "." + r.choice("0123456789") + r.choice(["", digits()]) + exponent(),
        lambda: sign() + digits() + sexagesimal() + "." + r.choice(["", digits()]),
        lambda: sign() + "." + r.choice(["inf", "Inf", "INF", "iNf"]),
        lambda: "." + r.choice(["nan", "NaN", "NAN", "Nan"]),
        lambda: f"{r.randint(1000, 2999)}-{r.randint(1, 12):02}-{r.randint(1, 28):02}",
        lambda: (
            f"{r.randint(1000, 2999)}-{r.randint(1, 12)}-{r.randint(1, 28)}{r.choice('Tt')}"
            f"{r.randint(0, 23)}:{r.randint(0, 59):02}:{r.randint(0, 59):02}"
            f"{r.choice(['', '.', '.5', '.10'])}"
            f"{r.choice(['', 'Z', '-5', '+05:30'])}"
        ),
    ]
    forms = {"yes", "No", "TRUE", "off", "~", "null", "0b1_0", "017", "0x1F", "1_000",
             "190:20:30", "1.5e+3", ".5", "-.inf", ".NaN", "2001-12-14"}
    for _ in range(4000):
        text = r.choice(makers)()
        forms.add(text)
        i = r.randrange(len(text))
        forms.add(text[:i] + r.choice("0189aeEx_.:-+") + text[i + 1:])
    return sorted(t for t in forms if fileio._PLAIN.fullmatch(t))


def test_each_plain_scalar_is_typed_as_the_resolver_types_it(monkeypatch):
    """The reader types each plain scalar as the live safe loader's resolver
    and constructor type it, and hands to PyYAML (`_safe_scalar`) only the
    words of `_WORDS` and the scalars led by a character of `_NUMERIC` that
    are no decimal int or digit ratio."""

    def or_refusal(read, *args):
        try:
            return read(*args)
        except ValueError as exc:  # a form such as 0x_ that no int is
            return "refused", str(exc)

    scalars = plain_scalars() + resolver_forms()
    assert len(scalars) > 6000
    expected = [or_refusal(resolver_reading, yaml.SafeLoader, text) for text in scalars]
    kinds = {"str", "bool", "NoneType", "int", "float", "date", "datetime", "refused"}
    assert {kind for kind, _ in expected} == kinds
    handed = []
    safe_scalar = fileio._safe_scalar
    monkeypatch.setattr(fileio, "_safe_scalar", lambda text: handed.append(text) or safe_scalar(text))
    for text, reading in zip(scalars, expected):
        assert or_refusal(reader_reading, text) == reading, text
    int_or_ratio = re.compile(r"0|[1-9][0-9]*|[0-9]+/[0-9]+")
    assert handed == [
        text for text in scalars
        if text in fileio._WORDS or (text[0] in fileio._NUMERIC and not int_or_ratio.fullmatch(text))
    ]


def test_only_the_words_and_numeric_starts_can_read_as_no_string():
    """The premise of the reader's typing, on the live safe loader's table:
    of the characters a plain scalar of the reader starts with, those that
    start an implicit resolver are exactly `_NUMERIC` and the first
    characters of `_WORDS`, no resolver is tried on every scalar, and each
    word resolves to a tag other than str. A PyYAML that adds a resolver
    for another first character fails here."""
    resolvers = yaml.SafeLoader.yaml_implicit_resolvers
    assert None not in resolvers
    starts = {ch for ch in resolvers if ch and re.fullmatch(fileio._C, ch)}
    assert starts == set(fileio._NUMERIC) | {word[0] for word in fileio._WORDS}
    assert len(fileio._WORDS) == 22
    for word in fileio._WORDS:
        tag = yaml.SafeLoader.resolve(yaml.SafeLoader, yaml.ScalarNode, word, (True, False))
        assert tag != "tag:yaml.org,2002:str", word


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
        fileio.load_kernel(kernel, sf, SampleSpace(("x", "y")))


def test_a_declared_name_and_its_point_list_are_one_hypothesis(tmp_path):
    sf = fileio.load_space(DATA / "space_gens_named.yaml")
    evidence = tmp_path / "evidence.yaml"
    evidence.write_text('evidence:\n  left: 3\n  right: 2\n  "a,b,c": 2\n  "a,b": 5\n')
    with pytest.raises(fileio.SchemaError, match="'left' and 'a,b' name the same hypothesis"):
        fileio.load_evidence(evidence, sf)


def _seeded_spaces():
    r = helpers.rng(13)
    return (
        [helpers.power_space(n) for n in (1, 3, 5)]
        + [helpers.rand_ic_space(r, max_points=6) for _ in range(12)]
        + [helpers.rand_uc_space(r, max_points=6) for _ in range(12)]
    )


def test_each_member_label_reads_back_as_that_member():
    """The printed label, its points reversed and its points ', '-spaced all
    resolve to the member; an unknown point and a non-member keep their
    messages."""
    for space in _seeded_spaces():
        sf = fileio.SpaceFile(space, {})
        for hid in range(len(space.family)):
            label = space.label(hid)
            assert label == helpers.member_label(space, hid)
            parts = [] if hid == space.family.empty_id else label.split(",")
            for spelling in (label, ",".join(reversed(parts)), ", ".join(parts)):
                assert sf.resolve("t.yaml", spelling or "{}") == hid
            unknown = ",".join([*parts, "Z"])
            with pytest.raises(fileio.SchemaError) as exc:
                sf.resolve("t.yaml", unknown)
            assert str(exc.value) == f"t.yaml: unknown hypothesis label {unknown!r}"
        outside = [b for b in range(1 << space.model.size) if b not in space.family]
        for bits in outside[:3]:
            label = ",".join(helpers.labels_of(space.model, bits))
            with pytest.raises(fileio.SchemaError) as exc:
                sf.resolve("t.yaml", label)
            assert str(exc.value) == f"t.yaml: {label!r} is not a member of the family"


def _named_spaces():
    """Seeded spaces, some with declared names and some with point labels
    that hold commas or spaces."""
    r = helpers.rng(17)
    odd = ("a", "b,c", " d", "e f", "b", "c", "empty")
    files = [fileio.SpaceFile(space, {}) for space in _seeded_spaces()]
    for _ in range(12):
        n = r.randint(2, len(odd))
        model = Model(tuple(r.sample(odd, n)) if r.random() < 0.5 else tuple(f"P{i}" for i in range(n)))
        space = Space(model, union_closure(n, [r.randrange(1, 1 << n) for _ in range(r.randint(1, 4))]))
        names = {}
        for name in ("left", "{}", model.points[0], "a,b"):
            if r.random() < 0.5:
                names[name] = r.randrange(len(space.family))
        files.append(fileio.SpaceFile(space, names))
    return files


def _outcome(resolve, label):
    try:
        return resolve("t.yaml", label)
    except fileio.SchemaError as exc:
        return str(exc)


def test_parsed_labels_read_as_the_label_table_reads_them():
    """Every spelling of every member, unknown points, non-members, declared
    names, 'empty' and '{}' resolve to the id, or fail with the message, of
    the lookup in a table of every member's printed label."""
    for sf in _named_spaces():
        space = sf.space
        spellings = ["empty", "{}", "", ",", " , ", "Z", *sf.names]
        for hid in range(len(space.family)):
            parts = list(helpers.labels_of(space.model, space.family.member(hid)))
            spellings += [
                ",".join(parts), ",".join(reversed(parts)), ", ".join(parts),
                ",".join(parts + parts[:1]), ",".join([*parts, "Z"]), " , ".join(parts) + ",",
            ]
        outside = [b for b in range(1 << space.model.size) if b not in space.family]
        spellings += [",".join(helpers.labels_of(space.model, b)) for b in outside[:3]]
        for label in spellings:
            expected = _outcome(lambda path, text: helpers.lookup_resolve(sf, path, text), label)
            assert _outcome(sf.resolve, label) == expected, (space.model.points, label)
        for hid in range(len(space.family)):
            assert space.label(hid) == helpers.member_label(space, hid)


# Point labels that make a comma list read as another set than the one it
# joins: (points, generators as bitsets, label, the set it reads as).
AMBIGUOUS_POINTS = {
    "comma": (("a", "b", "a,b"), [0b100], "a,b", 0b011),
    "padded": ((" a", "a"), [0b01, 0b10], " a", 0b10),
    "empty": (("", "b"), [0b01, 0b10], "", 0),
}


@pytest.mark.parametrize(
    "points, generators, label, bits", AMBIGUOUS_POINTS.values(), ids=AMBIGUOUS_POINTS.keys()
)
def test_a_label_is_read_as_a_comma_list_of_points(points, generators, label, bits):
    n = len(points)
    space = Space(Model(points), union_closure(n, generators))
    sf = fileio.SpaceFile(space, {})
    if bits in space.family:
        assert sf.resolve("t.yaml", label) == space.family.id_of(bits)
    else:
        with pytest.raises(fileio.SchemaError, match=re.escape(f"{label!r} is not a member")):
            sf.resolve("t.yaml", label)


ROW_TEXTS = ["{x: 1, y: 2, z: inf}", "{x: 1/2, y: 2, z: 3}", "{x: 0, y: 5/4, z: 1/2}",
             "{x: inf, y: inf, z: inf}"]


def test_a_kernel_read_types_each_distinct_text_once(tmp_path, monkeypatch):
    """On a kernel file of F rows with r distinct row texts under canonical
    keys, which the general reader reads, each distinct scalar is typed
    once, and no member's label is built, then or when it is printed."""
    space = helpers.power_space(6)
    r = helpers.rng(31)
    texts = {hid: r.choice(ROW_TEXTS[:3]) for hid in space.family.nonempty_ids()}
    texts[space.family.empty_id] = ROW_TEXTS[3]
    keys = {hid: helpers.member_label(space, hid) for hid in texts}
    (tmp_path / "space.yaml").write_text(helpers.space_yaml(space))
    kernel = tmp_path / "kernel.yaml"
    kernel.write_text("outcomes: [x, y, z]\nkernel:\n" + "".join(
        f'  "{keys[hid]}": {text}\n' for hid, text in texts.items()
    ))
    sf = fileio.load_space(tmp_path / "space.yaml")
    typed_texts, labels_built = [], []
    missing = fileio._Scalars.__missing__
    monkeypatch.setattr(
        fileio._Scalars, "__missing__", lambda self, text: typed_texts.append(text) or missing(self, text)
    )
    monkeypatch.setattr(fileio, "_rows", lambda *args: None)
    monkeypatch.setattr(Model, "label", lambda self, bits: labels_built.append(bits))
    k = fileio.load_kernel(kernel, sf, SampleSpace(("x", "y", "z")))
    cells = {cell.split(": ")[1] for text in ROW_TEXTS for cell in text[1:-1].split(", ")}
    assert len(typed_texts) == len(set(typed_texts)) and cells <= set(typed_texts)
    assert [k.space.label(hid) for hid in space.family.nonempty_ids()] == [
        keys[hid] for hid in space.family.nonempty_ids()
    ]
    assert labels_built == []


def test_a_kernel_outcome_the_model_lacks_is_refused():
    sf = fileio.load_space(PAIR_SPACE)
    pa = fileio.load_pmfs(DATA / "model_coin.yaml", sf.space.model)
    with pytest.raises(fileio.SchemaError, match=r"row for 'p' has unknown outcomes \['XX'\]"):
        fileio.load_kernel(DATA / "kernel_coin_unknown_outcome.yaml", sf, pa.sample)


def test_a_declared_outcome_list_bounds_the_kernel_rows_too(tmp_path):
    sf = fileio.load_space(PAIR_SPACE)
    kernel = tmp_path / "kernel.yaml"
    kernel.write_text('kernel:\n  p: {x: 1}\n  q: {x: 1, y: 2}\n  "p,q": {x: 1}\n')
    with pytest.raises(fileio.SchemaError, match=r"row for 'q' has unknown outcomes \['y'\]"):
        fileio.load_kernel(kernel, sf, SampleSpace(("x",)))


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
    """``_load_yaml`` reads `text` as safe_load reads it, or both refuse it,
    whether the line reader takes it or passes it on."""
    path.write_text(text)
    got = read_or_refuse(fileio._load_yaml, path)
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


@pytest.mark.parametrize(
    "ends", [["\r\n"], ["\r"], ["\r\n", "\r", "\n"]], ids=["crlf", "cr", "mixed"]
)
def test_line_ends_other_than_newline_read_as_yaml_reads_them(tmp_path, monkeypatch, ends):
    """A file read in binary has its '\\r\\n' and lone '\\r' line ends read as
    text mode reads them, and a table document still takes the line reader."""
    text = "".join(line + ends[i % len(ends)] for i, line in enumerate(TABLE))
    assert_reads_as_yaml(tmp_path / "doc.yaml", text)
    expected = yaml.safe_load(text)
    monkeypatch.setattr(yaml, "load", None)
    assert fileio._load_yaml(tmp_path / "doc.yaml") == expected


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

    monkeypatch.setattr(yaml, "load", refuse)
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


# -- the row reader against the general reader --------------------------------

# Cells a reader that skipped the YAML typing would misread, and cells that
# no evidence value or mass reads.
ROW_CELLS = ["1", "3/4", "0", "2", "inf", "010", "0x1f", "1_000", "08", "6/4", ".inf"]
BAD_CELLS = ["yes", "-1", "1/0", "-.inf", "x"]
MASSES = [["1/2", "1/4", "1/4"], ["0", "6/8", "1/4"], ["1", "0", "0"], ["08/16", "0.25", "1/4"]]
BAD_MASSES = [["1/2", "inf", "1/4"], ["1", "-1/4", "1/4"], ["1/2", "1/2", "1/2"], ["1", ".inf", "0"]]
# Keys of the last spaces' points, spelled as plain scalars that YAML types
# to something else whose text is the label. A point 'yes' and an outcome
# 'no', written plain, read as the labels True and False.
KEY_SPELLINGS = {"8": ["010", "8"], "31": ["0x1f"], "1000": ["1_000"], "True": ["yes", "on"],
                 "inf": [".inf"]}
ROW_SPACES = [
    (helpers.power_space(3), ("x", "y", "z")),
    (helpers.space_from_generators(Model(("a", "b", "c")), [["a"], ["a", "b"], ["a", "b", "c"]]),
     ("x", "y", "z")),
    (helpers.power_space(2), ("x", "y", "z")),
    (Space(Model(("8", "31", "1000", "inf")), union_closure(4, [1, 2, 4, 8])), ("no", "x", "y")),
    (Space(Model(("True", "yes")), union_closure(2, [1, 2])), ("x", "y", "z")),
]


def spelled_key(r, name, quoted=0.5):
    """A label or an outcome as a row key: one of its `KEY_SPELLINGS` a
    third of the time, else plain where it can be, or double-quoted with
    chance `quoted`."""
    if name in KEY_SPELLINGS and r.random() < 1 / 3:
        return r.choice(KEY_SPELLINGS[name])
    plain = re.fullmatch(r"[A-Za-z][A-Za-z0-9]*", name) and r.random() >= quoted
    return name if plain else f'"{name}"'


def member_key(r, space, hid):
    """A member's label as a key: printed, its points reordered or
    ', '-spaced, 'empty' or '{}' for the empty member."""
    points = list(helpers.labels_of(space.model, space.family.member(hid)))
    if not points:
        return spelled_key(r, r.choice(["{}", "empty"]))
    if r.random() < 0.1:
        r.shuffle(points)
    return spelled_key(r, (", " if r.random() < 0.05 else ",").join(points))


def flat_row(r, outcomes, cells):
    """A flow-mapping row, at times with its outcomes shuffled, one dropped,
    an unknown one added or the first repeated."""
    pairs = [f"{spelled_key(r, x, 0.02)}: {c}" for x, c in zip(outcomes, cells)]
    roll = r.random()
    if roll < 0.05:
        r.shuffle(pairs)
    elif roll < 0.1:
        del pairs[r.randrange(len(pairs))]
    elif roll < 0.15:
        pairs.insert(r.randint(0, len(pairs)), "w: 1")
    elif roll < 0.2:
        pairs.append(pairs[0])
    return "{" + ", ".join(pairs) + "}"


def cell(r, pool):
    return r.choice(BAD_CELLS) if r.random() < 0.01 else r.choice(pool)


def row_file(r, head, rows):
    """`head:` and one `  KEY: VALUE` line per row, then a few line edits:
    a line repeated, dropped or written over another, trailing spaces, a
    blank or comment line, rows indented by four, another top-level key
    that takes the rows after it, '\\r\\n' ends, no final newline."""
    lines = [f"{head}:"] + [f"  {key}: {value}" for key, value in rows]
    edits = [
        lambda: lines.insert(r.randint(1, len(lines)), r.choice(lines[1:])),
        lambda: lines.pop(r.randrange(1, len(lines))),
        lambda: lines.__setitem__(r.randrange(1, len(lines)), r.choice(lines[1:])),
        lambda: lines.insert(r.randrange(len(lines)), lines.pop(r.randrange(len(lines))) + " "),
        lambda: lines.insert(r.randint(0, len(lines)), ""),
        lambda: lines.insert(r.randint(1, len(lines)), r.choice(["# note", "  # note"])),
        lambda: lines.__setitem__(slice(1, None), ["  " + line for line in lines[1:]]),
        lambda: lines.insert(r.randint(2, len(lines)), "other:"),
    ]
    for edit in edits:
        if r.random() < 0.05 and len(lines) > 2:
            edit()
    text = "\n".join(lines) + r.choice(["\n", "\n", "\n", ""])
    return text.replace("\n", "\r\n") if r.random() < 0.05 else text


def row_files(r, space, outcomes):
    """A kernel, a model and an evidence file over `space`, mostly in the
    row shape. Rows repeat a few texts, and the empty member is written with
    an inf or a finite row at times, or left out."""
    members = list(space.family.nonempty_ids())
    if r.random() < 0.3:
        members.append(space.family.empty_id)
    pool = [flat_row(r, outcomes, [cell(r, ROW_CELLS) for _ in outcomes]) for _ in range(3)]
    finite = r.random() < 0.3
    kernel = [(member_key(r, space, hid), r.choice(pool) if hid else flat_row(
        r, outcomes, [r.choice(["1", "0"] if finite else ["inf", ".inf"]) for _ in outcomes]
    )) for hid in members]
    values = [(member_key(r, space, hid), cell(r, ROW_CELLS) if hid else "1" if finite else "inf")
              for hid in members]
    masses = [flat_row(r, outcomes, r.choice(BAD_MASSES if r.random() < 0.03 else MASSES))
              for _ in range(2)]
    model = [(spelled_key(r, p), r.choice(masses)) for p in space.model.points]
    return {"kernel": row_file(r, "kernel", kernel), "pmf": row_file(r, "pmf", model),
            "evidence": row_file(r, "evidence", values)}


LOADS = {
    "kernel": (lambda path, sf, sample: fileio.load_kernel(path, sf, sample), lambda k: (k.sample, k.rows)),
    "pmf": (lambda path, sf, sample: fileio.load_pmfs(path, sf.space.model),
            lambda pa: (pa.sample, [pmf.scaled for pmf in pa.pmfs])),
    "evidence": (lambda path, sf, sample: fileio.load_evidence(path, sf), lambda e: (e.values, e.eclass)),
}


def read_both_ways(monkeypatch, kind, path, sf, sample):
    """What the loader of `kind` gives as shipped, then with the row reader
    declining every file: a view of its result, or its refusal's class and
    text; and whether the row reader took the file."""
    load, view = LOADS[kind]
    rows, taken = fileio._rows, []
    readers = [lambda *args: taken.append(rows(*args)) or taken[-1], lambda *args: None]
    results = []
    for reader in readers:
        with monkeypatch.context() as patch:
            patch.setattr(fileio, "_rows", reader)
            try:
                results.append(view(load(path, sf, sample)))
            except (fileio.SchemaError, EvidenceError) as exc:
                results.append((type(exc), str(exc)))
    return results, taken[0] is not None


def test_the_row_reader_reads_as_the_general_reader(tmp_path, monkeypatch):
    """Seeded kernel, model and evidence files, most in the row shape and
    the rest one edit away from it, load as the general reader alone loads
    them, or are refused in the same words: equal rows, equal scaled
    masses, equal values and class. The row reader takes some files of
    each kind and declines others; its sharing of equal rows is held by
    tests/test_kernel_rows.py."""
    sfs = []
    quoted = lambda labels: "[" + ", ".join(f"'{label}'" for label in labels) + "]"
    for i, (space, _) in enumerate(ROW_SPACES):
        (tmp_path / f"space{i}.yaml").write_text(
            f"points: {quoted(space.model.points)}\ngenerators: ["
            + ", ".join(quoted(helpers.labels_of(space.model, m)) for m in space.family.members if m)
            + "]\n"
        )
        sfs.append(fileio.load_space(tmp_path / f"space{i}.yaml"))
    taken = {(kind, took): 0 for kind in LOADS for took in (True, False)}
    for seed in range(240):
        r = helpers.rng(seed)
        i = seed % len(ROW_SPACES)
        sample = SampleSpace(ROW_SPACES[i][1])
        for kind, text in row_files(r, sfs[i].space, sample.outcomes).items():
            path = tmp_path / f"{kind}.yaml"
            path.write_bytes(text.encode())
            (shipped, general), took = read_both_ways(monkeypatch, kind, path, sfs[i], sample)
            assert shipped == general, text
            taken[kind, took] += 1
    assert min(taken.values()) > 0, taken


def test_a_plain_yes_is_no_quoted_yes_outcome(tmp_path, monkeypatch):
    """Beside a model whose outcome is the quoted string "yes", a kernel
    that writes yes plain, which YAML reads as true, is refused both ways,
    and one that quotes it is read both ways."""
    sf = fileio.load_space(PAIR_SPACE)
    model = tmp_path / "model.yaml"
    model.write_text('pmf:\n  p: {"yes": 1/2, no2: 1/2}\n  q: {"yes": 1, no2: 0}\n')
    sample = fileio.load_pmfs(model, sf.space.model).sample
    assert sample.outcomes == ("yes", "no2")
    kernel = tmp_path / "kernel.yaml"
    results = []
    for key in ("yes", '"yes"'):
        kernel.write_text("kernel:\n" + "".join(
            f'  "{label}": {{{key}: 1, no2: 1}}\n' for label in ("p", "q", "p,q")
        ))
        (shipped, general), _ = read_both_ways(monkeypatch, "kernel", kernel, sf, sample)
        assert shipped == general
        results.append(shipped)
    assert results[0] == (fileio.SchemaError, f"{kernel}: row for 'p' misses outcome 'yes'")
    _, rows = results[1]
    assert rows[1:] == ((XValue(1), XValue(1)),) * 3


def _counting_pmfs(monkeypatch):
    """Count the `Pmf` builds."""
    builds = []
    init = Pmf.__init__
    monkeypatch.setattr(Pmf, "__init__", lambda self, *args: builds.append(1) or init(self, *args))
    return builds


@pytest.mark.parametrize("text, builds, total", [
    ("pmf:\n  p: {x: 1/2, y: 1/2}\n  q: {x: 3/4, y: 1/2}\n", 2, "5/4"),
    ("pmf:\n  q: {x: 1/2, y: 1}\n  p: {x: 3/4, y: 1/2}\n", 1, "3/2"),
], ids=["second-row", "first-in-file-order"])
def test_a_refused_row_model_builds_each_distribution_once(tmp_path, monkeypatch, text, builds, total):
    """The row reader refuses a model whose masses do not sum to 1 from its
    own distributions, at the first refused row in file order, in the
    general path's words: the file whose second row sums to 5/4 builds two
    `Pmf`s, where rereading it with the general path built four."""
    path = tmp_path / "model.yaml"
    path.write_text(text)
    sf = fileio.load_space(PAIR_SPACE)
    with monkeypatch.context() as patch:
        counted = _counting_pmfs(patch)
        with pytest.raises(fileio.SchemaError) as refusal:
            fileio.load_pmfs(path, sf.space.model)
    assert (str(refusal.value), len(counted)) == (f"{path}: masses sum to {total}, expected 1", builds)
    (shipped, general), took = read_both_ways(monkeypatch, "pmf", path, sf, None)
    assert took and shipped == general == (fileio.SchemaError, str(refusal.value))


def test_a_refused_row_model_is_refused_as_the_general_path_refuses_it(tmp_path, monkeypatch):
    """Seeded row-shaped models on four points, rows in a random order, each
    row summing to 1, to another total, or holding an infinite mass: every
    file with a refused row is refused in the general path's words, from
    the row reader's distributions where the first refused row in file
    order sums wrong, and by the general path where it holds an inf."""
    points = ("a", "b", "c", "d")
    (tmp_path / "space.yaml").write_text("points: [a, b, c, d]\ngenerators: [[a], [b], [c], [d]]\n")
    sf = fileio.load_space(tmp_path / "space.yaml")
    rows = [["1/2", "1/2"], ["1/4", "3/4"], ["1", "0"], ["1/2", "1"], ["0", "0"], ["3/4", "1/2"],
            ["inf", "0"], ["1/2", ".inf"]]
    path = tmp_path / "model.yaml"
    seen = set()
    for seed in range(80):
        r = helpers.rng(seed)
        order = r.sample(points, len(points))
        cells = [r.choice(rows) for _ in points]
        if all(row in rows[:3] for row in cells):
            cells[r.randrange(len(points))] = r.choice(rows[3:])
        path.write_text("pmf:\n" + "".join(
            f"  {p}: {{x: {x}, y: {y}}}\n" for p, (x, y) in zip(order, cells)
        ))
        (shipped, general), took = read_both_ways(monkeypatch, "pmf", path, sf, None)
        assert took and shipped == general and shipped[0] is fileio.SchemaError, path.read_text()
        first = next(row for row in cells if row not in rows[:3])
        fell_through = "inf" in "".join(first)
        seen.add(fell_through)
        assert ("not a rational number" in shipped[1]) == fell_through
    assert seen == {True, False}
