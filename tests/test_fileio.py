"""YAML input: the fast loader reads exactly what the safe pure-Python loader reads."""

from pathlib import Path

import pytest
import yaml

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
    evidence.write_text('evidence:\n  a: 1/3\n  c: 1/3\n  "a,b": 1\n  "a,c": 1.0\n')
    table = fileio.load_evidence(evidence, sf)
    ids = [sf.resolve(evidence, label) for label in ("a", "c", "a,b", "a,c")]
    assert table[ids[0]] is table[ids[1]]
    assert table[ids[2]] == table[ids[3]] and table[ids[2]] is not table[ids[3]]
    assert fileio.load_evidence(evidence, sf)[ids[0]] is not table[ids[0]]
