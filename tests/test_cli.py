"""The command line end to end: exit codes, records and text output on a fixed corpus."""

import argparse
import codecs
import contextlib
import io
import locale
import os
import random
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import helpers
from emeasure import (
    ConsequenceTable,
    Model,
    Space,
    XValue,
    cli,
    fileio,
    golden,
    optimality_class,
    union_closure,
)
from emeasure import evidence as ev
from emeasure import kernels as kn
from emeasure import multiplicity as mtp
from emeasure import spaces, xvalue

DATA = Path(__file__).parent / "data"
SRC = Path(cli.__file__).parents[1]
CASES = yaml.safe_load((DATA / "cli_cases.yaml").read_text())


def run(capsys, argv):
    try:
        code = cli.main([*argv, "--format", "records"])
    except SystemExit as exc:  # argparse refusing the command line
        code = exc.code
    return code, capsys.readouterr().out


TEXT_CASES = [c for c in CASES if "text" in c]


def corpus_argv(case):
    return [str(DATA / a) if a.endswith(".yaml") else a for a in case["argv"]]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_corpus_exit_codes_and_records(capsys, case):
    assert run(capsys, corpus_argv(case)) == (case["exit"], case["records"])


@pytest.mark.parametrize("case", TEXT_CASES, ids=[c["name"] for c in TEXT_CASES])
def test_corpus_text_output(capsys, case):
    code, out, _ = outcome(capsys, corpus_argv(case))
    assert (code, out) == (case["exit"], case["text"])


ERROR_CASES = [c for c in CASES if "error" in c]


@pytest.mark.parametrize("case", ERROR_CASES, ids=[c["name"] for c in ERROR_CASES])
def test_corpus_error_line(capsys, case):
    code = cli.main(corpus_argv(case))
    err = capsys.readouterr().err.replace(f"{DATA}/", "")
    assert (code, err) == (case["exit"], case["error"] + "\n")


MALFORMED_SPACES = {
    "preorder-negative-index": "points: [a, b]\npreorder: [[-1, 0]]\n",
    "preorder-fractional-index": "points: [a, b]\npreorder: [[1.5, 0]]\n",
    "preorder-bool-index": "points: [a, b]\npreorder: [[true, 0]]\n",
    "preorder-unknown-label": "points: [a, b]\npreorder: [[a, z]]\n",
    "preorder-not-a-list": "points: [a, b]\npreorder: 5\n",
    "preorder-not-pairs": "points: [a, b]\npreorder: [[0, 1, 1]]\n",
    "generators-list-of-strings": "points: [a, b, c]\ngenerators: [ab, c]\n",
    "generators-mapping-to-string": "points: [a, b, c]\ngenerators: {g: ab}\n",
}


@pytest.mark.parametrize("text", MALFORMED_SPACES.values(), ids=MALFORMED_SPACES.keys())
def test_malformed_space_files_exit_2(capsys, tmp_path, text):
    path = tmp_path / "space.yaml"
    path.write_text(text)
    assert run(capsys, ["space", "--space", str(path)]) == (cli.EXIT_INPUT, "")


COIN = ["--space", str(DATA / "space_coin.yaml"), "--model", str(DATA / "model_coin.yaml")]
COIN_KERNELS = [str(DATA / f"kernel_coin_t{t}.yaml") for t in range(3)]

MALFORMED_TREES = {
    "number": "tree: 5\n",
    "number-leaf": "tree: [[HH, HT], [TH, 7]]\n",
    "empty-subtree": "tree: [[HH, HT], [TH, TT], []]\n",
    "empty-root": "tree: []\n",
    "mapping": "tree: {HH: HT}\n",
}


@pytest.mark.parametrize("text", MALFORMED_TREES.values(), ids=MALFORMED_TREES.keys())
def test_malformed_tree_files_exit_2(capsys, tmp_path, text):
    path = tmp_path / "tree.yaml"
    path.write_text(text)
    argv = ["check", "--check", "anytime", *COIN, "--tree", str(path), "--kernel", *COIN_KERNELS]
    assert run(capsys, argv) == (cli.EXIT_INPUT, "")


def test_unparsable_posthoc_rule_exits_2(capsys):
    argv = ["check", "--check", "posthoc", *COIN, "--kernel", COIN_KERNELS[1], "--rule", "abc"]
    assert run(capsys, argv) == (cli.EXIT_INPUT, "")


@pytest.mark.parametrize("rule", ["0", "inf"])
def test_posthoc_level_outside_0_and_inf_exits_2(capsys, rule):
    argv = ["check", "--check", "posthoc", *COIN, "--kernel", COIN_KERNELS[1], "--rule", rule]
    code = cli.main([*argv, "--format", "records"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert "outside (0, inf)" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--check", "posthoc", *COIN, "--kernel", COIN_KERNELS[1], "--rule", "1/0"],
        ["mtp", "--golden", "table1", "--alpha", "1/0"],
    ],
    ids=["rule", "alpha"],
)
def test_zero_denominator_exits_2(capsys, argv):
    try:
        code = cli.main([*argv, "--format", "records"])
    except SystemExit as exc:
        code = exc.code
    assert (code, capsys.readouterr().out) == (cli.EXIT_INPUT, "")


DECIDE = [
    "decide", *COIN, "--kernel", COIN_KERNELS[2],
    "--decisions", str(DATA / "decisions_coin.yaml"), "--bound", "probability",
]
NONPOSITIVE_ALPHA = {
    "decide-zero": [*DECIDE, "--alpha", "0"],
    "decide-negative": [*DECIDE, "--alpha", "-1"],
    "mtp-negative": ["mtp", "--golden", "table1", "--alpha", "-1"],
}


@pytest.mark.parametrize("argv", NONPOSITIVE_ALPHA.values(), ids=NONPOSITIVE_ALPHA.keys())
def test_nonpositive_alpha_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--format", "records"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (cli.EXIT_INPUT, "")
    assert "a level must be positive" in captured.err


def test_counts_past_the_int_string_limit_render_exactly(capsys, monkeypatch):
    # A complete ternary tree of depth 10 has more stopping rules than this.
    count = 10 ** 4400 + 7
    digits = "1" + "0" * 4399 + "7"
    assert cli._render(count) == digits
    assert cli._render(XValue(Fraction(count, 3))) == f"{digits}/3"
    monkeypatch.setattr(kn.FiltrationTree, "count_stopping_times", lambda self: count)
    argv = ["check", "--check", "anytime", *COIN, "--tree", str(DATA / "tree_coin.yaml"),
            "--kernel", *COIN_KERNELS]
    assert cli.main(argv) == cli.EXIT_OK
    assert f"stopping rules checked: {digits}\n" in capsys.readouterr().out


def test_unexpected_errors_exit_2_with_one_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(cli, "cmd_space", broken)
    code = cli.main(["space", "--space", str(DATA / "space_gens_ic.yaml")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == "error: unexpected RuntimeError: handler failed\n"


def _records_then_refusal(args):
    out = cli.Printer(args.format)
    out.record("first", n=1)
    out.text("a text line the records format drops")
    out.record("second", n=2)
    raise fileio.SchemaError("in.yaml", "refused after two records")


def test_lines_written_before_an_error_are_printed_in_order(capsys, monkeypatch):
    monkeypatch.setattr(cli, "cmd_space", _records_then_refusal)
    code = cli.main(["space", "--space", "in.yaml", "--format", "records"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "first n=1\nsecond n=2\n")
    assert captured.err == "error: in.yaml: refused after two records\n"


def test_lines_written_before_an_error_come_first_on_a_shared_pipe():
    """stdout and stderr on one pipe, with stdout block-buffered as it is on
    a pipe unless PYTHONUNBUFFERED is set."""
    script = (
        "import sys\n"
        "from emeasure import cli\n"
        "from test_cli import _records_then_refusal\n"
        "cli.cmd_space = _records_then_refusal\n"
        "sys.exit(cli.main(['space', '--space', 'in.yaml', '--format', 'records']))\n"
    )
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(Path(__file__).parent)])
    run = subprocess.run(
        [sys.executable, "-c", script], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, timeout=60, env=env,
    )
    assert (run.returncode, run.stdout) == (
        cli.EXIT_INPUT, "first n=1\nsecond n=2\nerror: in.yaml: refused after two records\n"
    )


class CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def _power_set_validity_argv(directory, n, outcomes=("x", "y")):
    """`check --check validity` of the constant-one kernel on the power set of
    n points, with a uniform distribution over the outcomes at every point."""
    space = helpers.power_space(n)
    points = ", ".join(space.model.points)
    directory.mkdir()
    (directory / "space.yaml").write_text(
        f"points: [{points}]\ngenerators: [{', '.join(f'[{p}]' for p in space.model.points)}]\n"
    )
    masses = ", ".join(f"{x}: 1/{len(outcomes)}" for x in outcomes)
    (directory / "model.yaml").write_text(
        "pmf:\n" + "".join(f"  {p}: {{{masses}}}\n" for p in space.model.points)
    )
    ones = ", ".join(f"{x}: 1" for x in outcomes)
    (directory / "kernel.yaml").write_text("kernel:\n" + "".join(
        f'  "{helpers.member_label(space, hid)}": {{{ones}}}\n'
        for hid in space.family.nonempty_ids()
    ))
    return ["check", "--check", "validity", "--format", "records",
            *(f"--{name}={directory / name}.yaml" for name in ("space", "model", "kernel"))]


def test_a_report_takes_as_many_writes_on_256_members_as_on_16(tmp_path, monkeypatch):
    writes = {}
    for n in (4, 8):
        stdout = CountingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert cli.main(_power_set_validity_argv(tmp_path / str(n), n)) == cli.EXIT_OK
        assert len(stdout.getvalue().splitlines()) == n << (n - 1)  # one record per pair
        writes[n] = stdout.writes
    assert writes[8] == writes[4]


BIG = "7" * 4301  # one digit past what int() reads from text


def _big_number_argv(directory, kind):
    """A run that reads BIG from one input file of the given kind, and that file."""
    space, model = DATA / "space_coin.yaml", DATA / "model_coin.yaml"
    kernel, evidence = COIN_KERNELS[1], DATA / "evidence_ic_function.yaml"
    path = directory / f"{kind}.yaml"
    if kind == "kernel":
        path.write_text(f"kernel:\n  p: {{HH: {BIG}, HT: 1, TH: 1, TT: 1}}\n")
        kernel = path
    elif kind == "evidence":
        path.write_text(f"evidence:\n  a: {BIG}\n")
        evidence = path
    elif kind == "pmf":
        path.write_text(f"pmf:\n  p: {{HH: {BIG}, HT: 0, TH: 0, TT: 0}}\n")
        model = path
    else:
        path.write_text(f"points: [p, q]\npreorder:\n  - [p, {BIG}]\n")
        space = path
    if kind == "evidence":
        argv = ["closure", "--space", str(DATA / "space_gens_ic.yaml"), "--evidence", str(evidence)]
    else:
        argv = ["check", "--check", "validity", "--space", str(space), "--model", str(model),
                "--kernel", str(kernel)]
    return argv, path


@pytest.mark.parametrize("kind", ["kernel", "evidence", "pmf", "preorder"])
def test_a_number_past_4300_digits_is_a_schema_error_naming_its_file(tmp_path, capsys, kind):
    argv, path = _big_number_argv(tmp_path, kind)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == (
        f"error: {path}: value out of range: Exceeds the limit (4300 digits) for integer "
        "string conversion: value has 4301 digits\n"
    )


def test_a_date_that_does_not_exist_is_a_schema_error_naming_its_file(tmp_path, capsys):
    path = tmp_path / "space.yaml"
    path.write_text("points: [p, q]\npreorder:\n  - [p, 2020-13-45]\n")
    code = cli.main(["space", "--space", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: {path}: value out of range: month must be in 1..12\n"


def _counting_walks(monkeypatch):
    """Count the calls of `evidence.table_class`, the one class walk."""
    calls = []
    walk = ev.table_class
    monkeypatch.setattr(ev, "table_class", lambda *args: calls.append(1) or walk(*args))
    return calls


@pytest.mark.parametrize("check, options, walks", [
    ("validity", [], 0),
    ("posthoc", [], 0),
    ("posthoc", ["--rule", "1/2"], 0),
    ("fwe", [], 0),
    ("predictive", [], 0),
    ("fer", [], 1),  # the kernel's class, all outcomes in one walk
])
def test_checks_classify_only_the_columns_they_read(tmp_path, monkeypatch, capsys, check, options, walks):
    """On a 256-member kernel whose outcomes are its 8 points."""
    points = helpers.power_space(8).model.points
    argv = _power_set_validity_argv(tmp_path / "files", 8, outcomes=points)
    argv[argv.index("validity")] = check
    calls = _counting_walks(monkeypatch)
    assert cli.main(argv + options) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) == walks


def _counting_work(monkeypatch):
    """Count the per-outcome tables built, the class computations and the
    tables scaled to integers."""
    counts = {"tables": [], "classes": _counting_walks(monkeypatch), "scaled": []}
    init = ev.EFunction.__init__
    monkeypatch.setattr(
        ev.EFunction, "__init__", lambda self, *args: counts["tables"].append(1) or init(self, *args)
    )
    scale = xvalue.scale
    counting = lambda table: counts["scaled"].append(1) or scale(table)
    monkeypatch.setattr(xvalue, "scale", counting)
    monkeypatch.setattr(kn, "scale", counting)
    return counts


@pytest.mark.parametrize("check, options", [
    ("validity", []),
    ("posthoc", []),
    ("posthoc", ["--rule", "1/2"]),
    ("fer", []),
])
def test_row_checks_build_no_table_and_scale_each_row_once(tmp_path, monkeypatch, capsys, check, options):
    """On a 256-member kernel whose outcomes are its 8 points: no per-outcome
    table is built, no class is computed but FER's one walk for the kernel,
    and besides the 8 distributions and a fixed rule's thresholds, each
    hypothesis's row is scaled once at most."""
    space = helpers.power_space(8)
    argv = _power_set_validity_argv(tmp_path / "files", 8, outcomes=space.model.points)
    argv[argv.index("validity")] = check
    counts = _counting_work(monkeypatch)
    assert cli.main(argv + options) == cli.EXIT_OK
    capsys.readouterr()
    assert (len(counts["tables"]), len(counts["classes"])) == (0, int(check == "fer"))
    assert len(counts["scaled"]) <= len(space.family) + 8 + 1


def _least_point_files(directory, n, seed):
    """Space, model and kernel files of `helpers.least_point_kernel` on the
    power set of n points, three outcomes; the kernel as it loads."""
    r = helpers.rng(seed)
    space = helpers.power_space(n)
    sample = kn.SampleSpace(("x", "y", "z"))
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.least_point_kernel(r, space, sample)
    directory.mkdir()
    for name, text in (("space", helpers.space_yaml(space)), ("model", helpers.model_yaml(pa)),
                       ("kernel", helpers.kernel_yaml(k))):
        (directory / f"{name}.yaml").write_text(text)
    sf = fileio.load_space(directory / "space.yaml")
    loaded_pa = fileio.load_pmfs(directory / "model.yaml", sf.space.model)
    argv = ["check", "--format", "records"]
    for name in ("space", "model", "kernel"):
        argv += [f"--{name}", str(directory / f"{name}.yaml")]
    return argv, fileio.load_kernel(directory / "kernel.yaml", sf, loaded_pa.sample)


def _counting_records(monkeypatch):
    """The statistics `dot_at_most` returns to the kernel checks, and a
    count of `XValue.record` calls."""
    counts = {"stats": [], "records": []}
    dot_at_most, record = kn.dot_at_most, XValue.record

    def counted_dot(*args):
        counts["stats"].append(dot_at_most(*args))
        return counts["stats"][-1]

    monkeypatch.setattr(kn, "dot_at_most", counted_dot)
    monkeypatch.setattr(XValue, "record", lambda self: counts["records"].append(1) or record(self))
    return counts


@pytest.mark.parametrize("options", [["--check", "validity"], ["--check", "posthoc", "--rule", "1/2"]])
def test_pair_records_render_once_per_statistic(tmp_path, monkeypatch, capsys, options):
    """On the 256-member power set with a measure kernel of at most 8
    distinct rows: the records of the 1024 pairs call `XValue.record` at
    most once per distinct statistic object, and the check calls
    `dot_at_most` at most once per distinct (row, point) pair. Every
    infinite statistic is the one `INF` object, so rendering once per
    (row, point) instead renders it many times over, and fails."""
    argv, k = _least_point_files(tmp_path / "files", 8, 1811)
    members = k.space.family.members
    shared = {(id(k.rows[hid]), pi) for hid in range(1, 256) for pi in range(8)
              if members[hid] >> pi & 1}
    counts = _counting_records(monkeypatch)
    assert cli.main(argv + options) in (cli.EXIT_OK, cli.EXIT_VIOLATION)
    assert len(capsys.readouterr().out.splitlines()) >= 1024
    assert len(counts["stats"]) <= len(shared) < 1024
    assert len(counts["records"]) <= len({id(stat) for stat, _ in counts["stats"]}) + 2


def test_one_kernel_scales_each_row_once_across_checks(tmp_path, monkeypatch):
    """Validity, both post-hoc rules and uniform FER on one loaded 256-member
    kernel scale each hypothesis's row once, and the fixed rule's thresholds;
    the kernel's class is one walk, for FER."""
    points = helpers.power_space(8).model.points
    argv = _power_set_validity_argv(tmp_path / "files", 8, outcomes=points)
    files = {arg.split("=")[0]: arg.split("=")[1] for arg in argv if arg.startswith("--") and "=" in arg}
    sf = fileio.load_space(files["--space"])
    pa = fileio.load_pmfs(files["--model"], sf.space.model)
    kernel = fileio.load_kernel(files["--kernel"], sf, pa.sample)
    counts = _counting_work(monkeypatch)
    rule = {x: XValue(Fraction(1, 2)) for x in points}
    reports = [
        kn.check_validity(kernel, pa),
        kn.check_posthoc_validity(kernel, pa, "canonical"),
        kn.check_posthoc_validity(kernel, pa, rule),
        mtp.check_fer(kernel, pa),
    ]
    assert all(report.ok for report in reports)
    assert (len(counts["tables"]), len(counts["classes"])) == (0, 1)
    assert len(counts["scaled"]) <= len(sf.space.family) + 1


def _no_class(*args):
    raise AssertionError("the class was computed")


CLOSURE_CASES = [
    ["closure", "--space", str(DATA / space), "--evidence", str(DATA / evidence)]
    for space, evidence in [
        ("space_gens_ic.yaml", "evidence_ic_capacity.yaml"),
        ("space_gens_ic.yaml", "evidence_ic_function.yaml"),
        ("space_gens_named.yaml", "evidence_named_measure.yaml"),
        ("space_tangled.yaml", "evidence_tangled.yaml"),
    ]
]


@pytest.mark.parametrize("argv", CLOSURE_CASES, ids=lambda argv: Path(argv[-1]).stem)
def test_closure_records_compute_no_class(monkeypatch, capsys, argv):
    argv = argv + ["--format", "records"]
    assert cli.main(argv) == cli.EXIT_OK
    expected = capsys.readouterr()
    monkeypatch.setattr(ev, "table_class", _no_class)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv, error", [
    (["closure", "--space", "space_gens_ic.yaml", "--evidence", "evidence_missing_member.yaml"],
     "evidence_missing_member.yaml: table misses hypotheses: ['a,b,c']"),
    (["closure", "--space", "space_gens_ic.yaml", "--evidence", "evidence_ic_empty_finite.yaml"],
     "evidence_ic_empty_finite.yaml: the empty hypothesis must carry infinite evidence"),
], ids=["missing-member", "empty-finite"])
def test_a_table_is_refused_before_its_class_is_computed(monkeypatch, capsys, argv, error):
    monkeypatch.setattr(ev, "table_class", _no_class)
    argv = [str(DATA / arg) if arg.endswith(".yaml") else arg for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: {DATA / error}\n"


def _power_set_closure_argv(directory, n):
    """`closure --format records` of a capacity on the power set of n points,
    e(H) = n + 1 - |H|, each member keyed by its printed label."""
    space = helpers.power_space(n)
    directory.mkdir()
    (directory / "space.yaml").write_text(
        f"points: [{', '.join(space.model.points)}]\n"
        f"generators: [{', '.join(f'[{p}]' for p in space.model.points)}]\n"
    )
    (directory / "evidence.yaml").write_text("evidence:\n" + "".join(
        f'  "{helpers.member_label(space, hid)}": {n + 1 - m.bit_count()}\n'
        for hid, m in enumerate(space.family.members) if m
    ))
    return ["closure", "--format", "records",
            *(f"--{name}={directory / name}.yaml" for name in ("space", "evidence"))]


def test_a_closure_renders_each_value_object_once_and_walks_no_point_tuple(tmp_path, monkeypatch, capsys):
    """On the 1024-member power set of 10 points: `XValue.record` runs at most
    once per distinct value object, and no member's point indices are listed."""
    rendered, listed = [], []
    record = XValue.record
    monkeypatch.setattr(XValue, "record", lambda self: rendered.append(self) or record(self))
    indices = spaces._indices
    monkeypatch.setattr(spaces, "_indices", lambda bits: listed.append(bits) or indices(bits))
    assert cli.main(_power_set_closure_argv(tmp_path / "files", 10)) == cli.EXIT_OK
    assert capsys.readouterr().out.count("changed=yes") == 1013  # all but the singletons and {}
    assert len(rendered) == len({id(value) for value in rendered}) <= 12
    assert listed == []


def test_printed_labels_resolve_by_lookup_alone(tmp_path, monkeypatch, capsys):
    """On the 1024-member power set of 10 points, whose evidence file keys
    each member by its printed label: no label is split into its points,
    no member is found by its bitset, and no nonempty member's label is
    joined from its points; each is one step from the member less its
    lowest point."""
    argv = _power_set_closure_argv(tmp_path / "files", 10)
    found, joined = [], []
    id_of, label = spaces.HypothesisClass.id_of, spaces.Model.label
    monkeypatch.setattr(spaces.HypothesisClass, "id_of", lambda self, bits: found.append(bits) or id_of(self, bits))
    monkeypatch.setattr(spaces.Model, "label", lambda self, bits: joined.append(bits) or label(self, bits))
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.count("changed=yes") == 1013
    assert (found, [bits for bits in joined if bits]) == ([], [])


class _Touching(tuple):
    """A tuple that counts each item handed out by iteration into `touched`."""

    touched: list = []

    def __iter__(self):
        for item in tuple.__iter__(self):
            self.touched.append(item)
            yield item


def test_least_hypotheses_of_a_chain_touch_at_most_n_generators_per_point(tmp_path, monkeypatch, capsys):
    """A `space` job on a 24-point chain preorder: while its least hypotheses
    are computed, at most n members or generators are visited per point, n²
    in all (the all-members walk visits its n + 1 members for every point)."""
    n = 24
    points = [f"p{i}" for i in range(n)]
    pairs = ", ".join(f"[{a}, {b}]" for i, a in enumerate(points) for b in points[i + 1:])
    path = tmp_path / "chain.yaml"
    path.write_text(f"points: [{', '.join(points)}]\npreorder: [{pairs}]\n")
    touched = []
    monkeypatch.setattr(_Touching, "touched", touched)
    least_ids = spaces.Space.least_ids

    def touching_least_ids(space):
        family = space.family
        saved = dict(vars(family))
        family.members = _Touching(family.members)
        family.generators = _Touching(getattr(family, "generators", ()))
        try:
            return least_ids(space)
        finally:
            vars(family).clear()
            vars(family).update(saved)

    monkeypatch.setattr(spaces.Space, "least_ids", touching_least_ids)
    assert cli.main(["space", "--space", str(path), "--format", "records"]) == cli.EXIT_OK
    assert capsys.readouterr().out.count("least point=") == n
    assert 0 < len(touched) <= n * n


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="input files are read in the locale's encoding",
)
def test_a_file_that_is_not_text_is_a_schema_error_naming_it(tmp_path, capsys):
    path = tmp_path / "space.yaml"
    path.write_bytes(b"points: [caf\xe9]\n")
    code = cli.main(["space", "--space", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err.startswith(f"error: {path}: not text: ")
    assert captured.err.count("\n") == 1


def test_check_has_no_alpha_option(capsys):
    argv = ["check", "--check", "fwe", *COIN, "--kernel", COIN_KERNELS[1], "--alpha", "1/2"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_INPUT
    assert "unrecognized arguments: --alpha" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["validity", "fwe", "fer", "posthoc", "predictive"])
def test_only_anytime_reads_more_than_one_kernel(capsys, check):
    argv = ["check", "--check", check, *COIN, "--kernel", COIN_KERNELS[1], COIN_KERNELS[2]]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: <args>: --check {check} reads one --kernel, got 2\n"


UNREAD_OPTIONS = {
    "validity-rule": (["check", "--check", "validity", "--rule", "1/2"], "rule"),
    "validity-family": (["check", "--check", "validity", "--family", "p"], "family"),
    "validity-tree": (["check", "--check", "validity", "--tree", "tree_coin.yaml"], "tree"),
    "fwe-family": (["check", "--check", "fwe", "--family", "p"], "family"),
    "fer-rule": (["check", "--check", "fer", "--rule", "canonical"], "rule"),
    "posthoc-tree": (["check", "--check", "posthoc", "--tree", "tree_coin.yaml"], "tree"),
    "anytime-family": (["check", "--check", "anytime", "--tree", "tree_coin.yaml", "--family", "p"],
                       "family"),
    "mtp-fwe-family": (["mtp", "--procedure", "fwe", "--family", "p"], "family"),
    "mtp-fwe-evidence": (["mtp", "--procedure", "fwe", "--evidence", "e.yaml"], "evidence"),
    "mtp-fer-alpha": (["mtp", "--procedure", "fer", "--alpha", "1/2"], "alpha"),
    "mtp-ebh-kernel": (["mtp", "--procedure", "ebh", "--evidence", "e.yaml"], "kernel"),
    "mtp-closed-ebh-kernel": (["mtp", "--procedure", "closed-ebh"], "kernel"),
    "mtp-self-consistent-kernel": (["mtp", "--procedure", "self-consistent"], "kernel"),
}


@pytest.mark.parametrize("argv, option", UNREAD_OPTIONS.values(), ids=UNREAD_OPTIONS.keys())
def test_options_the_selected_check_does_not_read_exit_2(capsys, argv, option):
    files = [str(DATA / a) if a.endswith(".yaml") else a for a in argv]
    code = cli.main([*files, *COIN, "--kernel", COIN_KERNELS[1]])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: <args>: {argv[1]} {argv[2]} does not read --{option}\n"


def test_decide_rankings_follow_exact_values_not_names(capsys, tmp_path):
    """1/3 and (10^20 + 1) / (3 * 10^20) round to one float; the rankings
    must still order them by value, against the order of the names."""
    near = "100000000000000000001/300000000000000000000"
    outcomes = ("HH", "HT", "TH", "TT")
    rows = {"p": near, "q": "1/3", "p,q": "1/3"}
    (tmp_path / "kernel.yaml").write_text("kernel:\n" + "".join(
        f'  "{h}": {{{", ".join(f"{x}: {v}" for x in outcomes)}}}\n' for h, v in rows.items()
    ))
    # a is best at p and b at q: e(a's set) = near > e(b's set) = 1/3,
    # and a's integrated loss 1 / e({q}) = 3 exceeds b's 1 / e({p}) < 3
    (tmp_path / "decisions.yaml").write_text(
        "decisions: [a, b]\nloss:\n  p: {a: 0, b: 1}\n  q: {a: 1, b: 0}\n"
    )
    argv = ["decide", *COIN, "--kernel", str(tmp_path / "kernel.yaml"),
            "--decisions", str(tmp_path / "decisions.yaml"), "--outcome", "HT"]
    code, out = run(capsys, argv)
    assert code == cli.EXIT_OK
    ranked = [line for line in out.splitlines() if line.startswith(("eloss", "optimality"))]
    assert ranked == [
        "eloss decision=b value=300000000000000000000/100000000000000000001",
        "eloss decision=a value=3",
        "optimality decision=b value=1/3",
        f"optimality decision=a value={near}",
    ]


def test_decide_optimality_ranking_is_linear_in_the_decisions(tmp_path):
    """Thirty decisions, d0 best at p and d1 at q, the other 28 best nowhere.

    The ranking reads each decision's own set, so the run stays small; a pass
    over the 2^30 sets of decisions exhausts the memory cap or the time limit.
    """
    names = [f"d{i}" for i in range(30)]
    loss = {"p": {"d0": 0, "d1": 1}, "q": {"d0": 1, "d1": 0}}
    (tmp_path / "decisions.yaml").write_text(f"decisions: [{', '.join(names)}]\nloss:\n" + "".join(
        f"  {p}: {{{', '.join(f'{d}: {row.get(d, i + 2)}' for i, d in enumerate(names))}}}\n"
        for p, row in loss.items()
    ))
    argv = ["decide", *COIN, "--kernel", COIN_KERNELS[1], "--decisions",
            str(tmp_path / "decisions.yaml"), "--outcome", "HT", "--format", "records"]
    cap = 512 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    run = subprocess.run(
        [sys.executable, "-m", "emeasure.cli", *argv], capture_output=True, text=True,
        timeout=60, preexec_fn=limit, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert (run.returncode, run.stderr) == (cli.EXIT_OK, "")
    ranked = [line for line in run.stdout.splitlines() if line.startswith("optimality")]
    assert len(ranked) == 30
    assert {line.split()[1] for line in ranked} == {f"decision={d}" for d in names}


def test_decide_optimality_ranking_is_the_pushforward_on_singletons(capsys, tmp_path):
    """On tie-free losses whose decision sets are all members, the linear
    ranking prints the singleton values of the pushforward onto the sets of
    decisions (helpers.evidence_against_optimality), in the same order."""
    r = helpers.rng(211)
    nowhere = 0
    for case in range(24):
        n = r.randint(1, 4)
        model = Model(tuple(f"P{i + 1}" for i in range(n)))
        decisions = tuple(f"d{i}" for i in range(r.randint(1, 4)))
        rows = [r.sample(range(2 * len(decisions)), len(decisions)) for _ in model.points]
        table = ConsequenceTable.numeric(model, decisions, tuple(tuple(map(XValue, row)) for row in rows))
        opt = optimality_class(table)
        induced = helpers.build_consequence_class(table).family.members
        extra = [r.randrange(1 << n) for _ in range(r.randint(0, 2))]
        space = Space(model, union_closure(n, [*induced, *opt.decision_sets.values(), *extra]))
        sample = helpers.rand_sample(r)
        pa = helpers.rand_pa(r, model, sample)
        k = helpers.kernel_of(space, sample, [helpers.rand_capacity(r, space) for _ in sample.outcomes])
        files = {
            "space": helpers.space_yaml(space),
            "model": helpers.model_yaml(pa),
            "kernel": helpers.kernel_yaml(k),
            "decisions": f"decisions: [{', '.join(decisions)}]\nloss:\n" + "".join(
                f"  {p}: {{{', '.join(f'{d}: {v}' for d, v in zip(decisions, row))}}}\n"
                for p, row in zip(model.points, rows)
            ),
        }
        argv = ["decide"]
        for option, text in files.items():
            (tmp_path / f"{option}.yaml").write_text(text)
            argv += [f"--{option}", str(tmp_path / f"{option}.yaml")]
        xi = r.randrange(sample.size)
        code, out = run(capsys, [*argv, "--outcome", sample.outcomes[xi]])
        assert code in (cli.EXIT_OK, cli.EXIT_VIOLATION)
        pushed, _ = helpers.evidence_against_optimality(k, table)
        singles = sorted(
            (helpers.kernel_value(pushed, pushed.space.family.id_of(1 << di), xi), d)
            for di, d in enumerate(decisions)
        )
        assert [line for line in out.splitlines() if line.startswith("optimality ")] == [
            f"optimality decision={d} value={v.record()}" for v, d in singles
        ]
        nowhere += any(not s for s in opt.decision_sets.values())
    assert nowhere


GOLDEN_UNREAD = {
    "procedure": "ebh", "space": "s.yaml", "evidence": "e.yaml", "kernel": "k.yaml",
    "model": "m.yaml", "family": "x",
}


@pytest.mark.parametrize("option, value", GOLDEN_UNREAD.items(), ids=GOLDEN_UNREAD.keys())
def test_mtp_golden_reads_only_alpha(capsys, option, value):
    code = cli.main(["mtp", "--golden", "table1", "--alpha", "1/2", f"--{option}", value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: <args>: --golden does not read --{option}\n"


def test_mtp_alpha_defaults_to_one_twentieth_where_it_is_read(capsys):
    golden = run(capsys, ["mtp", "--golden", "table1"])
    assert golden == run(capsys, ["mtp", "--golden", "table1", "--alpha", "1/20"])
    assert "golden matched=44 total=44" in golden[1]
    selection = ["mtp", "--procedure", "ebh", "--space", str(DATA / "space_gens_ic.yaml"),
                 "--evidence", str(DATA / "evidence_ic_large.yaml"), "--family", "a|c|a,b|c,d"]
    assert run(capsys, selection) == run(capsys, [*selection, "--alpha", "1/20"])
    assert run(capsys, selection) != run(capsys, [*selection, "--alpha", "1/10"])


def test_mtp_golden_at_a_level_past_4300_digits_renders_it_exactly(capsys):
    argv = ["mtp", "--golden", "table1", "--alpha", "1e-5000"]
    code, records = run(capsys, argv)
    assert code == cli.EXIT_OK and records.startswith("table row=")
    assert cli.main(argv) == cli.EXIT_OK
    level = "1/1" + "0" * 5000
    assert capsys.readouterr().out.startswith(
        f"built-in three-circle family (recomputed at alpha={level}; not the golden level)\n"
    )


def test_mtp_golden_reports_each_mismatched_cell(capsys, monkeypatch):
    """An expected table off in one evidence cell and one share: 43/44 cells
    match, and each differing cell gets a MISMATCH line and a record."""
    expected = golden.expected_reference_table()
    altered = golden.ReferenceTable(
        alpha=expected.alpha,
        rows=expected.rows,
        base={**expected.base, "H_C": XValue(6)},
        inflated=expected.inflated,
        fsp={**expected.fsp, "H_1": Fraction(1, 2)},
        stepup=expected.stepup,
        closed_stepup=expected.closed_stepup,
    )
    monkeypatch.setattr(golden, "expected_reference_table", lambda: altered)
    code, records = run(capsys, ["mtp", "--golden", "table1"])
    assert code == cli.EXIT_VIOLATION
    assert records.splitlines()[-3:] == [
        "golden matched=43 total=44 fsp_diffs=1",
        "mismatch row=H_C column=base computed=5 expected=6",
        "mismatch row=H_1 column=fsp computed=1/3 expected=1/2",
    ]
    assert cli.main(["mtp", "--golden", "table1"]) == cli.EXIT_VIOLATION
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "golden diff: 43/44 evidence cells match",
        "  MISMATCH H_C.base: computed 5, expected 6",
        "  MISMATCH H_1.fsp: computed 1/3, expected 1/2",
    ]


def test_decide_alpha_defaults_to_one_twentieth_for_the_probability_bound(capsys, tmp_path):
    """Evidence exactly 20 at HH misses at level 1/20 and at 1/19, not at 1/21."""
    kernel = tmp_path / "kernel.yaml"
    kernel.write_text("kernel:\n" + "".join(
        f'  "{h}": {{HH: 20, HT: 0, TH: 0, TT: 0}}\n' for h in ("p", "q", "p,q")
    ))
    argv = [*DECIDE[:6], str(kernel), *DECIDE[7:]]
    default = run(capsys, argv)
    assert default == run(capsys, [*argv, "--alpha", "1/20"])
    assert "bound benchmark=p point=p stat=5 ok=no" in default[1]
    assert default != run(capsys, [*argv, "--alpha", "1/19"])
    assert default != run(capsys, [*argv, "--alpha", "1/21"])


def outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SPACE_ARGS = ["--space", str(DATA / "space_coin.yaml")]
PARSER_ARGV = {
    "bare": [],
    "help": ["-h"],
    "typo": ["chek", "--space", "x.yaml"],
    "option-first": ["--format", "records", "space", *SPACE_ARGS],
    "space": ["space", *SPACE_ARGS],
    "space-help": ["space", "--help"],
    "space-missing": ["space"],
    "space-unknown-option": ["space", *SPACE_ARGS, "--alpha", "1/2"],
    "space-extra-positional": ["space", *SPACE_ARGS, "extra"],
    "closure-help": ["closure", "-h"],
    "closure-missing": ["closure", *SPACE_ARGS],
    "check-help": ["check", "-h"],
    "check-bad-choice": ["check", "--check", "valid", *COIN, "--kernel", COIN_KERNELS[1]],
    "check-bad-format": ["check", *COIN, "--kernel", COIN_KERNELS[1], "--format", "json"],
    "check-unknown-option": ["check", *COIN, "--kernel", COIN_KERNELS[1], "--alpha", "1/2"],
    "check": ["check", *COIN, "--kernel", COIN_KERNELS[1]],
    "mtp-help": ["mtp", "-h"],
    "mtp-bad-procedure": ["mtp", "--procedure", "bh"],
    "mtp-bad-alpha": ["mtp", "--golden", "table1", "--alpha", "0"],
    "mtp-golden": ["mtp", "--golden", "table1"],
    "decide-help": ["decide", "-h"],
    "decide-missing": ["decide", *COIN],
    "decide-bad-bound": DECIDE[:-1] + ["chernoff"],
}


@pytest.mark.parametrize("argv", PARSER_ARGV.values(), ids=PARSER_ARGV.keys())
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, monkeypatch, argv):
    """Same exit code, stdout and stderr as with all five subcommands built."""
    lean = outcome(capsys, argv)
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert lean == outcome(capsys, argv)


@pytest.mark.parametrize("argv", PARSER_ARGV.values(), ids=PARSER_ARGV.keys())
def test_argparse_alone_gives_the_same_outcome(capsys, monkeypatch, argv):
    """Same exit code, stdout and stderr with the reader declining every argv."""
    read = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert read == outcome(capsys, argv)


def test_only_a_declined_argv_builds_a_parser_and_only_of_its_subcommand(capsys, monkeypatch):
    """A well-formed argv builds no argparse parser. One the reader declines
    builds its subcommand's parser, or all five for a typo. The handler that
    runs is the module's current `cmd_*` either way."""
    built = []

    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    ran = []
    monkeypatch.setattr(cli, "cmd_space", lambda args: ran.append(args.space) or 7)
    assert cli.main(["space", *SPACE_ARGS]) == 7
    assert built == []
    assert outcome(capsys, ["space", "--spa", "x.yaml"])[0] == 7  # an abbreviation
    assert built == ["emeasure", "emeasure space"]
    assert ran == [SPACE_ARGS[1], "x.yaml"]
    built.clear()
    assert outcome(capsys, ["chek"])[0] == cli.EXIT_INPUT
    assert built == ["emeasure", *(f"emeasure {name}" for name in cli._OPTIONS)]
    others = ("close an evidence table", "multiplicity procedures")
    assert not any(text in cli.build_parser("space").format_help() for text in others)
    assert all(text in cli.build_parser("chek").format_help() for text in others)


# Values for options without choices or a type: file names, labels, the
# empty string, and words argparse reads as options or negative numbers.
PLAIN_VALUES = ("in.yaml", "p|q", "", "-1", "-x.yaml", "--space", "1/2", "a b")
LEVELS = ("1/3", "2", "0", "-1", "x", "1/0", "1e-3")


def _random_value(rng, option):
    if option.choices is not None:
        return rng.choice(option.choices) if rng.random() < 0.8 else rng.choice(("nope", ""))
    if option.type is not None:
        return rng.choice(LEVELS)
    return rng.choice(PLAIN_VALUES) if rng.random() < 0.3 else "in.yaml"


def _random_option(rng, option) -> list[str]:
    """One option and its values, in the exact form or, at times, abbreviated
    or written `--name=value`, or with no value."""
    values = [_random_value(rng, option) for _ in range(rng.randint(1, 3) if option.nargs else 1)]
    roll = rng.random()
    if roll < 0.06:
        return [f"--{option.name}={values[0]}"]
    if roll < 0.12:
        return ["--" + option.name[: rng.randint(1, len(option.name) - 1)], *values]
    if roll < 0.15:
        return ["--" + option.name]
    return ["--" + option.name, *values]


def _random_argv(rng) -> list[str]:
    """A command line built from one subcommand's row of the option table,
    often well formed, otherwise with one or more faults of the kinds argparse
    refuses or reads in forms the reader declines."""
    command = rng.choice(list(cli._OPTIONS))
    options = cli._OPTIONS[command]
    groups = [
        _random_option(rng, option)
        for option in options
        if rng.random() < (0.95 if option.required else 0.4)
    ]
    if rng.random() < 0.15:  # a repeat: the last one wins
        groups.append(_random_option(rng, rng.choice(options)))
    rng.shuffle(groups)
    argv = [command, *(word for group in groups for word in group)]
    roll = rng.random()
    if roll < 0.04:
        argv.insert(rng.randint(0, len(argv)), rng.choice(("-h", "--help")))
    elif roll < 0.07:
        argv.insert(rng.randint(1, len(argv)), rng.choice(("--nope", "extra", "--")))
    elif roll < 0.09 and groups:  # an option before the subcommand
        argv = [*groups[0], command, *argv[1 + len(groups[0]):]]
    elif roll < 0.10:
        argv[0] = command[:-1]
    return argv


def _argparse_namespace(argv):
    """What argparse returns for `argv`, or None where it exits: help or a refusal."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.build_parser(argv[0] if argv else None).parse_args(argv)
        except SystemExit:
            return None


def test_the_reader_returns_what_argparse_returns_or_declines():
    """On seeded command lines from every subcommand's options, whatever the
    reader accepts parses to argparse's namespace, and every argv argparse
    refuses or answers with help, the reader declines."""
    rng = random.Random("argv")
    tally = {"read": 0, "argparse only": 0, "refused": 0}
    for _ in range(1500):
        argv = _random_argv(rng)
        ours, reference = cli._read_argv(argv), _argparse_namespace(argv)
        if reference is None:
            assert ours is None, argv
            tally["refused"] += 1
        elif ours is None:
            tally["argparse only"] += 1
        else:
            assert vars(ours) == vars(reference), argv
            tally["read"] += 1
    assert min(tally.values()) > 150, tally
