"""The command line end to end: exit codes, records and text output on a fixed corpus."""

import codecs
import dataclasses
import io
import locale
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import yaml

import helpers
from emeasure import XValue, cli, fileio, golden
from emeasure import evidence as ev
from emeasure import kernels as kn

DATA = Path(__file__).parent / "data"
SRC = Path(cli.__file__).parents[1]
CASES = yaml.safe_load((DATA / "cli_cases.yaml").read_text())


def run(capsys, argv):
    code = cli.main([*argv, "--format", "records"])
    return code, capsys.readouterr().out


TEXT_CASES = [c for c in CASES if "text" in c]


def corpus_argv(case):
    return [str(DATA / a) if a.endswith(".yaml") else a for a in case["argv"]]


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_corpus_exit_codes_and_records(capsys, case):
    assert run(capsys, corpus_argv(case)) == (case["exit"], case["records"])


@pytest.mark.parametrize("case", TEXT_CASES, ids=[c["name"] for c in TEXT_CASES])
def test_corpus_text_output(capsys, case):
    code = cli.main(corpus_argv(case))
    assert (code, capsys.readouterr().out) == (case["exit"], case["text"])


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


def _counting_strength(monkeypatch):
    """Count the calls of `evidence._strength`, the class computation."""
    calls = []
    strength = ev._strength
    monkeypatch.setattr(ev, "_strength", lambda space, values: calls.append(1) or strength(space, values))
    return calls


@pytest.mark.parametrize("check, options, most", [
    ("validity", [], 0),
    ("posthoc", [], 0),
    ("posthoc", ["--rule", "1/2"], 0),
    ("fwe", [], 0),
    ("predictive", [], 0),
    ("fer", [], 8),  # at most once per outcome's column
])
def test_checks_classify_only_the_columns_they_read(tmp_path, monkeypatch, capsys, check, options, most):
    """On a 256-member kernel whose outcomes are its 8 points."""
    points = helpers.power_space(8).model.points
    argv = _power_set_validity_argv(tmp_path / "files", 8, outcomes=points)
    argv[argv.index("validity")] = check
    calls = _counting_strength(monkeypatch)
    assert cli.main(argv + options) == cli.EXIT_OK
    capsys.readouterr()
    assert len(calls) <= most


def _no_class(space, values):
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
    monkeypatch.setattr(ev, "_strength", _no_class)
    assert cli.main(argv) == cli.EXIT_OK
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("argv, error", [
    (["closure", "--space", "space_gens_ic.yaml", "--evidence", "evidence_missing_member.yaml"],
     "evidence_missing_member.yaml: table misses hypothesis ids [6]"),
    (["closure", "--space", "space_gens_ic.yaml", "--evidence", "evidence_ic_empty_finite.yaml"],
     "evidence_ic_empty_finite.yaml: the empty hypothesis must carry infinite evidence"),
], ids=["missing-member", "empty-finite"])
def test_a_table_is_refused_before_its_class_is_computed(monkeypatch, capsys, argv, error):
    monkeypatch.setattr(ev, "_strength", _no_class)
    argv = [str(DATA / arg) if arg.endswith(".yaml") else arg for arg in argv]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (cli.EXIT_INPUT, "")
    assert captured.err == f"error: {DATA / error}\n"


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


def test_mtp_golden_reports_each_mismatched_cell(capsys, monkeypatch):
    """An expected table off in one evidence cell and one share: 43/44 cells
    match, and each differing cell gets a MISMATCH line and a record."""
    expected = golden.expected_reference_table()
    altered = dataclasses.replace(
        expected,
        base={**expected.base, "H_C": XValue(6)},
        fsp={**expected.fsp, "H_1": Fraction(1, 2)},
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


def test_each_run_builds_its_own_parser_of_its_subcommand(capsys, monkeypatch):
    built = []
    build = cli.build_parser

    def counting(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "build_parser", counting)
    for argv in (["space", *SPACE_ARGS], ["space", *SPACE_ARGS], ["chek"]):
        outcome(capsys, argv)
    assert built == ["space", "space", "chek"]
    others = ("close an evidence table", "multiplicity procedures")
    assert not any(text in build("space").format_help() for text in others)
    assert all(text in build("chek").format_help() for text in others)
