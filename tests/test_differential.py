"""The comparison core of tools/differential.py, on in-process stubs."""

import importlib.util
import sys
from pathlib import Path

from emeasure import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "differential.py"
_spec = importlib.util.spec_from_file_location("differential", TOOL)
differential = sys.modules["differential"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(differential)

JOBS = [differential.Job(f"job{i}", ("check", f"in{i}.yaml")) for i in range(5)]


def stub(argv):
    return 0, f"value file={argv[1]} stat=1/2\n", ""


def stub_changing_one_value(argv):
    code, out, err = stub(argv)
    return code, out.replace("1/2", "2/3") if argv[1] == "in3.yaml" else out, err


def test_equal_sides_run_every_job():
    outcome = differential.compare(JOBS, stub, stub)
    assert (outcome.jobs, outcome.expected, outcome.first) == (5, frozenset(), None)


def test_one_changed_value_is_the_first_difference_with_its_argv_and_diff():
    outcome = differential.compare(JOBS, stub, stub_changing_one_value)
    assert outcome.jobs == 4 and outcome.first.job == JOBS[3]
    text = outcome.first.describe().splitlines()
    assert text[:2] == ["difference in job3", "argv: check in3.yaml"]
    assert "-value file=in3.yaml stat=1/2" in text and "+value file=in3.yaml stat=2/3" in text
    assert not any(line.startswith("exit code") for line in text)


def test_an_expected_difference_is_listed_and_the_run_goes_on():
    outcome = differential.compare(JOBS, stub, stub_changing_one_value, expected=["job3"])
    assert (outcome.jobs, outcome.expected, outcome.first) == (5, frozenset({"job3"}), None)


def test_a_changed_exit_code_alone_is_a_difference():
    outcome = differential.compare(JOBS, stub, lambda argv: (1, *stub(argv)[1:]))
    assert outcome.first.job == JOBS[0]
    assert "exit code: 0 -> 1" in outcome.first.describe()


def test_a_side_runs_the_cli_as_in_process(capsys):
    argv = ("mtp", "--golden", "table1", "--format", "records")
    code = cli.main(list(argv))
    expected = (code, capsys.readouterr().out, "")
    side = differential.Side(Path(cli.__file__).parents[1], Path(__file__).parent)
    try:
        assert side(argv) == expected
        assert side(("mtp", "--nonsense"))[0] == 2
    finally:
        side.close()


def test_appending_a_corpus_case_adds_its_argv_jobs_and_changes_no_other(monkeypatch):
    """Each `argv:CASE/K` job is drawn from its own case's rng and the repeat
    values of the cases up to it, so the jobs without the last case are the
    full list less that case's jobs, with the same names and argvs."""
    corpus = differential._corpus_argv()
    full = differential.argv_jobs(11, differential.ARGV_PER_CASE)
    monkeypatch.setattr(differential, "_corpus_argv", lambda: corpus[:-1])
    shorter = differential.argv_jobs(11, differential.ARGV_PER_CASE)
    last = [job for job in full if job.name.startswith(f"argv:{corpus[-1][0]}/")]
    assert [job for job in full if job not in last] == shorter
    assert [job.name for job in last] == [
        f"argv:{corpus[-1][0]}/{k}" for k in range(differential.ARGV_PER_CASE)
    ]
    assert len({job.name for job in full}) == len(full) == len(corpus) * differential.ARGV_PER_CASE
