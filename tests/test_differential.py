"""The comparison core of tools/differential.py, on in-process stubs, and
the independence of its draw families."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

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
    argv_jobs, per_case = differential.KINDS["argv"]
    full = argv_jobs("argv", None, [11], per_case)
    monkeypatch.setattr(differential, "_corpus_argv", lambda: corpus[:-1])
    shorter = argv_jobs("argv", None, [11], per_case)
    last = [job for job in full if job.name.startswith(f"argv:{corpus[-1][0]}/")]
    assert [job for job in full if job not in last] == shorter
    assert [job.name for job in last] == [f"argv:{corpus[-1][0]}/{k}" for k in range(per_case)]
    assert len({job.name for job in full}) == len(full) == len(corpus) * per_case


# Inputs of each kind a family edits: enough that each family edits one at
# seed 11, and that a `shared` redraw carries an `uneven` edit (check/49).
COUNT = 70


def _draw(kinds, root):
    """The jobs of `kinds`, COUNT inputs each drawn at seed 11 into `root`,
    with paths relative to it, and the bytes of every file they wrote."""
    root.mkdir()
    jobs = [job for kind in kinds for job in differential.KINDS[kind][0](kind, root, [11], COUNT)]

    def relative(path):
        return path.replace(f"{root}/", "")

    jobs = [
        differential.Job(job.name, tuple(map(relative, job.argv)), tuple((f, relative(p)) for f, p in job.edits))
        for job in jobs
    ]
    return jobs, {str(path.relative_to(root)): path.read_bytes() for path in root.rglob("*.yaml")}


@pytest.fixture(scope="module")
def as_is(tmp_path_factory):
    kinds = [kind for kind in differential.KINDS if any(kind in f.jobs for f in differential.FAMILIES)]
    return _draw(kinds, tmp_path_factory.mktemp("as-is") / "in")


def _labels(job):
    return {label for label, _ in job.edits}


@pytest.mark.parametrize("family", differential.FAMILIES, ids=lambda family: family.name)
def test_a_family_at_rate_0_changes_only_the_files_it_edited(family, as_is, tmp_path, monkeypatch):
    """Each family draws from its own rng, so with its rate set to 0 its job
    kinds draw the same jobs, and the files that differ are the ones it
    edited: all of those it alone edited, and some of those another family
    edited after it, which may undo its edit. That holds for the `shared`
    redraw too: the file edits inside it draw from rngs of their own, and
    it rolls no input family again."""
    zeroed = [dataclasses.replace(f, rate=0) if f is family else f for f in differential.FAMILIES]
    monkeypatch.setattr(differential, "FAMILIES", tuple(zeroed))
    off, off_files = _draw([kind for kind in differential.KINDS if kind in family.jobs], tmp_path / "in")
    base = [job for job in as_is[0] if job.name.partition("/")[0] in family.jobs]
    base_files = {path: data for path, data in as_is[1].items() if path.partition("-")[0] in family.jobs}
    labels = {f"{kind}-{family.name}" for kind in family.jobs}
    edits = {}
    for job in base:
        for label, path in job.edits:
            edits.setdefault(path, set()).add(label)
    mine = {path for path, by in edits.items() if by & labels}
    alone = {path for path, by in edits.items() if by <= labels}
    changed = {path for path in base_files if base_files[path] != off_files[path]}
    assert alone and set(off_files) == set(base_files)
    assert alone <= changed <= mine
    assert [job.name for job in off] == [job.name for job in base]
    kept = [i for i, job in enumerate(base) if not labels & _labels(job)]
    assert [off[i].argv for i in kept] == [base[i].argv for i in kept]
