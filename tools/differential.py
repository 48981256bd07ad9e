"""Differential of the `emeasure` command line between a git revision and this tree.

    python3 tools/differential.py REV [--seeds 11 23] [--cycles 2] [--expect NAME ...]

The sources of REV are exported with `git archive` into a temporary
directory. Each side runs in its own interpreter, which imports that side's
`src/emeasure` and runs `emeasure.cli.main` on one argv at a time. Both
sides get the same inputs:

- every case of this tree's `tests/data/cli_cases.yaml`, in the records and
  in the text format (named `corpus:NAME`);
- the jobs that perfbench's generators write for every workload, for each
  seed and the first cycles, imported from `perfbench/` without changing it
  (named `WORKLOAD/SEED/JOB`);
- 720 seeded random `decide` inputs, in the records and in the text
  format: spaces, models, kernels and decision problems with every
  `--bound`, with and without `--outcome`. A quarter have four to six
  points and numeric losses from a wide range, so their consequence orders
  have up to 24 distinct values. One in ten names its outcomes from
  `TYPED_OUTCOMES` and ranks at one of them with `--outcome`, so a fault in
  typing keys shows in a ranking, not only in a refusal. The records hold
  every `bound` entry (named `decide/N`);
- `decide` on the 24-point prefix chain with 12, 48 and 96 decisions and
  all losses distinct (24·D consequences), with every `--bound`, with and
  without `--outcome`, in both formats (named `chain/D`);
- 360 seeded random `check` inputs, in the records and in the text format,
  run with `--check` validity, posthoc (canonical and at a fixed level),
  fwe and fer (with and without `--family`). Their kernels, as the
  `decide` inputs' are, are measures (pointwise minimums of per-point
  weights, valid three times in ten), convex mixtures of two such kernels
  (capacities, often not measures, which reach `--check fer`) or arbitrary
  tables, one time in five each of the last two. The records hold every
  (member, point) pair's statistic, so rows shared by several members,
  violations and both post-hoc rules are compared entry by entry, and so
  are the FWE statistics. Their kernel rows list the outcomes in order or
  shuffled, or, one input in 35 each, drop an outcome, add an unknown one,
  or give the empty member a finite value, so both ways of reading a row
  and the order of their errors are compared, and at seed 11 and 23 at
  least four in five inputs of each `--check` reach the check. A third of the rows name their member with its points
  reordered or ', '-spaced, and a third of the kernels repeat a few row
  texts over all their rows. A third of the cells are spelled otherwise
  than the package prints them: unreduced (`6/4`, `0/7`), with leading
  zeros (`08`, `007`, `3/04`), with a '_' between digits (`1_000`), as
  decimals (`0.25`, `3.0`), with an exponent (`25e-2`, `2.5E-1`), led by
  a `+` and inf as `inf` or `.inf`; one in 300 is refused as it is read,
  with a numerator past 4300 digits (alone or as `p/3`) or a zero
  denominator (`2/0`), and one in 300 is unreduced to more than 1000
  digits, which sends its file to PyYAML.
  Their model rows are written as perfbench writes them, with the
  outcomes shuffled in each row, with quoted point keys, or with the
  masses spelled as the kernel cells are; one model in 100 has a row with
  a negative mass, an inf mass or an unknown outcome (inputs 50, 150 and
  250). One input in ten names its outcomes with YAML 1.1 words (`yes`,
  `off`, `~`) and with labels led by a sign, a '.' or a digit (`010`,
  `1.5`, `1st`, `-x`), which the reader hands to PyYAML's safe resolver,
  as the row reader's keys and the general reader's alike (named
  `check/N`);
- 120 seeded random `check --check anytime` inputs, in the records and in
  the text format: a random space, a random tree of depth one to three
  whose two to eight leaves are the outcomes, and one kernel per step,
  constant on each atom of its step, so most inputs reach the check. Half
  the processes are likelihood-ratio martingales, valid where no step
  kernel shares rows (`_kernel_text`), a quarter scale one step by 3/2 and
  a quarter take any values. In a third of the inputs every nonempty
  member takes the step rows of one of two members at every step, so the
  check's shared slots, and witnesses taken from them, are compared too.
  One input in ten redraws one value inside an atom, which the check
  refuses. One input in ten takes its outcome labels from
  `TYPED_OUTCOMES`, in the tree's leaves too. Their model rows are written
  in one of `MODEL_FORMS`, a quarter with the outcomes shuffled in each
  row, which the check reads in the tree's leaf order (named
  `anytime/N`);
- 120 seeded random `check --check predictive` inputs, in both formats: a
  power set or chain space on two to four points, which is
  intersection-closed, whose points are the outcomes, with kernels and
  kernel rows as the `check` inputs make them and model rows in one of
  `MODEL_FORMS`, a quarter shuffled, which the check reads in the space's
  point order (named `predictive/N`);
- 240 seeded random `space` inputs, in the records and in the text format.
  Half the spaces are written as `_random_space` writes them, on two to six
  points; the other half list redundant generators: the join-irreducible
  members shuffled with a duplicate, unions of others and at times the
  empty set, each with its points in random order (named `space/N`);
- 240 seeded random `closure` inputs over such spaces, in both formats,
  with a function, capacity or measure table whose values come from a
  pool of a few, so ties are common and 0 and inf occur. Keys and cells
  are spelled as the `check` inputs spell them; one input in eight names one member
  twice in two spellings, one in eight leaves a nonempty member out, and
  one in twenty gives the empty member a finite value (named `closure/N`);
- 120 seeded random `closure` and `check` inputs, in both formats, whose
  evidence or kernel rows are keyed by the quoted printed labels of the
  nonempty members in id order, as the command line lists them, over
  spaces written as they come, with their generators declared by name
  (at times a name that is another member's printed label) or with a
  point named `empty`; one in six swaps two rows, so the row reader's
  positional placement and its lookup are both compared (named
  `printed/N`);
- 120 seeded levels, in the records and in the text format, each given
  as `--alpha` to `mtp --golden table1`, `mtp --procedure ebh` or `decide
  --bound probability`, or as `--rule` to `check --check posthoc`, on
  files of `tests/data`. Three in four are random rationals spelled as the
  cells are; the rest are drawn from `LEVEL_TEXTS`: signs, '_', non-ASCII
  digits, spaces, small exponents and texts that no reader takes (named
  `level/N`);
- five seeded mutations of each corpus command line, which argparse reads
  or refuses where the command line is not of the one exact form: an option
  written `--name=value` or abbreviated, an option repeated with another
  value, `-h` or `--help` at any position, an option dropped, a bad choice,
  and an option moved before the subcommand (named `argv:CASE/K`, K from
  0). Each case draws from an rng seeded with its name, and a repeated
  option takes a value from the cases up to that one, so appending a
  corpus case adds its five jobs and leaves every other job unchanged.

`KINDS` lists these kinds, and `FAMILIES` the edits drawn apart on the
`check`, `anytime` and `predictive` inputs.

A job agrees when its exit code, stdout and stderr are equal on both sides.
The script prints how many jobs ran and, per family, how many inputs it
edited and this tree's exit codes on their jobs. The first difference that
no `--expect NAME` names is printed with its argv and a diff, and the exit
status is 1. Otherwise it prints which expected differences occurred, and
exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import difflib
import io
import json
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "perfbench"))
import oracles as orc  # noqa: E402  perfbench's oracles and generators, from this tree
import workloads as w  # noqa: E402
CHAIN_DECISIONS = (12, 48, 96)  # decisions D on the prefix chain

# What one run of an argv gives: exit code, stdout and stderr.
Result = tuple[object, str, str]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    edits: tuple[tuple[str, str], ...] = ()  # (family, file) of each edit its inputs carry


@dataclass(frozen=True)
class Difference:
    job: Job
    base: Result
    change: Result

    def describe(self) -> str:
        """The job's name and argv, then what differs, as a unified diff."""
        lines = [f"difference in {self.job.name}", "argv: " + " ".join(self.job.argv)]
        if self.base[0] != self.change[0]:
            lines.append(f"exit code: {self.base[0]!r} -> {self.change[0]!r}")
        for stream, a, b in (("stdout", self.base[1], self.change[1]), ("stderr", self.base[2], self.change[2])):
            lines += difflib.unified_diff(
                a.splitlines(), b.splitlines(), f"base {stream}", f"change {stream}", lineterm=""
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Outcome:
    jobs: int  # jobs run on both sides
    expected: frozenset[str]  # names that differed as expected
    first: Optional[Difference]  # the first unexpected difference, which ends the run


def compare(
    jobs: Iterable[Job],
    base: Callable[[tuple[str, ...]], Result],
    change: Callable[[tuple[str, ...]], Result],
    expected: Iterable[str] = (),
) -> Outcome:
    """Run each job on both sides until the first difference not in `expected`."""
    expected = frozenset(expected)
    seen = set()
    count = 0
    for job in jobs:
        a, b = base(job.argv), change(job.argv)
        count += 1
        if a == b:
            continue
        if job.name not in expected:
            return Outcome(count, frozenset(seen), Difference(job, a, b))
        seen.add(job.name)
    return Outcome(count, frozenset(seen), None)


# -- the two sides ---------------------------------------------------------


def serve(src: str) -> None:
    """Run argvs read as JSON lines from stdin with the `emeasure` under
    `src`, and write each result as one JSON line."""
    sys.path.insert(0, src)
    from emeasure import cli

    channel = sys.stdout
    for line in sys.stdin:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(json.loads(line))
            except SystemExit as exc:  # argparse refusing an argv
                code = exc.code
            except Exception as exc:  # reported as the job's result
                code = f"raised {type(exc).__name__}: {exc}"
        channel.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\n")
        channel.flush()


class Side:
    """One tree's `emeasure` in its own interpreter; calling it runs one argv."""

    def __init__(self, src: Path, cwd: Path):
        self.process = subprocess.Popen(
            [sys.executable, __file__, "--serve", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=cwd,
        )

    def __call__(self, argv: tuple[str, ...]) -> Result:
        self.process.stdin.write(json.dumps(list(argv)) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"the worker for {argv} exited with {self.process.wait()}")
        return tuple(json.loads(line))

    def close(self) -> None:
        self.process.stdin.close()
        self.process.stdout.close()
        self.process.wait()


def export(rev: str, into: Path) -> Path:
    """The `src` tree of `rev`, written under `into`; returns its path."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):  # Python 3.10.12, 3.11.4 and later
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src"


# -- the inputs ----------------------------------------------------------------


def _formats(name: str, argv: Iterable[str], edits: tuple = ()) -> list[Job]:
    """The records job and the text job of `argv`."""
    argv = tuple(argv)
    return [Job(name, argv + ("--format", "records"), edits), Job(name, argv, edits)]


def _write(prefix: str, files: dict, edit: Optional[Callable] = None) -> list[str]:
    """Write `files`, a text or a list of texts by kind, to PREFIX_KIND.yaml
    (PREFIX_KINDi.yaml for the i-th of a list), each as `edit(kind, path,
    text)` gives it, and return the `--kind path ...` words."""
    words = []
    for kind, texts in files.items():
        words.append(f"--{kind}")
        for suffix, text in enumerate(texts) if isinstance(texts, list) else [("", texts)]:
            path = f"{prefix}_{kind}{suffix}.yaml"
            Path(path).write_text(text if edit is None else edit(kind, path, text))
            words.append(path)
    return words


@dataclass(frozen=True)
class Family:
    """Edits of some job kinds' inputs, drawn at `rate` from the family's
    own rng. Without `when`, each file of a kind in `files` rolls as it is
    written and `edit(rng, text)` gives its text; with `when`, an input
    rolls once drawn where `when(draw, argv)` holds, and `edit(draw,
    family, argv)` gives its argv."""

    name: str
    jobs: tuple[str, ...]  # the job kinds whose inputs it edits
    files: tuple[str, ...]  # the file kinds it edits
    rate: float
    edit: Callable
    when: Optional[Callable] = None


class Draw:
    """The generator of a job kind whose inputs `make(draw, n)` draws one by
    one from the first seed, input n's files named `letter` + n in four
    digits. It draws from the kind's own rng, labelled `KIND/SEED`, and
    edits with one rng per family of `FAMILIES` that edits the kind,
    labelled `KIND-FAMILY/SEED`, so that no family moves another's draws.
    The file families' edits inside a `shared` redraw have rngs of their
    own, labelled `KIND-shared-FAMILY/SEED` (`redrawn`)."""

    def __init__(self, letter: str, make: Callable):
        self.letter, self.make = letter, make

    def __call__(self, kind: str, inputs: Path, seeds: list[int], count: int) -> list[Job]:
        (inputs / f"{kind}-{seeds[0]}").mkdir()
        self.stem = str(inputs / f"{kind}-{seeds[0]}" / self.letter)
        self.rng = random.Random(f"{kind}/{seeds[0]}")
        self.families = {f: random.Random(f"{kind}-{f.name}/{seeds[0]}") for f in FAMILIES if kind in f.jobs}
        self.redrawn = {
            f: random.Random(f"{kind}-shared-{f.name}/{seeds[0]}") for f in self.families if not f.when
        }
        jobs = []
        for n in range(count):
            argv = self.input(self.make, n)
            edits = tuple((f"{kind}-{f.name}", path) for path, fs in self.edits.items() for f in fs)
            jobs += _formats(f"{kind}/{n}", argv, edits)
        return jobs

    def input(self, make: Callable, n: int) -> list[str]:
        """The argv of input `n` as `make(draw, n)` draws it and each input
        family edits it; `facts` holds what `make` leaves for the families."""
        self.n, self.edits, self.facts = n, {}, None
        argv = make(self, n)
        for family, rng in self.families.items():
            if family.when and family.when(self, argv) and rng.random() < family.rate:
                argv = family.edit(self, family, argv)
        return argv

    def write(self, files: dict, by: Optional[Family] = None) -> list[str]:
        """`_write` for this input, each file rolled for every family without
        `when` that edits its kind, unless the files are `by` a family."""

        def edit(kind: str, path: str, text: str) -> str:
            self.edits[path] = [] if by is None else [by]
            for family, rng in self.families.items() if by is None else ():
                if not family.when and kind in family.files and rng.random() < family.rate:
                    text = family.edit(rng, text)
                    self.edits[path].append(family)
            return text

        return _write(f"{self.stem}{self.n:04d}", files, edit)


def _corpus_argv() -> list[tuple[str, tuple[str, ...]]]:
    """(name, argv) of every corpus case, its files under tests/data."""
    import yaml

    return [
        (case["name"], tuple(str(DATA / a) if a.endswith(".yaml") else a for a in case["argv"]))
        for case in yaml.safe_load((DATA / "cli_cases.yaml").read_text())
    ]


def corpus_jobs(kind: str, inputs: Path, seeds: list[int], count: int) -> list[Job]:
    return [job for name, argv in _corpus_argv() for job in _formats(f"corpus:{name}", argv)]


# How a corpus command line is mutated, one per `argv:CASE/K` job.
ARGV_MUTATIONS = ("equals", "abbreviate", "repeat", "help", "drop", "bad-choice", "option-first")
CHOICE_OPTIONS = ("--check", "--procedure", "--golden", "--bound", "--format")


def _mutate(rng: random.Random, argv: list[str], values: dict[str, list[str]], how: str) -> list[str]:
    """`argv` with one mutation `how`. Its options are split into groups, each
    an option and the values after it (every corpus option has a value);
    `values` holds every value the corpus gives each option, for a repeat."""
    command, groups = argv[:1], []
    for word in argv[1:]:
        if word.startswith("--"):
            groups.append([word])
        else:
            groups[-1].append(word)
    i = rng.randrange(len(groups))
    group = groups[i]
    if how == "equals":
        groups[i] = [f"{group[0]}={group[1]}", *group[2:]]
    elif how == "abbreviate":
        groups[i] = [group[0][: rng.randint(3, len(group[0]) - 1)], *group[1:]]
    elif how == "repeat":
        groups.insert(rng.randint(0, len(groups)), [group[0], rng.choice(values[group[0]])])
    elif how == "drop":
        del groups[i]
    elif how == "bad-choice":
        chosen = [g for g in groups if g[0] in CHOICE_OPTIONS and len(g) > 1]
        if chosen:
            chosen[0][1] = chosen[0][1][:-1]
        else:
            groups.append(["--format", "json"])
    elif how == "option-first":
        return [*groups.pop(i), *command, *(word for g in groups for word in g)]
    words = [*command, *(word for g in groups for word in g)]
    if how == "help":
        words.insert(rng.randint(0, len(words)), rng.choice(("-h", "--help")))
    return words


def argv_jobs(kind: str, inputs: Path, seeds: list[int], per_case: int) -> list[Job]:
    """Each corpus command line `per_case` times, each time with one of
    `ARGV_MUTATIONS`, in the records format or in text. A case draws from
    its own rng, and a repeat from the values of the cases up to it."""
    values = {"--format": ["text", "records"]}
    jobs = []
    for name, argv in _corpus_argv():
        for option, value in zip(argv, argv[1:]):
            if option.startswith("--") and not value.startswith("--"):
                values.setdefault(option, []).append(value)
        rng = random.Random(f"argv/{seeds[0]}/{name}")
        for k in range(per_case):
            words = argv + ("--format", "records") if rng.random() < 0.5 else argv
            mutated = _mutate(rng, list(words), values, rng.choice(ARGV_MUTATIONS))
            jobs.append(Job(f"argv:{name}/{k}", tuple(mutated)))
    return jobs


def perfbench_jobs(kind: str, inputs: Path, seeds: list[int], cycles: int) -> list[Job]:
    jobs = []
    for workload, cycle in sorted(w.CYCLES.items()):
        for seed in seeds:
            workdir = inputs / f"{workload}-{seed}"
            workdir.mkdir()
            corpus = w.Corpus(workdir, workload, seed)
            for index in range(cycles):
                for job in cycle(corpus, index):
                    name = f"{workload}/{seed}/{job.kind}#{len(jobs)}"
                    jobs.append(Job(name, tuple(job.argv)))
    return jobs


def _value(rng: random.Random, inf: object) -> object:
    roll = rng.random()
    if roll < 0.08:
        return inf
    if roll < 0.16:
        return 0
    return Fraction(rng.randint(1, 12), rng.randint(1, 6))


def _random_space(rng: random.Random, width: Optional[int] = None):
    """A power set, a chain space or any union-closed family, which is
    often not intersection-closed, on `width` points or else on two or
    three."""
    if width is None:
        width, profiles = rng.randint(2, 3), ((2, 1), (1, 1, 1), (3,), (2,))
    else:
        profiles = [_profile(rng, width)]
    if rng.random() < 0.5:
        return w.power_space(width)
    if rng.random() < 0.5:
        return w.chain_space(rng, rng.choice(profiles))
    gens = sorted({rng.randint(1, (1 << width) - 1) for _ in range(width + 1)})
    return _generated([f"p{i + 1}" for i in range(width)], gens)


def _profile(rng: random.Random, width: int) -> list[int]:
    """Chains of random lengths that add up to `width`."""
    profile = []
    while width:
        profile.append(rng.randint(1, width))
        width -= profile[-1]
    return profile


def _generated(points: list[str], gens: list[int]):
    """The space on `points` generated by the bitsets `gens`, each written
    as the list of its points."""
    text = f"points: {w._yaml_list(points)}\ngenerators: " + w._yaml_list(
        w._yaml_list(points[i] for i in orc.bits_of(g, len(points))) for g in gens
    )
    return w.SpaceSpec(points, orc.canonical(orc.union_closure(gens)), text + "\n")


def _random_columns(rng: random.Random, sp, outcomes, pmfs) -> list[dict]:
    """One table per outcome: the pointwise minimum of per-point weights,
    which are likelihood ratios against a reference (a valid measure) or
    random values; one time in five the convex mixture of two such column
    sets (a capacity, often not a measure); or one time in five any table."""

    roll = rng.random()
    if roll < 0.6:
        return _min_over_columns(rng, sp, outcomes, pmfs, roll < 0.3)
    if roll < 0.8:
        first, second = (_min_over_columns(rng, sp, outcomes, pmfs, rng.random() < 0.5) for _ in range(2))
        # inf when either value is: the weights are positive
        return [
            {b: Fraction(1, 3) * one[b] + Fraction(2, 3) * two[b] for b in sp.family}
            for one, two in zip(first, second)
        ]
    return [{b: _value(rng, orc.INF) for b in sp.family} for _ in outcomes]


def _min_over_columns(rng: random.Random, sp, outcomes, pmfs, valid: bool) -> list[dict]:
    """One table per outcome: at each member, the least of its points'
    weights, which are likelihood ratios against a reference where `valid`
    (a valid measure), else random values."""
    if valid:
        ref = w.rand_pmf(rng, len(outcomes))
        weights = [[r / m for r, m in zip(ref, pmf)] for pmf in pmfs]
    else:
        weights = [[_value(rng, orc.INF) for _ in outcomes] for _ in sp.points]
    return [
        {b: w.min_over(b, sp.width, lambda p: weights[p][xi]) for b in sp.family}
        for xi in range(len(outcomes))
    ]


def _decide(draw: Draw, n: int) -> list[str]:
    """A `decide/N` input over a `_random_space` and `_random_columns`; a
    wide one's losses are any `_value`."""
    rng = draw.rng
    wide = rng.random() < 0.25
    sp = _random_space(rng, rng.randint(4, 6) if wide else None)
    points = sp.points
    size, typed = rng.randint(2, 4), rng.random() < 0.1
    outcomes = rng.sample(TYPED_OUTCOMES, size) if typed else [f"x{i + 1}" for i in range(size)]
    pmfs = [w.rand_pmf(rng, len(outcomes)) for _ in points]
    columns = _random_columns(rng, sp, outcomes, pmfs)
    decisions = [f"d{i + 1}" for i in range(rng.randint(2, 4))]
    if wide or rng.random() < 0.5:
        loss = (lambda: orc.fmt(_value(rng, orc.INF))) if wide else (lambda: rng.randint(0, 3))
        rows = [
            f"  {p}: {{" + ", ".join(f"{d}: {loss()}" for d in decisions) + "}"
            for p in points
        ]
        problem = f"decisions: {w._yaml_list(decisions)}\nloss:\n" + "\n".join(rows) + "\n"
    else:
        grades = ["bad", "fair", "good"]
        rows = [
            f"  {p}: {{" + ", ".join(f"{d}: {rng.choice(grades)}" for d in decisions) + "}"
            for p in points
        ]
        problem = (
            f"decisions: {w._yaml_list(decisions)}\nconsequences:\n"
            "  elements: [bad, fair, good]\n  order: [[bad, fair], [fair, good]]\n"
            "table:\n" + "\n".join(rows) + "\n"
        )
    files = {
        "space": sp.text,
        "model": w.model_yaml(points, outcomes, pmfs),
        "kernel": w.kernel_yaml(sp, outcomes, columns),
        "decisions": problem,
    }
    words = draw.write(files)
    bound = rng.choice(("econsequence", "probability", "grunwald"))
    argv = ["decide", "--bound", bound, *words]
    if bound == "probability" and rng.random() < 0.5:
        argv += ["--alpha", f"1/{rng.randint(2, 20)}"]
    if typed or rng.random() < 0.5:
        argv += ["--outcome", rng.choice(outcomes)]
    return argv


def chain_jobs(kind: str, inputs: Path, seeds: list[int], n: int) -> list[Job]:
    """`decide` on the n-point prefix chain p1..pn (members the prefixes),
    two outcomes and a constant kernel 1, with D decisions for each D in
    `CHAIN_DECISIONS`. Point p_i loses (n - i)·D + j under decision d_j, so
    all losses are distinct and each column falls along the chain: every
    bound hypothesis is a prefix and every bound check passes."""
    points = [f"p{i}" for i in range(1, n + 1)]
    prefixes = [points[:i] for i in range(1, n + 1)]
    files = {
        "space": f"points: [{', '.join(points)}]\ngenerators: ["
        + ", ".join(f"[{', '.join(p)}]" for p in prefixes) + "]\n",
        "model": "pmf:\n" + "".join(f"  {p}: {{H: 1/2, T: 1/2}}\n" for p in points),
        "kernel": "kernel:\n" + "".join(f'  "{",".join(p)}": {{H: 1, T: 1}}\n' for p in prefixes),
    }
    jobs = []
    for count in CHAIN_DECISIONS:
        labels = [f"d{j}" for j in range(1, count + 1)]
        files["decisions"] = f"decisions: [{', '.join(labels)}]\nloss:\n" + "".join(
            f"  {p}: {{{', '.join(f'{d}: {(n - i) * count + j}' for j, d in enumerate(labels, 1))}}}\n"
            for i, p in enumerate(points, 1)
        )
        words = _write(str(inputs / f"chain{count}"), files)
        for bound in ("econsequence", "probability", "grunwald"):
            for extra in ((), ("--outcome", "H")):
                jobs += _formats(f"chain/{count}", ["decide", *words, "--bound", bound, *extra])
    return jobs


# A numerator past the 4300 digits int() reads from text.
HUGE = "1" + "0" * 4400


def _spell(rng: random.Random, v: object, inf: object) -> str:
    """`v` as the package prints it or, one time in three, spelled otherwise:
    unreduced (6/4, 0/7), with leading zeros (08, 007, 3/04), with a '_'
    between two digits of the numerator (1_000, 1_5/4), led by a '+', as a
    decimal where it has a finite one (0.25, 3.0) or with an exponent
    (25e-2, 2.5E-1), and inf as inf or .inf. One cell in 300 is refused as
    it is read: a numerator past 4300 digits, alone or over a denominator,
    or a zero denominator. One finite cell in 300 is unreduced by 10**1000,
    more than 1000 digits, which no line reader takes."""
    roll = rng.random()
    if roll < 1 / 300:
        return rng.choice((HUGE, f"{HUGE}/3", f"{rng.randint(0, 3)}/0"))
    if v == inf:
        return rng.choice(("inf", ".inf")) if roll < 1 / 3 else "inf"
    f = Fraction(v)
    num, den = f.numerator, f.denominator
    if roll < 2 / 300:
        return f"{num}{'0' * 1000}/{den}{'0' * 1000}"
    text = str(num) if den == 1 else f"{num}/{den}"
    if roll >= 1 / 3:
        return text
    form = rng.choice(("unreduced", "zeros", "underscore", "signed", "decimal", "exponent"))
    if form == "signed":
        return f"+{text}"
    if form == "underscore":
        at = rng.randint(1, len(str(num)) - 1) if num >= 10 else 0
        return f"{text[:at]}_{text[at:]}" if at else text
    if form == "unreduced":
        k = rng.randint(2, 7)
        return f"{num * k}/{den * k}"
    if form == "zeros":
        zeros = "0" * rng.randint(1, 2)
        return zeros + text if den == 1 or rng.random() < 0.5 else f"{num}/{zeros}{den}"
    places = max(_power_of(den, 2), _power_of(den, 5))
    if 10**places % den:  # no finite decimal
        return text
    if form == "exponent":  # the digits times 10**-places, the point at will
        digits, e = str(num * 10**places // den), rng.choice("eE")
        shift = rng.randint(0, len(digits) - 1)
        head = f"{digits[:-shift]}.{digits[-shift:]}" if shift else digits
        sign = "+" if rng.random() < 0.5 and shift >= places else ""
        return f"{head}{e}{sign}{shift - places}"
    digits = str(num * 10**places // den).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else f"{digits}.0"


def _power_of(n: int, p: int) -> int:
    """The exponent of the prime p in n."""
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


# How a `check` input's kernel rows are written, one per input, drawn with
# these weights: the three forms refused while reading are rare, so that most
# inputs of each `--check` reach the check.
ROW_FORMS = ("ordered", "shuffled", "drop", "unknown", "empty-finite")
ROW_WEIGHTS = (16, 16, 1, 1, 1)
# How its model rows are written, one per input: as perfbench writes them,
# with each row's outcomes shuffled, with quoted point keys, or with masses
# spelled by `_spell`.
MODEL_FORMS = ("printed", "shuffled", "quoted", "spelled")
# Outcome labels of one `check` input in ten, which PyYAML's safe resolver
# types: YAML 1.1 words, which read as True, False and None, and labels led
# by a sign, a '.' or a digit, which read as 8, 1.5 or the label itself. No
# two read as one value, so the labels stay distinct once typed.
TYPED_OUTCOMES = ("yes", "off", "~", "010", "1.5", "1st", "-x", ".y", "+z")


def _key(rng: random.Random, sp, b: int) -> str:
    """The member's label as the command line prints it, or one time in
    three its points in a random order, joined by ',' or ', '."""
    if not b:
        return "{}"
    if rng.random() >= 1 / 3:
        return sp.label(b)
    points = sp.label(b).split(",")
    rng.shuffle(points)
    return rng.choice((",", ", ")).join(points)


def _kernel_text(rng: random.Random, sp, outcomes, columns, form: str) -> str:
    """The kernel file of `columns` with its rows written in `form`; a third
    of the inputs that break one row also shuffle every row. In a third of
    the inputs each nonempty member takes the row of one of two members,
    so row texts repeat. The empty member's row is written in half of the
    other inputs, and rows are keyed as `_key` spells them."""
    rows = {
        b: [f"{x}: {_spell(rng, col[b], w.INF)}" for x, col in zip(outcomes, columns)]
        for b in sp.family
    }
    if rng.random() < 1 / 3:
        members = [b for b in sp.family if b]
        pool = [rows[b] for b in rng.sample(members, min(2, len(members)))]
        rows.update((b, list(rng.choice(pool))) for b in members)
    rows[0] = [f"{x}: inf" for x in outcomes]
    if form == "empty-finite":
        i = rng.randrange(len(outcomes))
        rows[0][i] = f"{outcomes[i]}: 1"
    elif form in ("drop", "unknown"):
        row = rows[rng.choice([b for b in sp.family if b])]
        if form == "drop":
            del row[rng.randrange(len(row))]
        else:
            row.insert(rng.randint(0, len(row)), "zz: 1")
    if form == "shuffled" or (form != "ordered" and rng.random() < 1 / 3):
        for row in rows.values():
            rng.shuffle(row)
    written = [b for b in sp.family if b or form == "empty-finite" or rng.random() < 0.5]
    return "kernel:\n" + "".join(
        f'  "{_key(rng, sp, b)}": {{{", ".join(rows[b])}}}\n' for b in written
    )


def _model_text(rng: random.Random, points, outcomes, pmfs, form: str, n: int) -> str:
    """The model file of `pmfs` with its rows written in `form`. Input n
    breaks one row when n is 50 past a multiple of 100: with a negative
    mass, an inf mass and an unknown outcome in turn."""
    rows = [
        [f"{x}: {_spell(rng, m, orc.INF) if form == 'spelled' else orc.fmt(m)}" for x, m in zip(outcomes, pmf)]
        for pmf in pmfs
    ]
    if n % 100 == 50:
        row, kind = rng.choice(rows), n // 100 % 3
        i = rng.randrange(len(row))
        if kind == 2:
            row.insert(i, "zz: 0")
        else:
            row[i] = f"{outcomes[i]}: {('-1/2', 'inf')[kind]}"
    if form == "shuffled":
        for row in rows:
            rng.shuffle(row)
    key = '"{}"' if form == "quoted" else "{}"
    return "pmf:\n" + "".join(
        f"  {key.format(p)}: {{{', '.join(row)}}}\n" for p, row in zip(points, rows)
    )


# How `_uneven` changes one flat row: a name of the row written again
# with another of its values, an unknown name added, or a name dropped.
UNEVEN_FAULTS = ("repeat", "add", "drop")


def _uneven(rng: random.Random, text: str) -> str:
    """The kernel or model file `text` with one flat row changed by one of
    `UNEVEN_FAULTS`."""
    lines = text.split("\n")
    i = rng.choice([i for i, line in enumerate(lines) if line.endswith("}")])
    key, _, inside = lines[i].partition(": {")
    pairs = inside[:-1].split(", ")
    fault = rng.choice(UNEVEN_FAULTS)
    if fault == "drop":
        del pairs[rng.randrange(len(pairs))]
    else:
        name = rng.choice(pairs).partition(": ")[0] if fault == "repeat" else "zz"
        pairs.insert(rng.randint(0, len(pairs)), f"{name}: {rng.choice(pairs).partition(': ')[2]}")
    lines[i] = f"{key}: {{{', '.join(pairs)}}}"
    return "\n".join(lines)


# How `_general_row` changes one flat row of a kernel file: written as a
# scalar, or naming one of its outcomes again, quoted.
GENERAL_FAULTS = ("scalar", "respelled")


def _general_row(rng: random.Random, text: str) -> str:
    """The kernel file `text` with one flat row changed by one of
    `GENERAL_FAULTS`; an outcome named again is quoted as `str()` makes its
    typed label (`"x1"`, `"True"` for `yes`), with another of the row's values."""
    import yaml

    lines = text.split("\n")
    i = rng.choice([i for i, line in enumerate(lines) if line.endswith("}")])
    key, _, inside = lines[i].partition(": {")
    pairs = inside[:-1].split(", ")
    if rng.choice(GENERAL_FAULTS) == "scalar":
        lines[i] = f"{key}: {rng.choice(('1', 'inf'))}"
    else:
        name = str(yaml.safe_load(rng.choice(pairs).partition(": ")[0]))
        pairs.insert(rng.randint(0, len(pairs)), f'"{name}": {rng.choice(pairs).partition(": ")[2]}')
        lines[i] = f"{key}: {{{', '.join(pairs)}}}"
    return "\n".join(lines)


def _shared_space(rng: random.Random):
    """An intersection-closed space on two to four points whose first two
    share every member: a chain space on one point fewer, its first point
    written as p1 and p2, with each point's least member as a generator."""
    base = w.chain_space(rng, rng.choice(((1,), (2,), (1, 1), (3,), (2, 1))))
    points = [f"p{i + 1}" for i in range(base.width + 1)]
    gens = sorted({(b & 1) * 0b11 | (b >> 1) << 2 for b in map(base.least, range(base.width))})
    return _generated(points, gens)


def _check_files(rng: random.Random, sp, outcomes, n: int) -> tuple[list, dict]:
    """A random model's pmfs and the files of a `check` input over `sp`: a
    kernel of `_random_columns` with rows in one of `ROW_FORMS`, and model
    rows in one of `MODEL_FORMS`."""
    pmfs = [w.rand_pmf(rng, len(outcomes)) for _ in sp.points]
    columns = _random_columns(rng, sp, outcomes, pmfs)
    return pmfs, {
        "space": sp.text,
        "model": _model_text(rng, sp.points, outcomes, pmfs, rng.choice(MODEL_FORMS), n),
        "kernel": _kernel_text(rng, sp, outcomes, columns, rng.choices(ROW_FORMS, ROW_WEIGHTS)[0]),
    }


def _check(draw: Draw, n: int, sp=None) -> list[str]:
    """A random `check` input (see `_check_files`) over the space `sp`,
    else over a random space."""
    rng = draw.rng
    sp = sp or _random_space(rng)
    outcomes = [f"x{i + 1}" for i in range(rng.randint(2, 4))]
    if rng.random() < 0.1:
        outcomes = rng.sample(TYPED_OUTCOMES, len(outcomes))
    pmfs, files = _check_files(rng, sp, outcomes, n)
    argv = ["check", *draw.write(files)]
    check = rng.choice(("validity", "posthoc", "posthoc-level", "fwe", "fer", "fer-family"))
    argv += ["--check", check.partition("-")[0]]
    if check == "posthoc-level":
        argv += ["--rule", f"1/{rng.randint(1, 4)}"]
    elif check == "fer-family":
        members = [b for b in sp.family if b]
        chosen = rng.sample(members, rng.randint(1, min(3, len(members))))
        argv += ["--family", "|".join(sp.label(b) for b in chosen) + "|"]
    draw.facts = sp, outcomes, pmfs
    return argv


def _fer_on_closed(draw: Draw, argv: list[str]) -> bool:
    """Whether a `check` input runs `--check fer` on an intersection-closed space."""
    sp = draw.facts[0]
    return "fer" in argv and orc.intersection_closed(set(sp.family), sp.width)


def _raise(draw: Draw, family: Family, argv: list[str]) -> list[str]:
    """The input with its kernel drawn again, its rows in order: measure
    columns of likelihood ratios against a reference, with the row of the
    latest member that can be raised raised, at each outcome, to the least
    value of the members strictly inside it: still antitone, but no
    measure."""
    rng, (sp, outcomes, pmfs) = draw.families[family], draw.facts
    columns = _min_over_columns(rng, sp, outcomes, pmfs, True)
    for b in reversed(sp.family[1:]):
        inside = [min(col[a] for a in sp.family if a != b and a & ~b == 0) for col in columns]
        if any(v > col[b] for v, col in zip(inside, columns)):
            for v, col in zip(inside, columns):
                col[b] = v
            break
    draw.write({"kernel": _kernel_text(rng, sp, outcomes, columns, "ordered")}, family)
    return argv


def _redraw_shared(draw: Draw, family: Family, argv: list[str]) -> list[str]:
    """The input drawn again over a `_shared_space` from this family's rng,
    its files edited by the file families with their `redrawn` rngs; no
    input family rolls on it again."""
    rng, redraw = draw.families[family], copy.copy(draw)
    redraw.rng = rng
    redraw.families = draw.redrawn
    argv = redraw.input(lambda d, n: _check(d, n, _shared_space(rng)), draw.n)
    draw.edits = {path: [family, *fs] for path, fs in redraw.edits.items()}
    return argv


# How the step kernels of an `anytime` input are valued, drawn with these
# weights: a likelihood-ratio process (a martingale under each point, so
# valid), the same with one step scaled by 3/2, or any values, constant on
# each atom of the step.
PROCESS_KINDS = ("martingale", "inflated", "random")
PROCESS_WEIGHTS = (2, 1, 1)


def _random_tree(rng: random.Random) -> tuple[list, list[tuple[int, ...]]]:
    """A tree shape of depth one to three with two to eight leaves, each leaf
    None, and each leaf's path of child positions from the root, left to
    right. An internal node has one to three children, and below the root a
    node is a leaf one time in four."""
    depth = rng.randint(1, 3)

    def grow(t: int):
        if t == depth or (t and rng.random() < 0.25):
            return None
        return [grow(t + 1) for _ in range(rng.randint(1, 3))]

    while True:
        shape = grow(0)
        paths = _leaf_paths(shape)
        if 2 <= len(paths) <= 8:
            return shape, paths


def _leaf_paths(shape) -> list[tuple[int, ...]]:
    """Each leaf's path of child positions from the root, left to right."""
    paths, todo = [], [(shape, ())]
    while todo:
        node, path = todo.pop()
        if node is None:
            paths.append(path)
        else:
            todo += [(child, path + (i,)) for i, child in reversed(list(enumerate(node)))]
    return paths


def _tree_text(shape, labels: Iterable[str]) -> str:
    """The tree file of `shape` with its leaves named by `labels` in order."""
    names = iter(labels)

    def text(node) -> str:
        return next(names) if node is None else w._yaml_list(text(child) for child in node)

    return f"tree: {text(shape)}\n"


# How `_bad_tree` breaks a tree's leaves: a leaf renamed to another
# outcome or to an unknown one, a leaf added under the root named either
# way, or a leaf dropped.
TREE_FAULTS = ("repeat", "unknown", "extra-repeat", "extra-unknown", "drop")


def _bad_tree(rng: random.Random, text: str) -> str:
    """The tree file `text` with its leaves changed by one of `TREE_FAULTS`:
    a renamed leaf misses one outcome and repeats or adds one, an added
    leaf repeats or adds one, and a leaf dropped from a node that keeps
    another child misses one."""
    tree, label = text.removeprefix("tree: "), r"[^\[\], \n]+"
    shape, outcomes = json.loads(re.sub(label, "null", tree)), re.findall(label, tree)
    paths, labels = _leaf_paths(shape), list(outcomes)
    fault = rng.choice(TREE_FAULTS)
    drops = [k for k, path in enumerate(paths) if len(_node(shape, path[:-1])) > 1]
    if fault == "drop" and drops:
        k = rng.choice(drops)
        del _node(shape, paths[k][:-1])[paths[k][-1]]
        del labels[k]
        return _tree_text(shape, labels)
    i = rng.randrange(len(labels))
    name = rng.choice([x for x in outcomes if x != labels[i]]) if "repeat" in fault else "zz"
    if fault.startswith("extra"):
        shape.append(None)
        labels.append(name)
    else:
        labels[i] = name
    return _tree_text(shape, labels)


def _node(shape, path: tuple[int, ...]):
    """The node of `shape` at `path`, its child positions from the root."""
    for i in path:
        shape = shape[i]
    return shape


def _step_columns(rng: random.Random, sp, paths, pmfs, ref, t: int, scale) -> list[dict]:
    """The step-t kernel as one table per outcome, the same table on every
    outcome of a depth-t atom: the outcomes whose paths share their first t
    positions. With `ref`, a reference distribution, the value at an atom is
    its likelihood ratio against each point, the least over a member's
    points, times `scale`; without, any `_value` per member."""
    columns: list = [None] * len(paths)
    for atom in dict.fromkeys(path[:t] for path in paths):
        leaves = [i for i, path in enumerate(paths) if path[:t] == atom]
        if ref is None:
            col = {b: _value(rng, orc.INF) for b in sp.family}
        else:
            weights = [scale * sum(ref[i] for i in leaves) / sum(pmf[i] for i in leaves) for pmf in pmfs]
            col = {b: w.min_over(b, sp.width, weights.__getitem__) for b in sp.family}
        for i in leaves:
            columns[i] = col
    return columns


def _shared_steps(rng: random.Random, sp, steps: list[list[dict]]) -> list[list[dict]]:
    """`steps` with each nonempty member given the values of one of two
    members at every step and outcome, so that members share whole step
    rows and the check walks them once."""
    nonempty = [b for b in sp.family if b]
    two = [rng.choice(nonempty) for _ in range(2)]
    source = {b: rng.choice(two) for b in nonempty}
    shared: dict[int, dict] = {}  # by the id of an atom's column, which its outcomes share
    return [
        [shared.setdefault(id(col), {**col, **{b: col[s] for b, s in source.items()}}) for col in columns]
        for columns in steps
    ]


def _anytime(draw: Draw, n: int) -> list[str]:
    """An `anytime/N` input: a `_random_space`, a `_random_tree` and one
    kernel per step valued as one of `PROCESS_KINDS` (`_step_columns`),
    shared by members one time in three (`_shared_steps`)."""
    rng = draw.rng
    sp = _random_space(rng)
    shape, paths = _random_tree(rng)
    outcomes = [f"x{i + 1}" for i in range(len(paths))]
    if rng.random() < 0.1:
        outcomes = rng.sample(TYPED_OUTCOMES, len(outcomes))
    pmfs = [w.rand_pmf(rng, len(outcomes)) for _ in sp.points]
    process, depth = rng.choices(PROCESS_KINDS, PROCESS_WEIGHTS)[0], max(map(len, paths))
    ref = None if process == "random" else w.rand_pmf(rng, len(outcomes))
    bad_t = rng.randint(0, depth) if process == "inflated" else None
    steps = [
        _step_columns(rng, sp, paths, pmfs, ref, t, Fraction(3, 2) if t == bad_t else 1)
        for t in range(depth + 1)
    ]
    if rng.random() < 1 / 3:
        steps = _shared_steps(rng, sp, steps)
    if rng.random() < 0.1:  # one outcome's table differs from its atom's
        shared = [
            [i for i, path in enumerate(paths) if sum(o[:t] == path[:t] for o in paths) > 1]
            for t in range(depth)
        ]
        t = rng.choice([t for t in range(depth) if shared[t]])
        i = rng.choice(shared[t])
        b = rng.choice([b for b in sp.family if b])
        steps[t][i] = {**steps[t][i], b: _value(rng, orc.INF)}
    files = {
        "space": sp.text,
        "model": _model_text(rng, sp.points, outcomes, pmfs, rng.choice(MODEL_FORMS), n),
        "tree": _tree_text(shape, outcomes),
        "kernel": [
            _kernel_text(rng, sp, outcomes, columns, rng.choice(("ordered", "shuffled")))
            for columns in steps
        ],
    }
    return ["check", "--check", "anytime", *draw.write(files)]


def _predictive(draw: Draw, n: int) -> list[str]:
    """A random `check --check predictive` input: a power set or a chain
    space on two to four points, which are intersection-closed, whose
    points are the outcomes (see `_check_files`)."""
    rng = draw.rng
    width = rng.randint(2, 4)
    if rng.random() < 0.5:
        sp = w.power_space(width)
    else:
        sp = w.chain_space(rng, _profile(rng, width), rng.choice(("preorder", "generators")))
    return ["check", "--check", "predictive", *draw.write(_check_files(rng, sp, sp.points, n)[1])]


# The command lines that read a level, each to be followed by one. The
# decide kernel is invalid, so that its bound fails at some levels.
_COIN = ("--space", str(DATA / "space_coin.yaml"), "--model", str(DATA / "model_coin.yaml"))
LEVEL_READERS = (
    ("mtp", "--golden", "table1", "--alpha"),
    ("mtp", "--procedure", "ebh", "--space", str(DATA / "space_gens_ic.yaml"),
     "--evidence", str(DATA / "evidence_ic_large.yaml"), "--family", "a|c|a,b|c,d", "--alpha"),
    ("decide", *_COIN, "--kernel", str(DATA / "kernel_coin_t1_inflated.yaml"),
     "--decisions", str(DATA / "decisions_coin.yaml"), "--bound", "probability", "--alpha"),
    ("check", "--check", "posthoc", *_COIN, "--kernel", str(DATA / "kernel_coin_t2.yaml"), "--rule"),
)
# Levels past `_spell`'s: signs, '_', non-ASCII digits, spaces, small
# exponents, three at which the `decide` kernel fails its bound (4/5, 0.9,
# 85e-2) and texts that a level reader refuses.
LEVEL_TEXTS = (
    "+1/20", "1_0/200", "١/٢٠", "３/４", " 1/4 ", "0.5E-1", ".05", "5.e-2", "5e-2", "1e-4", "2E+0",
    "4/5", "0.9", "85e-2", "-1", "-0", "0", "0/0", "1/0", "inf", ".inf", "∞", "nan", "x", "1/2/3",
    "1__0", "", "+",
)


def _level(draw: Draw, n: int) -> list[str]:
    """A level given to one of `LEVEL_READERS`: a random rational spelled by
    `_spell` three times in four, else one of `LEVEL_TEXTS`."""
    rng = draw.rng
    if rng.random() < 0.75:
        level = Fraction(rng.randint(1, 30), rng.choice((1, 2, 4, 5, 10, 20, 40, 100, 1000)))
        text = _spell(rng, level, None)
    else:
        text = rng.choice(LEVEL_TEXTS)
    return [*rng.choice(LEVEL_READERS), text]


def _redundant_text(rng: random.Random, sp) -> str:
    """A space file of `sp`'s family whose generators are its join-irreducible
    members with a duplicate, up to three unions of others and, half the
    time, the empty set, shuffled, each listing its points in random order."""
    irreducible = [
        m for m in sp.family if m and _union(x for x in sp.family if x & ~m == 0 and x != m) != m
    ]
    unions = [m for m in sp.family if m and m not in irreducible]
    gens = irreducible + [rng.choice(irreducible)]
    gens += rng.sample(unions, min(len(unions), rng.randint(0, 3)))
    if rng.random() < 0.5:
        gens.append(0)
    rng.shuffle(gens)
    lists = []
    for g in gens:
        points = [sp.points[i] for i in range(sp.width) if g >> i & 1]
        rng.shuffle(points)
        lists.append("[" + ", ".join(points) + "]")
    return f"points: [{', '.join(sp.points)}]\ngenerators: [{', '.join(lists)}]\n"


def _union(bitsets: Iterable[int]) -> int:
    out = 0
    for bits in bitsets:
        out |= bits
    return out


def _lattice_space(rng: random.Random):
    """A `_random_space` on two to six points, written as it comes or, half
    the time, with redundant generators."""
    sp = _random_space(rng, None if rng.random() < 0.5 else rng.randint(2, 6))
    if rng.random() < 0.5:
        sp = w.SpaceSpec(sp.points, sp.family, _redundant_text(rng, sp))
    return sp


def _space(draw: Draw, n: int) -> list[str]:
    """A random space (see `_lattice_space`)."""
    return ["space", *draw.write({"space": _lattice_space(draw.rng).text})]


# What a `closure` input's table is, one per input.
TABLE_KINDS = ("function", "capacity", "measure")


def _table(rng: random.Random, sp, kind: str) -> dict[int, object]:
    """A table of `kind` on the nonempty members, its values drawn from a
    pool of one to four `_value`s."""
    pool = [_value(rng, orc.INF) for _ in range(rng.randint(1, 4))]
    members = [b for b in sp.family if b]
    if kind == "measure":
        density = [rng.choice(pool) for _ in sp.points]
        return {b: w.min_over(b, sp.width, density.__getitem__) for b in members}
    raw = {b: rng.choice(pool) for b in members}
    if kind == "function":
        return raw
    return {b: max(v for c, v in raw.items() if b & ~c == 0) for b in members}


def _closure(draw: Draw, n: int) -> list[str]:
    """A random evidence table over a random space (see `_lattice_space` and
    `_table`), keyed as `_key` spells it."""
    rng = draw.rng
    sp = _lattice_space(rng)
    values = _table(rng, sp, rng.choice(TABLE_KINDS))
    entries = [(_key(rng, sp, b), _spell(rng, v, orc.INF)) for b, v in values.items()]
    roll = rng.random()
    if roll < 1 / 8:  # a member named twice
        i = rng.randrange(len(entries))
        entries.insert(rng.randint(0, len(entries)), (entries[i][0] + ",", entries[i][1]))
    elif roll < 1 / 4:  # a member left out
        del entries[rng.randrange(len(entries))]
    if roll > 19 / 20:
        entries.append(("{}", "1"))
    elif rng.random() < 0.5:
        entries.insert(rng.randint(0, len(entries)), ("{}", "inf"))
    evidence = "evidence:\n" + "".join(f'  "{k}": {v}\n' for k, v in entries)
    return ["closure", *draw.write({"space": sp.text, "evidence": evidence})]


def _printed_space(rng: random.Random):
    """A `_random_space` written with its join-irreducible members as
    generators, in one of three ways: as they come, declared by name, or
    with one point named `empty`. A declared name is fresh two times in
    three, else the printed label of some member, which it then takes
    over."""
    sp = _random_space(rng, None if rng.random() < 0.5 else rng.randint(2, 4))
    points, form = list(sp.points), rng.choice(("plain", "named", "empty-point"))
    if form == "empty-point":
        points[rng.randrange(len(points))] = "empty"
    sp = w.SpaceSpec(points, sp.family, "")
    gens = [m for m in sp.family if m and _union(x for x in sp.family if x & ~m == 0 and x != m) != m]
    lists = [w._yaml_list(points[i] for i in orc.bits_of(g, sp.width)) for g in gens]
    text = f"points: {w._yaml_list(points)}\n"
    if form != "named":
        return w.SpaceSpec(points, sp.family, text + f"generators: {w._yaml_list(lists)}\n")
    names: dict[str, str] = {}
    for i, generator in enumerate(lists):
        name = sp.label(rng.choice(sp.family[1:])) if rng.random() < 1 / 3 else f"h{i}"
        names[name if name not in names else f"h{i}"] = generator
    return w.SpaceSpec(points, sp.family, text + "generators:\n" + "".join(
        f'  "{name}": {generator}\n' for name, generator in names.items()
    ))


def _printed(draw: Draw, n: int) -> list[str]:
    """A `printed/N` input over a `_printed_space`, its rows keyed by the
    printed labels of members 1, 2, ... with no row for the empty member:
    the row reader places such rows by position unless a name or a point
    `empty` takes a printed label, and then looks each key up, which reads
    the table otherwise or refuses it."""
    rng = draw.rng
    sp = _printed_space(rng)
    files = {"space": sp.text}
    if rng.random() < 0.5:
        values = _table(rng, sp, rng.choice(TABLE_KINDS))
        rows = [_spell(rng, values[b], orc.INF) for b in sp.family[1:]]
        argv = ["closure"]
    else:
        outcomes = [f"x{i + 1}" for i in range(rng.randint(2, 3))]
        pmfs = [w.rand_pmf(rng, len(outcomes)) for _ in sp.points]
        columns = _random_columns(rng, sp, outcomes, pmfs)
        files["model"] = _model_text(rng, sp.points, outcomes, pmfs, "printed", n)
        rows = ["{" + ", ".join(f"{x}: {orc.fmt(col[b])}" for x, col in zip(outcomes, columns)) + "}"
                for b in sp.family[1:]]
        argv = ["check", "--check", rng.choice(("validity", "fwe", "fer"))]
    keys = [sp.label(b) for b in sp.family[1:]]
    if rng.random() < 1 / 6 and len(keys) > 1:
        i, j = rng.sample(range(len(keys)), 2)
        keys[i], keys[j] = keys[j], keys[i]
    kind = "evidence" if argv[0] == "closure" else "kernel"
    files[kind] = f"{kind}:\n" + "".join(f'  "{key}": {row}\n' for key, row in zip(keys, rows))
    return argv + draw.write(files)


# The families of edits, each drawn from an rng of its own (see `Draw`), in
# the order they roll on a file or an input.
FAMILIES = (
    # One kernel or model file in thirty has one flat row that repeats,
    # adds or drops a name, so files whose rows differ in width or in names
    # from the first row are compared too. An anytime input rolls its model
    # file first, then each step kernel.
    Family("uneven", ("check", "anytime", "predictive"), ("model", "kernel"), 1 / 30, _uneven),
    # One kernel file in forty has one row that only the general path
    # reads: a scalar, which it refuses, or a row that names one outcome
    # twice, plainly and quoted as `str()` makes its typed label, so that
    # the later value stands.
    Family("general", ("check", "anytime", "predictive"), ("kernel",), 1 / 40, _general_row),
    # One anytime tree in twenty has leaves that miss, repeat or add an
    # outcome, which the check refuses once the kernels are read.
    Family("tree", ("anytime",), ("tree",), 1 / 20, _bad_tree),
    # One `--check fer` kernel in twenty on an intersection-closed space is
    # a measure with one late member's row raised, kept antitone, so the
    # class test's decomposition and its fall-through are compared.
    Family("raised", ("check",), ("kernel",), 1 / 20, _raise, when=_fer_on_closed),
    # One `check` input in ten is drawn again, over an intersection-closed
    # space whose first two points share every member.
    Family("shared", ("check",), ("space", "model", "kernel"), 1 / 10, _redraw_shared, when=lambda *_: True),
)


# The job kinds in the order they run, each a generator of (kind, inputs,
# seeds, count) and its count: inputs drawn, points of the prefix chain or
# mutations of each corpus case; None is `--cycles`, which perfbench reads.
KINDS = {
    "corpus": (corpus_jobs, None),
    "perfbench": (perfbench_jobs, None),
    "decide": (Draw("d", _decide), 720),
    "chain": (chain_jobs, 24),
    "check": (Draw("c", _check), 360),
    "anytime": (Draw("a", _anytime), 120),
    "predictive": (Draw("p", _predictive), 120),
    "space": (Draw("s", _space), 240),
    "closure": (Draw("e", _closure), 240),
    "printed": (Draw("p", _printed), 120),
    "level": (Draw("", _level), 120),
    "argv": (argv_jobs, 5),
}


def family_counts(jobs: list[Job], codes: list) -> list[str]:
    """One line per family and job kind: how many inputs it edited, and how
    many of their jobs gave each exit code in `codes`, this tree's exit
    codes of the jobs that ran, in order."""
    lines = []
    for label in (f"{kind}-{family.name}" for family in FAMILIES for kind in family.jobs):
        edited = [i for i, job in enumerate(jobs) if any(f == label for f, _ in job.edits)]
        exits = Counter(str(codes[i]) for i in edited if i < len(codes))
        lines.append(f"{label}: {len({jobs[i].name for i in edited})} inputs edited; exit codes "
                     + ", ".join(f"{code}: {count}" for code, count in sorted(exits.items())))
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--serve"]:
        serve(argv[1])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare this tree against")
    parser.add_argument("--seeds", type=int, nargs="+", default=[11, 23])
    parser.add_argument("--cycles", type=int, default=2, help="perfbench cycles per workload and seed")
    parser.add_argument("--expect", action="append", default=[], metavar="NAME",
                        help="a job expected to differ; repeat for more")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="differential-") as tmp:
        tmp = Path(tmp)
        base_src = export(args.rev, tmp / "base")
        inputs = tmp / "inputs"
        inputs.mkdir()
        jobs = []
        for kind, (generate, count) in KINDS.items():
            jobs += generate(kind, inputs, args.seeds, args.cycles if count is None else count)
        base, change, codes = Side(base_src, inputs), Side(ROOT / "src", inputs), []

        def run_change(argv: tuple[str, ...]) -> Result:
            result = change(argv)
            codes.append(result[0])
            return result

        try:
            outcome = compare(jobs, base, run_change, args.expect)
        finally:
            base.close()
            change.close()
    print(f"{outcome.jobs} of {len(jobs)} jobs run against {args.rev}")
    print("\n".join(family_counts(jobs, codes)))
    for name in sorted(outcome.expected):
        print(f"expected difference: {name}")
    if outcome.first is not None:
        print(outcome.first.describe())
        return 1
    for name in sorted(set(args.expect) - outcome.expected):
        print(f"expected difference did not occur: {name}")
    print("no unexpected difference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
