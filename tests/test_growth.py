"""Growth contracts: how an operation count scales with what drives a
layer's cost, fitted as a log-log slope over seeded instances of three sizes.

Counts are exact where timings would be flaky, so each contract states the
exponent its layer's docstring claims, with a slack, next to that claim.
"""

import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from emeasure import INF, SampleSpace, XValue, cli, fileio
from emeasure import kernels as kn
from emeasure import spaces
from emeasure.xvalue import order_keys


def slope(sizes, counts):
    """Least-squares slope of log(count) against log(size)."""
    xs, ys = [math.log(s) for s in sizes], [math.log(c) for c in counts]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def test_order_key_bits_grow_about_linearly_in_coprime_denominators():
    """L0 `order_keys`: no key is wider than its value by more than twice the
    bit length of the widest denominator, so over N values with distinct
    prime denominators the keys hold about N log N bits in all. Keys scaled
    to the lcm of every denominator would hold about N² log N."""
    primes = helpers.first_primes(1024)
    sizes, bits = [64, 256, 1024], []
    for n in sizes:
        r = helpers.rng(n)
        values = [XValue(Fraction(r.randint(1, max(p - 1, 1)), p)) for p in primes[:n]]
        keys = order_keys(values + [INF])
        bits.append(sum(key.bit_length() for key in keys))
    assert slope(sizes, bits) <= 1.3, bits


def test_pair_checks_grow_with_distinct_rows_not_with_pairs(monkeypatch, capsys):
    """L3 `kernels._pair_report`: the statistics, and the records that render
    them, are computed once per distinct (row, point), not once per pair.
    On power sets of n points whose members take the row of their
    least-density point there are at most n distinct rows and n(n+1)/2
    such (row, point) pairs, while the (member, point) pairs number
    n·2^(n-1). Both counts must grow as about n², far below the slope
    of 6.4 that one statistic and one record per pair would give. The
    identity-map pushforward re-check is the same walk: it gives
    `check_validity`'s entries at the same growth."""
    sizes, pairs, stats, records, pushed = [6, 8, 10], [], [], [], []
    calls = {"stats": 0, "records": 0}
    dot_at_most, record = kn.dot_at_most, XValue.record

    def counted_dot(*args):
        calls["stats"] += 1
        return dot_at_most(*args)

    def counted_record(self):
        calls["records"] += 1
        return record(self)

    monkeypatch.setattr(kn, "dot_at_most", counted_dot)
    monkeypatch.setattr(XValue, "record", counted_record)
    for n in sizes:
        r = helpers.rng(n)
        space = helpers.power_space(n)
        sample = SampleSpace(("x", "y", "z"))
        pa = helpers.rand_pa(r, space.model, sample)
        k = helpers.least_point_kernel(r, space, sample, infinite=False)
        calls.update(stats=0, records=0)
        report = kn.check_validity(k, pa)
        stats.append(calls["stats"])
        cli._report_entries(cli.Printer("records"), "validity", report, space)
        records.append(calls["records"])
        pairs.append(len(capsys.readouterr().out.splitlines()))
        calls.update(stats=0)
        _, again = kn.pushforward_kernel(k, {p: p for p in space.model.points}, space, pa)
        pushed.append(calls["stats"])
        assert again == report
    assert pairs == [n << (n - 1) for n in sizes]
    assert slope(sizes, stats) <= 2.2, stats
    assert slope(sizes, records) <= 2.2, records
    assert slope(sizes, pushed) <= 2.2, pushed


def write_decide_files(path, n):
    """Two `decide` inputs on the n-point suffix chain p1..pn (members the
    suffixes), with a constant kernel: `incomparable.yaml`, two decisions
    whose loss rows are pairwise incomparable, so the induced class is the
    power set and the check refuses its first member {p1}; and
    `unique.yaml`, n decisions each uniquely best at one point (loss
    2i + [d != d_i]), whose upper sets are the suffixes and whose decision
    sets are n disjoint singletons."""
    points = [f"p{i}" for i in range(1, n + 1)]
    suffixes = [points[i:] for i in range(n)]
    decisions = [f"d{i}" for i in range(1, n + 1)]
    files = {
        "space": f"points: [{', '.join(points)}]\ngenerators: ["
        + ", ".join(f"[{', '.join(s)}]" for s in suffixes) + "]\n",
        "model": "pmf:\n" + "".join(f"  {p}: {{x: 1/2, y: 1/2}}\n" for p in points),
        "kernel": "kernel:\n" + "".join(f'  "{",".join(s)}": {{x: 1, y: 1}}\n' for s in suffixes),
        "incomparable": "decisions: [a, b]\nloss:\n" + "".join(
            f"  {p}: {{a: {i}, b: {n - i}}}\n" for i, p in enumerate(points, 1)
        ),
        "unique": f"decisions: [{', '.join(decisions)}]\nloss:\n" + "".join(
            f"  {p}: {{{', '.join(f'{d}: {2 * i + (d != decisions[i])}' for d in decisions)}}}\n"
            for i, p in enumerate(points)
        ),
    }
    for name, text in files.items():
        (path / f"{name}.yaml").write_text(text)


def test_decide_builds_no_family_past_the_space_file(monkeypatch, capsys, tmp_path):
    """L5 `decide`: the class a consequence table induces is checked at its
    n generators and never built, and the optimality groups are read off
    the space file's family, so on both instances of `write_decide_files`
    at n = 8, 12 and 16 the largest family any `union_closure` call builds
    is the space file's own n + 1 members. Building the induced class, or
    the union closure of the n disjoint decision sets, builds 2^n."""
    largest = []
    original = spaces.union_closure

    def counted(*args, **kwargs):
        family = original(*args, **kwargs)
        largest[-1] = max(largest[-1], len(family))
        return family

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "emeasure" and getattr(module, "union_closure", None) is original:
            monkeypatch.setattr(module, "union_closure", counted)
    for n in (8, 12, 16):
        write_decide_files(tmp_path, n)
        argv = ["decide"]
        for name in ("space", "model", "kernel"):
            argv += [f"--{name}", str(tmp_path / f"{name}.yaml")]
        for decisions, extra, code in (
            ("incomparable", [], cli.EXIT_INPUT),
            ("unique", ["--outcome", "x"], cli.EXIT_OK),
        ):
            largest.append(0)
            got = cli.main([*argv, "--decisions", str(tmp_path / f"{decisions}.yaml"), *extra])
            err = capsys.readouterr().err
            assert (got, largest[-1]) == (code, n + 1), (n, decisions)
            assert err.endswith("misses the bound hypothesis p1\n" if code else "")


def write_chain_files(path, n, decisions):
    """A `decide` input on the n-point prefix chain p1..pn (members the
    prefixes), with two outcomes H and T, a constant kernel 1 and a loss
    (n - i)·D + j for point p_i and decision d_j of D: all n·D losses are
    distinct and each column falls along the chain, so every bound
    hypothesis is a prefix."""
    points = [f"p{i}" for i in range(1, n + 1)]
    prefixes = [points[:i] for i in range(1, n + 1)]
    labels = [f"d{j}" for j in range(1, decisions + 1)]
    files = {
        "space": f"points: [{', '.join(points)}]\ngenerators: ["
        + ", ".join(f"[{', '.join(p)}]" for p in prefixes) + "]\n",
        "model": "pmf:\n" + "".join(f"  {p}: {{H: 1/2, T: 1/2}}\n" for p in points),
        "kernel": "kernel:\n" + "".join(f'  "{",".join(p)}": {{H: 1, T: 1}}\n' for p in prefixes),
        "decisions": f"decisions: [{', '.join(labels)}]\nloss:\n" + "".join(
            f"  {p}: {{{', '.join(f'{d}: {(n - i) * decisions + j}' for j, d in enumerate(labels, 1))}}}\n"
            for i, p in enumerate(points, 1)
        ),
    }
    argv = ["decide"]
    for name, text in files.items():
        (path / f"{name}.yaml").write_text(text)
        argv += [f"--{name}", str(path / f"{name}.yaml")]
    return argv


def test_decide_comparisons_grow_linearly_in_the_decisions(monkeypatch, capsys, tmp_path):
    """L5 `decide --bound grunwald --outcome H`: the integrals read each
    decision's levels off its bound table, each point's ratio compares its
    D ratios, and admissibility compares decisions on packed order keys, so
    on the 12-point prefix chain with D = 6, 12 and 24 decisions (12·D
    distinct losses) the `XValue` comparisons grow as D. Comparing the D²
    pairs of decisions at all 12·D consequences on `XValue`s gives a slope
    of 2.3 (7,310 / 29,813 / 180,873 comparisons)."""
    calls = [0]
    for name in ("__ge__", "__gt__", "__le__", "__lt__"):
        original = getattr(XValue, name)

        def counted(self, other, original=original):
            calls[0] += 1
            return original(self, other)

        monkeypatch.setattr(XValue, name, counted)
    sizes, counts = [6, 12, 24], []
    for decisions in sizes:
        argv = write_chain_files(tmp_path, 12, decisions)
        calls[0] = 0
        assert cli.main([*argv, "--bound", "grunwald", "--outcome", "H"]) == cli.EXIT_OK
        counts.append(calls[0])
    capsys.readouterr()
    assert slope(sizes, counts) <= 1.3, counts


@pytest.mark.parametrize("bound", ["econsequence", "grunwald"])
@pytest.mark.parametrize("outcome", [[], ["--outcome", "H"]], ids=["all", "slice"])
def test_a_numeric_decide_builds_no_fraction_and_validates_no_order(
    monkeypatch, capsys, tmp_path, bound, outcome
):
    """The numeric consequence order is sorted on order keys, built total
    and not validated, and the integral reads its levels off the bound
    table, so a `decide` run on integer losses builds no `Fraction` and
    walks no `Preorder.validate` (the 12-point prefix chain with 12
    decisions; sorting the losses as Fractions built 144 to 864, and
    validating the order of 144 losses walks its 10,440 pairs)."""
    calls = {"Fraction": 0, "validate": 0}
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls["Fraction"] += 1
        return original(cls, *args, **kwargs)

    def validate(self):
        calls["validate"] += 1

    argv = write_chain_files(tmp_path, 12, 12)
    monkeypatch.setattr(spaces.Preorder, "validate", validate)
    monkeypatch.setattr(Fraction, "__new__", counted)
    code = cli.main([*argv, "--bound", bound, *outcome])
    monkeypatch.undo()
    capsys.readouterr()
    assert (code, calls) == (cli.EXIT_OK, {"Fraction": 0, "validate": 0})


def test_a_numeric_decision_problem_renders_each_distinct_loss_once(monkeypatch, tmp_path):
    """L5 `fileio.load_decision_problem`: a numeric table's cells are the
    ranks of its losses, so loading renders each distinct loss once, as its
    consequence label, and no cell. On the 12-point prefix chain with D = 6,
    12 and 24 decisions that is 72, 144 and 288 `XValue.record` calls;
    rendering every cell and looking each label up again made 144, 288 and
    576."""
    calls = [0]
    record = XValue.record

    def counted(self):
        calls[0] += 1
        return record(self)

    counts = []
    for decisions in (6, 12, 24):
        write_chain_files(tmp_path, 12, decisions)
        model = fileio.load_space(tmp_path / "space.yaml").space.model
        monkeypatch.setattr(XValue, "record", counted)
        calls[0] = 0
        table = fileio.load_decision_problem(tmp_path / "decisions.yaml", model)
        monkeypatch.undo()
        counts.append(calls[0])
        assert len(table.cspace.elements) == 12 * decisions
    assert counts == [72, 144, 288]


def test_a_check_reads_its_table_files_in_one_pass(monkeypatch, capsys, tmp_path):
    """L5 input: perfbench's `check` inputs on the 32-, 64-, 128- and
    256-member chain spaces have kernel and model files of the row shape,
    which the row reader reads: per job `fileio._read_table` runs once, for
    the space file, `SpaceFile.resolve` never runs, and `_xvalue` runs once
    per distinct cell text of the kernel and the model file. Reading them
    with the general reader runs `_read_table` three times and `resolve`
    once per kernel row."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    import workloads

    calls = {"_read_table": 0, "resolve": 0, "_xvalue": 0}
    for owner, name in ((fileio, "_read_table"), (fileio.SpaceFile, "resolve"), (fileio, "_xvalue")):
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    for members in (32, 64, 128, 256):
        corpus = workloads.Corpus(tmp_path, "checks", members)
        argv = list(workloads.checks_job(corpus, "validity", members, 3, False).argv)
        cells = sum(
            len(set(re.findall(r": ([^ ,{}]+)[,}]", Path(argv[argv.index(option) + 1]).read_text())))
            for option in ("--kernel", "--model")
        )
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == {"_read_table": 1, "resolve": 0, "_xvalue": cells}, members
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["fwe", "fer-family", "predictive"])
def test_point_checks_make_one_expectation_per_point(monkeypatch, capsys, tmp_path, kind):
    """L3 FWE, FER with a rule and the predictive sup: each is the pair walk
    of one variable per point, or of one variable over all points, so on
    perfbench's `check` inputs on the 32-, 64-, 128- and 256-member chain
    spaces `kernels.dot_at_most` runs exactly once per model point, however
    many members the space has."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    import workloads

    calls = [0]
    dot_at_most = kn.dot_at_most

    def counted(*args):
        calls[0] += 1
        return dot_at_most(*args)

    monkeypatch.setattr(kn, "dot_at_most", counted)
    for members in (32, 64, 128, 256):
        corpus = workloads.Corpus(tmp_path, "checks", members)
        argv = list(workloads.checks_job(corpus, kind, members, 3, False).argv)
        points = fileio.load_space(argv[argv.index("--space") + 1]).space.model.size
        calls[0] = 0
        assert cli.main(argv) == cli.EXIT_OK
        assert calls[0] == points, (kind, members)
    capsys.readouterr()
