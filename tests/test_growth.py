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
import yaml

import helpers
from emeasure import INF, SampleSpace, XValue, cli, fileio
from emeasure import kernels as kn
from emeasure import evidence, spaces, xvalue
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


def test_fer_takes_no_row_identity_on_the_reader_path_and_scales_each_row_object_once(
    monkeypatch, capsys, tmp_path
):
    """L3 `EKernel`: the row reader hands the kernel its row index, the
    distinct rows and each hypothesis's slot among them
    (`EKernel.from_index`), so no pass over the rows runs and `id` is taken
    of no row; the class walk, the claims, the scaled rows and the post-hoc
    miss variables all read that index, and each distinct row object that a
    nonempty hypothesis holds is scaled (`kernels.scale`) once. `check
    --check fer` reads the class and the scaled rows. On the 256-member
    power set of 8 points, with each member taking the row of its least
    point, the kernel file has 9 row texts: 8 rows are scaled. Deriving the
    index from the rows took `id` of a row 256 times, once per hypothesis,
    and walking the identities once for the class and once for the scaled
    rows took it 1,022 times."""
    r = helpers.rng(4404)
    space = helpers.power_space(8)
    sample = SampleSpace(("x", "y", "z"))
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.least_point_kernel(r, space, sample, infinite=False)
    files = {"space": helpers.space_yaml(space), "model": helpers.model_yaml(pa), "kernel": helpers.kernel_yaml(k)}
    argv = ["check", "--check", "fer"]
    for name, text in files.items():
        (tmp_path / f"{name}.yaml").write_text(text)
        argv += [f"--{name}", str(tmp_path / f"{name}.yaml")]
    kernels, inits, identities, scaled = [], [], [], []
    init, from_index, scale = kn.EKernel.__init__, kn.EKernel.from_index, kn.scale

    def counted_id(obj):
        if type(obj) is tuple and obj and type(obj[0]) is XValue:  # a row, not a scaled table
            identities.append(obj)
        return id(obj)

    monkeypatch.setattr(kn.EKernel, "__init__", lambda self, *args: inits.append(args) or init(self, *args))
    monkeypatch.setattr(
        kn.EKernel, "from_index", lambda *args: kernels.append(from_index(*args)) or kernels[-1]
    )
    monkeypatch.setattr(kn, "id", counted_id, raising=False)
    monkeypatch.setattr(kn, "scale", lambda table: scaled.append(table) or scale(table))
    assert cli.main(argv) in (cli.EXIT_OK, cli.EXIT_VIOLATION)
    capsys.readouterr()
    (loaded,) = kernels
    assert inits == [] and identities == []
    distinct = {id(row): row for row in loaded.rows}
    assert len(distinct) == len(loaded.distinct) == 9 and len(loaded.rows) == 256
    rows = [table for table in scaled if id(table) in distinct]
    assert len(rows) == len({id(row) for row in rows}) == 8


def test_the_class_test_makes_one_union_law_test_per_member_on_intersection_closed_spaces(
    monkeypatch,
):
    """L2/L3 `evidence.table_class`: on an intersection-closed space a
    measure is found by one union-law test per nonempty member, each of
    which looks up once, in `HypothesisClass._index`, the member its point
    class leaves, and no join is walked. On power sets of 6, 8 and 10
    points (64, 256 and 1,024 members), for a measure table and for a
    three-outcome measure kernel, the tests number F - 1, a log-log slope
    of 1 in members F. The join walk tested F × n joins."""

    class Counted(dict):
        def __getitem__(self, bits):
            tests.append(bits)
            return dict.__getitem__(self, bits)

    def no_join_walk():
        raise AssertionError("the join walk ran")

    sizes, counts = [6, 8, 10], []
    sample = SampleSpace(("x", "y", "z"))
    for n in sizes:
        r = helpers.rng(n)
        space = helpers.power_space(n)
        family = space.family
        values = helpers.rand_measure(r, space).values
        k = helpers.least_point_kernel(r, space, sample)
        monkeypatch.setattr(family, "_index", Counted(family._index))
        monkeypatch.setattr(family, "irreducible_ids", no_join_walk)
        for table in (lambda: evidence.EFunction(space, values), lambda: k):
            tests = []
            assert table().eclass is evidence.EClass.MEASURE
            assert len(tests) == len(family) - 1 == (1 << n) - 1
        counts.append(len(tests))
    assert abs(slope([1 << n for n in sizes], counts) - 1) < 0.01, counts


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


def _nests_three_deep(value) -> bool:
    """Whether `value` is a list holding a list that holds a list."""
    return isinstance(value, list) and any(
        isinstance(item, list) for inner in value if isinstance(inner, list) for item in inner
    )


def _one_pass(argv) -> dict[str, int]:
    """What a job's reads cost when each table file is read in one pass:
    `fileio._read_table` once per space and tree file, `SpaceFile.resolve`
    once per `--family` label and never for a table row, and the row
    reader's cell memo (`_Cells.__missing__`) once per distinct cell text of
    each kernel, model and evidence file. Every such cell is a decimal int or
    a digit ratio, which the memo types in one step: neither `_xvalue` nor
    `xvalue.read_rational` runs. No scalar needs PyYAML to be typed
    (`_safe_scalar`), and the flow tokenizer (`_flow`) reads only a list
    nested three deep, as a tree of depth three is; a space's lists of
    lists are split without it."""
    kinds = {Path(arg): Path(arg).stem.rpartition("_")[2].rstrip("0123456789")
             for arg in argv if arg.endswith(".yaml")}
    cells = sum(
        len(set(re.findall(r": ([^ ,{}\n]+)(?=[,}\n])", path.read_text())))
        for path, kind in kinds.items() if kind in ("kernel", "model", "evidence")
    )
    deep = sum(
        _nests_three_deep(value)
        for path, kind in kinds.items() if kind in ("space", "tree")
        for value in yaml.safe_load(path.read_text()).values()
    )
    family = argv[argv.index("--family") + 1].split("|") if "--family" in argv else []
    return {
        "_read_table": sum(kind in ("space", "tree") for kind in kinds.values()),
        "resolve": sum(1 for label in family if label),
        "__missing__": cells,
        "_xvalue": 0,
        "read_rational": 0,
        "_safe_scalar": 0,
        "_flow": deep,
    }


def test_a_check_reads_its_table_files_in_one_pass(monkeypatch, capsys, tmp_path):
    """L5 input: perfbench's `check` inputs on the 32-, 64-, 128- and
    256-member chain spaces, its `closure` inputs, and its anytime and
    selection searches have kernel, model and evidence files of the row
    shape, which the row reader reads (`_one_pass`): `fileio._read_table`
    runs only for the space and tree files, and `SpaceFile.resolve` never
    runs for a row; each distinct cell text is typed once and in one step,
    no scalar is typed by PyYAML, and no space list goes through the flow
    tokenizer. Reading a check's files with the general reader runs
    `_read_table` three times and `resolve` once per kernel row."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    import workloads

    hooks = ((fileio, "_read_table"), (fileio.SpaceFile, "resolve"), (fileio._Cells, "__missing__"),
             (fileio, "_xvalue"), (xvalue, "read_rational"), (fileio, "_safe_scalar"),
             (fileio, "_flow"))
    calls = {name: 0 for _, name in hooks}
    for owner, name in hooks:
        def counted(*args, name=name, original=getattr(owner, name)):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
    makers = [
        ("checks", members, lambda c, m=members: workloads.checks_job(c, "validity", m, 3, False))
        for members in (32, 64, 128, 256)
    ]
    makers += [
        ("lattice", 11, lambda c: workloads.closure_job(c, ("blocks", 9, 7), "measure")),
        ("lattice", 23, lambda c: workloads.closure_job(c, ("tangled", 8, 12), "capacity")),
        ("search", 11, lambda c: workloads.anytime_job(c, 2, 3, 3, True)),
        ("search", 23, lambda c: workloads.anytime_job(c, 3, 2, 2, False)),
        ("search", 11, lambda c: workloads.selection_job(c, "self-consistent", 8, "half")),
        ("search", 23, lambda c: workloads.selection_job(c, "closed-ebh", 7, "none")),
    ]
    for n, (workload, seed, make) in enumerate(makers):
        (tmp_path / str(n)).mkdir()
        job = make(workloads.Corpus(tmp_path / str(n), workload, seed))
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(list(job.argv)) == job.expect, job.kind
        assert calls == _one_pass(job.argv), job.kind
    capsys.readouterr()


def test_a_closure_compares_and_wraps_no_value_per_member(monkeypatch, capsys, tmp_path):
    """L5 `closure`, records format, on perfbench's capacity inputs over the
    64-, 256- and 1,024-member chain families: the row reader's table is
    the closure's input as read, and each line is rendered from its
    values' texts, so neither `XValue.__eq__` nor `xvalue.as_xvalue` runs
    once per member. Each runs at most once per distinct value of the
    table, and its count (plus one, so that none counts 0) grows with a
    log-log slope of at most 0.2 in members; once per member is a slope
    of 1."""
    monkeypatch.syspath_prepend(Path(__file__).resolve().parents[1] / "perfbench")
    import workloads

    calls = {"__eq__": 0, "as_xvalue": 0}
    eq, as_xvalue = XValue.__eq__, xvalue.as_xvalue

    def counted_eq(self, other):
        calls["__eq__"] += 1
        return eq(self, other)

    def counted_as_xvalue(value):
        calls["as_xvalue"] += 1
        return as_xvalue(value)

    monkeypatch.setattr(XValue, "__eq__", counted_eq)
    for module in (xvalue, evidence, kn, fileio, cli):
        if getattr(module, "as_xvalue", None) is as_xvalue:
            monkeypatch.setattr(module, "as_xvalue", counted_as_xvalue)
    sizes, counts = [64, 256, 1024], {name: [] for name in calls}
    for points in (6, 8, 10):
        corpus = workloads.Corpus(tmp_path / str(points), "lattice", 11)
        corpus.dir.mkdir()
        job = workloads.closure_job(corpus, ("chains", (1,) * points, "preorder"), "capacity")
        calls.update(dict.fromkeys(calls, 0))
        assert cli.main(list(job.argv)) == cli.EXIT_OK
        distinct = len(set(re.findall(r" before=(\S+)", capsys.readouterr().out)))
        assert max(calls.values()) <= distinct, (points, calls, distinct)
        for name, count in calls.items():
            counts[name].append(count + 1)
    for name, series in counts.items():
        assert slope(sizes, series) <= 0.2, (name, series)


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


def _distinct_step_pairs(proc):
    """How many distinct (step values on the tree's nodes, contained point)
    pairs a process's nonempty hypotheses make; equal values scale to one
    vector."""
    family, nodes = proc.space.family, proc.tree.nodes
    return len({
        (tuple(proc.kernels[t].rows[hid][lo] for t, lo, _, _ in nodes), pi)
        for hid in family.nonempty_ids() for pi in helpers.points_of(family.member(hid))
    })


def test_anytime_walks_every_tree_node_once_per_pair(monkeypatch, capsys, tmp_path):
    """L3 anytime: the envelope is the pair walk's statistic, so it makes
    one backward pass (`kernels._snell`) per distinct (step vector,
    contained point) pair, each over every tree node, and one more to
    build the witness rule of a violated process; so at most pairs × tree
    nodes. Checked on seeded processes over the power sets of 2, 3 and 4
    points and random trees, and through `check` on the 256-member
    power-set process (1,024 pairs, 33 distinct step vectors): 107 passes
    when it is valid and 108 when it is violated, where a pass per pair
    makes 1,024. There the step vectors are scaled (`kernels.scale`) once
    per distinct tuple of a hypothesis's step-row objects, 33 times, where
    scaling one per nonempty hypothesis made 255."""
    walks = {"calls": 0, "nodes": 0}
    snell, check, scale = kn._snell, kn.check_anytime_validity, kn.scale
    checked = []
    scales = [0]

    def counted_scale(table):
        scales[0] += 1
        return scale(table)

    def counted(children, stop):
        w = snell(children, stop)
        walks["calls"] += 1
        walks["nodes"] += len(w)
        return w

    def recorded(proc, pa):
        scales[0] = 0
        checked.append((proc, check(proc, pa)))
        return checked[-1][1]

    def expected(proc, report):
        calls = _distinct_step_pairs(proc) + (not report.stats.ok)
        return {"calls": calls, "nodes": calls * len(proc.tree.nodes)}

    monkeypatch.setattr(kn, "_snell", counted)
    monkeypatch.setattr(kn, "check_anytime_validity", recorded)
    for n in (2, 3, 4):
        r = helpers.rng(4100 + n)
        space = helpers.power_space(n)
        tree = helpers.rand_tree(r, max_depth=n)
        proc = helpers.rand_process(r, space, tree, allow_inf=n % 2 == 1)
        pa = helpers.rand_pa(r, space.model, tree.sample, full_support=n != 3)
        walks.update(calls=0, nodes=0)
        assert walks == expected(proc, kn.check_anytime_validity(proc, pa)), n
    monkeypatch.setattr(kn, "scale", counted_scale)
    for violate in (False, True):
        argv = _power_set_argv(tmp_path / str(violate), violate, anytime=True)
        walks.update(calls=0, nodes=0)
        code = cli.main(argv + ["--check", "anytime"])
        assert code == (cli.EXIT_VIOLATION if violate else cli.EXIT_OK)
        proc, report = checked[-1]
        assert walks["calls"] == 107 + violate
        assert scales[0] == 33
        assert walks == expected(proc, report)
    capsys.readouterr()


def _power_set_argv(path, violate, anytime=False):
    """`check` files of a valid measure kernel on the 256-member power set
    of 8 points with three outcomes, or of that kernel tripled, which
    violates validity. With `anytime`, the kernel is step 1 of a process
    on the one-level tree [x, y, z] whose step 0 is the constant 1."""
    r = helpers.rng(3707)
    space = helpers.power_space(8)
    sample = SampleSpace(("x", "y", "z"))
    pa = helpers.rand_pa(r, space.model, sample)
    k = helpers.valid_measure_kernel(r, space, pa)
    if violate:
        k = helpers.scaled_kernel(k, XValue(3))
    path.mkdir()
    files = {"space": helpers.space_yaml(space), "model": helpers.model_yaml(pa)}
    kernels = [k]
    if anytime:
        files["tree"] = "tree: [x, y, z]\n"
        kernels.insert(0, helpers.constant_kernel(space, sample, helpers.unit_measure(space)))
    argv = ["check"]
    for name, text in files.items():
        (path / f"{name}.yaml").write_text(text)
        argv += [f"--{name}", str(path / f"{name}.yaml")]
    argv.append("--kernel")
    for t, kernel in enumerate(kernels):
        (path / f"kernel_{t}.yaml").write_text(helpers.kernel_yaml(kernel))
        argv.append(str(path / f"kernel_{t}.yaml"))
    return argv


@pytest.mark.parametrize("options, violate, entries", [
    (["--check", "validity", "--format", "records"], False, 0),
    (["--check", "posthoc", "--format", "records"], False, 0),
    (["--check", "posthoc", "--rule", "1/2", "--format", "records"], False, 0),
    (["--check", "fer"], False, 0),
    (["--check", "fer", "--format", "records"], True, 0),
    (["--check", "validity"], True, 1),
    (["--check", "anytime"], False, 0),
    (["--check", "anytime"], True, 1),
], ids=["validity", "posthoc", "posthoc-level", "fer", "fer-violated", "validity-witness",
        "anytime", "anytime-witness"])
def test_pair_checks_build_only_the_entries_they_print(
    monkeypatch, capsys, tmp_path, options, violate, entries
):
    """L3/L5: a pair walk builds no `kernels.Entry`; the records render from
    the walk and the FER rate is its largest statistic. So on the
    256-member power set (1,024 pairs) `check` builds no entry for the
    records of validity and post-hoc validity, nor for FER's rate, and a
    violated validity check in text builds one, the witness it prints.
    The anytime envelope is a statistic of the same walk, whose first
    violation names the pair its rule is built for: a valid process builds
    no entry and a violated one builds its witness. Building the entries
    eagerly makes 1,024 per run."""
    argv = _power_set_argv(tmp_path / "files", violate, "anytime" in options) + options
    built = []
    init = kn.Entry.__init__
    monkeypatch.setattr(kn.Entry, "__init__", lambda self, *args, **kwargs: (
        built.append(1) or init(self, *args, **kwargs)
    ))
    code = cli.main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert (code, len(built)) == (cli.EXIT_VIOLATION if violate else cli.EXIT_OK, entries)
    if "fer" not in options and "records" in options:
        assert len(lines) == 1024
    assert sum(line.startswith("first violation") for line in lines) == entries
