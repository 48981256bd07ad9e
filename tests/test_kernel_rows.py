"""Kernels stored as one row per hypothesis, read from kernel files.

Seeded kernels from the helpers' generators are written as kernel files
and loaded. What the loaded rows give is checked against the generated
tables: each per-outcome table, and every check's entries against the
oracles, which read the generated per-outcome tables.
"""

from fractions import Fraction
from pathlib import Path

import pytest

import helpers
from emeasure import (
    EClass,
    EKernel,
    EProcess,
    INF,
    SampleSpace,
    XValue,
    ZERO,
    check_anytime_validity,
    check_fer,
    check_fwe,
    check_posthoc_validity,
    check_predictive_validity,
    check_validity,
    eposterior_closed,
    eposterior_raw,
    sup_of,
)
from emeasure import fileio
from emeasure import kernels as kn
from emeasure.evidence import ClassMismatch, from_values
from emeasure.multiplicity import SelectionRule

DATA = Path(__file__).parent / "data"


def written(directory, space, pa, kernels, r=None):
    """The space, the distributions and each kernel, written as files and loaded."""
    directory.mkdir()
    (directory / "space.yaml").write_text(helpers.space_yaml(space))
    (directory / "model.yaml").write_text(helpers.model_yaml(pa))
    sf = fileio.load_space(directory / "space.yaml")
    loaded_pa = fileio.load_pmfs(directory / "model.yaml", sf.space.model)
    loaded = []
    for t, k in enumerate(kernels):
        path = directory / f"kernel{t}.yaml"
        path.write_text(helpers.kernel_yaml(k, r, empty=bool(t % 2)))
        loaded.append(fileio.load_kernel(path, sf, loaded_pa.sample))
    return sf, loaded_pa, loaded


def variable(k, hid):
    """The generated evidence against one hypothesis, read off its per-outcome tables."""
    return [col.values[hid] for col in k.columns]


def pairs(space):
    return [(hid, pi) for hid in space.family.nonempty_ids() for pi in space.family.indices(hid)]


def is_capacity(k):
    return all(helpers.oracle_eclass(k.space, col.values) >= EClass.CAPACITY for col in k.columns)


def kernel_cases(seed, count):
    """Seeded (space, distributions, kernel) triples on intersection-closed
    spaces: valid measure and capacity kernels, scaled copies that violate,
    and bare tables that are no capacity."""
    r = helpers.rng(seed)
    for n in range(count):
        space = helpers.rand_ic_space(r, max_points=4, max_members=12)
        sample = helpers.rand_sample(r, max_outcomes=4)
        pa = helpers.rand_pa(r, space.model, sample, full_support=n % 3 != 0)
        if n % 4 == 3:
            cols = [
                from_values(space, [INF] + [helpers.rand_xvalue(r) for _ in space.family.members[1:]])
                for _ in sample.outcomes
            ]
            k = helpers.kernel_of(space, sample, cols)
        else:
            k = (helpers.valid_measure_kernel if n % 2 else helpers.valid_capacity_kernel)(r, space, pa)
            if n % 4 == 2:
                k = helpers.scaled_kernel(k, XValue(Fraction(3, 2)))
        yield r, space, pa, k


def test_loaded_rows_give_every_check_the_oracle_values(tmp_path):
    verdicts, capacities, infinite = set(), set(), 0
    for n, (r, space, pa, k) in enumerate(kernel_cases(1701, 40)):
        sf, lpa, (loaded,) = written(tmp_path / str(n), space, pa, [k])
        assert loaded.space == space and lpa == pa
        for x in range(loaded.sample.size):
            assert loaded.column(x) == from_values(space, [row[x] for row in loaded.rows])
            assert loaded.column(x).values == k.columns[x].values
        infinite += any(v.is_inf for row in loaded.rows[1:] for v in row)

        validity = check_validity(loaded, lpa)
        expected = [(hid, pi, helpers.oracle_expectation(pa.pmfs[pi], variable(k, hid))) for hid, pi in pairs(space)]
        points = space.model.points
        assert [(e.hid, e.point, e.stat, e.ok) for e in validity.entries] == [
            (hid, points[pi], stat, stat <= 1) for hid, pi, stat in expected
        ]
        verdicts.add(validity.ok)

        level = Fraction(1, r.randint(1, 4))
        cut = XValue(1 / level)
        posthoc = check_posthoc_validity(loaded, lpa, {x: XValue(level) for x in loaded.sample.outcomes})
        assert [(e.hid, e.point, e.stat, e.ok) for e in posthoc.entries] == [
            (hid, points[pi], stat, stat <= 1)
            for hid, pi in pairs(space)
            for stat in [helpers.oracle_expectation(
                pa.pmfs[pi], [cut if v >= cut else ZERO for v in variable(k, hid)]
            )]
        ]

        fwe = check_fwe(loaded, lpa)
        assert [e.stat for e in fwe.entries] == [
            helpers.oracle_expectation(pa.pmfs[pi], [
                sup_of(col.values[hid] for hid in range(len(space.family)) if space.family.member(hid) >> pi & 1)
                for col in k.columns
            ])
            for pi in range(space.model.size)
        ]

        capacity = is_capacity(k)
        assert loaded.is_capacity == capacity
        capacities.add(capacity)
        nonempty = space.family.nonempty_ids()
        selected = r.sample(nonempty, min(len(nonempty), r.randint(1, 3)))
        if not capacity:
            with pytest.raises(ClassMismatch):
                check_fer(loaded, lpa)
            continue
        assert check_fer(loaded, lpa) == validity
        fer = check_fer(loaded, lpa, SelectionRule.fixed(loaded.sample, selected))
        assert [e.stat for e in fer.entries] == [
            helpers.oracle_expectation(pa.pmfs[pi], [
                sum((col.values[hid] for hid in selected if space.family.member(hid) >> pi & 1), ZERO)
                / XValue(len(selected))
                for col in k.columns
            ])
            for pi in range(space.model.size)
        ]

        prior = helpers.rand_capacity(r, space, allow_inf=False)
        products = [from_values(space, [p * v for p, v in zip(prior.values, col.values)]) for col in k.columns]
        _, raw = eposterior_raw(prior, loaded, lpa)
        for entry, hid in zip(raw.entries, space.family.nonempty_ids()):
            stats = [
                helpers.oracle_expectation(pa.pmfs[pi], [col.values[hid] for col in products])
                for pi in space.family.indices(hid)
            ]
            assert (entry.hid, entry.stat, entry.bound) == (hid, max(stats), prior.values[hid])
        closed_cols = [helpers.oracle_closure(col) for col in products]
        least = space.least_ids()
        _, closed = eposterior_closed(prior, loaded, lpa)
        assert [(e.hid, e.point, e.stat, e.bound) for e in closed.entries] == [
            (hid, points[pi], helpers.oracle_expectation(pa.pmfs[pi], [col[hid] for col in closed_cols]),
             prior.values[least[pi]])
            for hid, pi in pairs(space)
        ]
    assert verdicts == {True, False} and capacities == {True, False} and infinite


def test_loaded_rows_give_the_predictive_check_the_oracle_values(tmp_path):
    r = helpers.rng(1703)
    identities = set()
    for n in range(25):
        space = helpers.rand_ic_space(r, max_points=4, max_members=12)
        sample = SampleSpace(space.model.points)
        pa = helpers.rand_pa(r, space.model, sample, full_support=n % 2 == 0)
        k = helpers.kernel_of(space, sample, [helpers.rand_capacity(r, space) for _ in sample.outcomes])
        _, lpa, (loaded,) = written(tmp_path / str(n), space, pa, [k])
        report = check_predictive_validity(loaded, lpa)
        least = space.least_ids()
        sups = [
            sup_of(col.values[hid] for hid in range(len(space.family)) if space.family.member(hid) >> xi & 1)
            for xi, col in enumerate(k.columns)
        ]
        assert tuple((e.point, e.stat, e.bound, e.ok) for e in report.identity.entries) == tuple(
            (x, sup, col.values[least[xi]], sup == col.values[least[xi]])
            for xi, (x, sup, col) in enumerate(zip(sample.outcomes, sups, k.columns))
        )
        assert [e.stat for e in report.stats.entries] == [
            helpers.oracle_expectation(pmf, sups) for pmf in pa.pmfs
        ]
        identities.add(report.identity.ok)
    assert True in identities


def test_loaded_step_rows_give_the_anytime_walk_the_oracle_values(tmp_path):
    r = helpers.rng(1705)
    verdicts = set()
    for n in range(30):
        space = helpers.rand_uc_space(r, max_points=3, max_members=6)
        tree = helpers.rand_tree(r)
        proc = helpers.rand_process(r, space, tree, allow_inf=r.random() < 0.4)
        pa = helpers.rand_pa(r, space.model, tree.sample, full_support=r.random() < 0.5)
        _, lpa, loaded = written(tmp_path / str(n), space, pa, proc.kernels, r)
        report = check_anytime_validity(EProcess(tree, loaded), lpa)
        points = space.model.points
        assert {(e.hid, points.index(e.point)): e.stat for e in report.stats.entries} == (
            helpers.oracle_anytime(proc, pa)
        )
        verdicts.add(report.stats.ok)
    assert verdicts == {True, False}


def test_rows_listing_outcomes_out_of_order_read_as_ordered_rows(tmp_path):
    shuffled_rows = 0
    for n, (r, space, pa, k) in enumerate(kernel_cases(1707, 30)):
        _, lpa, (ordered,) = written(tmp_path / f"{n}-ordered", space, pa, [k])
        _, _, (shuffled,) = written(tmp_path / f"{n}-shuffled", space, pa, [k], r)
        text = (tmp_path / f"{n}-shuffled" / "kernel0.yaml").read_text()
        shuffled_rows += text != (tmp_path / f"{n}-ordered" / "kernel0.yaml").read_text()
        assert shuffled.rows == ordered.rows == k.rows
        assert check_validity(shuffled, lpa) == check_validity(ordered, lpa)
        rule = {x: XValue(Fraction(1, 2)) for x in k.sample.outcomes}
        assert check_posthoc_validity(shuffled, lpa, rule) == check_posthoc_validity(ordered, lpa, rule)
        assert shuffled.is_capacity == ordered.is_capacity
    assert shuffled_rows


COIN_ROWS = {
    "p": "{HH: 1, HT: 1, TH: 1, TT: 1}",
    "q": "{HH: 1, HT: 1, TH: 1, TT: 1}",
    "p,q": "{HH: 1, HT: 1, TH: 1, TT: 1}",
}


@pytest.mark.parametrize("rows, message", [
    ({"p": "{HH: true, HT: 1, TH: 1, TT: 1}", "{}": "{HH: 1, HT: 1, TH: 1, TT: 1}"},
     "not an evidence value: True"),
    ({"p": "{HH: 1, HT: 1, TH: 1, TT: 1, ZZ: 1}", "{}": "{HH: 1, HT: 1, TH: 1, TT: 1}"},
     "kernel misses hypotheses: ['q', 'p,q']"),
    ({**COIN_ROWS, "p": "{HH: 1, HT: 1, TH: 1, TT: 1, ZZ: 1}", "q": "{HH: 1, HT: 1, TH: 1}",
      "{}": "{HH: 1, HT: 1, TH: 1, TT: 1}"},
     "row for 'p' has unknown outcomes ['ZZ']"),
    ({"q": "{HH: 1, HT: 1, TH: 1}", "p": "{HH: 1, HT: 1, TH: 1, TT: 1, ZZ: 1}", "p,q": COIN_ROWS["p,q"],
      "{}": "{HH: 1, HT: 1, TH: 1, TT: 1}"},
     "row for 'q' misses outcome 'TT'"),
    ({**COIN_ROWS, "p": "{TT: 1, HH: 1, HT: 1}"}, "row for 'p' misses outcome 'TH'"),
    ({**COIN_ROWS, "p": "{TT: 1, HH: 1, HT: 1, ZZ: 2, TH: 1}"}, "row for 'p' has unknown outcomes ['ZZ']"),
    ({**COIN_ROWS, "{}": "{TT: inf, HH: inf, HT: 1, TH: inf}"},
     "the empty hypothesis must carry infinite evidence"),
    ({**COIN_ROWS, "{}": "{HH: inf, HT: inf, TH: inf, TT: 0}"},
     "the empty hypothesis must carry infinite evidence"),
    ({**COIN_ROWS, "q": "{HH: true, HT: 1, TH: 1, TT: 1}"}, "not an evidence value: True"),
], ids=["bad-value-first", "missing-hypothesis", "unknown-outcome-first", "missing-outcome-first",
        "out-of-order-missing", "out-of-order-unknown", "out-of-order-empty-finite", "empty-finite",
        "bool-after-an-equal-row"])
def test_kernel_load_errors_keep_their_order(tmp_path, rows, message):
    """A bad value is refused as it is read; then a missing hypothesis, then
    the first bad row in file order, then a finite value of the empty member."""
    sf = fileio.load_space(DATA / "space_coin.yaml")
    pa = fileio.load_pmfs(DATA / "model_coin.yaml", sf.space.model)
    path = tmp_path / "kernel.yaml"
    path.write_text("kernel:\n" + "".join(f'  "{label}": {row}\n' for label, row in rows.items()))
    with pytest.raises(fileio.SchemaError) as err:
        fileio.load_kernel(path, sf, pa.sample)
    assert str(err.value) == f"{path}: {message}"


def test_equal_rows_are_read_and_scaled_once(tmp_path, monkeypatch):
    """Rows that list the same scalars in order are one tuple, scaled once
    for all the checks that read them."""
    sf = fileio.load_space(DATA / "space_coin.yaml")
    pa = fileio.load_pmfs(DATA / "model_coin.yaml", sf.space.model)
    path = tmp_path / "kernel.yaml"
    path.write_text("kernel:\n" + "".join(
        f'  "{label}": {{HH: 1/2, HT: 1, TH: 1, TT: 3/2}}\n' for label in ("p", "q", "p,q")
    ) + '  "{}": {HH: inf, HT: inf, TH: inf, TT: inf}\n')
    kernel = fileio.load_kernel(path, sf, pa.sample)
    rows = [kernel.rows[sf.resolve(path, label)] for label in ("p", "q", "p,q")]
    assert rows[0] is rows[1] is rows[2]
    scaled = []
    scale = kn.scale
    monkeypatch.setattr(kn, "scale", lambda table: scaled.append(1) or scale(table))
    rule = {x: XValue(Fraction(1, 2)) for x in pa.sample.outcomes}
    validity = check_validity(kernel, pa)
    posthoc = check_posthoc_validity(kernel, pa, rule)
    assert check_fer(kernel, pa) == validity
    assert len(scaled) == 1 + 1  # the shared row, and the rule's thresholds
    for report, cut in ((validity, None), (posthoc, XValue(2))):
        for entry in report.entries:
            values = variable(kernel, entry.hid)
            if cut is not None:
                values = [cut if v >= cut else ZERO for v in values]
            pmf = pa.pmfs[pa.model.index(entry.point)]
            assert entry.stat == helpers.oracle_expectation(pmf, values)


def test_checks_on_a_loaded_kernel_build_no_fraction(tmp_path, monkeypatch):
    """Loading a seeded model file, and validity, both post-hoc levels, FWE
    and FER of a fixed rule on a 256-member kernel, work on the values'
    integer pairs: once the kernel is built, none constructs a Fraction."""
    r = helpers.rng(29)
    space = helpers.power_space(8)
    sample = helpers.rand_sample(r, max_outcomes=4, min_outcomes=3)
    pa = helpers.rand_pa(r, space.model, sample, full_support=False)
    k = EKernel(space, sample, helpers.valid_capacity_kernel(r, space, pa).rows)
    rule = {x: XValue(Fraction(i + 1, 3)) for i, x in enumerate(sample.outcomes)}
    selection = SelectionRule(sample, tuple(tuple(r.sample(range(1, 256), 6)) for _ in sample.outcomes))
    (tmp_path / "model.yaml").write_text(helpers.model_yaml(pa))
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **kw: built.append(a) or new(cls, *a, **kw))
    loaded = fileio.load_pmfs(tmp_path / "model.yaml", space.model)
    reports = [
        check_validity(k, loaded),
        check_posthoc_validity(k, loaded, "canonical"),
        check_posthoc_validity(k, loaded, rule),
        check_fwe(k, loaded),
        check_fer(k, loaded, selection),
    ]
    monkeypatch.undo()
    assert loaded == pa
    assert len(space.family) == 256 and [len(rep.entries) for rep in reports] == [1024] * 3 + [8] * 2
    assert built == []
