"""Seeded job generators for the three workloads.

A job is one `emeasure` command line with its own freshly written YAML
input, the exit code it must return, the sizes that drive its cost and,
for a seeded subset, an oracle check of the exact values it prints. Each
workload is a fixed cycle of job kinds and sizes; a run repeats the cycle
with new seeded values, so every run sees the same mix and no two jobs
share an input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles as orc
from oracles import INF, Mismatch, fmt

EXIT_OK, EXIT_VIOLATION, EXIT_INPUT = 0, 1, 2
VERIFY_SHARE = 1 / 4


@dataclass
class Job:
    kind: str
    argv: list[str]
    expect: int
    sizes: dict[str, int] = field(default_factory=dict)
    check: Optional[Callable[[list], None]] = None


def parse_records(text: str) -> list[tuple[str, dict[str, str]]]:
    out = []
    for line in text.splitlines():
        kind, *fields = line.split(" ")
        out.append((kind, dict(f.partition("=")[::2] for f in fields)))
    return out


def records_of(records, kind):
    return [f for k, f in records if k == kind]


def expect_equal(what, got, want):
    if got != want:
        raise Mismatch(f"{what}: printed {got!r}, oracle {want!r}")


# -- spaces ----------------------------------------------------------------


@dataclass
class SpaceSpec:
    points: list[str]
    family: list[int]  # canonical id order
    text: str

    @property
    def width(self) -> int:
        return len(self.points)

    def label(self, bits: int) -> str:
        return ",".join(self.points[i] for i in orc.bits_of(bits, self.width))

    def least(self, point: int) -> int:
        return orc.least_bits(self.family, point)


def _yaml_list(items) -> str:
    return "[" + ", ".join(items) + "]"


def chain_space(rng, profile, form="preorder") -> SpaceSpec:
    """Intersection-closed family of a disjoint union of chains.

    It has prod(len + 1) members; points are shuffled across the chains.
    """
    n = sum(profile)
    points = [f"p{i + 1}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    ups, pairs, pos = [], [], 0
    for length in profile:
        chain = order[pos:pos + length]
        pos += length
        for a, i in enumerate(chain):
            ups.append([i] + chain[a + 1:])
            pairs += [(i, j) for j in chain[a + 1:]]
    family = orc.canonical(orc.union_closure(sum(1 << j for j in up) for up in ups))
    head = f"points: {_yaml_list(points)}\n"
    if form == "preorder":
        body = "preorder: " + _yaml_list(
            _yaml_list([points[i], points[j]]) for i, j in pairs
        )
    else:
        body = "generators: " + _yaml_list(
            _yaml_list(points[j] for j in sorted(up)) for up in ups
        )
    return SpaceSpec(points, family, head + body + "\n")


def block_space(rng, n, blocks) -> SpaceSpec:
    """Generators are the blocks of a random partition: 2**blocks members."""
    points = [f"p{i + 1}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    owner = {p: b for b, p in enumerate(order[:blocks])}
    for p in order[blocks:]:
        owner[p] = rng.randrange(blocks)
    gens = [[p for p in range(n) if owner[p] == b] for b in range(blocks)]
    family = orc.canonical(orc.union_closure(sum(1 << p for p in g) for g in gens))
    text = f"points: {_yaml_list(points)}\ngenerators: " + _yaml_list(
        _yaml_list(points[p] for p in g) for g in gens
    )
    return SpaceSpec(points, family, text + "\n")


def tangled_space(rng, n, members) -> SpaceSpec:
    """Not intersection-closed, at most 16 members: the brute-force closure path."""
    points = [f"p{i + 1}" for i in range(n)]
    while True:
        gens = [rng.sample(range(n), rng.randint(2, 4)) for _ in range(4)]
        family = orc.union_closure(sum(1 << p for p in g) for g in gens)
        if len(family) == members and not orc.intersection_closed(family, n):
            break
    text = f"points: {_yaml_list(points)}\ngenerators: " + _yaml_list(
        _yaml_list(points[p] for p in sorted(g)) for g in gens
    )
    return SpaceSpec(points, orc.canonical(family), text + "\n")


def power_space(n, points=None) -> SpaceSpec:
    points = points or [f"p{i + 1}" for i in range(n)]
    family = orc.canonical(range(1 << n))
    text = f"points: {_yaml_list(points)}\ngenerators: " + _yaml_list(
        _yaml_list([p]) for p in points
    )
    return SpaceSpec(points, family, text + "\n")


# -- tables ------------------------------------------------------------------


def rand_pmf(rng, k) -> list[Fraction]:
    weights = [rng.randint(1, 6) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def step_pmf(rng, k, total=6) -> list[Fraction]:
    """Positive masses in sixths, so tree products keep similar sizes."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [Fraction(b - a, total) for a, b in zip([0] + cuts, cuts + [total])]


def min_over(bits, width, weight):
    return min((weight(p) for p in orc.bits_of(bits, width)), default=INF)


def table_yaml(key, sp: SpaceSpec, rows: dict[int, str]) -> str:
    lines = [f"{key}:"]
    for bits in sp.family:
        if bits in rows:
            lines.append(f'  "{sp.label(bits)}": {rows[bits]}')
    return "\n".join(lines) + "\n"


def evidence_yaml(sp: SpaceSpec, values: dict[int, object]) -> str:
    return table_yaml("evidence", sp, {b: fmt(v) for b, v in values.items() if b})


def kernel_yaml(sp: SpaceSpec, outcomes, columns) -> str:
    rows = {
        b: "{" + ", ".join(f"{x}: {fmt(col[b])}" for x, col in zip(outcomes, columns)) + "}"
        for b in sp.family
        if b
    }
    return table_yaml("kernel", sp, rows)


def model_yaml(points, outcomes, pmfs) -> str:
    lines = ["pmf:"]
    for p, pmf in zip(points, pmfs):
        lines.append(
            f"  {p}: {{" + ", ".join(f"{x}: {fmt(m)}" for x, m in zip(outcomes, pmf)) + "}"
        )
    return "\n".join(lines) + "\n"


class Corpus:
    """Writes the inputs of one run into a work directory."""

    def __init__(self, workdir: Path, workload: str, seed: int):
        self.dir = workdir
        self.rng = random.Random(f"{workload}/{seed}")
        self.jobs = 0
        self.used_alphas: set[Fraction] = set()

    def start_job(self) -> str:
        self.jobs += 1
        return f"j{self.jobs:05d}"

    def write(self, job: str, name: str, text: str) -> str:
        path = self.dir / f"{job}_{name}.yaml"
        path.write_text(text)
        return str(path)

    def verify(self) -> bool:
        return self.rng.random() < VERIFY_SHARE


# -- checks ---------------------------------------------------------------

# Chain profiles of intersection-closed spaces, by member count.
PROFILES = {
    32: (1,) * 5,
    48: (2, 1, 1, 1, 1),
    64: (1,) * 6,
    96: (2,) + (1,) * 5,
    128: (1,) * 7,
    144: (2, 2, 1, 1, 1, 1),
    192: (2,) + (1,) * 6,
    256: (1,) * 8,
}


def _kernel_instance(c: Corpus, members: int, outcomes: int, scale: Fraction):
    """Likelihood-ratio kernel: e({p}|x) = q(x)/P_p(x), spread by the minimum.

    Valid by construction and tight at the top point of every chain, so the
    copy scaled by 3/2 violates validity, canonical post-hoc, FWE, uniform FER
    and FER for a selection of one top-of-chain least hypothesis.
    """
    rng = c.rng
    # Both file forms, fixed per cycle slot so every run parses the same mix.
    sp = chain_space(rng, PROFILES[members], ("generators", "preorder")[outcomes % 2])
    xs = [f"o{i + 1}" for i in range(outcomes)]
    pmfs = [rand_pmf(rng, outcomes) for _ in sp.points]
    ref = rand_pmf(rng, outcomes)
    dens = [[ref[x] / pmfs[p][x] * scale for x in range(outcomes)] for p in range(sp.width)]
    cols = [
        {b: min_over(b, sp.width, lambda p: dens[p][x]) for b in sp.family}
        for x in range(outcomes)
    ]
    for col in cols:
        col[0] = INF
    return sp, xs, pmfs, cols


def _write_kernel_job(c: Corpus, job, sp, xs, pmfs, cols):
    return (
        c.write(job, "space", sp.text),
        c.write(job, "model", model_yaml(sp.points, xs, pmfs)),
        c.write(job, "kernel", kernel_yaml(sp, xs, cols)),
    )


def _pair_stats(sp, pmfs, cols, stat):
    """Oracle statistic per (nonempty member, contained point)."""
    out = {}
    for b in sp.family:
        for p in orc.bits_of(b, sp.width):
            out[(sp.label(b), sp.points[p])] = stat(b, p, pmfs, cols)
    return out


def _expect_pair_records(records, kind, want):
    got = {(r["hypothesis"], r["point"]): orc.parse(r["stat"]) for r in records_of(records, kind)}
    expect_equal(f"{kind} statistics", got, want)


def _validity_stat(b, p, pmfs, cols):
    return orc.expectation(pmfs[p], [col[b] for col in cols])


def checks_job(c: Corpus, kind: str, members: int, outcomes: int, violate: bool) -> Job:
    scale = Fraction(3, 2) if violate else Fraction(1)
    job = c.start_job()
    sizes = {"members": members, "outcomes": outcomes}
    if kind == "predictive":
        return _predictive_job(c, job, members, violate, sizes)
    sp, xs, pmfs, cols = _kernel_instance(c, members, outcomes, scale)
    space, model, kernel = _write_kernel_job(c, job, sp, xs, pmfs, cols)
    pairs = sum(b.bit_count() for b in sp.family)
    sizes["pairs"] = pairs
    sizes["outcome_pairs"] = pairs * outcomes
    base = ["check", "--space", space, "--kernel", kernel, "--model", model, "--format", "records"]
    expect = EXIT_VIOLATION if violate else EXIT_OK
    verify = c.verify()
    check = None

    if kind in ("validity", "posthoc"):
        argv = base + ["--check", kind] + (["--rule", "canonical"] if kind == "posthoc" else [])
        if verify:
            want = _pair_stats(sp, pmfs, cols, _validity_stat)
            check = lambda recs: _expect_pair_records(recs, kind, want)
    elif kind == "posthoc-level":
        level = Fraction(1, c.rng.choice((10, 20, 50, 100)))
        argv = base + ["--check", "posthoc", "--rule", fmt(level)]
        expect = EXIT_OK  # Markov's inequality: valid kernels only

        def stat(b, p, pmfs, cols):
            hits = [Fraction(1) / level if col[b] >= 1 / level else Fraction(0) for col in cols]
            return orc.expectation(pmfs[p], hits)

        if verify:
            want = _pair_stats(sp, pmfs, cols, stat)
            check = lambda recs: _expect_pair_records(recs, "posthoc", want)
    elif kind in ("fwe", "mtp-fwe"):
        argv = (
            base + ["--check", "fwe"]
            if kind == "fwe"
            else ["mtp", "--procedure", "fwe"] + base[1:]
        )
        if verify:
            want = {
                sp.points[p]: orc.expectation(
                    pmfs[p], [max(col[b] for b in sp.family if b >> p & 1) for col in cols]
                )
                for p in range(sp.width)
            }
            check = lambda recs: expect_equal(
                "fwe statistics",
                {r["point"]: orc.parse(r["stat"]) for r in records_of(recs, "fwe")},
                want,
            )
    elif kind in ("fer", "fer-family", "mtp-fer"):
        argv = (
            base + ["--check", "fer"]
            if kind != "mtp-fer"
            else ["mtp", "--procedure", "fer"] + base[1:]
        )
        selection = None
        if kind != "fer":
            # One top-of-chain least hypothesis makes the scaled copy violate;
            # valid kernels select two to four random members.
            tops = [p for p in range(sp.width) if sp.least(p) == 1 << p]
            if violate:
                selection = [1 << c.rng.choice(tops)]
            else:
                nonempty = [b for b in sp.family if b]
                selection = c.rng.sample(nonempty, c.rng.randint(2, 4))
            argv += ["--family", "|".join(sp.label(b) for b in selection) + "|"]
        if verify:
            if selection is None:
                want = max(_pair_stats(sp, pmfs, cols, _validity_stat).values())
            else:
                want = max(
                    orc.expectation(
                        pmfs[p],
                        [
                            sum((col[b] for b in selection if b >> p & 1), Fraction(0))
                            / len(selection)
                            for col in cols
                        ],
                    )
                    for p in range(sp.width)
                )
            check = lambda recs: expect_equal(
                "false evidence rate", orc.parse(records_of(recs, "fer")[0]["rate"]), want
            )
    else:
        raise ValueError(kind)
    return Job(kind, argv, expect, sizes, check)


def _predictive_job(c: Corpus, job, members, violate, sizes) -> Job:
    """Model points are the outcomes. The value against an outcome's least
    hypothesis is c(x) = q(x) / max_p P_p(x), which keeps every expectation at
    most one; the violating copy is scaled so the largest one becomes 2.
    """
    rng = c.rng
    sp = chain_space(rng, PROFILES[members], "preorder")
    k = sp.width
    xs = sp.points
    pmfs = [rand_pmf(rng, k) for _ in range(k)]
    ref = rand_pmf(rng, k)
    least_val = [ref[x] / max(pm[x] for pm in pmfs) for x in range(k)]
    if violate:
        worst = max(orc.expectation(pm, least_val) for pm in pmfs)
        least_val = [v * 2 / worst for v in least_val]
    cols = []
    for x in range(k):
        # Other points weigh at least c(x), so e(least_x | x) is exactly c(x).
        weight = [least_val[x] + (Fraction(rng.randint(0, 3), 2) if i != x else 0) for i in range(k)]
        col = {b: min_over(b, k, lambda i: weight[i]) for b in sp.family}
        col[0] = INF
        cols.append(col)
    space, model, kernel = _write_kernel_job(c, job, sp, xs, pmfs, cols)
    sizes["outcomes"] = k
    argv = ["check", "--space", space, "--kernel", kernel, "--model", model,
            "--check", "predictive", "--format", "records"]
    check = None
    if c.verify():
        want = {}
        for x in range(k):
            col = cols[x]
            want[xs[x]] = (
                fmt(max(col[b] for b in sp.family if b >> x & 1)),
                fmt(col[sp.least(x)]),
            )
        check = lambda recs: expect_equal(
            "predictive identity",
            {r["outcome"]: (r["sup"], r["least"]) for r in records_of(recs, "predictive")},
            want,
        )
    return Job("predictive", argv, EXIT_VIOLATION if violate else EXIT_OK, sizes, check)


# -- lattice ------------------------------------------------------------------


def lattice_space(c: Corpus, shape) -> SpaceSpec:
    kind, *args = shape
    if kind == "chains":
        return chain_space(c.rng, *args)
    if kind == "blocks":
        return block_space(c.rng, *args)
    return tangled_space(c.rng, *args)


def _labelled(sp: SpaceSpec, values: dict[int, object]) -> dict[str, object]:
    return {(sp.label(b) if b else "{}"): v for b, v in values.items()}


def space_job(c: Corpus, shape) -> Job:
    job = c.start_job()
    sp = lattice_space(c, shape)
    path = c.write(job, "space", sp.text)
    argv = ["space", "--space", path, "--format", "records"]
    check = None
    if c.verify():
        fam = set(sp.family)
        closed = orc.intersection_closed(fam, sp.width)
        want = {
            "members": str(len(fam)),
            "intersection_closed": "yes" if closed else "no",
            "full_model": "yes" if (1 << sp.width) - 1 in fam else "no",
        }
        least = {sp.points[p]: sp.label(sp.least(p)) for p in range(sp.width)} if closed else {}

        def check(recs):
            head = records_of(recs, "space")[0]
            expect_equal("space summary", {k: head[k] for k in want}, want)
            got = {r["point"]: r["hypothesis"] for r in records_of(recs, "least")}
            expect_equal("least hypotheses", got, least)

    return Job("space", argv, EXIT_OK, {"members": len(sp.family)}, check)


def closure_job(c: Corpus, shape, table: str) -> Job:
    """`table` is 'measure' (left alone) or 'capacity' (raised by closure).

    A minimum of point weights is a measure on any union-closed family;
    adding c * (points outside H) keeps it antitone but breaks the union law.
    """
    job = c.start_job()
    rng = c.rng
    sp = lattice_space(c, shape)
    weight = [Fraction(rng.randint(1, 40)) for _ in sp.points]
    bump = Fraction(1, rng.randint(2, 5)) if table == "capacity" else 0
    values = {
        b: min_over(b, sp.width, lambda p: weight[p]) + bump * (sp.width - b.bit_count())
        for b in sp.family
        if b
    }
    values[0] = INF
    space = c.write(job, "space", sp.text)
    evidence = c.write(job, "evidence", evidence_yaml(sp, values))
    argv = ["closure", "--space", space, "--evidence", evidence, "--format", "records"]
    check = None
    if c.verify():
        before = _labelled(sp, values)
        after = _labelled(sp, orc.closure_by_threshold(values))

        def check(recs):
            rows = records_of(recs, "closure")
            expect_equal("closure input", {r["hypothesis"]: orc.parse(r["before"]) for r in rows}, before)
            expect_equal("closure", {r["hypothesis"]: orc.parse(r["after"]) for r in rows}, after)

    kind = f"closure-{table}" + ("-tangled" if shape[0] == "tangled" else "")
    return Job(kind, argv, EXIT_OK, {"members": len(sp.family)}, check)


BAD_INPUTS = ("bad-yaml", "unknown-label", "missing-member", "preorder-range", "string-generators")


def bad_input_job(c: Corpus, kind: str) -> Job:
    """Malformed input; the exit-code contract says 2 for every one of them."""
    job = c.start_job()
    rng = c.rng
    tag = f"{c.jobs}"
    if kind == "bad-yaml":
        text = f"points: [p1, p2, p{tag}\ngenerators: [[p1], [p2]\n"
        return Job(kind, ["space", "--space", c.write(job, "space", text), "--format", "records"], EXIT_INPUT)
    if kind == "preorder-range":
        text = f"points: [a{tag}, b{tag}]\npreorder: [[0, 5]]\n"
        return Job(kind, ["space", "--space", c.write(job, "space", text), "--format", "records"], EXIT_INPUT)
    if kind == "string-generators":
        letters = list("abcdefgh"[: rng.randint(3, 8)])
        pair = "".join(rng.sample(letters, 2))
        single = rng.choice([x for x in letters if x not in pair])
        text = f"points: {_yaml_list(letters)}\ngenerators: [{pair}, {single}]\n"
        return Job(kind, ["space", "--space", c.write(job, "space", text), "--format", "records"], EXIT_INPUT)
    sp = chain_space(rng, PROFILES[rng.choice((32, 48, 64))])
    weight = [Fraction(rng.randint(1, 9)) for _ in sp.points]
    values = {b: min_over(b, sp.width, lambda p: weight[p]) for b in sp.family if b}
    text = evidence_yaml(sp, values)
    if kind == "unknown-label":
        text += f'  "p1,zz{tag}": 3\n'
    else:  # missing-member: drop one nonempty member's row
        dropped = sp.label(rng.choice([b for b in sp.family if b]))
        text = "\n".join(l for l in text.splitlines() if not l.startswith(f'  "{dropped}":')) + "\n"
    argv = ["closure", "--space", c.write(job, "space", sp.text),
            "--evidence", c.write(job, "evidence", text), "--format", "records"]
    return Job(kind, argv, EXIT_INPUT)


# -- search -------------------------------------------------------------------

SYMBOLS = {2: "HT", 3: "HMT"}


def anytime_job(c: Corpus, arity: int, depth: int, points: int, violate: bool) -> Job:
    """Per-point likelihood-ratio process on a complete tree, as in the
    package's own anytime test: a martingale under each point, so every
    stopped kernel is valid; the violating copy scales one step by 3/2.
    """
    job = c.start_job()
    rng = c.rng
    sym = SYMBOLS[arity]
    sp = power_space(points)
    step = [step_pmf(rng, arity) for _ in range(points)]
    ref = step_pmf(rng, arity)
    leaves = [""]
    for _ in range(depth):
        leaves = [w + s for w in leaves for s in sym]

    def shape(prefix):
        return prefix if len(prefix) == depth else [shape(prefix + s) for s in sym]

    def leaf_mass(p, w):
        m = Fraction(1)
        for s in w:
            m *= step[p][sym.index(s)]
        return m

    bad_t = rng.randint(0, depth) if violate else None

    def value(t, b, w):
        if b == 0:
            return INF
        factor = Fraction(3, 2) if t == bad_t else 1
        best = INF
        for p in orc.bits_of(b, points):
            v = Fraction(1)
            for s in w[:t]:
                v *= ref[sym.index(s)] / step[p][sym.index(s)]
            best = min(best, v * factor)
        return best

    def tree_yaml(node):
        return node if isinstance(node, str) else _yaml_list(tree_yaml(n) for n in node)

    tree = c.write(job, "tree", f"tree: {tree_yaml(shape(''))}\n")
    space = c.write(job, "space", sp.text)
    model = c.write(job, "model", model_yaml(sp.points, leaves, [[leaf_mass(p, w) for w in leaves] for p in range(points)]))
    kernels = [
        c.write(job, f"kernel{t}", kernel_yaml(sp, leaves, [{b: value(t, b, w) for b in sp.family} for w in leaves]))
        for t in range(depth + 1)
    ]
    argv = ["check", "--check", "anytime", "--space", space, "--model", model,
            "--tree", tree, "--kernel", *kernels, "--format", "records"]
    nodes = sum(arity ** t for t in range(depth + 1))
    check = None
    if c.verify():
        valid = all(
            orc.snell_sup(shape(""), 0, lambda t, w: value(t, b, w), lambda w: leaf_mass(p, w)) <= 1
            for b in sp.family
            if b
            for p in orc.bits_of(b, points)
        )
        check = lambda recs: expect_equal(
            "anytime verdict", records_of(recs, "anytime")[0]["valid"], "yes" if valid else "no"
        )
    expect = EXIT_VIOLATION if violate else EXIT_OK
    return Job(f"anytime-{arity}x{depth}", argv, expect, {"nodes": nodes, "members": len(sp.family)}, check)


def selection_job(c: Corpus, procedure: str, k: int, shape: str, points: int = 5) -> Job:
    """K candidate members of a power-set space under point-weight evidence.

    shape 'full': every weight reaches 1/alpha, so all K form the first
    fixed point tried. 'half': K/2 pairs of heavy points and K - K/2 triples
    that contain a zero-weight point, so the heavy pairs are the largest
    fixed point and the first of their size tried. 'none': every weight is
    below 1/(alpha K), so no subset is a fixed point and the search runs down
    to the empty set. Candidates are pairs unless stated, so a job's cost
    depends on K and its shape rather than on the seed.
    """
    job = c.start_job()
    rng = c.rng
    alpha = Fraction(1, 20)  # one level: its digits set every value's size
    sp = power_space(points)
    ids = {b: i for i, b in enumerate(sp.family)}
    level = 1 / alpha
    pairs = [b for b in sp.family if b.bit_count() == 2]
    # More candidates than pairs (K > 10 on five points) take triples too.
    pool = pairs if k <= len(pairs) else [b for b in sp.family if 2 <= b.bit_count() <= 3]
    if shape == "full":
        weight = [level + rng.randint(0, 40) for _ in range(points)]
        chosen = rng.sample(pool, k)
    elif shape == "none":
        weight = [level / k * Fraction(rng.randint(1, 9), 10) for _ in range(points)]
        chosen = rng.sample(pool, k)
    else:
        zero = rng.randrange(points)
        weight = [Fraction(0) if p == zero else level + rng.randint(0, 40) for p in range(points)]
        heavy = [b for b in pairs if not b >> zero & 1]
        light = [b for b in sp.family if b >> zero & 1 and b.bit_count() == 3]
        chosen = rng.sample(heavy, k // 2) + rng.sample(light, k - k // 2)
    values = {b: min_over(b, points, lambda p: weight[p]) for b in sp.family}
    space = c.write(job, "space", sp.text)
    evidence = c.write(job, "evidence", evidence_yaml(sp, values))
    family = "|".join(sp.label(b) for b in chosen) + "|"
    argv = ["mtp", "--procedure", procedure, "--space", space, "--evidence", evidence,
            "--family", family, "--alpha", fmt(alpha), "--format", "records"]
    check = None
    if c.verify():
        members_of = {ids[b]: b for b in sp.family}
        cand = [ids[b] for b in chosen]
        label = {ids[b]: sp.label(b) for b in chosen}
        if procedure == "ebh":
            rejected = orc.ebh({ids[b]: v for b, v in values.items()}, cand, alpha)
        else:
            rejected, inflated = orc.self_consistent(weight, members_of, cand, alpha, points)
        if procedure == "self-consistent":
            want = {
                label[g]: ("yes" if g in rejected else "no", fmt(inflated[g]) if inflated else "-")
                for g in cand
            }
            kind, keys = "selection", ("selected", "inflated")
        else:
            table = orc.rejection_table(rejected, members_of, points, alpha)
            want = {label[g]: ("yes" if g in rejected else "no", fmt(table[g])) for g in cand}
            kind, keys = "rejection", ("rejected", "value")
        check = lambda recs: expect_equal(
            f"{procedure} result",
            {r["hypothesis"]: tuple(r[key] for key in keys) for r in records_of(recs, kind)},
            want,
        )
    return Job(f"{procedure}-{shape}", argv, EXIT_OK, {"K": k, "members": len(sp.family)}, check)


# The paper's Table 1: eight Venn cells of three groups, and their evidence.
CELLS = ("c1", "c2", "c3", "c12", "c13", "c23", "c123", "cOut")
CELL_EVIDENCE = (60, 29, 11, 70, 65, 40, 100, 5)
ROW_CELLS = {
    "H_C": ("cOut",), "H_1": ("c1",), "H_2": ("c2",), "H_3": ("c3",),
    "H_12": ("c12",), "H_13": ("c13",), "H_23": ("c23",), "H_123": ("c123",),
    "G_1": ("c1", "c12", "c13", "c123"),
    "G_2": ("c2", "c12", "c23", "c123"),
    "G_3": ("c3", "c13", "c23", "c123"),
}
GOLDEN_CELLS = 44


def golden_job(c: Corpus, levels=None) -> Job:
    """`--golden table1` at the paper's level, or recomputed at a new level.

    `levels` bounds 1/alpha. Up to 33 every group is rejected at the first
    subset tried; beyond 100 no selection is self-consistent, because each
    group's inflated value is at most that of the cell all three share, 100.
    """
    c.start_job()
    argv = ["mtp", "--golden", "table1", "--format", "records"]
    if levels is None:
        def check(recs):
            expect_equal("golden cells", records_of(recs, "golden")[0]["matched"], str(GOLDEN_CELLS))
        return Job("golden", argv, EXIT_OK, {"K": 3}, check)
    while True:
        alpha = 1 / (c.rng.randint(*levels) + Fraction(c.rng.randint(0, 9), 10))
        if alpha != Fraction(1, 20) and alpha not in c.used_alphas:
            break
    c.used_alphas.add(alpha)
    argv += ["--alpha", fmt(alpha)]
    check = None
    if c.verify():
        width = len(CELLS)
        family = orc.canonical(range(1 << width))
        members_of = dict(enumerate(family))
        ids = {b: i for i, b in enumerate(family)}
        row_bits = {row: sum(1 << CELLS.index(x) for x in cells) for row, cells in ROW_CELLS.items()}
        weights = [Fraction(v) for v in CELL_EVIDENCE]
        groups = [ids[row_bits[g]] for g in ("G_1", "G_2", "G_3")]
        base = {i: min_over(b, width, lambda p: weights[p]) for i, b in members_of.items()}
        selected, _ = orc.self_consistent(weights, members_of, groups, alpha, width)
        inflated = orc.inflated(weights, members_of, selected, width)
        step = orc.rejection_table(orc.ebh(base, groups, alpha), members_of, width, alpha)
        closed = orc.rejection_table(selected, members_of, width, alpha)
        denom = max(len(selected), 1)
        want = {}
        for row, bits in row_bits.items():
            i = ids[bits]
            share = "-" if row.startswith("G") else fmt(
                Fraction(sum(1 for g in selected if members_of[g] & bits), denom)
            )
            want[row] = (fmt(base[i]), fmt(inflated[i]), share, fmt(step[i]), fmt(closed[i]))
        keys = ("e", "e_selected", "fsp", "step_up", "closed_step_up")
        check = lambda recs: expect_equal(
            "recomputed table",
            {r["row"]: tuple(r[k] for k in keys) for r in records_of(recs, "table")},
            want,
        )
    return Job("golden-alpha", argv, EXIT_OK, {"K": 3}, check)


# -- the cycles ---------------------------------------------------------------

CHECKS_CYCLE = (
    # (check, members, outcomes, scaled copy)
    ("validity", 32, 4, False),
    ("validity", 48, 2, True),
    ("validity", 64, 6, True),
    ("validity", 128, 3, False),
    ("validity", 256, 4, True),
    ("posthoc", 48, 5, False),
    ("posthoc", 96, 3, True),
    ("posthoc", 192, 2, False),
    ("posthoc-level", 64, 4, False),
    ("posthoc-level", 144, 3, False),
    ("fwe", 48, 4, True),
    ("fwe", 128, 6, False),
    ("mtp-fwe", 32, 5, True),
    ("mtp-fwe", 64, 3, False),
    ("mtp-fwe", 192, 4, True),
    ("fer", 32, 3, False),
    ("fer", 48, 2, True),
    ("fer", 64, 4, False),
    ("fer-family", 96, 5, False),
    ("fer-family", 256, 3, True),
    ("mtp-fer", 32, 8, False),
    ("mtp-fer", 144, 2, True),
    ("predictive", 32, 5, False),
    ("predictive", 96, 7, True),
    ("predictive", 256, 8, False),
)

LATTICE_GOOD = (
    ("space", ("chains", (1,) * 10, "preorder")),
    ("space", ("blocks", 9, 8)),
    ("space", ("blocks", 10, 10)),
    ("space", ("chains", (2,) + (1,) * 7, "generators")),
    ("space", ("chains", (2, 2, 2, 1, 1), "preorder")),
    ("space", ("tangled", 9, 13)),
    ("closure", ("chains", (1,) * 8, "preorder"), "capacity"),
    # The median job: four alike per cycle, so p50 is the middle of one band.
    ("closure", ("blocks", 9, 7), "measure"),
    ("closure", ("blocks", 9, 7), "measure"),
    ("closure", ("chains", (2,) + (1,) * 7, "generators"), "capacity"),
    ("closure", ("blocks", 10, 6), "capacity"),
    ("closure", ("chains", (2,) + (1,) * 7, "preorder"), "measure"),
    ("closure", ("tangled", 8, 12), "capacity"),
    ("closure", ("tangled", 10, 13), "measure"),
)
LATTICE_ONCE = (
    # Four cheap jobs put the two failing bad inputs' weight back below the
    # median, so p50 is the middle of the four 128-member measure closures.
    ("space", ("blocks", 8, 6)),
    ("space", ("chains", (3, 3, 1, 1), "preorder")),
    ("space", ("chains", (2, 2, 1, 1, 1, 1), "generators")),
    ("space", ("blocks", 10, 7)),
    # Once, so that p90 falls among the six jobs of similar cost below it:
    # four 1024-member spaces and two 13-member brute-force closures.
    ("closure", ("chains", (1,) * 10, "preorder"), "capacity"),
)

SEARCH_CYCLE = (
    # ("anytime", arity, depth, points, scaled step)
    ("anytime", 2, 3, 2, False),
    ("anytime", 2, 3, 2, True),
    ("anytime", 2, 3, 3, False),
    ("anytime", 2, 3, 3, True),
    ("anytime", 3, 2, 2, False),
    ("anytime", 3, 2, 2, True),
    ("anytime", 3, 2, 3, False),
    ("anytime", 3, 2, 3, True),
    ("anytime", 2, 4, 2, True),
    ("anytime", 3, 3, 2, False),
    # (procedure, K candidates, where the largest fixed point lies)
    ("self-consistent", 6, "none"),
    ("self-consistent", 8, "half"),
    ("self-consistent", 10, "full"),
    ("self-consistent", 7, "full"),
    ("self-consistent", 9, "none"),
    ("closed-ebh", 7, "none"),
    ("closed-ebh", 9, "none"),
    ("closed-ebh", 6, "half"),
    ("closed-ebh", 8, "full"),
    ("ebh", 10, "none"),
    ("ebh", 9, "none"),
    ("ebh", 8, "half"),
    ("ebh", 6, "full"),
    ("golden-alpha", 2, 32),
    ("golden-alpha", 101, 400),
)


def checks_cycle(c: Corpus, index: int) -> list[Job]:
    return [checks_job(c, *spec) for spec in CHECKS_CYCLE]


def lattice_cycle(c: Corpus, index: int) -> list[Job]:
    """The good jobs twice and the once-jobs, with one of each malformed input
    spread among them."""
    jobs = []
    for n, (kind, *args) in enumerate(LATTICE_GOOD * 2 + LATTICE_ONCE):
        jobs.append(space_job(c, *args) if kind == "space" else closure_job(c, *args))
        if n % 7 == 3:
            jobs.append(bad_input_job(c, BAD_INPUTS[n // 7]))
    return jobs


def search_cycle(c: Corpus, index: int) -> list[Job]:
    jobs = [golden_job(c)] if index == 0 else []
    for kind, *args in SEARCH_CYCLE:
        if kind == "anytime":
            jobs.append(anytime_job(c, *args))
        elif kind == "golden-alpha":
            jobs.append(golden_job(c, args))
        else:
            jobs.append(selection_job(c, kind, *args))
    return jobs


CYCLES = {"checks": checks_cycle, "lattice": lattice_cycle, "search": search_cycle}

# Reference seconds of one cycle when the benchmark was defined. A run times
# round(--seconds / this) whole cycles, so every run of a seed times the same
# jobs, and the count never hinges on noise near a cycle boundary.
CYCLE_REFERENCE_S = {"checks": 1.64, "lattice": 1.62, "search": 2.37}
