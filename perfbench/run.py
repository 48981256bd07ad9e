"""Benchmark of the `emeasure` command line, one seeded workload per run.

    python3 perfbench/run.py --workload checks --seed 1 --seconds 15 --trace 0

Each job runs `emeasure.cli.main(argv)` in this process: a closed loop with
one client, timed from argv to exit code. Inputs are generated from the seed
before their cycle is timed. Job times are reported in reference seconds:
each is scaled by how long a fixed probe of interpreter work took right
before and right after the job (see `probe`). The last line of standard
output is one JSON object; `--trace 0` reports the end-to-end metrics and
`--trace 1` the per-layer ones. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS_FIRST = 3  # then one more after every cycle
# A job lasts one reference second when it lasts one wall second while the
# probe takes this long.
PROBE_REFERENCE_S = 0.004


@dataclass
class Outcome:
    job: workloads.Job
    code: object  # exit code, or the exception the job raised
    wall_s: float
    scale: float  # reference seconds per wall second around this job
    output_bytes: int
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.wall_s * self.scale

    @property
    def malformed_input(self) -> bool:
        return self.job.expect == workloads.EXIT_INPUT


def probe() -> float:
    """Wall seconds of a fixed slice of interpreter work.

    The machine's speed drifts by up to 2x within a minute, and this probe
    drifts with it: exact rational arithmetic, comparisons and dict updates,
    like the package's own inner loops, without calling the package.
    """
    start = perf_counter()
    acc = Fraction(0)
    table = {}
    for i in range(1, 800):
        f = Fraction(i % 7 + 1, i % 11 + 2)
        acc = acc + f * f
        k = i & 31
        table[k] = min(table.get(k, f), f)
    return perf_counter() - start


def scale_between(before: float, after: float) -> float:
    return PROBE_REFERENCE_S / ((before + after) / 2)


def run_job(cli, job: workloads.Job) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    before = probe()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback would exit 1: the job failed
            code = exc
        wall = perf_counter() - start
    scale = scale_between(before, probe())
    text = out.getvalue()
    outcome = Outcome(job, code, wall, scale, len(text))
    judge(outcome, text)
    return outcome


def judge(o: Outcome, text: str) -> None:
    """Exit code first, then the oracle on the seeded subset (untimed)."""
    if isinstance(o.code, BaseException):
        o.error = f"raised {o.code!r}"
    elif o.code != o.job.expect:
        o.error = f"exit {o.code}, expected {o.job.expect}"
    elif o.job.check is not None:
        try:
            o.job.check(workloads.parse_records(text))
        except (oracles.Mismatch, LookupError, ValueError) as exc:
            o.error = f"wrong values: {exc}"


def run_cycles(cli, corpus, workload: str, seconds: float, first_cycle: int,
               tracer=None, after_cycle=None):
    """Whole cycles of the workload's job mix, as many as take `seconds`
    reference seconds at the speed the benchmark was defined against."""
    cycle = workloads.CYCLES[workload]
    cycles = max(1, round(seconds / workloads.CYCLE_REFERENCE_S[workload]))
    outcomes: list[Outcome] = []
    timed = 0.0
    for index in range(first_cycle, first_cycle + cycles):
        for job in cycle(corpus, index):
            gc.collect()
            if tracer is not None:
                tracer.job = len(outcomes)
            outcome = run_job(cli, job)
            timed += outcome.seconds
            outcomes.append(outcome)
        if after_cycle is not None:
            after_cycle()
    return outcomes, timed, first_cycle + cycles


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def setup_sample() -> tuple[float, float]:
    """One fresh interpreter importing the CLI: reference and wall seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    before = probe()
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import emeasure, emeasure.cli"], env=env, cwd=ROOT, check=True)
    wall = perf_counter() - start
    return wall * scale_between(before, probe()), wall


def summary(outcomes: list[Outcome], timed: float) -> dict:
    failed = [o for o in outcomes if o.error]
    ranked = [math.inf if o.error else o.seconds for o in outcomes]
    wall = sum(o.wall_s for o in outcomes)
    return {
        "attempted": len(outcomes),
        "failed": len(failed),
        "jobs_per_s": (len(outcomes) - len(failed)) / timed,
        "p50": nearest_rank(ranked, 0.5),
        "p90": nearest_rank(ranked, 0.9),
        "wall_jobs_per_s": (len(outcomes) - len(failed)) / wall,
        "wall_p50": nearest_rank([math.inf if o.error else o.wall_s for o in outcomes], 0.5),
        "scale": timed / wall,
        "wrong_answers": [o for o in failed if not o.malformed_input],
        "failures": failed,
    }


def report_failures(s: dict) -> None:
    kinds = {}
    for o in s["failures"]:
        kinds.setdefault((o.job.kind, o.error.split(":")[0]), []).append(o)
    for (kind, _), items in sorted(kinds.items()):
        print(f"# failed: {len(items)} x {kind}: {items[0].error[:300]}")


def end_to_end(cli, corpus, workload: str, seconds: float) -> dict:
    setup_sample()  # warms the file cache
    samples = [setup_sample() for _ in range(SETUP_RUNS_FIRST)]
    outcomes, timed, _ = run_cycles(
        cli, corpus, workload, seconds, 0, after_cycle=lambda: samples.append(setup_sample())
    )
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = statistics.median(ref for ref, _ in samples)
    setup_wall = statistics.median(wall for _, wall in samples)
    s = summary(outcomes, timed)
    report_failures(s)
    metrics = {
        "jobs_per_s": (s["jobs_per_s"], "1/s"),
        "job_s.p50": (s["p50"], "s"),
        "job_s.p90": (s["p90"], "s"),
        "ok_ratio": (1 - s["failed"] / s["attempted"], "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"# {workload}: {s['attempted']} jobs in {timed:.3f} reference s of job time")
    print(f"# wall clock: jobs_per_s {s['wall_jobs_per_s']:.6f}, job_s.p50 {s['wall_p50']:.6f} s, "
          f"setup_s {setup_wall:.6f} s; reference s per wall s {s['scale']:.4f}")
    print(f"# fail_ratio {s['failed'] / s['attempted']:.6f} ratio")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6f} {unit}")
    return {
        "correct": not s["wrong_answers"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def per_layer(cli, corpus, workload: str, seconds: float, trace_path: Path) -> dict:
    """Half the time untraced, half traced, on fresh cycles of the same mix."""
    plain, plain_timed, next_cycle = run_cycles(cli, corpus, workload, seconds / 2, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_timed, _ = run_cycles(cli, corpus, workload, seconds / 2, next_cycle, tracer)
    finally:
        tracer.uninstall()
    s_plain, s_traced = summary(plain, plain_timed), summary(traced, traced_timed)
    report_failures(s_traced)
    tracer.write(trace_path)

    jobs = len(traced)
    scales = [o.scale for o in traced]
    totals = dict.fromkeys(tracing.SELF_METRICS, 0.0)
    span_counts = {}
    all_self_wall = 0.0
    for name, job, self_s in tracer.self_times():
        all_self_wall += self_s
        span_counts[name] = span_counts.get(name, 0) + 1
        for metric, match in tracing.SELF_METRICS.items():
            if match(name):
                totals[metric] += self_s * scales[job]

    def spans(pred):
        return sum(n for name, n in span_counts.items() if pred(name))

    metrics = {k: (v / jobs, "s") for k, v in totals.items()}
    metrics.update({
        "fileio.calls": (spans(lambda n: n.startswith("fileio.load_")) / jobs, "count"),
        "spaces.members": (tracer.count("spaces.members") / jobs, "count"),
        "evidence.classify_calls": (spans(lambda n: n == "evidence.classify") / jobs, "count"),
        "kernels.check_validity_calls": (spans(lambda n: n == "kernels.check_validity") / jobs, "count"),
        "kernels.pairs": (tracer.count("kernels.pairs") / jobs, "count"),
        "kernels.stopping_rules": (tracer.count("kernels.stopping_rules") / jobs, "count"),
        "multiplicity.fep_fsp_calls": (tracer.count("multiplicity.fep_fsp") / jobs, "count"),
        "multiplicity.subsets_tried": (
            tracer.count("multiplicity.postprocess_efunction", "multiplicity.self_consistent_selection") / jobs,
            "count",
        ),
        "xvalue.init_calls": (tracer.count("xvalue.init") / jobs, "count"),
        "cli.output_bytes": (sum(o.output_bytes for o in traced) / jobs, "bytes"),
        "trace.job_s": (traced_timed / jobs, "s"),
        "trace.accounted": (all_self_wall / sum(o.wall_s for o in traced), "ratio"),
        "trace.overhead_ratio": (s_traced["jobs_per_s"] / s_plain["jobs_per_s"], "ratio"),
    })
    inclusive = [
        {name: t * scale for name, t in times.items()}
        for times, scale in zip(tracer.inclusive_times(jobs), scales)
    ]
    traced_jobs = [o.job for o in traced]
    print(f"# {workload}: {len(plain)} untraced and {jobs} traced jobs, {len(tracer.spans)} spans")
    print("# seconds per job inside a span, by the size that drives its cost (size: mean s)")
    for metric, (name, size_key, scale, kind) in tracing.GROWTH.items():
        table = tracing.growth_table(inclusive, traced_jobs, name, size_key, kind)
        metrics[metric] = (tracing.fit_growth(table, scale), "log-slope" if scale == "log" else "log2/unit")
        if any(table.values()):
            cells = "  ".join(f"{size}: {t:.6f}" for size, t in table.items())
            print(f"#   {name} by {size_key}{' (' + kind + ')' if kind else ''}: {cells}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"# {name} {value:.6g} {unit}")
    return {
        "correct": not s_traced["wrong_answers"] and not s_plain["wrong_answers"],
        "attempted": jobs,
        "failed": s_traced["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.CYCLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "emeasure" / "cli.py").is_file():
        print(f"error: no emeasure sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from emeasure import cli

    build = ROOT / ".bench_build" / "perfbench"
    workdir = build / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    corpus = workloads.Corpus(workdir, args.workload, args.seed)
    try:
        if args.trace:
            trace_path = build / f"trace-{args.workload}-{args.seed}.jsonl.gz"
            result = per_layer(cli, corpus, args.workload, args.seconds, trace_path)
        else:
            result = end_to_end(cli, corpus, args.workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
