"""Time the ROADMAP item 1 table rows at matching sizes, traced.

    python3 perfbench/reconcile.py

Each row runs three fresh seeded jobs built by the workload generators and
prints the median wall milliseconds spent inside one span (children
included) and its self time, plus the same in reference milliseconds.
"""

from __future__ import annotations

import shutil
import statistics
import sys

import run
import tracing
import workloads as w

ROWS = (
    # (ROADMAP row, job factory, span name)
    ("union_closure, 1024 members", lambda c: w.space_job(c, ("chains", (1,) * 10, "preorder")), "spaces.union_closure"),
    ("Space.cover_edges, toy space", lambda c: w.closure_job(c, ("chains", (1,) * 8, "preorder"), "capacity"), "spaces.Space.cover_edges"),
    ("closure_fast, toy space", lambda c: w.closure_job(c, ("chains", (1,) * 8, "preorder"), "capacity"), "evidence.closure_fast"),
    ("check_validity, toy x 6 outcomes", lambda c: w.checks_job(c, "validity", 256, 6, False), "kernels.check_validity"),
    ("check_posthoc_validity canonical, same", lambda c: w.checks_job(c, "posthoc", 256, 6, False), "kernels.check_posthoc_validity"),
    ("check_fer(uniform=True), same", lambda c: w.checks_job(c, "fer", 256, 6, False), "multiplicity.check_fer"),
    ("check_anytime_validity, 8 members, binary depth 4", lambda c: w.anytime_job(c, 2, 4, 3, False), "kernels.check_anytime_validity"),
    ("same, ternary depth 3", lambda c: w.anytime_job(c, 3, 3, 3, False), "kernels.check_anytime_validity"),
    ("self_consistent_selection, 32 members, K=10, no fixed point", lambda c: w.selection_job(c, "self-consistent", 10, "none"), "multiplicity.self_consistent_selection"),
    ("same, K=12", lambda c: w.selection_job(c, "self-consistent", 12, "none"), "multiplicity.self_consistent_selection"),
    ("golden.compute_reference_table()", lambda c: w.golden_job(c), "golden.compute_reference_table"),
)


def main() -> int:
    if not (run.SRC / "emeasure" / "cli.py").is_file():
        print(f"error: no emeasure sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    from emeasure import cli

    workdir = run.ROOT / ".bench_build" / "perfbench" / "reconcile"
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = w.Corpus(workdir, "reconcile", 1)
    print("| row | inside span, ms | self, ms | reference ms (inside) | extra |")
    print("|---|---|---|---|---|")
    try:
        for label, make, span in ROWS:
            inside, own, ref, extra = [], [], [], []
            for _ in range(3):
                tracer = tracing.Tracer()
                tracer.install()
                try:
                    tracer.job = 0
                    outcome = run.run_job(cli, make(corpus))
                finally:
                    tracer.uninstall()
                if outcome.error:
                    raise SystemExit(f"{label}: {outcome.error}")
                total = sum(e - s for n, s, e, _, _ in tracer.spans if n == span)
                inside.append(total * 1000)
                own.append(sum(t for n, _, t in tracer.self_times() if n == span) * 1000)
                ref.append(total * outcome.scale * 1000)
                extra.append(tracer.count("kernels.stopping_rules") or tracer.count(
                    "multiplicity.postprocess_efunction", "multiplicity.self_consistent_selection"))
            note = f"{statistics.median(extra):.0f} rules or subsets" if any(extra) else ""
            print(f"| {label} | {statistics.median(inside):.1f} | {statistics.median(own):.1f} "
                  f"| {statistics.median(ref):.1f} | {note} |")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
