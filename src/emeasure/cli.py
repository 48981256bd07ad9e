"""Command-line front end.

One executable, subcommand style. Exit codes are a stable contract:
0 means every requested check passed, 1 marks a statistical violation,
2 marks an input or schema problem. Structured output ('records' format)
is line-delimited with exact rationals as 'p/q' strings and 'inf'.

Parsing: `_OPTIONS` is the one description of each subcommand's options.
A well-formed command line, `<subcommand> (--name value...)*` with exact
names, is read off that table by `_read_argv` without building a parser.
Any other command line goes to the argparse parser `build_parser` makes
from the same table, so help, usage lines and refusals are argparse's own;
only that path imports argparse. An option's `reads` names the values of
its subcommand's `--check`, `--procedure`, `--golden` or `--bound` that
read it, and `_refuse_unread` refuses it, with exit 2, under any other.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple, Optional, Sequence

from . import evidence as ev
from . import fileio, golden
from . import kernels as kn
from . import multiplicity as mtp
from . import decisions as dec
from .evidence import EClass, EvidenceError
from .spaces import SpaceError, preorder_from_class
from .xvalue import XValue, decimal_text, ratio, read_rational

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2


def _level_arg(raw: str) -> XValue:
    """A positive rational; anything else is refused in argparse's words."""
    try:
        num, den = read_rational(raw)
        if num > 0:
            return ratio(num, den)
        message = f"a level must be positive, got {raw!r}"
    except (ValueError, ZeroDivisionError):
        message = f"not a rational number: {raw!r}"
    import argparse

    raise argparse.ArgumentTypeError(message)


class Printer:
    """Writes the lines of one format to the current `sys.stdout`, as they
    come; the other format's lines are dropped."""

    def __init__(self, fmt: str):
        self.records = fmt == "records"

    def record(self, kind: str, **fields):
        if self.records:
            parts = [kind]
            for key, value in fields.items():
                parts.append(f"{key}={_render(value)}")
            _write([" ".join(parts)])

    def text(self, line: str = ""):
        if not self.records:
            _write([line])


def _write(lines: list[str]) -> None:
    """One write of whole lines to the current stdout."""
    if lines:
        sys.stdout.write("\n".join(lines) + "\n")


def _render(value) -> str:
    if isinstance(value, XValue):
        return value.record()
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return decimal_text(value)
    if value is None:
        return "-"
    return str(value)


def _family_ids(args, sf) -> list[int]:
    """The ids of the --family members, in the order given. Exit 2 on a
    member named twice, in any spelling, and on a family that names none."""
    # '|' separates labels when the labels themselves are comma point lists.
    sep = "|" if "|" in args.family else ","
    seen: dict[int, str] = {}
    for label in (part.strip() for part in args.family.split(sep)):
        if not label:
            continue
        hid = sf.resolve(args.space, label)
        if hid in seen:
            raise fileio.SchemaError(
                "<args>", f"in --family, {seen[hid]!r} and {label!r} name the same hypothesis"
            )
        seen[hid] = label
    if not seen:
        raise fileio.SchemaError("<args>", "--family names no hypothesis")
    return list(seen)


class _Option(NamedTuple):
    """One option of a subcommand: `--name`, with the keywords that
    `argparse.add_argument` takes, and `reads`. `name` is also the
    namespace attribute."""

    name: str
    required: bool = False
    nargs: Optional[str] = None  # None for one value, "+" for one or more
    choices: Optional[tuple[str, ...]] = None
    default: object = None
    type: Optional[Callable[[str], object]] = None
    help: Optional[str] = None
    # The values of --check, --procedure, --golden or --bound that read the
    # option; None when it is read whatever those are.
    reads: Optional[tuple[str, ...]] = None


_FORMAT = _Option("format", choices=("text", "records"), default="text")
_SELECTIONS = ("ebh", "closed-ebh", "self-consistent")
_PROCEDURES = (*_SELECTIONS, "fer", "fwe")

# Each subcommand's options, in help order: the one description of the command
# line, which both `build_parser` and `_read_argv` read.
_OPTIONS = {
    "space": (_Option("space", required=True), _FORMAT),
    "closure": (_Option("space", required=True), _Option("evidence", required=True), _FORMAT),
    "check": (
        _Option("space", required=True),
        _Option("kernel", required=True, nargs="+"),
        _Option("model", required=True),
        _Option(
            "check",
            choices=("validity", "fwe", "fer", "anytime", "posthoc", "predictive"),
            default="validity",
        ),
        _Option("rule", help="'canonical' or a fixed level, for --check posthoc", reads=("posthoc",)),
        _Option("tree", help="tree file for --check anytime", reads=("anytime",)),
        _Option("family", help="comma-separated hypothesis labels, for --check fer", reads=("fer",)),
        _FORMAT,
    ),
    "mtp": (
        _Option("space", reads=_PROCEDURES),
        _Option("evidence", reads=_SELECTIONS),
        _Option("kernel", reads=("fer", "fwe")),
        _Option("model", reads=("fer", "fwe")),
        _Option(
            "alpha", type=_level_arg,
            help="level of ebh, closed-ebh, self-consistent and --golden (default 1/20); "
            "fer and fwe do not read it",
            reads=(*_SELECTIONS, "table1"),
        ),
        _Option("family", reads=(*_SELECTIONS, "fer")),
        _Option("procedure", choices=_PROCEDURES, reads=_PROCEDURES),
        _Option("golden", choices=("table1",)),
        _FORMAT,
    ),
    "decide": (
        _Option("space", required=True),
        _Option("decisions", required=True),
        _Option("kernel", required=True),
        _Option("model", required=True),
        _Option(
            "alpha", type=_level_arg,
            help="level of --bound probability (default 1/20); the other bounds do not read it",
            reads=("probability",),
        ),
        _Option("bound", choices=("econsequence", "grunwald", "probability"), default="econsequence"),
        _Option("outcome", help="outcome at which to rank decisions and judge admissibility; "
                "without it no ranking is printed and admissibility reads the first "
                "outcome's table"),
        _FORMAT,
    ),
}
_FLAGS = {name: {"--" + o.name: o for o in options} for name, options in _OPTIONS.items()}


def _subcommands():
    """(name, help, handler) for each subcommand, in help order.

    Built per call, so the handlers are the module's current functions."""
    return (
        ("space", "analyze a hypothesis space file", cmd_space),
        ("closure", "close an evidence table", cmd_closure),
        ("check", "run validity-style checks on a kernel", cmd_check),
        ("mtp", "multiplicity procedures", cmd_mtp),
        ("decide", "consequence bounds and rankings", cmd_decide),
    )


def build_parser():
    """The argparse parser of all five subcommands."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="emeasure",
        description="Evidence calculus over finite hypothesis lattices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler in _subcommands():
        p = sub.add_parser(name, help=help_text)
        for option in _OPTIONS[name]:
            keywords = option._asdict()
            del keywords["reads"]
            p.add_argument("--" + keywords.pop("name"), **keywords)
        p.set_defaults(handler=handler)
    return parser


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The attributes `build_parser().parse_args(argv)` returns, for
    an argv of the one form `<subcommand> (--name value...)*`; None for any
    other.

    Names must be exact, no value may start with '-', every value must pass
    its option's type and choices, and every required option must be given.
    As with argparse, the last of a repeated option wins."""
    by_flag = _FLAGS.get(argv[0]) if argv else None
    if by_flag is None:
        return None
    values = {option.name: option.default for option in by_flag.values()}
    given = set()
    i, n = 1, len(argv)
    while i < n:
        option = by_flag.get(argv[i])
        if option is None:
            return None
        start = i = i + 1
        while i < n and not argv[i].startswith("-") and (i == start or option.nargs == "+"):
            i += 1
        if i == start:
            return None
        raw = argv[start:i]
        try:
            typed = raw if option.type is None else [option.type(value) for value in raw]
        except Exception:  # argparse words the type's refusal
            return None
        if option.choices is not None and any(value not in option.choices for value in typed):
            return None
        values[option.name] = typed if option.nargs == "+" else typed[0]
        given.add(option.name)
    if any(option.required and option.name not in given for option in by_flag.values()):
        return None
    handler = next(h for name, _, h in _subcommands() if name == argv[0])
    return SimpleNamespace(command=argv[0], **values, handler=handler)


# -- subcommands ----------------------------------------------------------


def cmd_space(args) -> int:
    out = Printer(args.format)
    sf = fileio.load_space(args.space)
    report = sf.space.analyze()
    out.text(f"points: {', '.join(sf.space.model.points)}")
    out.text(f"members: {len(sf.space.family)}")
    out.text(f"union closed: {_render(report.union_closed)}")
    out.text(f"intersection closed: {_render(report.intersection_closed)}")
    out.text(f"contains full model: {_render(report.contains_full_model)}")
    out.record(
        "space",
        points=len(sf.space.model.points),
        members=len(sf.space.family),
        union_closed=report.union_closed,
        intersection_closed=report.intersection_closed,
        full_model=report.contains_full_model,
    )
    if report.least is not None:
        out.text("least hypotheses:")
        for point in sf.space.model.points:
            hid = report.least[point]
            out.text(f"  {point}: {{{sf.space.label(hid)}}}")
            out.record("least", point=point, hypothesis=sf.space.label(hid))
        pre = preorder_from_class(sf.space)
        out.text("preorder matrix (row <= column):")
        for p, bits in zip(sf.space.model.points, pre.rows):
            row = f"{bits:0{pre.size}b}"[::-1]
            out.text(f"  {p}: {row}")
            out.record("preorder", point=p, row=row)
    return EXIT_OK


def cmd_closure(args) -> int:
    out = Printer(args.format)
    sf = fileio.load_space(args.space)
    e = fileio.load_evidence(args.evidence, sf)
    closed = ev.close(e)
    # Both tables are indices over a few value objects, from the read's memo
    # and the claims: each object is rendered once. A record is canonical
    # (lowest terms, inf): equal texts are equal values.
    texts = {id(value): value for value in e.distinct + closed.distinct}
    texts = {key: value.record() for key, value in texts.items()}
    old, new = ([texts[id(value)] for value in t.distinct] for t in (e, closed))
    label, lines, changed = sf.space.label, [], 0
    for hid, (before, after) in enumerate(zip(e.slots, closed.slots)):
        before, after = old[before], new[after]
        moved = before != after
        changed += moved
        if out.records:
            lines.append(
                f"closure hypothesis={label(hid)} before={before} "
                f"after={after} changed={'yes' if moved else 'no'}"
            )
        elif moved:
            lines.append(f"  {{{label(hid)}}}: {before} -> {after}")
    _write(lines)
    if changed == 0:
        out.text("no change: table is already a measure")
    else:
        out.text(f"{changed} entries raised")
    if not out.records:  # only the text names the class, so records never compute it
        out.text(f"input class: {e.eclass.name.lower()}; output class: {closed.eclass.name.lower()}")
    return EXIT_OK


def _report_entries(
    out: Printer, kind: str, report: kn.Report, space, text: Optional[str] = None
) -> None:
    """One record per pair of a pair walk (`kernels._pair_report`), in walk
    order; with `text`, one `  point: text stat` line per pair instead. The
    report's lines go out in one write.

    A record is a head, which names the member's hypothesis or case, and a
    ` point=… stat=… ok=…` tail. Both are read off the walk, which builds
    no entry: one head per member, one tail per slot (distinct variable)
    and point, and one `XValue.record` per statistic object, so a pair
    costs one concatenation."""
    if not out.records and text is None:
        return
    points, stats, failed, cases = report.points, report.stats, report.failed, report.cases
    rendered: dict[int, str] = {}  # by the id of a statistic object
    tails: list[Optional[dict[int, str]]] = [None] * len(stats)  # per slot, by point bit
    lines: list[str] = []
    append = lines.append
    for m, (bits, slot) in enumerate(zip(report.members, report.slots)):
        if not bits:
            continue
        tail = tails[slot]
        if tail is None:
            tail = tails[slot] = {}
            for pi, stat in enumerate(stats[slot]):
                if stat is None:
                    continue
                if out.records:
                    shown = rendered.get(id(stat)) or rendered.setdefault(id(stat), stat.record())
                    verdict = "no" if failed[slot] >> pi & 1 else "yes"
                    tail[1 << pi] = f" point={points[pi]} stat={shown} ok={verdict}"
                else:
                    tail[1 << pi] = f"  {points[pi]}: {text} {stat}"
        if not out.records:
            head = ""
        elif cases is None:
            head = f"{kind} hypothesis={space.label(m)}"
        else:
            head = kind if cases[m] is None else f"{kind} benchmark={cases[m]}"
        while bits:
            low = bits & -bits
            bits ^= low
            append(head + tail[low])
    _write(lines)


def _verdict(out: Printer, label: str, ok: bool) -> int:
    out.text(f"{label}: {_render(ok)}")
    return EXIT_OK if ok else EXIT_VIOLATION


def _report_fwe(out: Printer, kernel, pa, space) -> int:
    report = mtp.check_fwe(kernel, pa)
    _report_entries(out, "fwe", report, space, text="expected familywise evidence")
    return _verdict(out, "familywise evidence controlled", report.ok)


def _report_fer(out: Printer, args, sf, kernel, pa) -> int:
    """The rule selects the --family members at every outcome; without
    --family the rate comes from one validity pass."""
    rule = None
    if args.family is not None:
        rule = mtp.SelectionRule.fixed(kernel.sample, _family_ids(args, sf))
    report = mtp.check_fer(kernel, pa, rule)
    rate = report.largest()
    out.record("fer", rate=rate, controlled=report.ok)
    out.text(f"false evidence rate: {_render(rate)}")
    return _verdict(out, "controlled", report.ok)


def _refuse_unread(args, reader: str, value: str) -> None:
    """Exit 2 on the first option of the subcommand, in `_OPTIONS` order,
    that is given but that `value` does not read; `reader` names it."""
    for option in _OPTIONS[args.command]:
        if option.reads is not None and value not in option.reads:
            if getattr(args, option.name) is not None:
                raise fileio.SchemaError("<args>", f"{reader} does not read --{option.name}")


def cmd_check(args) -> int:
    out = Printer(args.format)
    if args.check != "anytime" and len(args.kernel) > 1:
        raise fileio.SchemaError(
            "<args>", f"--check {args.check} reads one --kernel, got {len(args.kernel)}"
        )
    _refuse_unread(args, f"--check {args.check}", args.check)
    sf = fileio.load_space(args.space)
    pa = fileio.load_pmfs(args.model, sf.space.model)
    kernels = [fileio.load_kernel(p, sf, pa.sample) for p in args.kernel]
    kernel = kernels[0]

    if args.check == "validity":
        report = kn.check_validity(kernel, pa)
        _report_entries(out, "validity", report, sf.space)
        code = _verdict(out, "hypothesis-wise valid", report.ok)
        witness = report.first_violation()
        if witness is not None:
            out.text(
                f"first violation: {{{sf.space.label(witness.hid)}}} under "
                f"{witness.point}: expectation {witness.stat}"
            )
        return code

    if args.check == "fwe":
        return _report_fwe(out, kernel, pa, sf.space)

    if args.check == "fer":
        return _report_fer(out, args, sf, kernel, pa)

    if args.check == "posthoc":
        if args.rule == "canonical" or args.rule is None:
            rule = "canonical"
        else:
            level = fileio._xvalue("--rule", args.rule)
            rule = {x: level for x in kernel.sample.outcomes}
        report = kn.check_posthoc_validity(kernel, pa, rule)
        _report_entries(out, "posthoc", report, sf.space)
        return _verdict(out, "post-hoc bound holds", report.ok)

    if args.check == "predictive":
        report = kn.check_predictive_validity(kernel, pa)
        for e in report.identity.entries:
            out.record("predictive", outcome=e.point, sup=e.stat, least=e.bound, ok=e.ok)
        out.text(f"sup identity holds: {_render(report.identity.ok)}")
        code = _verdict(out, "predictively valid", report.stats.ok)
        return code if report.identity.ok else EXIT_VIOLATION

    # anytime: the reader and argparse refuse a --check outside the choices
    if args.tree is None:
        raise fileio.SchemaError("<args>", "--check anytime needs --tree")
    tree = fileio.load_tree(args.tree, pa.sample)
    proc = kn.EProcess(tree, kernels)
    report = kn.check_anytime_validity(proc, pa)
    out.record("anytime", rules=report.rules_checked, valid=report.stats.ok)
    out.text(f"stopping rules checked: {_render(report.rules_checked)}")
    code = _verdict(out, "anytime valid", report.stats.ok)
    witness = report.stats.first_violation()
    if witness is not None:
        out.text(
            f"first violation at stop depths {report.rule}: "
            f"{{{sf.space.label(witness.hid)}}} under {witness.point}"
        )
    return code


def _golden_table1(alpha: XValue, out: Printer) -> int:
    table = golden.compute_reference_table(alpha)
    is_golden = alpha == golden.DEFAULT_ALPHA
    out.text(
        "built-in three-circle family"
        + ("" if is_golden else f" (recomputed at alpha={_render(alpha)}; not the golden level)")
    )
    out.text(" | ".join(f"{c:>14}" for c in ("row", *golden.COLUMNS)))
    for row, cells in table.items():
        out.text(" | ".join(f"{c:>14}" for c in (row, *map(_render, cells))))
        out.record("table", row=row, **dict(zip(golden.COLUMNS, cells)))
    if not is_golden:
        return EXIT_OK
    diffs = golden.diff_reference_tables(table, golden.EXPECTED)
    fsp_diffs = sum(column == "fsp" for _, column, _, _ in diffs)
    total = len(golden.EXPECTED) * (len(golden.COLUMNS) - 1)  # every column but fsp is evidence
    matched = total - len(diffs) + fsp_diffs
    out.text(f"golden diff: {matched}/{total} evidence cells match")
    out.record("golden", matched=matched, total=total, fsp_diffs=fsp_diffs)
    for row, column, got, want in diffs:
        out.text(f"  MISMATCH {row}.{column}: computed {_render(got)}, expected {_render(want)}")
        out.record("mismatch", row=row, column=column, computed=got, expected=want)
    return EXIT_OK if not diffs else EXIT_VIOLATION


def cmd_mtp(args) -> int:
    out = Printer(args.format)
    if args.golden == "table1":
        _refuse_unread(args, "--golden", args.golden)
        return _golden_table1(args.alpha or golden.DEFAULT_ALPHA, out)
    if args.procedure is None:
        raise fileio.SchemaError("<args>", "mtp needs --procedure (or --golden)")
    _refuse_unread(args, f"--procedure {args.procedure}", args.procedure)
    if args.space is None:
        raise fileio.SchemaError("<args>", "mtp needs --space (or --golden)")
    sf = fileio.load_space(args.space)
    if args.procedure in ("fer", "fwe"):
        if args.kernel is None or args.model is None:
            raise fileio.SchemaError("<args>", f"{args.procedure} needs --kernel and --model")
        pa = fileio.load_pmfs(args.model, sf.space.model)
        kernel = fileio.load_kernel(args.kernel, sf, pa.sample)
        if args.procedure == "fwe":
            return _report_fwe(out, kernel, pa, sf.space)
        return _report_fer(out, args, sf, kernel, pa)
    if args.evidence is None:
        raise fileio.SchemaError("<args>", "mtp needs --evidence for this procedure")
    e = fileio.load_evidence(args.evidence, sf)
    if args.family is None:
        raise fileio.SchemaError("<args>", "mtp needs --family")
    gids = _family_ids(args, sf)
    alpha = args.alpha or golden.DEFAULT_ALPHA

    if args.procedure == "self-consistent":
        sel = mtp.self_consistent_selection(e, gids, alpha)
        out.text(f"largest self-consistent selection: "
                 f"{[sf.space.label(g) for g in sel.selected]}")
        for g in gids:
            out.record("selection", hypothesis=sf.space.label(g),
                       selected=g in sel.selected,
                       inflated=sel.witness.get(g))
        return EXIT_OK
    procedure = mtp.ebh if args.procedure == "ebh" else mtp.closed_ebh
    result = procedure(e, gids, alpha)
    names = [sf.space.label(g) for g in result.rejected]
    out.text(f"rejected: {names or 'nothing'}")
    for g in gids:
        out.record(
            "rejection", hypothesis=sf.space.label(g),
            rejected=g in result.rejected,
            value=result.table.values[g],
        )
    return EXIT_OK


def cmd_decide(args) -> int:
    out = Printer(args.format)
    _refuse_unread(args, f"--bound {args.bound}", args.bound)
    sf = fileio.load_space(args.space)
    pa = fileio.load_pmfs(args.model, sf.space.model)
    kernel = fileio.load_kernel(args.kernel, sf, pa.sample)
    slice_fn = kernel.column(args.outcome) if args.outcome is not None else None
    ctable = fileio.load_decision_problem(args.decisions, sf.space.model)

    try:
        if args.bound == "econsequence":
            report = dec.check_econsequence_bound(kernel, pa, ctable)
        elif args.bound == "probability":
            alpha = args.alpha or golden.DEFAULT_ALPHA
            rule = {x: alpha for x in kernel.sample.outcomes}
            report = dec.check_posthoc_consequence_bound(kernel, pa, ctable, rule)
        else:
            if ctable.cspace.values is None:
                raise fileio.SchemaError(
                    args.decisions, "the integrated-loss bound needs a numeric 'loss'"
                )
            report = dec.check_grunwald_bound(kernel, pa, ctable)
    except dec.OrderMeasurabilityViolation as exc:
        raise fileio.SchemaError(args.decisions, str(exc)) from None

    text = "ratio expectation" if args.bound == "grunwald" else None
    _report_entries(out, "bound", report, sf.space, text=text)
    code = _verdict(out, "bound holds", report.ok)

    if ctable.cspace.values is not None and slice_fn is not None:
        if slice_fn.eclass is EClass.MEASURE and sf.space.intersection_closed:
            ranking = sorted(
                (dec.e_integrated_loss(ctable, slice_fn, d), d) for d in ctable.decisions
            )
            out.text("integrated-loss ranking (best first):")
            for value, d in ranking:
                out.text(f"  {d}: {value}")
                out.record("eloss", decision=d, value=value)
        # Each decision's own set, read off the family in linear time; a
        # pushforward onto the sets of decisions would build their power set.
        # Ties, or a set outside the family: no ranking.
        opt, family = dec.optimality_class(ctable), sf.space.family
        sets = [(opt.decision_sets[d], d) for d in ctable.decisions]
        if opt.optimal is not None and all(bits in family for bits, _ in sets):
            rows = sorted((slice_fn.values[family.id_of(bits)], d) for bits, d in sets)
            out.text("optimality-evidence ranking (least evidence first):")
            for value, d in rows:
                out.text(f"  {d}: {value}")
                out.record("optimality", decision=d, value=value)

    # Every bound hypothesis is an upper set of the row-dominance preorder,
    # and the bound check above has required each of those.
    adm = dec.admissible_decisions(kernel.columns[0] if slice_fn is None else slice_fn, ctable)
    out.text(f"admissible decisions: {', '.join(adm.admissible)}")
    out.record("admissible", decisions="|".join(adm.admissible))

    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line and return its exit code.

    A well-formed argv is read off the option table and builds no parser.
    The parser of all five subcommands, `build_parser()`, reads every other
    argv: help, abbreviations, `--name=value`, unknown or missing options,
    bad values.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (fileio.SchemaError, SpaceError, EvidenceError) as exc:
        message = str(exc)
    except Exception as exc:  # exit 1 is reserved for statistical violations
        message = f"unexpected {type(exc).__name__}: {exc}"
    sys.stdout.flush()  # what the handler wrote comes before the error line
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
