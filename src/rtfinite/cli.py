"""Command-line surface: single decisions, parameter scans, theorem
reproduction, and machine-readable reports.

Exit codes: 0 = completed, 2 = usage error, 3 = internal invariant
violation (a cross-check disagreement in verify-theorem, an integrality
failure in lattice-check, or an InvariantViolation raised by the library),
4 = i/o error (an OSError, such as an --out path that cannot be written).
scan writes each level's records as soon as they are decided, so exit 3
(or 4) can follow part of its report on stdout.
"""

import io
import os
import sys
import time
from contextlib import ExitStack, contextmanager, suppress
from math import gcd
from types import SimpleNamespace
from typing import Optional

from .bases import lollipop_ratio_cumulative
from .context import LevelContext, level_prime, primerange
from .errors import InvariantViolation, UsageError
from .lattice import discreteness_certificate
from .positivity import (
    Crosscheck,
    FinitenessVerdict,
    decide_closed,
    decide_torus,
    decide_torus_level,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_IO = 4

# Largest sizes a command line may ask for, so that one call runs for seconds,
# not hours; README "Limits" gives the time and memory of the slowest admitted
# call of each kind.  The library itself takes any size.
MAX_LEVEL_R = 2000  # r of decide-torus --r and of decide-closed --p
MAX_SWEEP_R = 500  # scan and verify-theorem --r-max
MAX_LATTICE_PHI = 256  # phi(alpha_p) of lattice-check --p
MAX_SAMPLES = 10_000  # lattice-check --samples


def check_limit(name: str, value: int, limit: int):
    """Reject a command-line size above its limit, before any work starts."""
    if value > limit:
        raise UsageError(f"{name} = {value} is above the limit of {limit}")


def _record(verdict: FinitenessVerdict, parameters: dict, dimension, with_text: bool) -> dict:
    """The untimed JSON object of a verdict, with ratio_text only when with_text
    is set; _timed stamps its timing_s.  A theta coloring's witness text is
    theta_norm_ratio's, with the coloring as a list; a lollipop index's is
    lollipop_ratio_cumulative's."""
    report, witness = verdict.report, verdict.report.witness
    if witness:
        k, ratio_id = witness
        text = None
        if report.torus_c is None:  # a theta coloring
            from .bases import theta_norm_ratio
            if with_text:
                text = str(theta_norm_ratio(report.level, ratio_id))
            ratio_id = list(ratio_id)
        elif with_text:
            text = str(lollipop_ratio_cumulative(report.level, report.torus_c, ratio_id))
        witness = {"k": k, "ratio_index": ratio_id, "ratio_text": text}
    return {"parameters": parameters, "verdict": verdict.verdict.value,
            "provenance": verdict.provenance.value, "witness": witness,
            "clause": verdict.clause, "crosscheck": verdict.crosscheck.value,
            "dimension": dimension, "timing_s": 0.0}


def _torus_records(verdicts: list[FinitenessVerdict], with_text: bool) -> list[dict]:
    """The untimed records of one level's one-holed-torus verdicts."""
    level = verdicts[0].report.level
    return [_record(v, {"command": "decide-torus", "r": level.r, "c": v.report.torus_c,
                        "p": level.p}, level.r - 1 - 2 * v.report.torus_c, with_text)
            for v in verdicts]


def _timed(build) -> dict:
    """build(), stamped with the wall time it took to decide and build."""
    start = time.perf_counter()
    rec = build()
    rec["timing_s"] = round(time.perf_counter() - start, 6)
    return rec


def _scan_prime(r: int, with_text: bool) -> list[dict]:
    """The untimed records of every c with a nonempty basis, 2c <= r - 3."""
    return _torus_records(decide_torus_level(r), with_text)


def _write_report(levels, fmt: str, write):
    """Write the report of levels, an iterable of record lists, through write
    with one call per list as the iterable yields it, so that a list need not
    be held once it is written."""
    if fmt == "json":
        import json  # here, so that csv and text calls never load it
        # json.dumps(records, indent=2), one record at a time: no string in a
        # record holds a raw newline, so indenting each line indents the record
        sep = "[\n"
        for records in levels:
            text = ""
            for rec in records:
                text += sep + "  " + json.dumps(rec, indent=2).replace("\n", "\n  ")
                sep = ",\n"
            write(text)
        write("[]\n" if sep == "[\n" else "\n]\n")
        return
    if fmt == "csv":
        write("r,c,dimension,verdict,witness_k,witness_index,clause,crosscheck\n")
    line = _csv_row if fmt == "csv" else _text_line
    for records in levels:
        write("".join(map(line, records)))


def _csv_row(rec: dict) -> str:
    """A one-holed-torus csv row; its ints, words and None (empty) need no quoting."""
    params, w, clause = rec["parameters"], rec["witness"], rec["clause"]
    k, j = (w["k"], w["ratio_index"]) if w else ("", "")
    return (f"{params['r']},{params['c']},{rec['dimension']},{rec['verdict']},"
            f"{k},{j},{'' if clause is None else clause},{rec['crosscheck']}\n")


def _text_line(rec: dict) -> str:
    params = " ".join(f"{k}={v}" for k, v in rec["parameters"].items() if k != "command")
    line = f"{rec['parameters']['command']} {params}: {rec['verdict']}"
    if rec["clause"] is not None:
        line += f" [clause {rec['clause']}, crosscheck {rec['crosscheck']}]"
    w = rec["witness"]
    if w:
        line += f" witness k={w['k']} ratio={w['ratio_index']}"
        if w["ratio_text"]:
            line += f" ({w['ratio_text']})"
    return line + "\n"


def _render(records: list[dict], fmt: str) -> str:
    buf = io.StringIO()
    _write_report([records], fmt, buf.write)
    return buf.getvalue()


@contextmanager
def _output(out: Optional[str]):
    """The write of stdout, or with --out one that writes that file and then
    stdout.  The file is opened here: a path that cannot be written raises
    OSError before anything is written."""
    stdout = sys.stdout.write
    if not out:
        yield stdout
        return
    with open(out, "w", encoding="utf-8") as fh:
        def write(text: str):
            fh.write(text)
            stdout(text)

        yield write


def _cmd_decide_torus(args) -> int:
    check_limit("r", args.r, MAX_LEVEL_R)
    if args.p_choice == "r" and args.format == "csv":
        # a csv row has no p column to tell it from a p = 2r row
        raise UsageError("--p-choice r prints json or text only, not csv")
    rec = _timed(lambda: _torus_records([decide_torus(args.r, args.c, args.p_choice)],
                                        args.format != "csv")[0])
    with _output(args.out) as write:
        write(_render([rec], args.format))
    return EXIT_OK


def _cmd_decide_closed(args) -> int:
    check_limit("--p", args.p, 2 * MAX_LEVEL_R)  # p <= 2r: no primality test on a huge p
    check_limit("r", level_prime(args.p), MAX_LEVEL_R)
    parameters = {"command": "decide-closed", "p": args.p, "g": args.g}
    rec = _timed(lambda: _record(decide_closed(args.p, args.g), parameters, None, True))
    with _output(args.out) as write:
        write(_render([rec], args.format))
    return EXIT_OK


def scan_workers(jobs: int, cpu_count: Optional[int], tasks: int) -> int:
    """Worker processes for a scan: --jobs, capped by the cores and the tasks."""
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    return min(jobs, cpu_count or 1, tasks)


def _sweep_primes(command: str, r_max: int) -> list[int]:
    """The primes 5 <= r <= --r-max of scan and verify-theorem."""
    if r_max < 5:
        raise UsageError(f"{command} needs --r-max >= 5")
    check_limit("--r-max", r_max, MAX_SWEEP_R)
    return list(primerange(5, r_max + 1))


def _cmd_scan(args) -> int:
    primes = _sweep_primes("scan", args.r_max)
    jobs = scan_workers(args.jobs, os.cpu_count(), len(primes))
    with_text = [args.format != "csv"] * len(primes)
    # each level's records are written as soon as it is decided: pool.map and
    # map keep the primes in order, and each level's records are in ascending c
    with _output(args.out) as write, ExitStack() as stack:
        level_map = map
        if jobs > 1:
            # imported here: the pool machinery is most of the import time of
            # a single-process call
            from concurrent.futures import ProcessPoolExecutor

            level_map = stack.enter_context(ProcessPoolExecutor(max_workers=jobs)).map
        _write_report(level_map(_scan_prime, primes, with_text), args.format, write)
    return EXIT_OK


CLOSED_TABLE_LEVELS = (3, 5, 6, 7, 10, 14)


def _cmd_verify_theorem(args) -> int:
    primes = _sweep_primes("verify-theorem", args.r_max)
    from .positivity import clause_witness_k, negative_ratios

    lines = []
    tally = {clause: [0, 0] for clause in (1, 2, 3, 4)}  # (disagree, agree)
    witness_misses = []
    for r in primes:
        level = LevelContext.at(2 * r)
        for c, verdict in enumerate(decide_torus_level(r)):
            clause = verdict.clause
            if clause is None:
                continue
            ok = verdict.crosscheck is Crosscheck.AGREE
            tally[clause][ok] += 1
            if not ok:
                lines.append(f"DISAGREE clause {clause}: r={r} c={c}")
                continue
            if clause == 1:
                continue  # a finite clause has no witness
            # clause 4 claims a negative one-step ratio at k, which exists
            # exactly when some <u_j>/<u_0> is negative there; clauses 2-3
            # claim the two-step ratio at i = 0, which is <u_2>/<u_0>
            k = clause_witness_k(r, clause)
            x = negative_ratios(level, k, c)
            if not (x if clause == 4 else x >> 2 & 1):
                witness_misses.append((clause, r, c, k))
    for clause, (bad, ok) in tally.items():
        lines.append(f"clause {clause}: {bad + ok} instances, {ok} agree, {bad} disagree")
    if witness_misses:
        lines.append(f"clause-witness misses (reported, not failures): {witness_misses}")
    else:
        lines.append("clause witnesses: all negative as claimed")

    closed_bad = [(p, g) for p in CLOSED_TABLE_LEVELS for g in (1, 2, 3)
                  if decide_closed(p, g).crosscheck is not Crosscheck.AGREE]
    lines += [f"DISAGREE closed p={p} g={g}" for p, g in closed_bad]
    lines.append(
        f"closed-surface table p in {CLOSED_TABLE_LEVELS} g in (1,2,3): "
        f"{f'{len(closed_bad)} disagreements' if closed_bad else 'all agree'}"
    )
    with _output(args.out) as write:
        write("\n".join(lines) + "\n")
    failed = closed_bad or any(bad for bad, _ in tally.values())
    return EXIT_INVARIANT if failed else EXIT_OK


def _cmd_lattice_check(args) -> int:
    if args.samples < 1:
        raise UsageError("lattice-check needs --samples >= 1")
    if args.seed < 0:  # Random(-n) draws what Random(n) draws
        raise UsageError("lattice-check needs --seed >= 0")
    check_limit("--p", args.p, 2 * MAX_LATTICE_PHI + 2)  # phi(alpha_p) >= r - 1 >= p/2 - 1
    level = LevelContext.at(args.p)
    check_limit("phi(alpha_p)", level.phi_alpha, MAX_LATTICE_PHI)
    check_limit("--samples", args.samples, MAX_SAMPLES)
    report = discreteness_certificate(level, args.samples, args.seed)
    least = report.min_phi_norm_sq  # least/phi is the least norm^2, num/den in lowest terms
    num, den = (n // gcd(least, level.phi_alpha) for n in (least, level.phi_alpha))
    lines = [
        f"p={report.level_p} alpha_p={level.alpha_p} phi(alpha_p)={level.phi_alpha} "
        f"samples={report.samples} seed={report.seed}",
        f"integrality: {report.samples} pass, 0 fail",
        f"min norm^2: {num}{f'/{den}' * (den > 1)} (phi*norm^2 = {least})",
        f"displayed closed form vs exact trace: {report.formula_agreements} agree, "
        f"{report.formula_disagreements} differ",
    ]
    with _output(args.out) as write:
        write("\n".join(lines) + "\n")
    return EXIT_OK  # a sample that fails integrality raises InvariantViolation


# Each command's handler, one-line help and options.  An option is an int, a
# str or a tuple of choices, with its default, or ... when it is required.
_OUT = {"out": (str, None)}
_REPORT = {"format": (("json", "csv", "text"), "text"), **_OUT}
COMMANDS = {
    "decide-torus": (_cmd_decide_torus, "one-holed torus at (r, c)", {
        "r": (int, ...), "c": (int, ...), "p-choice": (("r", "2r"), "2r"), **_REPORT}),
    "decide-closed": (_cmd_decide_closed, "closed genus-g surface at level p", {
        "p": (int, ...), "g": (int, ...), "format": (("json", "text"), "text"), **_OUT}),
    "scan": (_cmd_scan, "all (r, c) with nonempty basis, r <= r-max", {
        "r-max": (int, ...), **_REPORT, "jobs": (int, 1)}),
    "verify-theorem": (_cmd_verify_theorem, "reproduce every clause instance in range", {
        "r-max": (int, ...), **_OUT}),
    "lattice-check": (_cmd_lattice_check, "discreteness certificate for O_p", {
        "p": (int, ...), "samples": (int, 1000), **_OUT, "seed": (int, 0)}),
}


def _help(prog: str, about: str, options: dict) -> str:
    rows = {f"--{name} {'N' if kind is int else 'PATH' if kind is str else '|'.join(kind)}":
            "required" if default is ... else f"default {default}"
            for name, (kind, default) in options.items()}
    rows = rows or {name: line for name, (_, line, _) in COMMANDS.items()}  # the top level
    return f"usage: {prog} [-h] ...\n\n{about}\n\n" + "".join(
        f"  {row:<24}{text}\n" for row, text in {"-h, --help": "show this help", **rows}.items())


def parse_args(argv: list[str]):
    """The handler of argv's command and its options, read off COMMANDS as
    argparse would: --opt value, --opt=value or a unique prefix of --opt, the
    last occurrence winning.  -h/--help prints the help and exits 0; a bad
    argument raises UsageError with an argparse-style message."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    handler, about, options = COMMANDS.get(command, (None, "Exact finiteness decisions.", {}))
    prog, tokens = f"rtfinite {command or ''}".rstrip(), iter(argv[1:] if command else argv)
    values = {name: default for name, (_, default) in options.items()}  # ... until given
    try:
        for token in tokens:
            name, eq, value = token.partition("=")
            found = [n for n in (*options, "help") if f"--{n}" == name] or [
                n for n in (*options, "help") if name[:2] == "--" and f"--{n}".startswith(name)]
            if token == "-h" or found == ["help"]:
                sys.stdout.write(_help(prog, about, options))
                sys.exit(EXIT_OK)
            if not command:
                raise UsageError(f"argument command: invalid choice: {token!r}")
            if len(found) != 1:
                raise UsageError(f"ambiguous option: {name} could match --{', --'.join(found)}"
                                 if found else f"unrecognized arguments: {token}")
            (kind, _), value = options[found[0]], value if eq else next(tokens, None)
            if value is None or not eq and value[:1] == "-" and not value[1:].isdigit():
                raise UsageError(f"argument --{found[0]}: expected one argument")
            if kind is int and value.removeprefix("-").isdecimal():
                with suppress(ValueError):  # more digits than sys.get_int_max_str_digits()
                    value = int(value)
            if (kind is int and isinstance(value, str)
                    or isinstance(kind, tuple) and value not in kind):
                raise UsageError(f"argument --{found[0]}: invalid value: {value!r}")
            values[found[0]] = value
        missing = [f"--{n}" for n, v in values.items() if v is ...] if command else ["command"]
        if missing:
            raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    except UsageError as exc:
        raise UsageError(f"{prog}: error: {exc}") from None
    return handler, SimpleNamespace(**{n.replace("-", "_"): v for n, v in values.items()})


def main(argv=None) -> int:
    try:
        handler, args = parse_args(sys.argv[1:] if argv is None else argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        sys.exit(EXIT_USAGE)
    try:
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
