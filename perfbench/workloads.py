"""Workloads of the rtfinite benchmark: generated CLI calls and their checks.

A workload is a *pass*: a list of argv lists for ``python -m rtfinite.cli``.
``sweep`` and ``verify`` are exhaustive over a fixed range and ignore the
seed.  ``decide`` and ``lattice`` draw their calls from fixed candidate pools
with ``random.Random(seed)``, so one seed always gives the same pass, and
every candidate has a reference output in ``refs.json``, recorded at the
commit that introduced the benchmark by ``record_refs.py``.

Every call is checked: exit code 0 and stdout sha256 equal to its reference,
plus the per-command checks in ``check_call``.
"""

import hashlib
import json
import math
import random
import re
from pathlib import Path

REFS_PATH = Path(__file__).with_name("refs.json")

SWEEP_R_MAX = 151
VERIFY_R_MAX = 127


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by trial division."""
    return [
        n for n in range(max(lo, 2), hi + 1)
        if all(n % d for d in range(2, math.isqrt(n) + 1))
    ]


# decide: three strata of levels.  Small levels are dominated by interpreter
# and import set-up, medium ones by the O(r^2) sign scan, and the one large
# level sets the peak memory.  Levels are drawn one per bucket of adjacent
# primes, so the order statistics of call times barely move between seeds.
SPECIAL_CLOSED = tuple((p, g) for p in (3, 5, 6, 10) for g in (1, 2, 3))
SMALL_PRIMES = primes_between(7, 113)
MEDIUM_PRIMES = primes_between(241, 383)
LARGE_R = 997
SMALL_TORUS, SMALL_CLOSED = 5, 3
MEDIUM_C0, MEDIUM_C1, MEDIUM_CLOSED = 4, 4, 4

# lattice: levels with alpha_p = p (p = 3 mod 4) and alpha_p = 4r, with
# phi(alpha_p) from 6 to 84.  Samples per call shrink as phi grows so that
# no level dominates the pass.  Each level is called LATTICE_CALLS_PER_LEVEL
# times per pass, with distinct --seed values drawn from LATTICE_SEEDS.
LATTICE_SAMPLES = {
    7: 1000, 13: 1000, 19: 1000, 26: 1000, 31: 1000,
    43: 400, 47: 400, 58: 200, 74: 200, 83: 200, 86: 200,
}
LATTICE_SEEDS = range(10)
LATTICE_CALLS_PER_LEVEL = 3

# Why each workload exists, which layer metrics it should move, and the
# workload on which a change to those layers should move nothing.
# BENCHMARK.json times sweep and lattice only: its run budget (4 + 22 runs
# per workload in 3420 s) leaves four workloads about 25 s of measuring each,
# too short to hold the time bounds on a 2-core machine whose speed drifts by
# a fifth over minutes.  decide and verify run the same way by name.
#
#   sweep    one exhaustive scan; about r/2 colors share each level's sign
#            table, and the scan loop and CSV rendering dominate.
#            Moves context.at.*, quantum.sign_table.*, positivity.decide_torus.*,
#            positivity.sign_entries, bases.witness_text.*, cli.render.s,
#            cli.stdout_bytes.  Unmoved: lattice.
#   decide   cold single decisions, r = 7 to 997; set-up on every call, no
#            shared cache, the dense sign matrix sets the peak memory; c = 0
#            scans every entry, other colors find a witness early.
#            Moves setup.sympy_import_s, context.at.*, quantum.sign_table.*,
#            positivity.*, cyclotomic.sin_sign.calls.  Unmoved: lattice.
#   verify   clause reproduction; the only workload where the symbolic path
#            (QuantumFactored, eval_sign, theta ratios, decide_closed) does a
#            measurable share of the work.
#            Moves quantum.eval_sign.*, quantum.qfactorial.*, bases.ratio_build.*,
#            positivity.decide_closed.*, positivity.check_complete_positivity.*.
#            Unmoved: lattice.
#   lattice  discreteness certificates; the only cyclotomic ring arithmetic and
#            lattice work, and no sign work.
#            Moves cyclotomic.reduce/mul/conjugate/trace.*, lattice.*.
#            Unmoved: decide.
WORKLOADS = ("sweep", "decide", "verify", "lattice")


def _torus(r: int, c: int) -> tuple[str, ...]:
    return ("decide-torus", "--r", str(r), "--c", str(c), "--format", "text")


def _closed(p: int, g: int) -> tuple[str, ...]:
    return ("decide-closed", "--p", str(p), "--g", str(g), "--format", "text")


def _lattice(p: int, seed: int) -> tuple[str, ...]:
    return ("lattice-check", "--p", str(p), "--samples", str(LATTICE_SAMPLES[p]),
            "--seed", str(seed))


def _small_colors(r: int) -> list[int]:
    """c = 0 (completely positive), small c (early witnesses), 2c = r-3."""
    return sorted({0, 1, 2, (r - 3) // 2})


def _buckets(values: list[int], n: int) -> list[list[int]]:
    """``values`` cut into n consecutive runs whose lengths differ by at most one."""
    return [values[i * len(values) // n:(i + 1) * len(values) // n] for i in range(n)]


def _closed_at(rng: random.Random, r: int) -> tuple[str, ...]:
    return _closed(rng.choice((r, 2 * r)), rng.choice((2, 3)))


def _decide_pass(rng: random.Random) -> list[tuple[str, ...]]:
    calls = [_closed(*rng.choice(SPECIAL_CLOSED))]
    kinds = ["torus"] * SMALL_TORUS + ["closed"] * SMALL_CLOSED
    rng.shuffle(kinds)
    for bucket, kind in zip(_buckets(SMALL_PRIMES, len(kinds)), kinds):
        r = rng.choice(bucket)
        calls.append(_torus(r, rng.choice(_small_colors(r))) if kind == "torus"
                     else _closed_at(rng, r))
    # c = 0 is completely positive, so every entry is scanned; c = 1 has a
    # witness early in the scan.
    kinds = [0] * MEDIUM_C0 + [1] * MEDIUM_C1 + ["closed"] * MEDIUM_CLOSED
    rng.shuffle(kinds)
    for bucket, kind in zip(_buckets(MEDIUM_PRIMES, len(kinds)), kinds):
        r = rng.choice(bucket)
        calls.append(_closed_at(rng, r) if kind == "closed" else _torus(r, kind))
    calls.append(_torus(LARGE_R, rng.choice((0, 1))))
    rng.shuffle(calls)
    return calls


def _lattice_pass(rng: random.Random) -> list[tuple[str, ...]]:
    calls = [_lattice(p, s) for p in LATTICE_SAMPLES
             for s in rng.sample(LATTICE_SEEDS, LATTICE_CALLS_PER_LEVEL)]
    rng.shuffle(calls)
    return calls


def make_pass(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The calls of one pass of ``workload``; the same seed gives the same calls."""
    if workload == "sweep":
        return [("scan", "--r-max", str(SWEEP_R_MAX), "--format", "csv", "--jobs", "1")]
    if workload == "verify":
        return [("verify-theorem", "--r-max", str(VERIFY_R_MAX))]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "decide":
        return _decide_pass(rng)
    if workload == "lattice":
        return _lattice_pass(rng)
    raise ValueError(f"unknown workload {workload!r}")


def candidates(workload: str) -> list[tuple[str, ...]]:
    """Every call that ``make_pass(workload, seed)`` can produce, for any seed."""
    if workload in ("sweep", "verify"):
        return make_pass(workload, 0)
    if workload == "decide":
        calls = [_closed(p, g) for p, g in SPECIAL_CLOSED]
        for primes, colors in ((SMALL_PRIMES, _small_colors), (MEDIUM_PRIMES, lambda r: [0, 1])):
            for r in primes:
                calls += [_torus(r, c) for c in colors(r)]
                calls += [_closed(p, g) for p in (r, 2 * r) for g in (2, 3)]
        return calls + [_torus(LARGE_R, c) for c in (0, 1)]
    if workload == "lattice":
        return [_lattice(p, s) for p in LATTICE_SAMPLES for s in LATTICE_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


def key(argv) -> str:
    return " ".join(argv)


def load_refs() -> dict:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def expected_ops(argv, refs: dict) -> int:
    """Operations the call performs, from its reference; 1 for an unknown call."""
    return refs.get(key(argv), {}).get("ops", 1)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def count_ops(argv, stdout: str) -> int:
    """Operations one call performs, read from its (reference) output.

    scan: one per record; verify-theorem: one per clause instance and per
    closed-surface entry; decide-*: one decision; lattice-check: one per
    certified sample.
    """
    command = argv[0]
    if command == "scan":
        return stdout.count("\n") - 1
    if command == "verify-theorem":
        clauses = sum(int(n) for n in re.findall(r"^clause \d+: (\d+) instances", stdout, re.M))
        table = re.search(r"^closed-surface table p in \(([^)]*)\) g in \(([^)]*)\)", stdout, re.M)
        return clauses + len(table.group(1).split(",")) * len(table.group(2).split(","))
    if command == "lattice-check":
        return int(argv[argv.index("--samples") + 1])
    return 1


def _sin_sign(n: int, k: int, p: int) -> int:
    s = math.sin(2 * math.pi * ((n * k) % p) / p)
    if abs(s) < 1e-9:
        raise ValueError(f"[{n}] vanishes at k={k}, p={p}")
    return 1 if s > 0 else -1


def lollipop_sign(c: int, j: int, k: int, p: int) -> int:
    """Sign of <u_j>/<u_0> at A = exp(i pi k / p), from math.sin alone.

    <u_j>/<u_0> = prod_{i<j} [2c+i+2][i+1] / ([c+i+2][c+i+1]) and
    [n] = sin(2 pi n k / p) / sin(2 pi k / p); each step has two quantum
    integers above and two below, so the sin(2 pi k / p) factors cancel.
    """
    sign = 1
    for i in range(j):
        for n in (2 * c + i + 2, i + 1, c + i + 2, c + i + 1):
            sign *= _sin_sign(n, k, p)
    return sign


def factored_sign(text: str, k: int, p: int) -> int:
    """Sign at A = exp(i pi k / p) of a printed symbol such as -[3]^2/([2][5])."""
    unit = -1 if text.startswith("-") else 1
    num, _, den = text.lstrip("-").partition("/")
    sign = unit
    for part in (num, den):
        for n, e in re.findall(r"\[(\d+)\](?:\^(\d+))?", part):
            if int(e or 1) % 2:
                sign *= _sin_sign(int(n), k, p) * _sin_sign(1, k, p)
    return sign


_DECIDE_LINE = re.compile(
    r"^decide-(torus|closed) (?:r=(\d+) c=(\d+) p=(\d+)|p=(\d+) g=\d+): (finite|infinite)"
    r"(?: \[clause \d+, crosscheck ([a-z-]+)\])?"
    r"(?: witness k=(\d+) ratio=(\d+|\[[^\]]*\])(?: \((.*)\))?)?$"
)


def _decide_problems(text: str) -> list[str]:
    m = _DECIDE_LINE.match(text.rstrip("\n"))
    if m is None:
        return ["unparsable decide output"]
    surface, _r, c, p_torus, p_closed, verdict, crosscheck, k, ratio, ratio_text = m.groups()
    problems = []
    if crosscheck not in (None, "agree", "not-applicable"):
        problems.append(f"crosscheck {crosscheck}")
    if verdict == "finite":
        return problems
    if k is None:
        return problems + ["infinite verdict without a witness"]
    k, p = int(k), int(p_torus or p_closed)
    try:
        if ratio.isdigit():
            # torus ratios, and closed verdicts taken from the c = 1 torus scan
            sign = lollipop_sign(int(c) if surface == "torus" else 1, int(ratio), k, p)
        else:
            sign = factored_sign(ratio_text or "", k, p)
    except ValueError as exc:
        return problems + [f"witness k={k} ratio={ratio}: {exc}"]
    if sign != -1:
        problems.append(f"witness k={k} ratio={ratio} is not negative by math.sin")
    return problems


def check_call(argv, exit_code: int, stdout: bytes, refs: dict) -> list[str]:
    """Problems with one call's result; an empty list means it passed."""
    problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
    ref = refs.get(key(argv))
    if ref is None:
        problems.append("no reference output")
    elif sha256(stdout) != ref["sha256"]:
        problems.append("stdout differs from the reference")
    text = stdout.decode("utf-8", "replace")
    if argv[0].startswith("decide-"):
        problems += _decide_problems(text)
    elif argv[0] == "lattice-check" and not re.search(r"^integrality: \d+ pass, 0 fail$", text, re.M):
        problems.append("integrality failures reported")
    return problems
