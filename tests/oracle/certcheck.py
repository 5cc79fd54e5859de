"""Re-check the verdicts of a one-holed-torus report with no code from rtfinite.

    rtfinite scan --r-max 199 --format csv > scan.csv
    python tests/oracle/certcheck.py scan.csv
    rtfinite decide-torus --r 7 --c 1 --p-choice r --format json | python tests/oracle/certcheck.py

Reads the report from the named file, or from stdin without one, prints one
line per problem and a summary on stderr, and exits 1 when any row fails.  A
report that starts with "[" is a json report, one record per (r, c), which
names its level p = 2r or p = r in its parameters; any other report is csv,
whose rows (r, c) are at p = 2r.

A row (r, c) is the torus with boundary color 2c at level p, whose lollipop
basis u_0 .. u_{r-2-2c} has dimension r - 1 - 2c.  Its cumulative norm ratio
telescopes to

    <u_j>/<u_0> = [2c+j+1]! [j]! [c+1]! [c]! / ([2c+1]! [c+j+1]! [c+j]!),

and at the embedding k the quantum integer [m] has the sign of
sin(2 pi m k / p) / sin(2 pi k / p), read here in integers: sin(2 pi n / p) is
positive when 0 < n mod p < p/2 and negative when p/2 < n mod p.  So the sign
of the ratio is the parity of the negative [m] it counts, each factorial [n]!
counting the negative [m], m <= n.  The walk is over k = 1, 3, .., r - 2 at
both levels: at p = 2r every other k prime to 2p gives the signs of 2r - k,
or of k - 2r, and at p = r those k are all the k prime to 2p below p.  A row
is infinite exactly when some ratio is negative, and its witness is the first
negative (k, j) in ascending k, then j; it is finite with an empty witness
otherwise.  The clause and crosscheck columns are not checked.
"""

import csv
import json
import sys
from functools import lru_cache

HEADER = ["r", "c", "dimension", "verdict", "witness_k", "witness_index", "clause",
          "crosscheck"]


def sine_sign(n: int, p: int) -> int:
    """The sign of sin(2 pi n / p): 1, -1, or 0."""
    n %= p
    return 0 if 2 * n % p == 0 else 1 if 2 * n < p else -1


@lru_cache(maxsize=None)
def negative_counts(p: int, k: int) -> list[int]:
    """counts[n] = the number of negative [m], 1 <= m <= n, at k and level p,
    for n <= r - 1, where r is p or p/2, an odd prime; no [m] vanishes there,
    as r is a prime above m and k."""
    r = p if p % 2 else p // 2
    counts = [0]
    for m in range(1, r):
        sign = sine_sign(m * k, p) * sine_sign(k, p)
        if sign == 0:
            raise ValueError(f"[{m}] vanishes at p={p}, k={k}")
        counts.append(counts[-1] + (sign < 0))
    return counts


def first_negative(p: int, c: int):
    """The first (k, j) at which <u_j>/<u_0> is negative at level p, or None
    when there is none."""
    r = p if p % 2 else p // 2
    for k in range(1, r - 1, 2):
        n = negative_counts(p, k)
        for j in range(1, r - 1 - 2 * c):
            up = n[2 * c + j + 1] + n[j] + n[c + 1] + n[c]
            down = n[2 * c + 1] + n[c + j + 1] + n[c + j]
            if (up - down) % 2:
                return k, j
    return None


def check(lines) -> list[str]:
    """One problem per failing row of a csv report, or [] when all hold."""
    rows = list(csv.reader(lines))
    if not rows or rows[0] != HEADER:
        return [f"header is {rows[:1]}, not {HEADER}"]
    if len(rows) == 1:
        return ["the report has no rows"]
    problems = []
    for row in rows[1:]:
        r, c, dimension, verdict, k, j = row[:6]
        r, c = int(r), int(c)
        witness = first_negative(2 * r, c)
        expected = tuple(map(str, witness)) if witness else ("", "")
        if dimension != str(r - 1 - 2 * c):
            problems.append(f"r={r} c={c}: dimension {dimension}, not {r - 1 - 2 * c}")
        if verdict != ("infinite" if expected[0] else "finite"):
            problems.append(f"r={r} c={c}: verdict {verdict}, witness {expected}")
        if (k, j) != expected:
            problems.append(f"r={r} c={c}: witness ({k}, {j}), not {expected}")
    return problems


def check_records(records) -> list[str]:
    """One problem per failing record of a json report, or [] when all hold."""
    if not isinstance(records, list) or not records:
        return ["the report has no records"]
    problems = []
    for record in records:
        parameters = record["parameters"]
        r, c, p = parameters["r"], parameters["c"], parameters["p"]
        where = f"r={r} c={c} p={p}"
        if parameters["command"] != "decide-torus" or p not in (r, 2 * r):
            problems.append(f"{where}: not a one-holed torus at p = r or 2r")
            continue
        expected = first_negative(p, c)
        witness = record["witness"] and (record["witness"]["k"],
                                         record["witness"]["ratio_index"])
        if record["dimension"] != r - 1 - 2 * c:
            problems.append(f"{where}: dimension {record['dimension']}, not {r - 1 - 2 * c}")
        if record["verdict"] != ("infinite" if expected else "finite"):
            problems.append(f"{where}: verdict {record['verdict']}, witness {expected}")
        if witness != expected:
            problems.append(f"{where}: witness {witness}, not {expected}")
    return problems


def main(argv: list[str]) -> int:
    if argv:
        with open(argv[0], encoding="utf-8", newline="") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    if text.lstrip().startswith("["):
        records = json.loads(text)
        problems, count = check_records(records), f"{len(records)} records"
    else:
        lines = text.splitlines()
        problems, count = check(lines), f"{max(len(lines) - 1, 0)} rows"
    for problem in problems:
        print(problem)
    print(f"{count}, {len(problems)} problems", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
