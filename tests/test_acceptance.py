"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (written past pytest's
capture so the line survives in batch logs) and then asserts.  The
checks are exact: integer sign arithmetic throughout, with float
oracles only where a tolerance is stated.
"""

import cmath
import math
import random
from fractions import Fraction

from sympy import primerange

from rtfinite.bases import (
    lollipop_ratio_step,
    lollipop_ratio_two_step,
    theta_norm_ratio,
)
from rtfinite.cli import main
from rtfinite.context import LevelContext
from rtfinite.cyclotomic import EmbeddingIndex, Sign, embeddings
from rtfinite.lattice import lattice_element, psi_norm_sq
from rtfinite.positivity import (
    Crosscheck,
    Finiteness,
    Positivity,
    decide_closed,
    decide_torus,
    theorem_predicate,
)
from rtfinite.quantum import eval_sign, qint


def _report(capsys, number: int, ok: bool, text: str):
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_acceptance_01_boundary_color_finite(capsys):
    failures = []
    for r in primerange(5, 200):
        c = (r - 3) // 2
        verdict = decide_torus(r, c)
        if verdict.verdict is not Finiteness.FINITE:
            failures.append((r, c))
        elif any(s is not Sign.POSITIVE for s in verdict.report.sign_matrix.values()):
            failures.append((r, c))
    _report(
        capsys,
        1,
        not failures,
        "c = (r-3)/2 gives a finite image for all primes r in [5, 199]"
        + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_02_residue_one_mod_three_infinite(capsys):
    failures = []
    for r in primerange(7, 200):
        level = LevelContext.at(2 * r)
        k = (2 * r + 1) // 3 if r % 3 == 1 else (2 * r - 1) // 3
        for c in range(1, (r - 4) // 2 + 1):
            if c % 3 != 1:
                continue
            verdict = decide_torus(r, c)
            if verdict.verdict is not Finiteness.INFINITE:
                failures.append((r, c, "verdict"))
            s = eval_sign(
                lollipop_ratio_two_step(level, c, 0), EmbeddingIndex(k, 2 * r)
            )
            if s is not Sign.NEGATIVE:
                failures.append((r, c, f"witness k={k}"))
    _report(
        capsys,
        2,
        not failures,
        "c = 1 (mod 3) infinite with negative two-step witness at k = (2r+-1)/3, "
        "r in [7, 199]" + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_03_residue_mod_five_infinite(capsys):
    failures = []
    witness_misses = []
    for r in primerange(7, 200):
        if r % 5 not in (2, 3):
            continue
        level = LevelContext.at(2 * r)
        k = (2 * r + 1) // 5 if r % 5 == 2 else (2 * r - 1) // 5
        for c in range((r - 4) // 2 + 1):
            in_class = (
                (c % 5 == 3 and r % 5 in (2, 3))
                or (c % 5 == 1 and r % 5 == 3)
                or (c % 5 == 2 and r % 5 == 2)
            )
            if not in_class:
                continue
            verdict = decide_torus(r, c)
            if verdict.verdict is not Finiteness.INFINITE:
                failures.append((r, c, "verdict"))
            s = eval_sign(
                lollipop_ratio_two_step(level, c, 0), EmbeddingIndex(k, 2 * r)
            )
            if s is not Sign.NEGATIVE:
                witness_misses.append((r, c, k))
    if witness_misses:
        with capsys.disabled():
            print(f"ACCEPTANCE 3 (report): residue-class witness misses: {witness_misses}")
    _report(
        capsys,
        3,
        not failures and not witness_misses,
        "mod-5 residue classes infinite with negative two-step witness at "
        "k = (2r+-1)/5, r <= 199"
        + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_04_small_color_infinite(capsys):
    # The bound is applied for c >= 1 only: c = 0 is the closed torus,
    # all of whose relative norms are identically 1.
    failures = []
    for r in primerange(11, 200):
        level = LevelContext.at(2 * r)
        for c in range(1, (r - 7) // 3 + 1):
            verdict = decide_torus(r, c)
            if verdict.verdict is not Finiteness.INFINITE:
                failures.append((r, c, "verdict"))
            negative_steps = [
                i
                for i in range(r - 2 - 2 * c)
                if eval_sign(
                    lollipop_ratio_step(level, c, i), EmbeddingIndex(3, 2 * r)
                )
                is Sign.NEGATIVE
            ]
            if not negative_steps:
                failures.append((r, c, "no negative step at k=3"))
    _report(
        capsys,
        4,
        not failures,
        "1 <= c <= (r-7)/3 infinite with a negative one-step ratio at k = 3, "
        "r in [11, 199]" + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_05_closed_surfaces(capsys):
    failures = []
    for p in (3, 5, 6, 7, 10, 14, 22, 26):
        level = LevelContext.at(p)
        for g in range(1, 6):
            expected = (
                Finiteness.FINITE if g == 1 or level.r == 3 else Finiteness.INFINITE
            )
            if decide_closed(p, g).verdict is not expected:
                failures.append((p, g))
    v5 = decide_closed(5, 2)
    if v5.report.witness != (3, (2, 2, 2)):
        failures.append(("p=5 witness", v5.report.witness))
    ratio5 = theta_norm_ratio(LevelContext.at(5), (2, 2, 2))
    if ratio5 != qint(4) / (qint(2) ** 2 * qint(3) ** 2):
        failures.append(("p=5 ratio", str(ratio5)))
    if eval_sign(ratio5, EmbeddingIndex(3, 5)) is not Sign.NEGATIVE:
        failures.append(("p=5 ratio sign",))
    v10 = decide_closed(10, 2)
    if v10.report.witness != (3, (2, 1, 1)):
        failures.append(("p=10 witness", v10.report.witness))
    ratio10 = theta_norm_ratio(LevelContext.at(10), (2, 1, 1))
    if ratio10 != qint(3) / qint(2) ** 2:
        failures.append(("p=10 ratio", str(ratio10)))
    if eval_sign(ratio10, EmbeddingIndex(3, 10)) is not eval_sign(
        qint(3), EmbeddingIndex(3, 10)
    ) or eval_sign(ratio10, EmbeddingIndex(3, 10)) is not Sign.NEGATIVE:
        failures.append(("p=10 ratio sign",))
    _report(
        capsys,
        5,
        not failures,
        "closed surfaces finite iff g = 1 or r = 3 over p in {3,5,6,7,10,14,22,26}, "
        "g <= 5, with the designated genus-2 witnesses"
        + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_06_two_step_identity(capsys):
    failures = 0
    for r in primerange(5, 98):
        level = LevelContext.at(2 * r)
        for c in range((r - 2) // 2 + 1):
            for i in range(r - 3 - 2 * c):
                two = lollipop_ratio_two_step(level, c, i)
                product = (
                    lollipop_ratio_step(level, c, i)
                    * lollipop_ratio_step(level, c, i + 1)
                )
                if two != product:
                    failures += 1
    _report(
        capsys,
        6,
        failures == 0,
        "two-step ratio = product of consecutive one-step ratios as canonical "
        f"symbols, r <= 97 ({failures} failures)",
    )


def test_acceptance_07_float_oracle(capsys):
    disagreements = 0
    checked = 0
    for r in primerange(5, 54):
        level = LevelContext.at(2 * r)
        for c in range((r - 2) // 2 + 1):
            for i in range(r - 2 - 2 * c):
                value = lollipop_ratio_step(level, c, i)
                for emb in embeddings(level.p):
                    approx = value.evaluate(emb)
                    if abs(approx) <= 1e-9:
                        continue
                    checked += 1
                    float_sign = (
                        Sign.POSITIVE if approx > 0 else Sign.NEGATIVE
                    )
                    if eval_sign(value, emb) is not float_sign:
                        disagreements += 1
    _report(
        capsys,
        7,
        disagreements == 0 and checked > 0,
        f"exact one-step signs match the float sine-product oracle for r <= 53 "
        f"({checked} evaluations, {disagreements} disagreements)",
    )


def test_acceptance_08_lattice_integrality(capsys):
    failures = []
    for p in (5, 7, 10, 14):
        level = LevelContext.at(p)
        n = level.alpha_p
        roots = [
            cmath.exp(2j * cmath.pi * k / n)
            for k in range(1, n)
            if math.gcd(k, n) == 1
        ]
        rng = random.Random(p)
        for _ in range(1000):
            coeffs = [rng.randint(-10, 10) for _ in range(level.phi_alpha)]
            element = lattice_element(level, coeffs)
            norm = psi_norm_sq(element, level)
            scaled = norm * level.phi_alpha
            if scaled.denominator != 1 or scaled < 0:
                failures.append((p, coeffs, "not a nonnegative integer"))
            if (norm == 0) != element.is_zero():
                failures.append((p, coeffs, "zero norm mismatch"))
            approx = sum(abs(element.evaluate(z)) ** 2 for z in roots) / len(roots)
            reference = float(norm)
            if abs(approx - reference) > 1e-6 * max(1.0, abs(reference)):
                failures.append((p, coeffs, "float sum disagrees"))
    _report(
        capsys,
        8,
        not failures,
        "phi(alpha_p) * psi_norm_sq integral and float-consistent for 1000 "
        "seeded samples at p in {5,7,10,14}"
        + (f"; first failures {failures[:3]}" if failures else ""),
    )


def test_acceptance_09_crosscheck_coherence(capsys):
    failures = []
    for r in primerange(5, 98):
        for c in range((r - 2) // 2 + 1):
            verdict = decide_torus(r, c)
            if verdict.clause is not None and verdict.crosscheck is not Crosscheck.AGREE:
                failures.append((r, c, verdict.clause))
    exit_code = main(["verify-theorem", "--r-max", "97", "--out", "/dev/null"])
    if exit_code != 0:
        failures.append(("verify-theorem exit", exit_code))
    _report(
        capsys,
        9,
        not failures,
        "every clause-matched (r, c) with r <= 97 crosschecks Agree and "
        "verify-theorem exits 0" + (f"; failures {failures}" if failures else ""),
    )


def test_acceptance_10_genus_one_baseline(capsys):
    failures = []
    for r in primerange(3, 54):
        for p in (r, 2 * r):
            level = LevelContext.at(p)
            steps = [lollipop_ratio_step(level, 0, i) for i in range(r - 2)]
            if not all(s.is_unit for s in steps):
                failures.append((p, "non-unit ratio"))
            report_verdict = decide_closed(p, 1).report.verdict
            if report_verdict is not Positivity.COMPLETELY_POSITIVE:
                failures.append((p, "not completely positive"))
    _report(
        capsys,
        10,
        not failures,
        "closed-torus ratios are the unit symbol and completely positive for "
        "p = r, 2r with r <= 53" + (f"; failures {failures}" if failures else ""),
    )
