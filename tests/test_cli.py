import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import rtfinite
from rtfinite import bases, cli, context, positivity, quantum
from rtfinite.cli import (
    EXIT_INVARIANT,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    MAX_LATTICE_PHI,
    MAX_LEVEL_R,
    MAX_SAMPLES,
    MAX_SWEEP_R,
    check_limit,
    main,
    scan_workers,
)
from rtfinite.context import primerange
from rtfinite.errors import InvariantViolation, UsageError
from rtfinite.quantum import qint


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


RECORD_KEYS = ["parameters", "verdict", "provenance", "witness", "clause",
               "crosscheck", "dimension", "timing_s"]


class TestReportRecord:
    def test_json_round_trip(self):
        # one test id for both commands that print records
        for argv in (["decide-torus", "--r", "7", "--c", "1"],
                     ["decide-closed", "--p", "5", "--g", "2"]):
            code, out = run([*argv, "--format", "json"])
            assert code == EXIT_OK
            [rec] = json.loads(out)
            assert list(rec) == RECORD_KEYS
            assert json.loads(json.dumps(rec)) == rec
            assert json.dumps([rec], indent=2) + "\n" == out


class TestDecideTorusCommand:
    def test_finite_text(self):
        code, out = run(["decide-torus", "--r", "7", "--c", "2"])
        assert code == EXIT_OK
        assert "finite" in out
        assert "clause 1" in out

    def test_infinite_json(self):
        code, out = run(["decide-torus", "--r", "7", "--c", "1", "--format", "json"])
        assert code == EXIT_OK
        [rec] = json.loads(out)
        assert rec["verdict"] == "infinite"
        assert rec["clause"] == 2
        assert rec["crosscheck"] == "agree"
        assert rec["witness"]["k"] == 5
        assert rec["witness"]["ratio_index"] == 1
        assert rec["witness"]["ratio_text"]
        assert rec["dimension"] == 4

    def test_non_prime_usage_error(self, capsys):
        code, _ = run(["decide-torus", "--r", "4", "--c", "0"])
        assert code == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_odd_p_is_cross_checked(self):
        argv = ["decide-torus", "--r", "7", "--c", "1", "--p-choice", "r"]
        code, out = run(argv)
        assert code == EXIT_OK
        assert out == ("decide-torus r=7 c=1 p=7: infinite [clause 2, crosscheck agree] "
                       "witness k=1 ratio=1 ([4]/([3][2]))\n")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--experimental-odd-p"])
        assert exc.value.code == EXIT_USAGE

    def test_odd_p_csv_usage_error(self, capsys):
        code, out = run(["decide-torus", "--r", "7", "--c", "1", "--p-choice", "r",
                         "--format", "csv"])
        assert (code, out) == (EXIT_USAGE, "")
        assert capsys.readouterr().err == (
            "usage error: --p-choice r prints json or text only, not csv\n")


class TestDecideClosedCommand:
    def test_p5_genus2_json(self):
        code, out = run(["decide-closed", "--p", "5", "--g", "2", "--format", "json"])
        assert code == EXIT_OK
        [rec] = json.loads(out)
        assert rec["verdict"] == "infinite"
        assert rec["witness"]["k"] == 3
        assert rec["witness"]["ratio_index"] == [2, 2, 2]
        assert rec["witness"]["ratio_text"]

    def test_genus1_finite(self):
        code, out = run(["decide-closed", "--p", "14", "--g", "1"])
        assert code == EXIT_OK
        assert "finite" in out

    def test_bad_genus(self):
        code, _ = run(["decide-closed", "--p", "10", "--g", "0"])
        assert code == EXIT_USAGE


class TestScanCommand:
    def test_record_count_r7(self):
        code, out = run(["scan", "--r-max", "7", "--format", "json", "--jobs", "1"])
        assert code == EXIT_OK
        records = json.loads(out)
        pairs = [(r["parameters"]["r"], r["parameters"]["c"]) for r in records]
        assert pairs == [(5, 0), (5, 1), (7, 0), (7, 1), (7, 2)]

    def test_deterministic_output(self):
        _, a = run(["scan", "--r-max", "13", "--format", "json", "--jobs", "1"])
        _, b = run(["scan", "--r-max", "13", "--format", "json", "--jobs", "2"])
        assert a == b

    def test_csv_shape(self):
        code, out = run(["scan", "--r-max", "7", "--format", "csv", "--jobs", "1"])
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == [
            "r", "c", "dimension", "verdict", "witness_k", "witness_index",
            "clause", "crosscheck",
        ]
        assert len(rows) == 6

    def test_csv_renders_no_witness_text(self, monkeypatch):
        argv = ["scan", "--r-max", "23", "--format", "csv", "--jobs", "1"]
        _, expected = run(argv)
        assert ",infinite," in expected

        def fail(*args):
            raise AssertionError("witness text rendered for csv")

        monkeypatch.setattr(cli, "lollipop_ratio_cumulative", fail)
        assert run(argv) == (EXIT_OK, expected)

    def test_out_file(self, tmp_path):
        target = tmp_path / "scan.json"
        code, out = run(
            ["scan", "--r-max", "7", "--format", "json", "--jobs", "1",
             "--out", str(target)]
        )
        assert code == EXIT_OK
        assert target.read_text() == out

    def test_rmax_too_small(self):
        code, _ = run(["scan", "--r-max", "3"])
        assert code == EXIT_USAGE

    def test_csv_sweep_to_1999_is_pinned(self):
        # the report scan --r-max 1999 --format csv would print, were
        # MAX_SWEEP_R above 1999; it is hashed as it is written, not held
        digest = hashlib.sha256()
        levels = (cli._scan_prime(r, False) for r in primerange(5, 2000))
        cli._write_report(levels, "csv", lambda text: digest.update(text.encode()))
        assert digest.hexdigest()[:16] == "70c4abeeac921adb"


class TestScanWorkers:
    # pure function: no pool is started here
    @pytest.mark.parametrize(
        "jobs,cpus,tasks,expected",
        [(1, 8, 30, 1), (4, 2, 30, 2), (100000, 2, 30, 2), (8, 64, 3, 3),
         (3, None, 30, 1), (2, 2, 1, 1)],
    )
    def test_clamp(self, jobs, cpus, tasks, expected):
        assert scan_workers(jobs, cpus, tasks) == expected

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_below_one_rejected(self, jobs):
        with pytest.raises(UsageError):
            scan_workers(jobs, 2, 10)

    def test_default_is_one_process(self):
        # a pool is slower than one process on the sweeps a command line admits
        _, args = cli.parse_args(["scan", "--r-max", "7"])
        assert args.jobs == 1

    def test_below_one_exits_with_usage(self, capsys):
        code, out = run(["scan", "--r-max", "7", "--jobs", "0"])
        assert code == EXIT_USAGE
        assert out == ""
        assert "--jobs" in capsys.readouterr().err


class TestInvariantViolation:
    def test_exit_code_and_one_line_message(self, monkeypatch, capsys):
        # the sign builder raises at k = 0 (mod p), where [1] vanishes
        build = positivity.qint_sign_values
        monkeypatch.setattr(positivity, "qint_sign_values", lambda p, k: build(p, 0))
        code, out = run(["decide-torus", "--r", "7", "--c", "1"])
        assert code == EXIT_INVARIANT
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: ")
        assert err.count("\n") == 1

    def test_vanishing_denominator_exits_3(self, monkeypatch, capsys):
        # [5] vanishes at every embedding of p = 5, so the theta witness of
        # decide-closed --p 5 --g 2 meets it in a denominator
        monkeypatch.setattr(positivity, "theta_norm_ratio",
                            lambda level, t: qint(1) / qint(5))
        code, out = run(["decide-closed", "--p", "5", "--g", "2"])
        assert code == EXIT_INVARIANT
        assert out == ""
        err = capsys.readouterr().err
        assert err == "invariant violation: [5] vanishes at k=3, p=5, in a denominator\n"


class TestVerifyTheoremCommand:
    def test_agrees_in_range(self):
        code, out = run(["verify-theorem", "--r-max", "23"])
        assert code == EXIT_OK
        assert "DISAGREE" not in out
        assert "clause witnesses: all negative as claimed" in out
        assert "all agree" in out

    def test_clause_disagreement_exits_3(self, monkeypatch):
        predicate = positivity.theorem_predicate

        def mispredict(r, c):
            if (r, c) == (7, 1):
                return (1, positivity.Finiteness.FINITE)
            return predicate(r, c)

        monkeypatch.setattr(positivity, "theorem_predicate", mispredict)
        code, out = run(["verify-theorem", "--r-max", "11"])
        assert code == EXIT_INVARIANT
        assert "DISAGREE clause 1: r=7 c=1\n" in out
        assert re.search(r"^clause 1: \d+ instances, \d+ agree, 1 disagree$", out, re.M)
        assert "closed-surface table p in (3, 5, 6, 7, 10, 14) g in (1,2,3): all agree" in out

    def test_closed_table_disagreement_exits_3(self, monkeypatch):
        decide = cli.decide_closed

        def disagree(p, g):
            verdict = decide(p, g)
            if (p, g) == (10, 2):
                return verdict._replace(expected=positivity.Finiteness.FINITE)
            return verdict

        monkeypatch.setattr(cli, "decide_closed", disagree)
        code, out = run(["verify-theorem", "--r-max", "11"])
        assert code == EXIT_INVARIANT
        assert "DISAGREE clause" not in out
        assert "DISAGREE closed p=10 g=2\n" in out
        assert out.endswith("g in (1,2,3): 1 disagreements\n")

    def test_clause4_witness_k_is_the_designated_one(self, monkeypatch):
        designated = positivity.clause_witness_k

        def unitary_for_clause4(r, clause):
            return 1 if clause == 4 else designated(r, clause)

        monkeypatch.setattr(positivity, "clause_witness_k", unitary_for_clause4)
        code, out = run(["verify-theorem", "--r-max", "13"])
        assert code == EXIT_OK
        # no ratio is negative at the unitary embedding k = 1
        assert "clause-witness misses (reported, not failures): [(4, 13, 2, 1)]\n" in out

    def test_builds_and_signs_no_ratio_symbol(self, monkeypatch):
        # the designated witnesses are bits of positivity.negative_ratios
        _, expected = run(["verify-theorem", "--r-max", "97"])

        def fail(*args):
            raise AssertionError("verify-theorem built or signed a ratio symbol")

        for module, name in ((quantum, "eval_sign"), (bases, "lollipop_ratio_step"),
                             (bases, "lollipop_ratio_two_step")):
            monkeypatch.setattr(module, name, fail)
        code, out = run(["verify-theorem", "--r-max", "97"])
        assert code == EXIT_OK
        assert out == expected


class TestLatticeCheckCommand:
    def test_passes(self):
        code, out = run(
            ["lattice-check", "--p", "7", "--samples", "25", "--seed", "3"]
        )
        assert code == EXIT_OK
        assert "25 pass, 0 fail" in out

    def test_seed_determinism(self):
        _, a = run(["lattice-check", "--p", "10", "--samples", "20", "--seed", "9"])
        _, b = run(["lattice-check", "--p", "10", "--samples", "20", "--seed", "9"])
        assert a == b

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_exits_with_usage(self, samples, capsys):
        # rejected before any work: p = 9 is no level, yet --samples is named
        code, out = run(["lattice-check", "--p", "9", "--samples", samples])
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == "usage error: lattice-check needs --samples >= 1\n"

    @pytest.mark.parametrize("p", ["31", "9"])
    def test_negative_seed_exits_with_usage(self, p, capsys):
        # Random(-3) draws what Random(3) draws, so seed=-3 would label the
        # seed-3 certificate; rejected before any work, as p = 9 is no level
        code, out = run(["lattice-check", "--p", p, "--samples", "50", "--seed", "-3"])
        assert code == EXIT_USAGE
        assert out == ""
        assert capsys.readouterr().err == "usage error: lattice-check needs --seed >= 0\n"


def test_invariant_exit_code_is_distinct():
    assert {EXIT_OK, EXIT_USAGE, EXIT_INVARIANT} == {0, 2, 3}


# The options each command reads, besides -h/--help.
COMMAND_OPTIONS = {
    "decide-torus": {"--r", "--c", "--p-choice", "--format", "--out"},
    "decide-closed": {"--p", "--g", "--format", "--out"},
    "scan": {"--r-max", "--format", "--out", "--jobs"},
    "verify-theorem": {"--r-max", "--out"},
    "lattice-check": {"--p", "--samples", "--out", "--seed"},
}

VALID_ARGS = {
    "decide-torus": ["--r", "7", "--c", "1"],
    "decide-closed": ["--p", "10", "--g", "2"],
    "scan": ["--r-max", "7"],
    "verify-theorem": ["--r-max", "7"],
    "lattice-check": ["--p", "7", "--samples", "5"],
}


# Options, and an option value, that a command does not take.
NOT_TAKEN = [
    ("decide-torus", "--jobs", "1"), ("decide-torus", "--seed", "1"),
    ("decide-closed", "--jobs", "1"), ("decide-closed", "--seed", "1"),
    ("decide-closed", "--format", "csv"),
    ("scan", "--seed", "1"),
    ("verify-theorem", "--format", "text"), ("verify-theorem", "--jobs", "1"),
    ("verify-theorem", "--seed", "1"),
    ("lattice-check", "--format", "text"), ("lattice-check", "--jobs", "1"),
]


# Command lines the parser rejects: each option a command does not take, and
# an ambiguous prefix, a value that is not an int, a missing required option,
# an unknown command and no command at all.
BAD_ARGV = {
    **{f"{command}-{option}": [command, *VALID_ARGS[command], option, value]
       for command, option, value in NOT_TAKEN},
    "ambiguous-prefix": ["lattice-check", "--p", "7", "--s", "5"],
    "not-an-int": ["lattice-check", "--p", "x"],
    "missing-required": ["lattice-check", "--samples", "5"],
    "unknown-command": ["decide-everything", "--p", "7"],
    "no-command": [],
}

# Spellings of lattice-check --p 7 --samples 5: --opt=value, a unique prefix,
# and a later occurrence that overrides an earlier one.
SPELLINGS = {
    "equals-sign": ["lattice-check", "--p", "7", "--samples=5"],
    "prefix": ["lattice-check", "--p", "7", "--sam", "5"],
    "last-wins": ["lattice-check", "--samples", "9", "--p=7", "--samples", "5"],
}


class TestOptions:
    @pytest.mark.parametrize("argv", BAD_ARGV.values(), ids=BAD_ARGV)
    def test_ignored_option_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(r"rtfinite( [a-z-]+)?: error: .+\n", err)

    @pytest.mark.parametrize("command", [*sorted(COMMAND_OPTIONS), None])
    def test_help_lists_the_options_the_command_reads(self, command, capsys):
        # without a command, the help lists every command and no option
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"] if command else ["--help"])
        assert exc.value.code == EXIT_OK
        out = capsys.readouterr().out
        listed = set(re.findall(r"--[a-z][a-z-]*", out))
        assert listed == COMMAND_OPTIONS.get(command, set()) | {"--help"}
        assert command or all(name in out for name in COMMAND_OPTIONS)

    @pytest.mark.parametrize("argv", SPELLINGS.values(), ids=SPELLINGS)
    def test_option_spellings_agree(self, argv):
        assert run(argv) == run(["lattice-check", "--p", "7", "--samples", "5"])

    @pytest.mark.parametrize("command,option", [
        ("lattice-check", "--seed"), ("decide-torus", "--r"), ("lattice-check", "--p")],
        ids=["seed", "r", "p"])
    def test_int_past_the_conversion_limit_is_an_invalid_value(self, command, option, capsys):
        # int() refuses more than sys.get_int_max_str_digits() digits
        huge = "9" * 5000
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(SystemExit) as exc:
                main([command, *VALID_ARGS[command], option, huge])
        finally:
            sys.set_int_max_str_digits(limit)
        assert exc.value.code == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"rtfinite {command}: error: argument {option}: invalid value: {huge!r}\n")

    def test_negative_int_is_a_value(self, capsys):
        # --c -1 reaches the library, which rejects the color
        assert run(["decide-torus", "--r", "7", "--c", "-1"]) == (EXIT_USAGE, "")
        assert capsys.readouterr().err.startswith("usage error: ")


class TestOutFile:
    @pytest.mark.parametrize("argv", [
        *(["decide-torus", "--r", "7", "--c", "1", "--format", f] for f in ("json", "csv", "text")),
        *(["decide-closed", "--p", "5", "--g", "2", "--format", f] for f in ("json", "text")),
        *(["scan", "--r-max", "13", "--format", f, "--jobs", jobs]
          for f in ("csv", "json", "text") for jobs in ("1", "2")),
        ["verify-theorem", "--r-max", "13"],
        ["lattice-check", "--p", "7", "--samples", "25"],
    ], ids="-".join)
    def test_receives_the_bytes_printed_on_stdout(self, argv, tmp_path):
        target = tmp_path / "report"
        code, out = run([*argv, "--out", str(target)])
        assert code == EXIT_OK and out
        assert target.read_bytes() == out.encode()


class TestIOError:
    def test_unwritable_out_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.txt"
        code, out = run(["decide-torus", "--r", "7", "--c", "1", "--out", str(target)])
        assert code == EXIT_IO == 4
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ")
        assert not target.exists()


def _imported_by_cli(module: str) -> bool:
    """Whether a fresh interpreter has imported module after importing rtfinite.cli."""
    src = str(Path(rtfinite.__file__).resolve().parents[1])
    code = f"import sys, rtfinite.cli; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60, check=True,
    )
    return {"True\n": True, "False\n": False}[out.stdout]


def test_cli_import_leaves_sympy_out():
    assert not _imported_by_cli("sympy")


def test_cli_import_leaves_the_process_pool_out():
    assert not _imported_by_cli("concurrent.futures.process")


# json is imported by the json writer alone, so csv and text calls skip it
def test_cli_import_leaves_json_out():
    assert not _imported_by_cli("json")


# fractions (which imports decimal) is imported by the lattice norms alone
@pytest.mark.parametrize("module", ["fractions", "decimal"])
def test_cli_import_leaves_the_rational_numbers_out(module):
    assert not _imported_by_cli(module)


# the option table needs neither argparse nor its gettext and locale lookups,
# and the csv rows are joined by hand
@pytest.mark.parametrize("module", ["argparse", "gettext", "locale", "csv"])
def test_cli_import_leaves_argparse_and_csv_out(module):
    assert not _imported_by_cli(module)


def test_cold_lattice_check_imports_no_parser_or_rational_numbers():
    # the __main__ block, with main() reading sys.argv
    src = str(Path(rtfinite.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rtfinite.cli", "lattice-check",
         "--p", "7", "--samples", "2000", "--seed", "4"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60,
    )
    assert done.returncode == EXIT_OK
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == "0690e20942fb26b9"
    imported = {line.rsplit(b"|", 1)[-1].strip().decode()
                for line in done.stderr.splitlines() if line.startswith(b"import time:")}
    assert "rtfinite.lattice" in imported
    assert not imported & {"argparse", "fractions", "decimal", "_decimal", "csv", "_csv"}


def test_cold_csv_scan_imports_no_csv_module():
    # the csv format joins its rows by hand; the report is the anchored one
    src = str(Path(rtfinite.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "rtfinite.cli", "scan",
         "--r-max", "199", "--format", "csv", "--jobs", "1"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=60,
    )
    assert done.returncode == EXIT_OK
    assert hashlib.sha256(done.stdout).hexdigest()[:16] == "653913b3c14781b5"
    imported = {line.rsplit(b"|", 1)[-1].strip().decode()
                for line in done.stderr.splitlines() if line.startswith(b"import time:")}
    assert "rtfinite.positivity" in imported
    assert not imported & {"csv", "_csv"}


# dataclasses imports inspect, dis, ast and tokenize: the records are named
# tuples so that no call pays for them at start-up
@pytest.mark.parametrize("module", ["dataclasses", "inspect"])
def test_cli_import_leaves_the_dataclass_machinery_out(module):
    assert not _imported_by_cli(module)


class TestSizeLimits:
    def test_check_limit(self):
        check_limit("--r-max", 500, 500)
        with pytest.raises(UsageError, match="--r-max = 501"):
            check_limit("--r-max", 501, 500)

    def test_benchmark_and_anchor_sizes_are_admitted(self):
        # decide-torus --r 1999, scan --r-max 499, verify-theorem --r-max 199,
        # lattice-check up to phi(alpha_p) = 84 with 1000 samples
        assert MAX_LEVEL_R >= 1999
        assert MAX_SWEEP_R >= 499
        assert MAX_LATTICE_PHI >= 84
        assert MAX_SAMPLES >= 1000

    @pytest.mark.parametrize("argv", [
        ["decide-torus", "--r", "2003", "--c", "0"],
        ["decide-closed", "--p", "4006", "--g", "2"],
        ["decide-closed", "--p", "2003", "--g", "2"],
        ["scan", "--r-max", str(MAX_SWEEP_R + 1)],
        ["verify-theorem", "--r-max", str(MAX_SWEEP_R + 1)],
        ["lattice-check", "--p", "262"],  # phi(alpha_p) = 2 * 130
        ["lattice-check", "--p", "7", "--samples", str(MAX_SAMPLES + 1)],
    ])
    def test_rejected_before_any_work(self, argv, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("work started")

        for name in ("decide_torus", "decide_torus_level", "decide_closed",
                     "discreteness_certificate", "primerange"):
            monkeypatch.setattr(cli, name, fail)
        code, out = run(argv)
        assert code == EXIT_USAGE
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "above the limit" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["decide-closed", "--p", str(2**4423 - 1), "--g", "2"],  # a 1332-digit prime
        ["decide-closed", "--p", str(2 * MAX_LEVEL_R + 1), "--g", "2"],
        ["lattice-check", "--p", str(2**4423 - 1)],
        ["lattice-check", "--p", str(2 * MAX_LATTICE_PHI + 3)],
    ], ids=["decide-closed-huge", "decide-closed-bound", "lattice-check-huge",
            "lattice-check-bound"])
    def test_p_rejected_before_any_primality_test(self, argv, monkeypatch, capsys):
        # p <= 2r bounds r, and phi(alpha_p) >= r - 1 bounds phi(alpha_p)
        def fail(*args):
            raise AssertionError("a primality test started")

        monkeypatch.setattr(context, "isprime", fail)
        code, out = run(argv)
        assert (code, out) == (EXIT_USAGE, "")
        err = capsys.readouterr().err
        assert err.startswith("usage error: --p = ") and "above the limit" in err
        assert err.count("\n") == 1


class TestScanStreaming:
    @pytest.mark.parametrize("fmt", ["json", "csv", "text"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_streamed_output_is_the_whole_report(self, fmt, jobs):
        code, out = run(["scan", "--r-max", "37", "--format", fmt, "--jobs", jobs])
        assert code == EXIT_OK
        primes = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        records = [rec for r in primes for rec in cli._scan_prime(r, fmt != "csv")]
        assert out == cli._render(records, fmt)
        if fmt == "json":
            assert out == json.dumps(records, indent=2) + "\n"

    def test_unwritable_out_path_exits_before_any_level(self, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise AssertionError("a level was decided")

        monkeypatch.setattr(cli, "_scan_prime", fail)
        target = tmp_path / "missing" / "scan.csv"
        code, out = run(["scan", "--r-max", "7", "--format", "csv", "--jobs", "1",
                         "--out", str(target)])
        assert code == EXIT_IO
        assert out == ""
        assert capsys.readouterr().err.startswith("i/o error: ")

    def test_levels_before_an_invariant_violation_are_written(self, monkeypatch):
        scan_prime = cli._scan_prime

        def fail_at_11(r, with_text):
            if r == 11:
                raise InvariantViolation("level 11")
            return scan_prime(r, with_text)

        monkeypatch.setattr(cli, "_scan_prime", fail_at_11)
        code, out = run(["scan", "--r-max", "13", "--format", "csv", "--jobs", "1"])
        assert code == EXIT_INVARIANT
        assert [row[0] for row in csv.reader(io.StringIO(out))][1:] == ["5"] * 2 + ["7"] * 3
