"""The stand-alone certificate checker of tests/oracle/certcheck.py: it shares
no code with the package, passes the scan report in csv and in json, the
decide-torus records at p = r and the decide-closed records, and rejects a
report with one row changed."""

import ast
import copy
import importlib.util
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from rtfinite.cli import EXIT_OK, main

CERTCHECK = Path(__file__).resolve().parent / "oracle" / "certcheck.py"
_spec = importlib.util.spec_from_file_location("certcheck", CERTCHECK)
certcheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(certcheck)

# one row of r = 199 changed: (its verdict, the column, the new value)
MUTANTS = {
    "witness-index-plus-1": ("infinite", 5, lambda value: str(int(value) + 1)),
    "witness-k-plus-2": ("infinite", 4, lambda value: str(int(value) + 2)),
    "finite-flipped-to-infinite": ("finite", 3, lambda value: "infinite"),
}


# the same changes to one json record: (its verdict, the change)
JSON_MUTANTS = {
    "witness-index-plus-1": ("infinite", lambda record: record["witness"].update(
        ratio_index=record["witness"]["ratio_index"] + 1)),
    "witness-k-plus-2": ("infinite", lambda record: record["witness"].update(
        k=record["witness"]["k"] + 2)),
    "finite-flipped-to-infinite": ("finite", lambda record: record.update(verdict="infinite")),
}

# one field of a decide-closed record changed, on every record that has it:
# (whether the record has the field, the change).  ratio_index + 1 applies
# where the index is a lollipop j (r >= 7), as at r = 5 it names a theta triple
CLOSED_MUTANTS = {
    "verdict-flipped": (
        lambda record: True,
        lambda record: record.update(
            verdict="finite" if record["verdict"] == "infinite" else "infinite")),
    "witness-k-plus-2": (
        lambda record: record["witness"] is not None,
        lambda record: record["witness"].update(k=record["witness"]["k"] + 2)),
    "witness-index-plus-1": (
        lambda record: isinstance((record["witness"] or {}).get("ratio_index"), int),
        lambda record: record["witness"].update(ratio_index=record["witness"]["ratio_index"] + 1)),
}

CLOSED_GRID = [(p, g) for p in (3, 5, 6, 7, 10, 14, 22, 26, 998) for g in (1, 2, 3)]


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


@pytest.fixture(scope="module")
def scan_199() -> list[str]:
    return _run(["scan", "--r-max", "199", "--format", "csv", "--jobs", "1"]).splitlines()


@pytest.fixture(scope="module")
def scan_199_json() -> str:
    return _run(["scan", "--r-max", "199", "--format", "json", "--jobs", "1"])


@pytest.fixture(scope="module")
def torus_at_p_equals_r() -> dict:
    # decide-torus at p = r, one json report per color of each level
    return {r: [_run(["decide-torus", "--r", str(r), "--c", str(c), "--p-choice", "r",
                      "--format", "json"]) for c in range((r - 1) // 2)]
            for r in (7, 97, 199)}


@pytest.fixture(scope="module")
def closed_records() -> list[dict]:
    return [record for p, g in CLOSED_GRID
            for record in json.loads(_run(["decide-closed", "--p", str(p), "--g", str(g),
                                           "--format", "json"]))]


def test_the_checker_passes_the_scan_report(scan_199, tmp_path, capsys):
    target = tmp_path / "scan.csv"
    target.write_text("\n".join(scan_199) + "\n", encoding="utf-8")
    assert certcheck.main([str(target)]) == 0
    assert capsys.readouterr() == ("", "2089 rows, 0 problems\n")


@pytest.mark.parametrize("mutant", MUTANTS)
def test_the_checker_rejects_a_changed_row(scan_199, mutant):
    verdict, column, change = MUTANTS[mutant]
    i = next(i for i, line in enumerate(scan_199)
             if line.split(",")[0] == "199" and line.split(",")[3] == verdict)
    fields = scan_199[i].split(",")
    fields[column] = change(fields[column])
    problems = certcheck.check([*scan_199[:i], ",".join(fields), *scan_199[i + 1:]])
    assert problems and all(p.startswith(f"r=199 c={fields[1]}: ") for p in problems)


def test_the_checker_passes_the_json_scan_report(scan_199_json, tmp_path, capsys):
    target = tmp_path / "scan.json"
    target.write_text(scan_199_json, encoding="utf-8")
    assert certcheck.main([str(target)]) == 0
    assert capsys.readouterr() == ("", "2089 records, 0 problems\n")


def test_the_checker_passes_decide_torus_at_p_equals_r(torus_at_p_equals_r):
    for r, reports in torus_at_p_equals_r.items():
        for report in map(json.loads, reports):
            assert [record["parameters"]["p"] for record in report] == [r]
            assert certcheck.check_records(report) == [], report


@pytest.mark.parametrize("level", ["2r", "r"])
@pytest.mark.parametrize("mutant", JSON_MUTANTS)
def test_the_checker_rejects_a_changed_json_record(scan_199_json, torus_at_p_equals_r, level,
                                                   mutant):
    verdict, change = JSON_MUTANTS[mutant]
    if level == "2r":
        records = [record for record in json.loads(scan_199_json)
                   if record["parameters"]["r"] == 199]
    else:
        records = [record for [record] in map(json.loads, torus_at_p_equals_r[199])]
    i = next(i for i, record in enumerate(records) if record["verdict"] == verdict)
    change(records[i])
    problems = certcheck.check_records(records)
    where = "r=199 c={c} p={p}: ".format(**records[i]["parameters"])
    assert problems and all(p.startswith(where) for p in problems)


def test_the_checker_imports_only_the_standard_library():
    tree = ast.parse(CERTCHECK.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    modules = {name.split(".")[0] for name in names}
    assert "rtfinite" not in modules and modules <= sys.stdlib_module_names


def test_the_checker_passes_the_scan_report_at_the_sweep_limit(tmp_path, capsys):
    target = tmp_path / "scan.csv"
    target.write_text(_run(["scan", "--r-max", "499", "--format", "csv", "--jobs", "1"]),
                      encoding="utf-8")
    assert certcheck.main([str(target)]) == 0
    assert capsys.readouterr() == ("", "10719 rows, 0 problems\n")


def test_the_checker_passes_decide_closed(closed_records):
    assert [(record["parameters"]["p"], record["parameters"]["g"])
            for record in closed_records] == CLOSED_GRID
    assert {record["verdict"] for record in closed_records} == {"finite", "infinite"}
    assert certcheck.check_records(closed_records) == []
    # each shape is checked: no witness, the designated r = 5 one, a c = 1 walk
    shapes = {type(record["witness"] and record["witness"]["ratio_index"]).__name__
              for record in closed_records}
    assert shapes == {"NoneType", "list", "int"}


@pytest.mark.parametrize("mutant", CLOSED_MUTANTS)
def test_the_checker_rejects_a_changed_closed_record(closed_records, mutant):
    applies, change = CLOSED_MUTANTS[mutant]
    changed = 0
    for i, record in enumerate(closed_records):
        if not applies(record):
            continue
        records = copy.deepcopy(closed_records)
        change(records[i])
        problems = certcheck.check_records(records)
        where = "p={p} g={g}: ".format(**record["parameters"])
        assert problems and all(p.startswith(where) for p in problems), (mutant, where)
        changed += 1
    # each applies at least to the ten records with r >= 7 and g >= 2
    assert changed >= 10
