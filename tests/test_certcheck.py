"""The stand-alone certificate checker of tests/oracle/certcheck.py: it shares
no code with the package, passes the scan report and rejects a report with
one row changed."""

import ast
import importlib.util
import io
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


@pytest.fixture(scope="module")
def scan_199() -> list[str]:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["scan", "--r-max", "199", "--format", "csv", "--jobs", "1"]) == EXIT_OK
    return out.getvalue().splitlines()


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


def test_the_checker_imports_only_the_standard_library():
    tree = ast.parse(CERTCHECK.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += ["." * node.level + (node.module or "") for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom)]
    modules = {name.split(".")[0] for name in names}
    assert "rtfinite" not in modules and modules <= sys.stdlib_module_names
