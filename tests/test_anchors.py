"""Regression anchors: the sha256 of the stdout of four reproduction runs.

The prefixes were recorded before the prefix-parity sign engine and must not
move with any change that keeps verdicts, witnesses and report formats.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from rtfinite.cli import EXIT_OK, main

ANCHORS = [
    (["scan", "--r-max", "199", "--format", "csv", "--jobs", "1"], "653913b3c14781b5"),
    (["scan", "--r-max", "199", "--format", "json", "--jobs", "1"], "95e37abad21c2744"),
    (["verify-theorem", "--r-max", "199"], "26cff9f805acf6a0"),
    (["scan", "--r-max", "499", "--format", "csv", "--jobs", "1"], "53986b89fbd0ded4"),
]


@pytest.mark.parametrize("argv,prefix", ANCHORS, ids=["scan-csv", "scan-json", "verify-theorem", "scan-499-csv"])
def test_stdout_sha256(argv, prefix):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == EXIT_OK
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == prefix
