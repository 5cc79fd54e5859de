"""Regression anchors: the sha256 of the stdout of reproduction runs.

The four sweep prefixes were recorded before the prefix-parity sign engine,
the three largest decisions the command line admits before the parity mask
was built without count tables, and the largest p = r decision while p = r
still needed an opt-in flag (no clause applies at c = 0, so no cross-check
entered its record).  The next three were recorded while the scan still
rendered its whole report at once and the one-ratio color 2c = r - 3 was
still read off parity masks.  The three lattice certificates were recorded
while each coefficient was a call of randint and the norm was the quadratic
form over the trace table.  The next three, which build parity masks over
many slices of the residue tile, were recorded while each mask mapped every
residue through the table one by one.  The last, verify-theorem --r-max
499, was recorded while it still signed each clause's designated ratios
symbol by symbol, before it read them off the torus masks.  None may move with a
change that keeps verdicts, witnesses, report formats and the seeded draws.
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
    (["decide-torus", "--r", "1999", "--c", "0"], "7d2972570284cbad"),
    (["decide-torus", "--r", "1999", "--c", "998"], "5e15986e62f18090"),
    (["decide-closed", "--p", "3998", "--g", "1"], "abe35bc8ec091672"),
    (["decide-torus", "--r", "1999", "--c", "0", "--p-choice", "r"], "d2b316d40df2bb5c"),
    (["scan", "--r-max", "499", "--format", "json", "--jobs", "1"], "b044b312f7b67bc5"),
    (["scan", "--r-max", "499", "--format", "text", "--jobs", "1"], "aaff71a22276d2eb"),
    (["decide-torus", "--r", "1999", "--c", "998", "--p-choice", "r"], "f08c30f22bb9d2e2"),
    (["lattice-check", "--p", "254", "--samples", "1000", "--seed", "0"], "38d0ee8f9a865c68"),
    (["lattice-check", "--p", "86", "--samples", "300", "--seed", "9"], "94f16e7d87aaface"),
    (["lattice-check", "--p", "7", "--samples", "2000", "--seed", "4"], "0690e20942fb26b9"),
    (["decide-torus", "--r", "1999", "--c", "997"], "68dc8aba38e97d8a"),
    (["decide-torus", "--r", "1999", "--c", "997", "--p-choice", "r"], "da40e8e4ba130d70"),
    (["decide-closed", "--p", "3998", "--g", "3"], "2d4706d1cd87c361"),
    (["verify-theorem", "--r-max", "499"], "ed416ac495f177a8"),
]
IDS = ["scan-csv", "scan-json", "verify-theorem", "scan-499-csv",
       "decide-torus-1999-c0", "decide-torus-1999-c998", "decide-closed-3998-g1",
       "decide-torus-1999-c0-odd", "scan-499-json", "scan-499-text",
       "decide-torus-1999-c998-odd", "lattice-254", "lattice-86", "lattice-7",
       "decide-torus-1999-c997", "decide-torus-1999-c997-odd", "decide-closed-3998-g3",
       "verify-theorem-499"]


@pytest.mark.parametrize("argv,prefix", ANCHORS, ids=IDS)
def test_stdout_sha256(argv, prefix):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == EXIT_OK
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16] == prefix
