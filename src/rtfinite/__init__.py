"""Exact-arithmetic finiteness decisions for quantum representations of
mapping class groups at levels p = r and p = 2r, r an odd prime.

The package exports the deciders and the types they take and return;
everything else is in the submodules.
"""

from .context import LevelContext
from .cyclotomic import Sign
from .errors import InvariantViolation, UsageError
from .lattice import DiscretenessReport, discreteness_certificate
from .positivity import (
    Crosscheck,
    Finiteness,
    FinitenessVerdict,
    Positivity,
    PositivityReport,
    Provenance,
    clause_witness_k,
    decide_closed,
    decide_torus,
    theorem_predicate,
)

__version__ = "0.1.0"
