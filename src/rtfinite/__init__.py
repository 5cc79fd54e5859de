"""Exact-arithmetic finiteness decisions for quantum representations of
mapping class groups at levels p = r and p = 2r, r an odd prime.

The public surface re-exports the main types and deciders; see the
submodules for the full API.
"""

from .bases import (
    AdmissibleTriple,
    GramRatio,
    admissible_triples,
    lollipop_ratio_step,
    lollipop_ratio_two_step,
    theta_norm_ratio,
)
from .context import LevelContext, alpha
from .cyclotomic import (
    CyclotomicInteger,
    EmbeddingIndex,
    Sign,
    cyclotomic_polynomial,
    embeddings,
    reduce,
    sin_sign,
)
from .errors import DivisionByZeroQuantumInteger, InvariantViolation, UsageError
from .lattice import discreteness_certificate, lattice_element, naive_norm_formula, psi_norm_sq
from .positivity import (
    Crosscheck,
    Finiteness,
    FinitenessVerdict,
    Positivity,
    PositivityReport,
    Provenance,
    check_complete_positivity,
    decide_closed,
    decide_torus,
    clause_witness_k,
    theorem_predicate,
)
from .quantum import (
    QuantumFactored,
    bracket_color,
    eval_sign,
    qfactorial,
    qint,
    qint_sign,
    theta_symbol,
)

__version__ = "0.1.0"
