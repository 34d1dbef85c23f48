"""
linksgould: exact arithmetic for Links-Gould link invariants and the
Alexander-Conway polynomial.

The package has four layers:

- exact algebra: ``Laurent2`` and ``HalfLaurent`` (two key types over
  one sparse Laurent core), ``RationalFn``, ``CycloFraction`` and
  root-of-unity reduction;
- the spectral calculus of LG^(m,1): eigenvalues, projector traces,
  closed 2-braid values;
- a skein engine for the Alexander-Conway polynomial of braid closures;
- a tensor engine evaluating sliced-diagram brackets from matrix
  fixtures, shipping the LG^(1,1) assignment.

``linksgould.verify`` cross-checks the layers against each other with
zero-tolerance exact comparisons.
"""
from .braid import BraidWord, parse_braid
from .conway import conway
from .cyclotomic import CycloFraction, cyclotomic_poly, reduce_at_root, root_order
from .diagram import (
    OrientedDiagram,
    braid_closure,
    canonical_key,
    component_count,
    is_split,
    smooth_crossing,
    switch_crossing,
    writhe,
)
from .errors import (
    BudgetError,
    CrossingBudgetError,
    FixtureValidationError,
    LinksGouldError,
    NotScalarError,
    ParseError,
    PoleAtRootError,
)
from .laurent import HalfLaurent, Laurent2
from .rational import RationalFn, laurent_gcd
from .sliced import Piece, SlicedDiagram, to_sliced
from .spectral import (
    WeightLabel,
    braiding_eigenvalue,
    characteristic_identity_holds,
    lg_closed_2braid,
    module_decomposition,
    projector_trace,
    quantum_trace,
    skein_coefficient_report,
    weight_decompositions,
)
from .tensor import (
    TensorAssignment,
    ValidationReport,
    bracket,
    braid_bracket,
    dump_fixture,
    lg11_fixture,
    load_fixture,
    scalar_of,
    validate_assignment,
)
from .textform import parse_half, parse_laurent2, parse_rational
from .verify import ReportDocument, VerificationCell, run_suite
from .version import __version__

__all__ = [
    "__version__",
    "Laurent2",
    "HalfLaurent",
    "RationalFn",
    "CycloFraction",
    "laurent_gcd",
    "cyclotomic_poly",
    "reduce_at_root",
    "root_order",
    "parse_rational",
    "parse_laurent2",
    "parse_half",
    "braiding_eigenvalue",
    "projector_trace",
    "quantum_trace",
    "lg_closed_2braid",
    "skein_coefficient_report",
    "characteristic_identity_holds",
    "WeightLabel",
    "weight_decompositions",
    "module_decomposition",
    "BraidWord",
    "parse_braid",
    "OrientedDiagram",
    "braid_closure",
    "switch_crossing",
    "smooth_crossing",
    "component_count",
    "is_split",
    "canonical_key",
    "writhe",
    "conway",
    "Piece",
    "SlicedDiagram",
    "to_sliced",
    "TensorAssignment",
    "ValidationReport",
    "validate_assignment",
    "bracket",
    "braid_bracket",
    "scalar_of",
    "lg11_fixture",
    "load_fixture",
    "dump_fixture",
    "VerificationCell",
    "ReportDocument",
    "run_suite",
    "LinksGouldError",
    "ParseError",
    "PoleAtRootError",
    "BudgetError",
    "CrossingBudgetError",
    "NotScalarError",
    "FixtureValidationError",
]
