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
from .conway import conway, conway_substituted
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
    EigenvalueSet,
    QTraceVector,
    SpectralTangle,
    WeightLabel,
    braiding_eigenvalue,
    braiding_eigenvalue_inverse,
    characteristic_identity_holds,
    eigenvalue_set,
    lg_closed_2braid,
    module_decomposition,
    projector_trace,
    skein_coefficient_report,
    symmetry_dual,
    trace_vector,
    weight_decompositions,
)
from .tensor import (
    Bracket,
    TensorAssignment,
    ValidationReport,
    bracket,
    braid_bracket,
    dump_fixture,
    lg11_fixture,
    load_fixture,
    quantum_trace,
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
    "braiding_eigenvalue_inverse",
    "EigenvalueSet",
    "eigenvalue_set",
    "projector_trace",
    "QTraceVector",
    "trace_vector",
    "SpectralTangle",
    "lg_closed_2braid",
    "skein_coefficient_report",
    "characteristic_identity_holds",
    "WeightLabel",
    "weight_decompositions",
    "module_decomposition",
    "symmetry_dual",
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
    "conway_substituted",
    "Piece",
    "SlicedDiagram",
    "to_sliced",
    "TensorAssignment",
    "ValidationReport",
    "validate_assignment",
    "Bracket",
    "bracket",
    "braid_bracket",
    "quantum_trace",
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
    "CrossingBudgetError",
    "NotScalarError",
    "FixtureValidationError",
]
