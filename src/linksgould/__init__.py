"""
linksgould: exact arithmetic for Links-Gould link invariants and the
Alexander-Conway polynomial.

The package has four layers:

- exact algebra: ``Laurent2`` and ``HalfLaurent`` (two thin types over
  one sparse Laurent core), ``RationalFn``, ``CycloFraction`` and
  root-of-unity reduction;
- the spectral calculus of LG^(m,1): eigenvalues, projector traces,
  closed 2-braid values;
- a skein engine for the Alexander-Conway polynomial of braid closures;
- a tensor engine evaluating sliced-diagram brackets from matrix
  fixtures, shipping the LG^(1,1) assignment.

``linksgould.verify`` cross-checks the layers against each other with
zero-tolerance exact comparisons.

The algebra layer and the tensor engine are imported with the package.
The spectral layer, the skein engine's ``diagram`` and ``verify`` load
on first use of one of their names (``_LAZY``), so that a command that
does not need them does not pay for importing them.  The skein engine's
``conway`` function is imported from its submodule, ``linksgould.conway``.
"""
import importlib

from .braid import BraidWord, parse_braid
from .cyclotomic import CycloFraction, cyclotomic_poly, reduce_at_root, root_order
from .errors import (
    BudgetError,
    FixtureValidationError,
    LinksGouldError,
    NotScalarError,
    ParseError,
    PoleAtRootError,
)
from .laurent import HalfLaurent, Laurent2
from .rational import RationalFn, laurent_gcd
from .sliced import Piece, SlicedDiagram, to_sliced
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
from .version import __version__

# Exported names whose submodule loads on first use.
_LAZY = {
    "braiding_eigenvalue": "spectral",
    "lg_closed_2braid": "spectral",
    "projector_trace": "spectral",
    "quantum_trace": "spectral",
    "skein_coefficient_report": "spectral",
    "OrientedDiagram": "diagram",
    "braid_closure": "diagram",
    "canonical_key": "diagram",
    "component_count": "diagram",
    "is_split": "diagram",
    "smooth_crossing": "diagram",
    "switch_crossing": "diagram",
    "ReportDocument": "verify",
    "VerificationCell": "verify",
    "run_suite": "verify",
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


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
    "BraidWord",
    "parse_braid",
    "OrientedDiagram",
    "braid_closure",
    "switch_crossing",
    "smooth_crossing",
    "component_count",
    "is_split",
    "canonical_key",
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
    "NotScalarError",
    "FixtureValidationError",
]
