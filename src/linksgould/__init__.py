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

``import linksgould`` loads no submodule.  Each exported name is listed
once in ``_EXPORTS`` with the submodule that defines it, which loads on
first use of one of its names (PEP 562), so that a program pays only for
the layers it uses.  A resolved name is then bound in the package, so
later uses are plain attribute reads.  The skein engine's ``conway``
function is imported from its submodule, ``linksgould.conway``.
"""
import importlib

# Every exported name and the submodule that defines it; __all__ and
# __dir__ are read from this table.
_EXPORTS = {
    "__version__": "version",
    "Laurent2": "laurent",
    "HalfLaurent": "laurent",
    "RationalFn": "rational",
    "CycloFraction": "cyclotomic",
    "laurent_gcd": "rational",
    "cyclotomic_poly": "cyclotomic",
    "reduce_at_root": "cyclotomic",
    "root_order": "cyclotomic",
    "parse_rational": "textform",
    "parse_laurent2": "textform",
    "parse_half": "textform",
    "braiding_eigenvalue": "spectral",
    "projector_trace": "spectral",
    "quantum_trace": "spectral",
    "lg_closed_2braid": "spectral",
    "skein_coefficient_report": "spectral",
    "BraidWord": "braid",
    "parse_braid": "braid",
    "OrientedDiagram": "diagram",
    "braid_closure": "diagram",
    "switch_crossing": "diagram",
    "smooth_crossing": "diagram",
    "component_count": "diagram",
    "is_split": "diagram",
    "canonical_key": "diagram",
    "Piece": "sliced",
    "SlicedDiagram": "sliced",
    "to_sliced": "sliced",
    "TensorAssignment": "tensor",
    "validate_assignment": "tensor",
    "bracket": "tensor",
    "braid_bracket": "tensor",
    "scalar_of": "tensor",
    "lg11_fixture": "tensor",
    "load_fixture": "tensor",
    "dump_fixture": "tensor",
    "ReportDocument": "verify",
    "run_suite": "verify",
    "LinksGouldError": "errors",
    "ParseError": "errors",
    "PoleAtRootError": "errors",
    "BudgetError": "errors",
    "NotScalarError": "errors",
    "FixtureValidationError": "errors",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    home = _EXPORTS.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
