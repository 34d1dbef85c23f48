"""
Command-line front end.

Commands:
  alexander <braid> [--strands N] [--var auto|s|t]
  lg2braid --m M --k K [--root R]
  verify <suite> [--max-m M] [--max-k K] [--format text|json]
  tensor eval --braid WORD [--fixture FILE] [--strands N]

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource budget or input bound exceeded.

Each command imports only the engine it runs, on its first call
(``_engine``); this module itself loads only ``braid``, ``errors`` and
``version``.  ``alexander`` imports the skein engine (``conway``,
``diagram``) and ``HalfLaurent``; ``lg2braid`` the spectral layer and
``cyclotomic``; ``tensor eval`` the tensor engine with ``laurent``,
``rational`` and ``sliced``, and the text grammar (``textform``) only to
read a fixture file; ``verify`` the verification harness, which needs
every layer.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from .braid import parse_braid
from .errors import BudgetError, FixtureValidationError, PoleAtRootError
from .version import __version__

__all__ = ["main"]

# Fixed input bounds; going over one exits 3 before any work is done.
# Each engine's cost grows without limit in its bounded input (times on a
# shared 2-core x86 machine, Python 3.11): braid_closure allocates per
# strand (10^6 strands: 0.7 s and 190 MB).  The bound on m, MAX_LG_M, is
# defined in spectral.py, whose caches it sizes.  The tensor engine's
# bounds, MAX_TENSOR_STRANDS, MAX_TENSOR_LETTERS and MAX_TENSOR_DIM, are
# defined in tensor.py, where load_fixture refuses a fixture too wide to
# validate before any check runs; tensor eval checks strands and letters
# before it loads a fixture, then bounds the braid's width D^(2n-1), all on
# the word as typed, and then evaluates the reduced word; tensor.py gives
# what those bounds cost.  The skein engine's crossing bound is conway.py's
# MAX_SKEIN_CROSSINGS, the most crossings diagram.py's memo key labels.
MAX_ALEXANDER_STRANDS = 1000
# lg2braid takes |--k| up to MAX_LG_K.  Its cost in |k| depends on m: at
# m = 16 it hardly grows (|k| = 300: 2.6 s, 86 MB; 10^6: 2.5 s, 88 MB), at
# m = 1 it grows linearly (10^6: 15 s, 384 MB, 11 MB printed), and at
# m = 2, whose value is a polynomial of about k^2 / 2 terms, fastest:
# |k| = 300 takes 2.4 s and 34 MB, 500 takes 9.8 s and 1000 takes 61 s and
# 206 MB.  The bound keeps every m within the cost of m = 16.
MAX_LG_K = 300
# verify takes --max-m up to MAX_LG_M, as lg2braid does, and --max-k up to
# MAX_VERIFY_K.  The skein side of a theorem cell, the closed 2-braid
# sigma^k, grows about twelvefold in time per +8 in |k| (|k| = 24: 0.3 s,
# 32: 3.4 s), so the crossing bound alone does not limit it; from |k| = 36
# conway stops at its MAX_KEYED_DIAGRAMS after about 11 s.  The worst case
# at these bounds, verify theorem2 --max-m 16 --max-k 24, takes 134 s and
# 110 MB (shared 2-core x86, Python 3.11.7).
MAX_VERIFY_K = 24


def _check_bound(what: str, value: int, bound: int) -> None:
    if value > bound:
        raise BudgetError(f"{what} {value} exceeds the bound of {bound}")


# Built once per process: the first build in a fresh process takes 2.4 to
# 4.0 ms (shared 2-core x86, Python 3.11.7), most of it gettext, which
# imports locale and looks up a catalogue for each translated string.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksgould",
        description="Exact Links-Gould and Alexander-Conway computations.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("alexander", help="Alexander-Conway polynomial of a braid closure")
    p.add_argument("braid", help="whitespace-separated nonzero integers")
    p.add_argument("--strands", type=int, default=None)
    p.add_argument(
        "--var",
        choices=("auto", "s", "t"),
        default="auto",
        help="output variable; auto prints t when possible, s otherwise",
    )
    p.set_defaults(run=_cmd_alexander)

    p = sub.add_parser("lg2braid", help="LG^(m,1) of a closed 2-braid")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument(
        "--root",
        type=int,
        default=None,
        help="evaluate at q = exp(i*pi*ROOT/m) instead of generic q",
    )
    p.set_defaults(run=_cmd_lg2braid)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite")  # checked against verify.SUITES in _cmd_verify
    p.add_argument("--max-m", type=int, default=None)
    p.add_argument("--max-k", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument(
        "--inject-xi-error",
        action="store_true",
        help=argparse.SUPPRESS,  # test mode: corrupt the theorem suites' eigenvalues
    )
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("tensor", help="tensor-engine operations")
    tsub = p.add_subparsers(dest="tensor_command", required=True)
    pe = tsub.add_parser("eval", help="evaluate a braid closure with a fixture")
    pe.add_argument("--fixture", default=None, help="fixture JSON (default: built-in LG^(1,1))")
    pe.add_argument("--braid", required=True)
    pe.add_argument("--strands", type=int, default=None)
    pe.set_defaults(run=_cmd_tensor_eval)
    return parser


# A command's engine, imported on the command's first call.  A handler
# looks its engine up here rather than running an import statement, which
# costs 6-14 us on each call even for a loaded module, about 2 % of a
# small tensor eval op (shared 2-core x86, Python 3.11.7).
@cache
def _engine(name: str):
    from importlib import import_module

    return import_module(f"{__package__}.{name}")


def _cmd_alexander(args) -> int:
    word = parse_braid(args.braid, args.strands)
    _check_bound("strand count", word.strands, MAX_ALEXANDER_STRANDS)
    value = _engine("conway").conway(_engine("diagram").braid_closure(word))
    if args.var == "t" and not value.all_even_powers():
        print(
            "error: value has odd powers of s = t^(1/2); use --var s",
            file=sys.stderr,
        )
        return 2
    var = args.var
    if var == "auto":
        var = "t" if value.all_even_powers() else "s"
    print(value.render(var))
    return 0


def _cmd_lg2braid(args) -> int:
    spectral = _engine("spectral")
    _check_bound("--m", args.m, spectral.MAX_LG_M)
    _check_bound("|--k|", abs(args.k), MAX_LG_K)
    value = spectral.lg_closed_2braid(args.m, args.k)
    if args.root is None:
        print(value.render())
        return 0
    reduced = _engine("cyclotomic").reduce_at_root(value, args.m, args.root)
    print(reduced.render())
    print(f"# at q = exp(i*pi*{args.root}/{args.m}), modulo {reduced.modulus()} = 0")
    return 0


def _cmd_verify(args) -> int:
    verify = _engine("verify")
    if args.suite not in verify.SUITES:
        names = ", ".join(sorted(verify.SUITES))
        _build_parser().error(f"argument suite: invalid choice: {args.suite!r} (choose from {names})")
    if args.max_m is not None:
        _check_bound("--max-m", args.max_m, _engine("spectral").MAX_LG_M)
    if args.max_k is not None:
        _check_bound("--max-k", args.max_k, MAX_VERIFY_K)
    report = verify.run_suite(
        args.suite,
        max_m=args.max_m,
        max_k=args.max_k,
        corrupt_eigenvalues=args.inject_xi_error,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        print(report)
    return 0 if report.passed else 1


def _cmd_tensor_eval(args) -> int:
    tensor = _engine("tensor")
    word = parse_braid(args.braid, args.strands)
    _check_bound("strand count", word.strands, tensor.MAX_TENSOR_STRANDS)
    _check_bound("letter count", len(word.letters), tensor.MAX_TENSOR_LETTERS)
    fixture = tensor.lg11_fixture() if args.fixture is None else tensor.load_fixture(args.fixture)
    _check_bound(
        f"tensor dimension {fixture.dim}^{2 * word.strands - 1} =",
        fixture.dim ** (2 * word.strands - 1),
        tensor.MAX_TENSOR_DIM,
    )
    # Every fixture here has passed validation, which makes the reduced
    # word's bracket equal the typed word's entry for entry.
    value = tensor.scalar_of(tensor.braid_bracket(word.reduced(), fixture))
    print(value.render())
    return 0


def main(argv=None) -> int:
    """
    Run one command and return its exit code.  argparse chooses the
    command, and the chosen leaf subparser names its handler as ``run``.
    """
    args = _build_parser().parse_args(argv)
    # FixtureValidationError is a ValueError too, so it is caught before
    # ValueError, which also covers a ParseError.
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (PoleAtRootError, FixtureValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
