import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import linksgould
from linksgould import cli
from linksgould.braid import parse_braid
from linksgould.cli import MAX_ALEXANDER_STRANDS, MAX_LG_K, MAX_VERIFY_K, main
from linksgould.conway import MAX_SKEIN_CROSSINGS
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.spectral import MAX_LG_M
from linksgould.tensor import (
    MAX_TENSOR_DIM,
    MAX_TENSOR_LETTERS,
    MAX_TENSOR_STRANDS,
    TensorAssignment,
    braid_bracket,
    dump_fixture,
    identity_matrix,
    lg11_fixture,
    load_fixture,
    scalar_of,
)
from linksgould.textform import parse_rational
from linksgould.verify import SUITES


def run(capsys, *argv):
    """Exit code, stdout and stderr of main(argv), usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_alexander_trefoil(capsys):
    code, out, _ = run(capsys, "alexander", "1 1 1")
    assert code == 0
    assert out.strip() == "t - 1 + t^-1"


def test_alexander_unknot(capsys):
    code, out, _ = run(capsys, "alexander", "", "--strands", "1")
    assert code == 0
    assert out.strip() == "1"


def test_alexander_figure_eight(capsys):
    code, out, _ = run(capsys, "alexander", "1 -2 1 -2")
    assert code == 0
    assert out.strip() == "-t + 3 - t^-1"


def test_alexander_link_defaults_to_s(capsys):
    code, out, _ = run(capsys, "alexander", "1 1")
    assert code == 0
    assert out.strip() == "s - s^-1"


def test_alexander_var_t_rejects_odd_powers(capsys):
    code, _, err = run(capsys, "alexander", "1 1", "--var", "t")
    assert code == 2
    assert "odd powers" in err


def test_alexander_var_s_explicit(capsys):
    code, out, _ = run(capsys, "alexander", "1 1 1", "--var", "s")
    assert code == 0
    assert out.strip() == "s^2 - 1 + s^-2"


def test_alexander_parse_error(capsys):
    code, _, err = run(capsys, "alexander", "1 0")
    assert code == 2
    assert "braid letter" in err or "0 is not" in err


def run_over_bound(capsys, *argv):
    """Run a command past an input bound: exit 3 before any real work."""
    started = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3
    return err


def test_alexander_budget_exceeded(capsys):
    bound = MAX_SKEIN_CROSSINGS
    err = run_over_bound(capsys, "alexander", " ".join(["1"] * (bound + 1)))
    assert f"{bound + 1} crossings exceed the bound of {bound}" in err


def test_alexander_budget_option_removed(capsys):
    # The crossing bound is fixed, so --budget is an unknown option.
    with pytest.raises(SystemExit) as exc:
        main(["alexander", "1 1 1", "--budget", "2"])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_alexander_strand_bound(capsys):
    # One letter on 10^8 + 1 strands: braid_closure would allocate a list
    # per strand before the crossing bound is ever consulted.
    err = run_over_bound(capsys, "alexander", "100000000")
    assert f"bound of {MAX_ALEXANDER_STRANDS}" in err
    err = run_over_bound(
        capsys, "alexander", "1", "--strands", str(MAX_ALEXANDER_STRANDS + 1)
    )
    assert f"strand count {MAX_ALEXANDER_STRANDS + 1}" in err


def test_lg2braid_m_bound(capsys):
    err = run_over_bound(capsys, "lg2braid", "--m", str(MAX_LG_M + 1), "--k", "1")
    assert f"--m {MAX_LG_M + 1} exceeds the bound of {MAX_LG_M}" in err


@pytest.mark.parametrize("sign", [1, -1])
def test_lg2braid_k_bound(capsys, sign):
    # Unbounded, m = 2 ran 61 s at |k| = 1000 and m = 1 ran 15 s at 10^6.
    for m, k in ((2, MAX_LG_K + 1), (1, 10**6)):
        err = run_over_bound(capsys, "lg2braid", "--m", str(m), "--k", str(sign * k))
        assert f"|--k| {k} exceeds the bound of {MAX_LG_K}" in err


def test_tensor_eval_strand_bound(capsys):
    assert MAX_TENSOR_STRANDS >= 5  # the 5-strand braids of tensor-batch
    err = run_over_bound(
        capsys, "tensor", "eval", "--braid", "1", "--strands", str(MAX_TENSOR_STRANDS + 1)
    )
    assert f"bound of {MAX_TENSOR_STRANDS}" in err


def test_tensor_eval_letter_bound(capsys):
    # The entries grow with the letters; a random 6-strand braid of 400
    # letters ran for half a minute before the bound.  sigma_1^k on two
    # strands is cheap on either side of it.
    assert MAX_TENSOR_LETTERS >= 8  # the longest braids of tensor-batch
    k = MAX_TENSOR_LETTERS
    code, out, _ = run(capsys, "tensor", "eval", "--braid", " ".join(["1"] * k))
    assert code == 0
    t = Laurent2.t
    num = t(k) - Laurent2.const(-1) ** (k % 2) * t(-k)
    assert parse_rational(out.strip()) == RationalFn(num, t(1) + t(-1))
    err = run_over_bound(capsys, "tensor", "eval", "--braid", " ".join(["1"] * (k + 1)))
    assert f"letter count {k + 1} exceeds the bound of {k}" in err


def test_verify_bounds(capsys):
    assert MAX_VERIFY_K <= MAX_SKEIN_CROSSINGS
    bounds = {"max_m": MAX_LG_M, "max_k": MAX_VERIFY_K}
    for _, defaults in SUITES.values():
        for option, value in defaults.items():
            assert value <= bounds[option], option
    assert 8 <= min(MAX_LG_M, MAX_VERIFY_K)  # the theorem-grid benchmark
    err = run_over_bound(capsys, "verify", "theorem1", "--max-m", str(MAX_LG_M + 1))
    assert f"--max-m {MAX_LG_M + 1} exceeds the bound of {MAX_LG_M}" in err
    err = run_over_bound(
        capsys, "verify", "theorem2", "--max-m", "1", "--max-k", str(MAX_VERIFY_K + 1)
    )
    assert f"--max-k {MAX_VERIFY_K + 1} exceeds the bound of {MAX_VERIFY_K}" in err


def flip_fixture(dim):
    """A valid fixture for any dim: R = Rinv = swap, identity caps and cups."""
    rows = identity_matrix(dim * dim)
    swap = tuple(rows[(r % dim) * dim + r // dim] for r in range(dim * dim))
    flat = tuple(x for row in identity_matrix(dim) for x in row)
    return TensorAssignment(
        dim=dim,
        R=swap,
        Rinv=swap,
        n=(flat,),
        ntilde=(flat,),
        u=tuple((x,) for x in flat),
        utilde=tuple((x,) for x in flat),
    )


def test_tensor_eval_dimension_bound(capsys, tmp_path):
    assert MAX_TENSOR_DIM == 2 ** 11  # LG^(1,1) at MAX_TENSOR_STRANDS strands
    path = tmp_path / "flip3.json"
    dump_fixture(flip_fixture(3), path)
    code, out, _ = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 -2 1")
    assert code == 0  # 3^5 dimensions: within the bound
    assert out.strip() == "3"  # dim^(components - 1) for the flip fixture
    err = run_over_bound(
        capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 -2 3"
    )
    assert f"tensor dimension 3^7 = {3 ** 7} exceeds the bound of {MAX_TENSOR_DIM}" in err


def test_fixture_validation_bound(capsys, tmp_path):
    # Validation spans dim^3 dimensions at a cost of about dim^6; dim = 13
    # is the first flip fixture past the bound and is refused unvalidated.
    assert 12 ** 3 <= MAX_TENSOR_DIM < 13 ** 3
    path = tmp_path / "flip13.json"
    dump_fixture(flip_fixture(13), path)
    err = run_over_bound(
        capsys, "tensor", "eval", "--fixture", str(path), "--braid", "", "--strands", "1"
    )
    assert f"width 13^3 = {13 ** 3} exceeds the bound of {MAX_TENSOR_DIM}" in err


@pytest.mark.parametrize(
    "entry",
    [
        "t*(t+q+1)^200/(t+q+1)^200",
        "t*(t+q+1)^32/(t+q+1)^32",
        "t*(t+q+1)^48/(t+q+1)^48",
        "t*((t+q+1)^8)^16/((t+q+1)^8)^16",
    ],
)
def test_fixture_entry_size_bound(capsys, tmp_path, entry):
    # Each entry has the value t of the LG^(1,1) fixture's R[0][0], but
    # builds a fraction too large to cancel; it is refused while parsing.
    path = tmp_path / "lg11.json"
    dump_fixture(lg11_fixture(), path)
    doc = json.loads(path.read_text())
    doc["R"][0][0] = entry
    path.write_text(json.dumps(doc))
    err = run_over_bound(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert "above the bound of 200" in err


@pytest.mark.parametrize(
    "entry",
    ["(" * 200 + "t" + ")" * 200, "(" * 51 + "t" + ")" * 51, "-" * 2000 + "t"],
    ids=["200-parentheses", "51-parentheses", "2000-signs"],
)
def test_fixture_entry_depth_bound(capsys, tmp_path, entry):
    # Each entry has the value t of R[0][0], or -t, nested past the text
    # grammar's depth bound; it is refused while parsing, not by a crash.
    path = tmp_path / "lg11.json"
    dump_fixture(lg11_fixture(), path)
    doc = json.loads(path.read_text())
    doc["R"][0][0] = entry
    path.write_text(json.dumps(doc))
    err = run_over_bound(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nests deeper than the bound of 50" in err
    assert "Traceback" not in err


def write_fixture(path, entry):
    """The LG^(1,1) fixture as JSON, each nonzero entry e of piece p as entry(p, e)."""
    dump_fixture(lg11_fixture(), path)
    doc = json.loads(path.read_text())
    for name, rows in doc.items():
        if name != "dim":
            doc[name] = [[x if x == "0" else entry(name, x) for x in row] for row in rows]
    path.write_text(json.dumps(doc))


@pytest.mark.parametrize("n", [4, 6])
def test_fixture_validation_size_bound(capsys, tmp_path, n):
    # Each entry is within the expression bound, but validation's products
    # of entries are not; unbounded, validation ran 6.2 s at n = 4 and 56 s
    # at n = 6 before failing.
    path = tmp_path / "scaled.json"
    write_fixture(path, lambda _, e: f"({e})*(t+q+1)^{n}/(t+2q+3)^{n}")
    err = run_over_bound(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert "fixture check" in err and "above the bound of 200" in err


def test_fixture_polynomial_products_are_not_bounded(capsys, tmp_path):
    # With no denominator, validation runs no gcd: a Yang-Baxter product
    # box of 1 147 points is checked in a fraction of a second.  Scaling
    # every entry breaks the axioms, so the fixture fails validation.
    path = tmp_path / "scaled.json"
    write_fixture(path, lambda _, e: f"({e})*(t+q+1)^10")
    code, _, err = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert code == 1
    assert "fails validation" in err


def gauged(piece, e):
    """Caps divided by X and cups multiplied by X: every check still holds,
    and the products validation forms stay small."""
    if piece in ("n", "ntilde"):
        return f"({e})/(t+2q+3)^4"
    return f"({e})*(t+2q+3)^4" if piece in ("u", "utilde") else e


def test_fixture_with_gauged_caps_loads(capsys, tmp_path):
    path = tmp_path / "gauged.json"
    write_fixture(path, gauged)
    fixture = load_fixture(path)
    for braid in ("1 1 1", "1 -2 1 -2", "1 2 -1 2", "-1 -1", ""):
        word = parse_braid(braid, 3)
        assert scalar_of(braid_bracket(word, fixture)) == scalar_of(
            braid_bracket(word, lg11_fixture())
        )
    code, out, _ = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert code == 0
    assert out.strip() == "t^2 - 1 + t^-2"


def test_lg2braid_generic(capsys):
    code, out, _ = run(capsys, "lg2braid", "--m", "1", "--k", "2")
    assert code == 0
    assert out.strip() == "t - t^-1"


def test_lg2braid_unknot_at_root(capsys):
    code, out, _ = run(capsys, "lg2braid", "--m", "3", "--k", "1", "--root", "1")
    assert code == 0
    assert out.splitlines()[0].strip() == "1"


def test_lg2braid_q_minus_one_path(capsys):
    # m=2, root 2 means q = -1; the value is the squared Alexander value
    code, out, _ = run(capsys, "lg2braid", "--m", "2", "--k", "3", "--root", "2")
    assert code == 0
    assert out.splitlines()[0].strip() == "t^4 - 2t^2 + 3 - 2t^-2 + t^-4"


def test_lg2braid_rejects_bad_m(capsys):
    code, _, err = run(capsys, "lg2braid", "--m", "0", "--k", "1")
    assert code == 2


def test_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "verify", "theorem1", "--max-m", "2", "--max-k", "2")
    assert code == 0
    assert "cells pass" in out
    code, out, _ = run(
        capsys,
        "verify",
        "theorem1",
        "--max-m",
        "2",
        "--max-k",
        "2",
        "--inject-xi-error",
    )
    assert code == 1


def test_verify_json_stable(capsys):
    code, out1, _ = run(capsys, "verify", "lg21-qminus1", "--max-k", "3", "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "verify", "lg21-qminus1", "--max-k", "3", "--format", "json")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True
    assert doc["counts"]["total"] == 7
    assert "elapsed_seconds" not in doc


def test_verify_xi_endpoints(capsys):
    code, out, _ = run(capsys, "verify", "xi-endpoints", "--max-m", "4")
    assert code == 0


def test_verify_empty_grid_is_usage_error(capsys):
    # An empty grid is refused before any value is computed: the skein
    # values of sigma^k up to |k| = 24 alone take over a second.
    for argv in (
        ("theorem1", "--max-m", "0"),
        ("lg21-qminus1", "--max-k", "-1"),
        ("theorem2", "--max-m", "0", "--max-k", "24"),
    ):
        started = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - started < 0.5
        assert code == 2
        assert out == ""
        assert "no cells" in err


@pytest.mark.parametrize(
    "argv, option",
    [
        (["tensor-oracle", "--max-k", "0"], "max_k"),
        (["xi-endpoints", "--max-k", "3"], "max_k"),
        (["lg21-qminus1", "--max-m", "2"], "max_m"),
    ],
)
def test_verify_refuses_unread_option(capsys, argv, option):
    # An option the suite does not read is a usage error, not silently
    # ignored: tensor-oracle --max-k 0 used to run all its cells.
    code, out, err = run(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert f"does not read {option}" in err


@pytest.mark.parametrize(
    "suite", sorted(set(SUITES) - {"theorem1", "theorem2"})
)
def test_verify_refuses_unread_corruption(capsys, suite):
    # Only the theorem suites have a spectral side to corrupt: xi-endpoints
    # --max-m 2 --inject-xi-error used to print "4/4 cells pass" and exit 0.
    argv = ["--max-m", "2"] if "max_m" in SUITES[suite][1] else []
    started = time.perf_counter()
    code, out, err = run(capsys, "verify", suite, *argv, "--inject-xi-error")
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert out == ""
    assert "does not read corrupt_eigenvalues" in err


def test_tensor_eval_builtin(capsys):
    code, out, _ = run(capsys, "tensor", "eval", "--braid", "1 1 1")
    assert code == 0
    assert out.strip() == "t^2 - 1 + t^-2"


@pytest.mark.parametrize(
    "braid, strands",
    [
        ("1 3", 4),  # a split link: a closed unknot block is 0
        ("1 1 1 2", 3),  # destabilised to the trefoil on 2 strands
        ("1 2 3 1 -3 2 3 1 2 -1 3", 4),  # s_3 ... s_3^-1 cancels across s_1
        ("1 -2 3 -4 5 " * 4 + "5 -5 2", 6),
    ],
)
def test_tensor_eval_prints_the_reduced_words_value(capsys, braid, strands):
    # tensor eval evaluates the reduced word; for the built-in fixture its
    # value is the typed word's.
    word = parse_braid(braid, strands)
    assert word.reduced() != word
    code, out, _ = run(capsys, "tensor", "eval", "--braid", braid, "--strands", str(strands))
    assert code == 0
    assert out == scalar_of(braid_bracket(word, lg11_fixture())).render() + "\n"


def test_tensor_eval_bounds_the_word_as_typed(capsys):
    # 51 cancelling pairs reduce to the empty word, but the letters typed
    # are over the bound.
    braid = " ".join(["1 -1"] * (MAX_TENSOR_LETTERS // 2 + 1))
    assert parse_braid(braid).reduced().letters == ()
    err = run_over_bound(capsys, "tensor", "eval", "--braid", braid)
    assert f"letter count {MAX_TENSOR_LETTERS + 2} exceeds the bound" in err


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["--braid", "1 1 1"], 0, "t^2 - 1 + t^-2\n"),
        (["--braid", "1", "--strands", str(MAX_TENSOR_STRANDS + 1)], 3, ""),
        (["--braid", " ".join(["1"] * (MAX_TENSOR_LETTERS + 1))], 3, ""),
    ],
)
def test_module_entry_point(argv, code, out):
    # python -m linksgould runs the same main() and passes its exit code on.
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-m", "linksgould", "tensor", "eval", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert (done.returncode, done.stdout) == (code, out), done.stderr


def test_runs_without_site_packages():
    # The library has no runtime dependencies: under python -S, which leaves
    # site-packages off the path, every module imports and the CLI runs.
    package = Path(linksgould.__file__).resolve().parent
    modules = sorted(f"linksgould.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    script = (
        "import importlib, sys\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        "from linksgould import cli\n"
        "sys.exit(cli.main(['alexander', '1 1 1']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(package.parent)}, timeout=60,
    )
    assert (done.returncode, done.stdout) == (0, "t - 1 + t^-1\n"), done.stderr


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["tensor", "eval", "--braid", "1 1 1"], "tensor"),
        (["alexander", "1 1 1"], "conway diagram"),
        (["lg2braid", "--m", "2", "--k", "3"], "cyclotomic spectral"),
    ],
)
def test_command_imports_only_its_engine(argv, loaded):
    # A fresh process that runs one command loads only the engine it needs:
    # tensor eval loads the tensor engine but not the text grammar, the
    # cyclotomic reduction, the skein engine, the spectral layer or verify;
    # alexander loads the skein engine alone, and lg2braid the spectral
    # layer and the reduction it renders at a root.
    script = (
        "import sys\n"
        "import linksgould, linksgould.cli\n"
        f"linksgould.cli.main({argv!r})\n"
        "engines = ('conway', 'cyclotomic', 'diagram', 'spectral', 'tensor', 'textform', 'verify')\n"
        "print(*[name for name in engines if f'linksgould.{name}' in sys.modules])\n"
    )
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == loaded


@pytest.mark.parametrize(
    "argv", [["tensor", "eval", "--braid", "1 1 1"], ["alexander", "1 1 1"]], ids=["tensor", "alexander"]
)
def test_command_loads_no_heavy_stdlib_module(argv):
    # Without site (python -S), nothing but the package loads these modules:
    # the records are plain slotted classes, not dataclasses (which pull in
    # inspect), only evaluate() imports fractions, and only the fixture
    # file functions import json (pathlib, which pulls in ipaddress and
    # urllib.parse, is not used at all).
    script = (
        "import sys\n"
        "import linksgould, linksgould.cli\n"
        f"linksgould.cli.main({argv!r})\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'typing', 'json', 'pathlib')\n"
        "print(*[name for name in heavy if name in sys.modules])\n"
        "print(repr(linksgould.Laurent2.t(-1).evaluate(2, 1)))\n"
    )
    src = str(Path(linksgould.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == ["", "Fraction(1, 2)"]


def test_tensor_eval_fixture_file(capsys, tmp_path):
    path = tmp_path / "lg11.json"
    dump_fixture(lg11_fixture(), path)
    code, out, _ = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1")
    assert code == 0
    assert out.strip() == "t - t^-1"


def test_tensor_eval_bad_fixture(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, err = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1")
    assert code == 1
    assert "fixture" in err


def test_tensor_eval_undecodable_fixture(capsys, tmp_path):
    # A fixture that is not UTF-8 is unreadable like a missing one: exit 1.
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read fixture")


def test_tensor_eval_deeply_nested_fixture(capsys, tmp_path):
    # json.load recurses once per level and raises RecursionError: the
    # fixture is unreadable, exit 1 with one error line.
    path = tmp_path / "deep.json"
    path.write_text('{"dim": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, out, err = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot read fixture") and err.count("\n") == 1


def test_fixture_integer_digit_bound(capsys, tmp_path):
    # 5 000 nines in R[0][0]: Python 3.11 and later would refuse them in
    # int() with their own message, and 3.10 would read them.  The text
    # grammar refuses them first: exit 3 with one error line.
    path = tmp_path / "lg11.json"
    dump_fixture(lg11_fixture(), path)
    doc = json.loads(path.read_text())
    doc["R"][0][0] = "9" * 5000
    path.write_text(json.dumps(doc))
    err = run_over_bound(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1 1 1")
    assert err == "error: an integer of 5000 digits exceeds the bound of 1000 digits\n"


@pytest.mark.parametrize(
    "field, value",
    [(None, []), ("R", 5), ("R", [[1]]), ("R", [1])],
    ids=["document-list", "R-int", "R-int-entry", "R-int-row"],
)
def test_tensor_eval_malformed_fixture(capsys, tmp_path, field, value):
    # Shape and type errors in the document are refused like failed axioms:
    # main returns exit 1 with one error line, no traceback.
    path = tmp_path / "lg11.json"
    dump_fixture(lg11_fixture(), path)
    doc = json.loads(path.read_text())
    if field is None:
        doc = value
    else:
        doc[field] = value
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "tensor", "eval", "--fixture", str(path), "--braid", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: fixture")
    assert "Traceback" not in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
    # verify.SUITES is the one list of suite names, and the error shows it.
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert all(name in err for name in SUITES), err


MIXED_ARGV = [
    ["alexander", "1 1", "--var", "s"],
    ["alexander", "1 1 1"],
    ["tensor", "eval", "--braid", "1 1 1"],
    ["verify", "lg21-qminus1", "--max-k", "2", "--format", "json"],
    ["verify", "nope"],
    ["--version"],
    ["lg2braid", "--m", "2", "--k", "3", "--root", "2"],
]


def test_parser_built_once_per_process(capsys, monkeypatch):
    # The first call may build the parser; no later call builds another.
    run(capsys, "alexander", "1")
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    codes = [run(capsys, *argv)[0] for argv in MIXED_ARGV]
    assert codes == [0, 0, 0, 0, 2, 0, 0]
    assert built == []


def test_cached_parser_carries_no_state(capsys, monkeypatch):
    # One shared parser gives every argv the result a fresh parser gives:
    # alexander "1 1 1" after --var s still prints in t, the default.
    shared = [run(capsys, *argv) for argv in MIXED_ARGV]
    assert shared[0][1] == "s - s^-1\n"
    assert shared[1][1] == "t - 1 + t^-1\n"
    assert shared[5] == (0, linksgould.__version__ + "\n", "")
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in MIXED_ARGV]
    assert shared == fresh


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["alexander", "1 1 1"], "_cmd_alexander"),
        (["lg2braid", "--m", "1", "--k", "1"], "_cmd_lg2braid"),
        (["verify", "theorem1"], "_cmd_verify"),
        (["tensor", "eval", "--braid", "1"], "_cmd_tensor_eval"),
    ],
    ids=["alexander", "lg2braid", "verify", "tensor-eval"],
)
def test_subparser_names_its_handler(argv, handler):
    # main dispatches by the handler the chosen subparser names, with no
    # second test of the command name.
    args = cli._build_parser.__wrapped__().parse_args(argv)
    assert args.run is getattr(cli, handler)
