import hashlib
import json

import pytest
from dense_kernel import rebuilt

import linksgould.spectral
import linksgould.verify
from linksgould.cli import main
from linksgould.laurent import Laurent2
from linksgould.rational import RationalFn
from linksgould.verify import SUITES, run_suite

# SHA-256 of `verify <suite> --format json` reports.  The theorem2 one is
# as the direct route computes it, every cell reduced at its own root;
# sharing work between cells must not change the report by one byte.
# lemma2-vanishing (22 cancelling gcds) and lg21-qminus1 (18) print
# fractions that went through gcd cancellation, so they pin the gcd's
# results too.
PINNED_REPORTS = {
    "theorem2": (
        ["theorem2", "--max-m", "5", "--max-k", "5"],
        "a91d5d0220c9a6ada9647adffbd5e34bc2185fc4b5aac227eb525b072053799f",
    ),
    "lemma2-vanishing": (
        ["lemma2-vanishing"],
        "890b9841b29f95d1179d90dfeaff879bcbd2c2dfdc2a98cad34d631f369114f7",
    ),
    "lg21-qminus1": (
        ["lg21-qminus1"],
        "6c47435e979e7fd27301e77a5d847fee0aff0218efdbfce7cee728b23200d782",
    ),
    "tensor-oracle": (
        ["tensor-oracle"],
        "4526b3748a679c602871dd0cd3f8108e3502961ef1c031f8aeb3004b7fcb3ab9",
    ),
    "theorem1": (
        ["theorem1"],
        "2b784994ddeac064c66a6a4984724431d7cabffeeabdeb9ba34aba0b184cd041",
    ),
    "xi-endpoints": (
        ["xi-endpoints"],
        "1de660ffeb2142fa824243b95438e08316aa8b59edb8691eb8c4e5d8f036461b",
    ),
    "skein-coefficients": (
        ["skein-coefficients"],
        "1e9395814670ea83a56aba7321ca7966426cd9848accf0cf8cb2ab98b84fbe20",
    ),
}


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")


def test_theorem1_small_grid():
    report = run_suite("theorem1", max_m=3, max_k=3)
    assert report.passed
    assert report.counts == {"total": 3 * 7, "failed": 0}
    assert report.suite == "theorem1"
    assert report.elapsed_seconds is not None


def test_theorem2_small_grid():
    report = run_suite("theorem2", max_m=3, max_k=2)
    assert report.passed
    # m=1: r in {1,2}; m=2: {1,3}; m=3: {1,2,4,5}  ->  8 roots, 5 k-values
    assert report.counts["total"] == 8 * 5


def test_corrupted_eigenvalues_fail():
    report = run_suite("theorem1", max_m=2, max_k=3, corrupt_eigenvalues=True)
    assert not report.passed
    assert report.counts["failed"] > 0


@pytest.mark.parametrize("report", sorted(PINNED_REPORTS))
def test_theorem2_report_bytes_pinned(capsys, report):
    args, digest = PINNED_REPORTS[report]
    code = main(["verify", *args, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_corrupted_theorem2_fails_the_same_cells():
    # The rescaled eigenvalue is xi_1, whose trace vanishes at the roots
    # for m >= 2 (Lemma 2), so only m = 1 can show the corruption.
    report = run_suite("theorem2", max_m=4, max_k=3, corrupt_eigenvalues=True)
    failed = {
        (c["params"]["m"], c["params"]["r"], c["params"]["k"])
        for c in report.cells
        if not c["passed"]
    }
    assert failed == {(1, r, k) for r in (1, 2) for k in (-3, -2, -1, 1, 2, 3)}
    assert report.counts == {"total": 84, "failed": 12}


@pytest.mark.parametrize(
    "suite, max_m, max_k, digest",
    [
        ("theorem2", 4, 3, "0cadd7f4aa50370249b5067609cf6958fda3f5acd6b358568906b4521e13c25c"),
        ("theorem1", 2, 3, "6520909a75910b245c11f266885e88e95cbabc0bcd9c2892051844d3fd3f0883"),
    ],
    ids=["theorem2", "theorem1"],
)
def test_corrupted_theorem2_report_bytes_pinned(capsys, suite, max_m, max_k, digest):
    # The corrupted spectral value goes through the same quantum trace as
    # the true one; its failing report is pinned byte for byte.
    code = main(
        ["verify", suite, "--max-m", str(max_m), "--max-k", str(max_k),
         "--inject-xi-error", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "suite, calls",
    [("theorem2", (5, 15, 25)), ("theorem1", (5, 15, 15))],
    ids=["theorem2", "theorem1"],
)
def test_theorem_suites_share_work(monkeypatch, suite, calls):
    # One skein value per k, one LG value per (m, k), and one reduction per
    # LG value and root order: m = 1 and m = 3 have two orders (d = 2m and
    # d = m), m = 2 has one, and theorem1 uses only d = 2m.
    counts = {}
    for name in ("conway", "lg_closed_2braid", "reduce_at_root"):
        counts[name] = 0

        def counted(*args, _name=name, _fn=getattr(linksgould.verify, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(linksgould.verify, name, counted)
    assert run_suite(suite, max_m=3, max_k=2).passed
    assert (counts["conway"], counts["lg_closed_2braid"], counts["reduce_at_root"]) == calls


def test_remaining_suites_pass_smallish():
    assert run_suite("lemma2-vanishing", max_m=5).passed
    assert run_suite("xi-endpoints", max_m=5).passed
    assert run_suite("skein-coefficients", max_m=5).passed
    assert run_suite("lg21-qminus1", max_k=5).passed
    assert run_suite("tensor-oracle").passed


@pytest.mark.parametrize("name", sorted(SUITES))
def test_cells_are_the_dicts_the_report_writes(name):
    # Small grids; every suite's cell has exactly the five keys.
    _, defaults = SUITES[name]
    report = run_suite(name, **{k: min(v, 2) for k, v in defaults.items()})
    assert report.cells
    for cell in report.cells:
        assert type(cell) is dict
        assert set(cell) == {"suite", "params", "left", "right", "passed"}
        assert cell["suite"] == name
        assert type(cell["passed"]) is bool
    assert json.loads(report.to_json())["cells"] == list(report.cells)


def test_mutating_to_dict_leaves_the_report_unchanged():
    report = run_suite("theorem1", max_m=2, max_k=1)
    before = report.to_json()
    doc = report.to_dict()
    cell = doc["cells"][0]
    cell["params"]["m"] = 99
    cell["left"] = "changed"
    cell["passed"] = False
    doc["cells"].append(dict(cell))
    assert report.to_json() == before
    assert report.passed


def test_stable_json_identical_across_runs():
    a = run_suite("lg21-qminus1", max_k=4).to_json()
    b = run_suite("lg21-qminus1", max_k=4).to_json()
    assert a == b
    assert "elapsed" not in a


def test_pole_surfaces_as_failure_not_crash():
    # The suites only reduce at roots with r coprime to m, where no value
    # has a pole; simulate a failing cell by corrupting instead and check
    # the report shape.
    report = run_suite("theorem2", max_m=2, max_k=1, corrupt_eigenvalues=True)
    for cell in report.cells:
        assert isinstance(cell["left"], str) and isinstance(cell["right"], str)


@pytest.mark.parametrize(
    "argv, patched",
    [
        (["theorem1", "--max-m", "1"], "lg_closed_2braid"),
        (["lemma2-vanishing", "--max-m", "1"], "projector_trace"),
    ],
    ids=["theorem1", "lemma2-vanishing"],
)
def test_pole_cells_fail_with_their_message(monkeypatch, capsys, argv, patched):
    # 1/(q + 1) has a pole at q = exp(i*pi/1) = -1, the r = 1 root of m = 1:
    # that cell reads the pole and fails, and the report fails with it.
    pole = RationalFn(1, Laurent2.q() + 1)
    monkeypatch.setattr(linksgould.verify, patched, lambda *args: pole)
    name = argv[0]
    report = run_suite(name, max_m=1)
    at_r1 = [c for c in report.cells if c["params"]["r"] == 1]
    assert at_r1
    for cell in at_r1:
        assert cell["suite"] == name
        assert cell["left"] == "pole at root: denominator vanishes in the quotient by Phi_2(q)"
        assert not cell["passed"]
    assert not report.passed
    assert main(["verify", *argv]) == 1
    assert "FAIL" in capsys.readouterr().out


def scaled_lg11(**changes):
    """LG^(1,1) built again with each named matrix's entries times a factor."""
    fx = linksgould.verify.lg11_fixture()
    return rebuilt(
        fx,
        **{
            name: tuple(tuple(x * factor for x in row) for row in getattr(fx, name))
            for name, factor in changes.items()
        },
    )


def test_tensor_oracle_fails_a_framing_scaled_fixture(monkeypatch, capsys):
    # R times t and Rinv times t^-1 keep the braid relations, but the
    # closure of R or Rinv is no longer one strand, and each bracket picks
    # up t^writhe: a braid of nonzero writhe fails its skein comparison.
    t = RationalFn(Laurent2.t())
    fx = scaled_lg11(R=t, Rinv=t ** -1)
    monkeypatch.setattr(linksgould.verify, "lg11_fixture", lambda: fx)
    report = run_suite("tensor-oracle")
    check = report.cells[0]
    assert check["params"] == {"check": "fixture-validation"}
    assert check["left"] == "cl_R_is_identity; cl_Rinv_is_identity"
    assert check["right"] == "all checks pass"
    assert not check["passed"]
    assert report.counts == {"total": 26, "failed": 16}
    assert main(["verify", "tensor-oracle"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_skein_coefficients_fail_a_rescaled_eigenvalue(monkeypatch, capsys):
    # xi_0 times t^2 no longer cancels t^m - t^-m, and its trace does not
    # vanish at the root, so every cell fails at i = 0.
    spectral = linksgould.spectral
    true_xi = spectral.braiding_eigenvalue

    def rescaled(m, i):
        xi = true_xi(m, i)
        return xi * Laurent2.t(2) if i == 0 else xi

    monkeypatch.setattr(spectral, "braiding_eigenvalue", rescaled)
    report = run_suite("skein-coefficients", max_m=2)
    assert report.cells
    for cell in report.cells:
        assert cell["left"].startswith("i=0: raw nonzero, product NONZERO")
        assert not cell["passed"]
    assert main(["verify", "skein-coefficients", "--max-m", "2"]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_tensor_oracle_reports_a_non_scalar_bracket(monkeypatch, capsys):
    # With R[0][0] = t^-1 the bracket of a closure is no longer a scalar;
    # each such comparison is a failing cell that reads the message, and
    # the report is still printed.
    fx = linksgould.verify.lg11_fixture()
    rows = [list(row) for row in fx.R]
    rows[0][0] = RationalFn(Laurent2.t(-1))
    broken = rebuilt(fx, R=tuple(map(tuple, rows)))
    monkeypatch.setattr(linksgould.verify, "lg11_fixture", lambda: broken)
    report = run_suite("tensor-oracle")
    assert report.cells[0]["left"] == "R_times_Rinv; yang_baxter; cl_R_is_identity"
    assert not report.cells[0]["passed"]
    not_scalar = [c for c in report.cells if c["left"].startswith("not scalar: ")]
    assert not_scalar
    assert "diagonal entry (1,1) is 1, expected -t^2 + 1 + t^-4" in {
        c["left"].removeprefix("not scalar: ") for c in not_scalar
    }
    assert not any(c["passed"] for c in not_scalar)
    assert main(["verify", "tensor-oracle"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.out and captured.err == ""
