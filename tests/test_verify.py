import hashlib

import pytest

from linksgould.cli import main
from linksgould.verify import run_suite

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
        (c.params["m"], c.params["r"], c.params["k"]) for c in report.cells if not c.passed
    }
    assert failed == {(1, r, k) for r in (1, 2) for k in (-3, -2, -1, 1, 2, 3)}
    assert report.counts == {"total": 84, "failed": 12}


def test_corrupted_theorem2_report_bytes_pinned(capsys):
    # The corrupted spectral value goes through the same quantum trace as
    # the true one; its failing report is pinned byte for byte.
    code = main(
        ["verify", "theorem2", "--max-m", "4", "--max-k", "3",
         "--inject-xi-error", "--format", "json"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0cadd7f4aa50370249b5067609cf6958fda3f5acd6b358568906b4521e13c25c"
    )


def test_remaining_suites_pass_smallish():
    assert run_suite("lemma2-vanishing", max_m=5).passed
    assert run_suite("xi-endpoints", max_m=5).passed
    assert run_suite("skein-coefficients", max_m=5).passed
    assert run_suite("lg21-qminus1", max_k=5).passed
    assert run_suite("tensor-oracle").passed


def test_stable_json_identical_across_runs():
    a = run_suite("lg21-qminus1", max_k=4).to_json()
    b = run_suite("lg21-qminus1", max_k=4).to_json()
    assert a == b
    assert "elapsed" not in a


def test_pole_surfaces_as_failure_not_crash():
    # r not coprime to m is a usage error at the reduction layer, but the
    # suites only ever construct coprime pairs; simulate a failing cell by
    # corrupting instead and check the report shape.
    report = run_suite("theorem2", max_m=2, max_k=1, corrupt_eigenvalues=True)
    for cell in report.cells:
        assert isinstance(cell.left, str) and isinstance(cell.right, str)
