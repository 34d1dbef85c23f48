import json

import pytest

from linksgould.cli import main
from linksgould.tensor import dump_fixture, lg11_fixture


def run(capsys, *argv):
    code = main(list(argv))
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


def test_alexander_budget_exceeded(capsys):
    code, _, err = run(capsys, "alexander", "1 1 1", "--budget", "2")
    assert code == 3
    assert "budget" in err


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
    for argv in (("theorem1", "--max-m", "0"), ("lg21-qminus1", "--max-k", "-1")):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert "no cells" in err


def test_tensor_eval_builtin(capsys):
    code, out, _ = run(capsys, "tensor", "eval", "--braid", "1 1 1")
    assert code == 0
    assert out.strip() == "t^2 - 1 + t^-2"


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "not-a-suite"])
    assert exc.value.code == 2
