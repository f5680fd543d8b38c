"""Command-line interface: exit codes, stream discipline, output files.

Reports and CSV tables go to stdout (or --out) and must be byte-stable
under re-runs; progress notes go to stderr so stdout stays comparable.
"""

import json
import re

import numpy as np
import pytest

from pnhier.cli import main
from pnhier.errors import SingularTensorError


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_verify_passes_and_is_byte_stable(capsys):
    args = ("verify", "--system", "toda-moser", "--n", "2",
            "--samples", "20", "--seed", "7")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["all_pass"] is True
    assert rep["meta"]["system"] == "toda-moser"


def test_underscore_names_are_accepted(capsys):
    code, out, _ = run(capsys, "verify", "--system", "toda_moser",
                       "--samples", "10", "--checks", "torsion")
    assert code == 0
    assert json.loads(out)["meta"]["system"] == "toda-moser"


def test_wide_spectrum_is_no_singularity_false_alarm(capsys):
    # cond(N) reaches ~5.6e4 here while |det N| is tiny against the entries'
    # scale: a determinant-based guard aborted this run with empty stdout
    code, out, _ = run(capsys, "verify", "--system", "cn-toda", "--n", "6",
                       "--samples", "50")
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_a_raising_row_fails_alone(capsys, monkeypatch):
    from pnhier import report
    from pnhier.errors import SingularTensorError

    def singular(ws):
        raise SingularTensorError("matrix is numerically singular at 1 of 12 "
                                  "sample points")

    monkeypatch.setattr(report, "REGISTRY", tuple(
        (name, identity, need, singular if name == "lenard-ladder" else run_)
        for name, identity, need, run_ in report.REGISTRY))
    code, out, err = run(capsys, "verify", "--system", "toda-moser",
                         "--samples", "12", "--seed", "5")
    assert code == 1
    rep = json.loads(out)
    assert sorted(rep) == ["all_pass", "checks", "failed", "meta", "spectrum"]
    assert rep["all_pass"] is False
    assert rep["failed"] == ["lenard-ladder"]
    row = next(r for r in rep["checks"] if r["name"] == "lenard-ladder")
    assert row == {"name": "lenard-ladder", "identity": row["identity"],
                   "samples": 12, "status": "error",
                   "message": "matrix is numerically singular at 1 of 12 "
                              "sample points",
                   "pass": False}
    assert sum(r.get("pass") is True for r in rep["checks"]) == 25
    assert ("ERROR lenard-ladder: matrix is numerically singular at 1 of 12 "
            "sample points") in err.splitlines()


def test_impossible_tolerance_fails_with_code_1(capsys):
    code, out, _ = run(capsys, "verify", "--system", "harmonic",
                       "--samples", "10", "--tol", "1e-16")
    assert code == 1
    rep = json.loads(out)
    assert rep["all_pass"] is False
    assert rep["failed"]


def test_usage_errors_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--system", "kepler")
    assert (code, out) == (2, "")
    assert err == ("error: unknown system 'kepler' (catalog: harmonic, "
                   "calogero, toda-moser, cn-toda, an-toda)\n")
    assert run(capsys, "verify", "--system", "harmonic",
               "--checks", "bogus")[0] == 2
    assert run(capsys, "verify", "--system", "harmonic", "--tol", "0")[0] == 2
    # a Philox key is an integer in [0, 2**128)
    for seed in ("-1", "340282366920938463463374607431768211456"):
        code, out, err = run(capsys, "verify", "--system", "harmonic",
                             "--n", "1", "--samples", "5", "--seed", seed)
        assert (code, out) == (2, "")
        assert "seed must be in [0, 2**128)" in err
    # argparse-level rejections exit through SystemExit, also with code 2
    for argv in (["integrate", "--system", "harmonic", "--method", "euler"],
                 ["frobnicate"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_empty_check_selection_exits_2(capsys):
    for selection in (",", ""):
        code, out, err = run(capsys, "verify", "--system", "harmonic",
                             "--n", "2", "--checks", selection)
        assert code == 2
        assert out == ""
        assert "names no check" in err


def test_integrate_checks_depth_before_integrating(capsys, monkeypatch):
    from pnhier import cli

    def never(*args, **kwargs):
        raise AssertionError("integrate ran although --depth is out of range")

    monkeypatch.setattr(cli, "integrate", never)
    for depth in ("0", "13"):
        code, out, err = run(capsys, "integrate", "--system", "an-toda",
                             "--depth", depth)
        assert code == 2
        assert out == ""
        assert "depth must be in 1..12" in err


def test_non_finite_tolerance_exits_2(capsys):
    # inf passed every row and nan failed every row: neither is a tolerance
    for tol in ("inf", "nan"):
        code, out, err = run(capsys, "verify", "--system", "harmonic",
                             "--n", "2", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "tol must be finite and positive" in err


def test_non_finite_flow_times_exit_2_before_integrating(capsys, monkeypatch):
    from pnhier import cli

    def never_called(system, index):
        def rhs(t, x):
            raise AssertionError("the flow ran on a non-finite time setting")
        return rhs

    monkeypatch.setattr(cli, "hamiltonian_flow_rhs", never_called)
    for argv in (["--t-end", "nan"], ["--t-end", "inf"], ["--dt", "nan"],
                 ["--dt", "inf"], ["--t-end", "inf", "--method", "rkf45"],
                 ["--dt", "nan", "--method", "rkf45"],
                 ["--dt", "-1", "--method", "rkf45"]):
        code, out, err = run(capsys, "integrate", "--system", "an-toda", *argv)
        assert code == 2, argv
        assert out == ""
        assert "must be finite" in err


def test_step_counts_above_the_rk4_cap_exit_2_before_integrating(capsys,
                                                                  monkeypatch):
    from pnhier import cli

    def never_called(system, index):
        def rhs(t, x):
            raise AssertionError("the flow ran past the rk4 step cap")
        return rhs

    monkeypatch.setattr(cli, "hamiltonian_flow_rhs", never_called)
    for argv in (["--dt", "1e-300"], ["--dt", "5e-324"],
                 ["--t-end", "1e300"]):
        code, out, err = run(capsys, "integrate", "--system", "an-toda", *argv)
        assert code == 2, argv
        assert out == ""
        assert "exceeds the cap" in err


def test_flow_index_beyond_the_ladder_cap_exits_2_before_integrating(
        capsys, monkeypatch):
    from pnhier import cli

    def never(*args, **kwargs):
        raise AssertionError("integrate ran although --flow is out of range")

    monkeypatch.setattr(cli, "integrate", never)
    for flow in ("13", "-13", "400"):
        code, out, err = run(capsys, "integrate", "--system", "an-toda",
                             "--flow", flow)
        assert code == 2
        assert out == ""
        assert "flow index must be in -12..12" in err
    with pytest.raises(SystemExit) as exc:      # not an integer: argparse
        main(["integrate", "--system", "an-toda", "--flow", "2.5"])
    assert exc.value.code == 2


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--system", "harmonic",
                       "--samples", "10", "--checks", "torsion",
                       "--out", str(target))
    assert code == 0
    assert out == ""  # everything went to the file
    code2, out2, _ = run(capsys, "verify", "--system", "harmonic",
                         "--samples", "10", "--checks", "torsion")
    assert target.read_text() == out2


def test_unwritable_out_exits_3(capsys, tmp_path):
    bad = tmp_path / "no" / "such" / "dir" / "x.json"
    code, _, err = run(capsys, "verify", "--system", "harmonic",
                       "--samples", "10", "--checks", "torsion",
                       "--out", str(bad))
    assert code == 3


def singular_flow(system, index):
    def rhs(t, x):
        raise SingularTensorError("pi0 is numerically singular at 1 of 1 "
                                  "sample points")
    return rhs


def no_convergence(L):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("target, failure, message", [
    # no catalog chart is singular at its probe point, so the flow is made
    # singular there: the first evaluation raises, which no run truncates
    ("pnhier.cli.hamiltonian_flow_rhs", singular_flow,
     "pi0 is numerically singular at 1 of 1 sample points"),
    # LAPACK fails on the recorded Lax stack: lax_monitors raises a
    # ConvergenceError after the run
    ("numpy.linalg.eigvalsh", no_convergence,
     "an_toda Lax: Eigenvalues did not converge"),
], ids=("singular-start", "lax-convergence"))
def test_an_engine_failure_exits_1(capsys, monkeypatch, target, failure,
                                   message):
    monkeypatch.setattr(target, failure)
    for method in ("rk4", "rkf45"):
        code, out, err = run(capsys, "integrate", "--system", "an-toda",
                             "--t-end", "0.1", "--method", method)
        assert (code, out) == (1, "")
        assert err == f"failed: {message}\n"


def test_checks_selector_runs_one_row(capsys):
    code, out, _ = run(capsys, "verify", "--system", "cn-toda",
                       "--samples", "15", "--checks", "lenard")
    assert code == 0
    rows = json.loads(out)["checks"]
    assert [r["name"] for r in rows] == ["lenard-ladder"]


def test_hierarchy_table(capsys):
    code, out, _ = run(capsys, "hierarchy", "--system", "toda-moser",
                       "--n", "2", "--depth", "4")
    assert code == 0
    rep = json.loads(out)
    table = {r["index"]: r["value"] for r in rep["table"]}
    assert np.isclose(table[0], np.log(2.0))
    assert np.isclose(table[4], 4.25)


def test_catalog_lists_five_systems(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    cat = json.loads(out)
    assert len(cat["systems"]) == 5


def test_catalog_lists_systems_too_small_for_n_as_not_available(capsys):
    # cn-toda and an-toda need n >= 2; one chart's size guard used to lose
    # the whole listing with exit 2
    code, out, err = run(capsys, "catalog", "--n", "1")
    assert (code, err) == (0, "")
    rows = json.loads(out)["systems"]
    assert [r["system"] for r in rows] == [
        "harmonic", "calogero", "toda-moser", "cn-toda", "an-toda"]
    for row in rows[:3]:
        assert "status" not in row and (row["n"], row["m"]) == (1, 2)
    for row, key in zip(rows[3:], ("cn_toda", "an_toda")):
        assert row == {"system": key.replace("_", "-"),
                       "status": "not-available",
                       "reason": f"{key} n must be >= 2, got 1"}
    # a size at which no system exists is still a usage error
    code, out, err = run(capsys, "catalog", "--n", "0")
    assert (code, out) == (2, "")
    assert "no catalog system exists at n = 0" in err


def test_integrate_csv(capsys):
    code, out, err = run(capsys, "integrate", "--system", "an-toda",
                         "--n", "2", "--flow", "2", "--t-end", "1.0",
                         "--dt", "1e-2", "--depth", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "t,q1,q2,p1,p2,h_0,h_1,h_2,h_3,lambda_1,lambda_2"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.isclose(data[-1, 0], 1.0)
    # ladder invariants and Lax eigenvalues hold along the flow
    drift = np.max(np.abs(data[1:, 5:] - data[1, 5:]), axis=0)
    assert np.max(drift) < 1e-9


def test_integrate_rkf45_and_stderr_note(capsys):
    code, out, err = run(capsys, "integrate", "--system", "toda-moser",
                         "--n", "2", "--flow", "1", "--t-end", "0.5",
                         "--method", "rkf45")
    assert code == 0
    assert out.startswith("t,lam1,lam2,r1,r2,h_0")
    assert "records" in err  # progress notes stay out of the CSV
    stats = re.search(r"\n(\d+) rhs evaluations, (\d+) steps accepted, "
                      r"(\d+) rejected, dt in \[\S+, \S+\]\n$", err)
    evals, accepted, rejected = map(int, stats.groups())
    assert evals == 6 * (accepted + rejected) and accepted > 0


def test_integrate_truncates_at_a_singular_stage(capsys):
    # cn-toda n=2 with the defaults (flow 2, t-end 10) reaches the singular
    # set of the linear bracket near t = 0.465: the run ends on its last
    # good step instead of losing the whole trajectory
    code, out, err = run(capsys, "integrate", "--system", "cn-toda", "--n", "2")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("t,a1,a2,b1,b2,h_0")
    assert len(lines) == 1 + 465
    assert float(lines[-1].split(",")[0]) == pytest.approx(0.464)
    assert ("trajectory truncated: singular right-hand side in the step to "
            "t = 0.465: pi0 is numerically singular") in err
    assert "\n1860 rhs evaluations, 464 steps accepted, 0 rejected" in err
