"""Report assembly: schemas, determinism, selectors, control semantics."""

import json

import numpy as np
import pytest

from pnhier import fields, jets, modular, report
from pnhier.dynamics import Trajectory
from pnhier.errors import RangeError
from pnhier.report import (CHECK_NAMES, CONTROL_FLOOR, TOL_SCALE,
                           catalog_report, hierarchy_report, probe_point,
                           render_report, summary_lines, trajectory_csv,
                           verify_report)
from pnhier.systems import make_system


def small_report(key="toda_moser", n=2, **kw):
    kw.setdefault("samples", 12)
    kw.setdefault("seed", 5)
    return verify_report(make_system(key, n), **kw)


def test_report_shape_and_row_schema():
    rep = small_report()
    assert sorted(rep) == ["all_pass", "checks", "failed", "meta", "spectrum"]
    assert rep["all_pass"] is True
    assert rep["failed"] == []
    for row in rep["checks"]:
        assert row["name"] in CHECK_NAMES
        if row.get("status") == "not-applicable":
            assert row["reason"]
            continue
        assert list(row)[:3] == ["name", "identity", "samples"]
        assert row["max_abs_defect"] >= row["mean_abs_defect"] >= 0.0
        if row["name"].startswith("control-"):
            assert row["floor"] == CONTROL_FLOOR
            assert row["pass"] == (row["max_abs_defect"] > row["floor"])
        else:
            assert row["pass"] == (row["max_abs_defect"] < row["tol"])


def test_meta_records_the_configuration():
    rep = small_report(tol=1e-9, depth=3)
    meta = rep["meta"]
    assert meta["command"] == "verify"
    assert meta["system"] == "toda-moser"
    assert meta["tol"] == 1e-9
    assert meta["depth"] == 3
    assert meta["samples"] == 12 and meta["seed"] == 5
    assert len(meta["box"]["lo"]) == meta["m"]


def test_rendering_is_deterministic():
    a = render_report(small_report())
    b = render_report(small_report())
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # valid JSON
    lines = summary_lines(small_report())
    assert any("PASS" in ln for ln in lines)


def test_selectors_filter_and_validate():
    rep = small_report(checks=["lenard"])
    run = [r["name"] for r in rep["checks"]]
    assert run == ["lenard-ladder"]
    rep = small_report(checks=["oevel"])
    assert all(r["name"].startswith("oevel") for r in rep["checks"])
    rep = small_report(checks=["control-torsion", "torsion"])
    assert sorted(r["name"] for r in rep["checks"]) == [
        "control-torsion", "torsion"]
    with pytest.raises(RangeError):
        small_report(checks=["no-such-check"])


def test_config_validation():
    with pytest.raises(RangeError):
        small_report(tol=0.0)
    with pytest.raises(RangeError):
        small_report(depth=0)
    with pytest.raises(RangeError, match="samples must be >= 1, got 0"):
        small_report(samples=0)


def test_controls_fail_below_their_floor_by_design():
    rep = small_report(checks=["control"])
    for row in rep["checks"]:
        assert row["max_abs_defect"] > 1e-4  # the broken operator is visible
        assert row["pass"] is True


def test_commuting_flows_tolerance_is_scaled():
    rep = small_report(tol=1e-8)
    by_name = {r["name"]: r for r in rep["checks"]}
    scale = TOL_SCALE["commuting-flows"]
    assert by_name["commuting-flows"]["tol"] == 1e-8 * scale
    assert by_name["torsion"]["tol"] == 1e-8


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the h_0 Hessian cancels about four digits where "
    "cond(N) is large, so commuting-flows reads 6.0e-7 against tol 1e-7 "
    "on identities that hold"))
def test_cn_toda_seed_222_passes_commuting_flows():
    rep = verify_report(make_system("cn_toda", 3), seed=222,
                        checks="commuting")
    assert rep["all_pass"]


@pytest.mark.parametrize("key", ["harmonic", "calogero", "toda_moser",
                                 "cn_toda", "an_toda"])
def test_each_row_run_alone_matches_the_full_report(key):
    # a row's bits must not depend on which rows ran before it, though
    # every row reads the one Hierarchy walk of its report
    system = make_system(key, 3)
    full = verify_report(system, samples=20, seed=5)
    for row in full["checks"]:
        selection = row["name"]
        if "pass" not in row:           # a not-applicable row
            # alone it judges no row, a usage error; beside a control it
            # is the row of the full report
            with pytest.raises(RangeError, match="judges no row"):
                verify_report(system, samples=20, seed=5, checks=selection)
            selection += ",control-torsion"
        alone = verify_report(system, samples=20, seed=5, checks=selection)
        assert [r for r in alone["checks"] if r["name"] == row["name"]] == [row]


# Rows that read values only: once the Hierarchy walk is done, none of
# their contractions forms a derivative.  Left out are the rows with a
# contraction that differentiates an order-1 intermediate: koszul-d2
# (D of D P), koszul-generator (D of X ^ P and of X ^ Y for hamiltonian
# fields X, Y), commuting-flows (brackets of hamiltonian fields) and
# oevel-deformation (the bracket with X^0 and the field of div Z).
VALUE_ROWS = frozenset(CHECK_NAMES) - {"koszul-d2", "koszul-generator",
                                       "commuting-flows", "oevel-deformation"}


@pytest.mark.parametrize("key, n", [("toda_moser", 3), ("an_toda", 4)])
def test_value_only_rows_contract_at_order_0(key, n, monkeypatch):
    ws = report._Workspace(make_system(key, n), 8, 5, 4)
    rows = [(name, run) for name, _, need, run in report.REGISTRY
            if need is None or need(ws) is None]
    rows += [(name, run) for name, _, run in report.CONTROLS]
    # a first run of every row walks the Hierarchy as far as any row reads
    # it, so that the walk's own order-1 and order-2 products go uncounted
    for _, run in rows:
        run(ws)
    orders, contract = [], jets.jcontract

    def spy(*terms):
        out = contract(*terms)
        orders.append(out.order)
        return out

    for module in (jets, fields, modular):
        monkeypatch.setattr(module, "jcontract", spy)
    for name, run in rows:
        if name in VALUE_ROWS:
            orders.clear()
            run(ws)
            assert set(orders) <= {0}, name


def row_defects(system, seed):
    """verify_report's rendering and each row's per-sample defect array."""
    arrays, judged = {}, report._judged_row

    def spy(ws, name, identity, run, *rest):
        def recorded(ws):
            arrays[name] = np.asarray(run(ws), dtype=float)
            return arrays[name]
        return judged(ws, name, identity, recorded, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(report, "_judged_row", spy)
        text = render_report(verify_report(system, seed=seed))
    return text, arrays


@pytest.mark.parametrize("key, n", [("harmonic", 4), ("calogero", 3),
                                    ("an_toda", 4)])
def test_constant_jets_keep_every_row_defect_bit_for_bit(key, n, monkeypatch):
    # the product rule skips the derivative kernels of constant jets; with
    # the flag cleared on every jet it runs them all, as it did before the
    # flag existed, and every row must read the same bytes
    system = make_system(key, n)
    assert system.pi0(system.jets(probe_point(system))).constant
    flagged = [row_defects(system, seed) for seed in (0, 7)]
    new, const = jets.Jet2._new.__func__, jets.Jet2.const.__func__

    def const_unflagged(cls, *args, **kwargs):
        J = const(cls, *args, **kwargs)
        J.constant = False
        return J

    monkeypatch.setattr(jets.Jet2, "_new", classmethod(
        lambda cls, val, grad, hess, m, constant=False:
        new(cls, val, grad, hess, m)))
    monkeypatch.setattr(jets.Jet2, "const", classmethod(const_unflagged))
    assert not system.pi0(system.jets(probe_point(system))).constant
    for seed, (text, arrays) in zip((0, 7), flagged):
        plain_text, plain = row_defects(system, seed)
        assert plain_text == text
        assert sorted(plain) == sorted(arrays) and len(arrays) > 10
        for name, d in arrays.items():
            assert plain[name].tobytes() == d.tobytes(), (seed, name)


@pytest.mark.parametrize("key, n", [("harmonic", 1), ("calogero", 1),
                                    ("toda_moser", 1), ("cn_toda", 2),
                                    ("an_toda", 2)])
def test_closed_forms_hold_at_each_charts_smallest_size(key, n):
    # the closed forms' slices of the coordinate jet are empty or one
    # entry long here, and a chart's Lax runs are at their shortest
    with pytest.raises(RangeError):
        make_system(key, n - 1)
    rep = verify_report(make_system(key, n), samples=20, seed=5,
                        checks="closed-forms")
    assert [r["name"] for r in rep["checks"]] == ["closed-forms"]
    assert rep["all_pass"]


def test_not_applicable_rows_carry_reasons():
    rep = small_report("an_toda", 2)
    na = {r["name"]: r["reason"] for r in rep["checks"]
          if r.get("status") == "not-applicable"}
    assert na  # the lattice chart carries no conformal symmetry
    for reason in na.values():
        assert "extras" in reason
    # not-applicable is not failure
    assert rep["all_pass"] is True
    assert all(name not in rep["failed"] for name in na)


def test_spectrum_block():
    rep = small_report()
    spec = rep["spectrum"]
    assert spec["paired_all"] is True
    assert spec["independent_all"] is True
    assert spec["max_imag"] < 1e-10
    assert spec["distinct_min"] == 2


def test_failure_is_reported_not_raised():
    rep = small_report(tol=1e-16)
    assert rep["all_pass"] is False
    assert "torsion" in rep["failed"] or len(rep["failed"]) > 0
    lines = summary_lines(rep)
    assert any("FAIL" in ln for ln in lines)


def test_probe_point_and_hierarchy_report():
    sys = make_system("toda_moser", 2)
    assert np.array_equal(probe_point(sys), [1.0, 2.0, 1.0, 2.0])
    rep = hierarchy_report(sys, depth=4)
    table = {row["index"]: row["value"] for row in rep["table"]}
    assert np.isclose(table[-2], -0.625)
    assert np.isclose(table[-1], -1.5)
    assert np.isclose(table[0], np.log(2.0))
    assert np.isclose(table[1], 3.0)
    assert np.isclose(table[2], 2.5)
    assert np.isclose(table[3], 3.0)
    assert np.isclose(table[4], 4.25)
    assert max(abs(r["defect"]) for r in rep["cotangent_defects"]) < 1e-10
    inv = np.asarray(rep["involution_matrix"])
    assert inv.shape[0] == inv.shape[1] == len(rep["indices"])
    assert np.max(inv) < 1e-8


def test_catalog_report_lists_every_system():
    cat = catalog_report(n=2)
    assert [e["system"] for e in cat["systems"]] == [
        "harmonic", "calogero", "toda-moser", "cn-toda", "an-toda"]
    for entry in cat["systems"]:
        assert entry["m"] == len(entry["labels"])
        assert entry["description"]
        assert entry["closed_forms"] == sorted(entry["closed_forms"])


def test_trajectory_csv_layout():
    traj = Trajectory([0.0, 0.5, 0.1], [[1.0, 2.0], [3.0, 4.0], [-0.0, 1e16]])
    monitors = {"h_0": np.array([5.0, 6.0, 5e-324]),
                "h_1": np.array([7.0, 8.0, np.nan]),
                "h_2": np.array([9.0, 1.0, np.inf]),
                "h_3": np.array([2.0, 3.0, -np.inf])}
    text = trajectory_csv(traj, ["q", "p"], monitors)
    lines = text.strip().split("\n")
    assert lines[0] == "t,q,p,h_0,h_1,h_2,h_3"
    assert lines[1] == "0.0,1.0,2.0,5.0,7.0,9.0,2.0"
    assert lines[2] == "0.5,3.0,4.0,6.0,8.0,1.0,3.0"
    # a signed zero, shortest round trips, a subnormal and non-finite values
    assert lines[3] == "0.1,-0.0,1e+16,5e-324,nan,inf,-inf"
    assert trajectory_csv(traj, ["q", "p"], {}) == (
        "t,q,p\n0.0,1.0,2.0\n0.5,3.0,4.0\n0.1,-0.0,1e+16\n")
