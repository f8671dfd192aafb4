"""The benchmark's own checks: each accepts today's reports and rejects a
report pushed just beyond its tolerance.

Run from the repository root with ``python3 -m pytest bench/tests -q``.  One
round of every workload is computed once per test run (about 45 s).
"""

import copy
import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import hostspeed  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

JUST = 1.01  # a perturbation of 1.01 tolerances is just beyond the check


@pytest.fixture(scope="module")
def today(tmp_path_factory):
    """One round of a workload, computed once per test run: the workload and
    its results and failures by report label."""
    rounds = {}

    def get(name):
        if name not in rounds:
            wl = workloads.setup(name, tmp_path_factory.mktemp(name))
            results, failures = {}, {}
            for rep in wl.reports:
                try:
                    results[rep.label] = rep.run()
                except workloads.ReportFailed as exc:
                    failures[rep.label] = str(exc)
            rounds[name] = wl, results, failures
        return rounds[name]
    return get


def report(today, name, label):
    wl, results, _ = today(name)
    rep = next(r for r in wl.reports if r.label == label)
    return rep, copy.deepcopy(results[label])


def rejects(check, data):
    with pytest.raises(oracles.CheckFailed):
        check(data)


def with_json(out, change):
    """CLI output whose report.json went through ``change``."""
    out = copy.deepcopy(out)
    doc = json.loads(out["files"]["report.json"])
    change(doc)
    out["files"]["report.json"] = json.dumps(doc, indent=2,
                                             sort_keys=True).encode() + b"\n"
    return out


# -- today's reports ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.FACTORIES))
def test_today_reports_pass(today, name):
    wl, results, failures = today(name)
    for rep in wl.reports:
        if rep.label in results:
            rep.check(results[rep.label])
            rep.check(results[rep.label])  # a second round gives the same bytes
    if wl.round_check is not None:
        wl.round_check(results)
    expected_failures = ({"sweep-degree --dxi-max 4 semicircular n=1"}
                         if name == "sweep" else set())
    assert set(failures) == expected_failures
    for why in failures.values():
        assert "beyond the cap 12" in why


def test_degree_sweep_check_accepts_the_uncapped_report(tmp_path):
    """With the cap raised past the false guard the sweep runs, and its
    report passes the check that the capped run never reaches."""
    from free_stein import cli

    spec = tmp_path / "s1.json"
    spec.write_text(workloads.SPECS["semicircular1.json"])
    out = tmp_path / "report.json"
    assert cli.main(["sweep-degree", "--model", str(spec), "--dxi-max", "4",
                     "--cap", "14", "--out", str(out)]) == 0
    data = {"files": {"report.json": out.read_bytes()}}
    oracles.check_cli_degree_sweep(data, 1)
    tol = oracles.SIGMA_ESTIMATE_TOL

    def bump(doc):
        doc["points"][-1]["sigma"] = 1 + JUST * tol
    rejects(lambda o: oracles.check_cli_degree_sweep(o, 1), with_json(data, bump))


# -- gram ------------------------------------------------------------------------------


def test_semicircular_estimate_rejects(today):
    rep, data = report(today, "gram", "semicircular n=3, d_xi=2")
    data["sigma"] = 3 + JUST * oracles.SIGMA_ESTIMATE_TOL
    rejects(rep.check, data)
    rep, data = report(today, "gram", "semicircular n=2, d_xi=3")
    data["trail"][-1][1] = data["trail"][-2][1] + JUST * oracles.ESTIMATE_TRAIL_TOL
    rejects(rep.check, data)


def test_free_product_rejects(today):
    rep, data = report(today, "gram", "two-point * semicircular, d_xi=3")
    data["irregularity"] = math.sqrt(0.5 - JUST * oracles.ADDITIVITY_TOL)
    rejects(rep.check, data)


# -- exact-fd --------------------------------------------------------------------------


def test_exact_full_coefficients_rejects(today):
    rep, data = report(today, "exact-fd", "M_2 over B = M_2, d=2")
    data["sigma"] = JUST * oracles.EXACT_FD_TOL
    rejects(rep.check, data)


def test_exact_group_rejects(today):
    rep, data = report(today, "exact-fd", "cyclic group of order 10, d=5")
    data["sigma"] = 0.9 - JUST * oracles.EXACT_FD_TOL
    rejects(rep.check, data)


def test_exact_blocks_rejects(today):
    rep, data = report(today, "exact-fd", "M_2 + C, d=4")
    stable = [p for p in data["trail"] if p[0] == 3][0]
    stable[1] = 7 / 9 + JUST * oracles.EXACT_FD_TOL
    rejects(rep.check, data)
    rep, data = report(today, "exact-fd", "M_2 + C, d=4")
    data["trail"][1][1] = data["trail"][0][1] + JUST * oracles.EXACT_TRAIL_TOL
    rejects(rep.check, data)


# -- quadrature ------------------------------------------------------------------------


def plateau_round(today):
    wl, results, _ = today("quadrature")
    return wl.round_check, copy.deepcopy(results)


def test_eps_plateau_rejects(today):
    tail, small = "eps_kernel plateau eps=0.01", "eps_kernel plateau eps=0.001"
    check, results = plateau_round(today)
    results[small]["bound"] = 0.25 - JUST * oracles.EPS_LIMIT_TOL
    rejects(check, results)
    check, results = plateau_round(today)
    results[tail]["bound"] = results[small]["bound"] - 1e-15
    rejects(check, results)
    check, results = plateau_round(today)
    results[tail]["g_l2"] = results[small]["g_l2"] * (1 + JUST * oracles.G_L2_REL_TOL)
    rejects(check, results)


def test_log_energy_rejects(today):
    rep, data = report(today, "quadrature", "log_energy uniform [0, 1]")
    data["value"] = -1.5 + JUST * oracles.LOG_ENERGY_TOL
    rejects(rep.check, data)
    rep, data = report(today, "quadrature", "log_energy standard semicircle")
    data["value"] = -0.25 - JUST * oracles.LOG_ENERGY_TOL
    rejects(rep.check, data)


# -- sweep -----------------------------------------------------------------------------


SWEEP = "sweep-radius semicircular n=2, d_xi=3"


def test_bounded_sweep_rejects(today):
    rep, out = report(today, "sweep", SWEEP)
    tol = oracles.BOUNDED_TOL

    def bump(doc):
        doc["points"][0]["value"] = math.sqrt(2) - 0.25 + JUST * tol
    rejects(rep.check, with_json(out, bump))
    rep, out = report(today, "sweep", SWEEP)
    out["files"]["sweep.csv"] = out["files"]["sweep.csv"].replace(b"0.25,", b"0.5,", 1)
    rejects(rep.check, out)


def test_cli_values_reject(today):
    cases = [
        ("README irregularity semicircular n=2",
         lambda d: d.update(sigma=2 + JUST * oracles.SIGMA_ESTIMATE_TOL)),
        ("README closed-form one-var two-point",
         lambda d: d.update(sigma=math.nextafter(0.5, 1))),
        ("discrepancy (t1, t2) semicircular n=2",
         lambda d: d.update(value=JUST * oracles.DISCREPANCY_TOL)),
    ]
    for label, change in cases:
        rep, out = report(today, "sweep", label)
        rejects(rep.check, with_json(out, change))


def test_byte_identity_rejects(today):
    rep, out = report(today, "sweep", "README sweep-radius semicircular n=1")
    rep.check(out)
    out["files"]["report.json"] = out["files"]["report.json"].replace(b"\n", b" \n", 1)
    rejects(rep.check, out)


def test_convexity_uses_the_radius_spacing():
    oracles.convex("sweep", [0.25, 0.5, 1.0, 2.0], [0.75, 0.5, 0.0, 0.0], 0.0)
    with pytest.raises(oracles.CheckFailed):
        oracles.convex("sweep", [0.25, 0.5, 1.0], [0.75, 0.6, 0.0], 0.0)


# -- probe -----------------------------------------------------------------------------


def test_tracer_self_times_add_up_and_uninstall():
    from free_stein import stein, trace

    original = stein.sigma_exact_fd
    tracer = probe.Tracer()
    tracer.install()
    try:
        assert stein.sigma_exact_fd is not original
        tracer.call("report", probe.BENCH, lambda: stein.sigma_exact_fd(
            trace.two_point_matrix_model(), d=2), (), {})
    finally:
        tracer.uninstall()
    assert stein.sigma_exact_fd is original
    assert not tracer.missing
    root = tracer.spans[0]
    assert sum(tracer.self_times().values()) == pytest.approx(
        (root[5] - root[4]) / 1e9, rel=1e-12)
    layers = tracer.span_counts()
    assert layers["stein.relations"] == 1 and layers["linalg"] > 0


# -- host-speed calibration ------------------------------------------------------------


def test_host_speed_converts_to_reference_seconds():
    speed = hostspeed.HostSpeed()
    slow = 2 * hostspeed.REFERENCE_S           # the host runs at half speed
    speed.starts, speed.lengths = [1.0, 1.5], [slow, slow]
    assert speed.seconds(0.9, 2.0) == pytest.approx((1.1 - 2 * slow) / 2)
    # an interval without samples borrows the pace of the ones before it
    assert speed.seconds(2.1, 2.2) == pytest.approx(0.05)


def test_host_speed_samples_while_active_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed:
        t = time.perf_counter()
        while time.perf_counter() - t < 0.2:
            pass
    assert len(speed.lengths) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
