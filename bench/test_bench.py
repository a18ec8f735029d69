"""Tests of the benchmark itself: short runs, and checks that bite.

    python3 -m pytest -q bench/test_bench.py

Each workload runs briefly end to end; then single outputs are perturbed
(a kernel value by 1e-6, a Monte Carlo estimate by 6 standard errors, a
relaxation gap that grows with tau) and the checks must flag each one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import run  # noqa: E402
import streams  # noqa: E402
from layers import PER_LAYER  # noqa: E402

CLI = run.load_cli()


def _answer(req) -> str:
    rc, text, _ = run.call(CLI, req.argv)
    assert rc == 0, text
    return text


def _first(kind: str, workload: str = "analytic"):
    return next(r for r in streams.round_requests(workload, 7, 0) if r.kind == kind)


def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", streams.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_workload_runs_briefly(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "TRACE_PAIRS", {workload: 1})
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace)]) == 0
    report = _last_json(capsys.readouterr().out)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    per_round = len(streams.round_requests(workload, 3, 0))
    assert report["attempted"] % per_round == 0
    faults = sum(1 for r in streams.round_requests(workload, 3, 0) if r.known_fault)
    assert report["failed"] * per_round == faults * report["attempted"]
    want = PER_LAYER if trace else run.END_TO_END
    assert set(report["metrics"]) == set(want)
    for name, metric in report["metrics"].items():
        assert metric["unit"] == want[name]
        if not trace:
            assert metric["value"] > 0


def test_round_is_a_function_of_seed_and_index():
    for workload in streams.WORKLOADS:
        a = streams.round_requests(workload, 11, 2)
        b = streams.round_requests(workload, 11, 2)
        c = streams.round_requests(workload, 12, 2)
        assert [r.argv for r in a] == [r.argv for r in b]
        assert [r.argv for r in a] != [r.argv for r in c]
        assert [r.kind for r in a] == [r.kind for r in c]


def test_known_faults_fail_their_checks():
    for req in streams.KNOWN_FAULTS:
        assert checks.check(req, _answer(req)) is not None


def _csv_text(rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def _perturb_csv(text: str, column: str, row: int, delta: float) -> str:
    rows = list(csv.DictReader(io.StringIO(text)))
    rows[row][column] = repr(float(rows[row][column]) + delta)
    return _csv_text(rows)


@pytest.mark.parametrize("kind", ("single_walk_grid", "lattice_grid",
                                  "stationary_grid"))
def test_kernel_value_off_by_1e6_is_flagged(kind):
    req = _first(kind)
    text = _answer(req)
    assert checks.check(req, text) is None
    for row in (0, 7):
        assert checks.check(req, _perturb_csv(text, "value", row, 1e-6)) is not None


@pytest.mark.parametrize("kind", ("finite_density", "lattice_density"))
def test_density_off_by_1e6_is_flagged(kind):
    req = _first(kind)
    text = _answer(req)
    assert checks.check(req, text) is None
    assert checks.check(req, _perturb_csv(text, "rho", 3, 1e-6)) is not None


def test_correlation_off_by_1e6_is_flagged():
    for kind in ("finite_correlation", "lattice_correlation",
                 "stationary_correlation"):
        req = next(r for r in streams.round_requests("analytic", 7, 0)
                   if r.kind == kind and r.units <= 4)
        doc = json.loads(_answer(req))
        assert checks.check(req, json.dumps(doc)) is None
        doc["value"] += 1e-6
        assert checks.check(req, json.dumps(doc)) is not None, req.argv


def test_mc_estimate_moved_by_6_standard_errors_is_flagged():
    for req in streams.round_requests("mc", 7, 0)[:4]:
        doc = json.loads(_answer(req))
        assert checks.check(req, json.dumps(doc)) is None
        se = doc["std_error"]
        # 6 standard errors off the analytic value, either side
        for off in (-6.0 * se, 6.0 * se):
            moved = dict(doc, estimate=doc["analytic_value"] + off, z_score=off / se)
            assert checks.check(req, json.dumps(moved)) is not None, req.argv
        # the estimate itself moved 6 standard errors away from it
        away = math.copysign(6.0, doc["z_score"])
        moved = dict(doc, estimate=doc["estimate"] + away * se,
                     z_score=doc["z_score"] + away)
        assert checks.check(req, json.dumps(moved)) is not None, req.argv


def test_relaxation_gap_growing_with_tau_is_flagged():
    req = _first("relaxation", "relax")
    text = _answer(req)
    assert checks.check(req, text) is None
    rows = list(csv.DictReader(io.StringIO(text)))
    last = max(i for i, r in enumerate(rows) if float(r["tau"]) == req.params["taus"][-1])
    grown = 2.0 * max(float(r["gap"]) for r in rows) + 1e-9
    rows[last]["lattice_value"] = repr(float(rows[last]["stationary_value"]) + grown)
    rows[last]["gap"] = repr(grown)
    assert "grows" in checks.check(req, _csv_text(rows))


# (a, tau, dt, route): kernel_lattice takes its spectral route once
# t (1 - cos(pi/a)) > 10, with t the later of the two times.
@pytest.mark.parametrize("a, tau, dt, spectral", (
    (3, 8.0, 0.5, False), (2, 12.0, 0.0, True), (4, 48.0, -0.5, True),
    (5, 64.0, 1.0, True)))
def test_relaxation_lattice_value_sign_flip_is_flagged(a, tau, dt, spectral):
    t = tau + max(dt, 0.0)
    assert (t * (1.0 - math.cos(math.pi / a)) > 10.0) == spectral
    req = streams.relaxation_request(a, dt, 6, (4.0, tau, 96.0))
    text = _answer(req)
    assert checks.check(req, text) is None
    rows = list(csv.DictReader(io.StringIO(text)))
    cell = max((r for r in rows if float(r["tau"]) == tau),
               key=lambda r: abs(float(r["lattice_value"])))
    flipped = -float(cell["lattice_value"])
    cell["lattice_value"] = repr(flipped)
    cell["gap"] = repr(abs(flipped - float(cell["stationary_value"])))
    assert "lattice value" in checks.check(req, _csv_text(rows))


def test_malformed_output_is_a_failure_not_a_crash():
    req = _first("finite_density")
    assert checks.check(req, "x,rho\n") is not None
    relax = _first("relaxation", "relax")
    rows = list(csv.DictReader(io.StringIO(_answer(relax))))
    rows[-1]["dx"] = str(relax.params["dx_max"] + 5)
    assert checks.check(relax, _csv_text(rows)) is not None


def test_a_crashing_request_is_a_failed_call():
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")
    rc, text, _ = run.call(Crashing, ("density",))
    assert rc != 0 and "boom" in text


def test_tracer_sees_calls_across_modules_and_restores_them():
    from layers import Tracer
    tracer = Tracer()
    before = [(owner, attr, getattr(owner, attr)) for owner, attr, *_ in tracer._patches]
    tracer.install()
    assert all(getattr(o, a) is not f for o, a, f in before)
    _answer(_first("finite_correlation"))
    tracer.uninstall()
    assert all(getattr(o, a) is f for o, a, f in before)
    # kernels imports scaled_bessel_i_all by name; cli calls correlation_function
    for name in ("cli.main", "correlations.correlation_function",
                 "kernels.KernelSpec.evaluate", "bessel.scaled_bessel_i_all",
                 "martingales.site_martingale_row"):
        assert tracer.calls[name] > 0, name
    metrics = tracer.metrics()
    assert metrics["kernels.evals"] == tracer.calls["kernels.KernelSpec.evaluate"]
    assert metrics["cli.self_s"] > 0


def test_without_sources_it_fails_without_a_result(tmp_path):
    root = os.path.dirname(BENCH_DIR)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "relax",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
