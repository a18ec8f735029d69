import argparse
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncrw import cli
from ncrw.cli import (_emit_csv, _emit_json, _fmt, _load_config_file,
                      _normalize_argv, _parser, _plan, main)
from ncrw.correlations import MultiTimePointSet, correlation_function
from ncrw.kernels import KernelSpec
from ncrw.martingales import FiniteConfiguration, LatticeSpec
from ncrw.montecarlo import BLOCK_SIZE, OccupationProduct, WalkBlock
from oracles import csv_per_value, estimate_exact, lattice_kernel_mpmath

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "ncrw" / "schemas"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def usage_error(argv, capsys):
    """Exit code and stderr of a call that argparse or main refuses."""
    try:
        code, out = run_cli(argv)
    except SystemExit as exc:
        code, out = exc.code, ""
    assert out == ""
    return code, capsys.readouterr().err


def settings_of(argv, monkeypatch):
    """The namespace that ``main`` hands to the handler of ``argv``, which
    the plan reads."""
    got, plan = [], cli._plan

    def spy(argv, tables):
        namespace = plan(argv, tables)
        namespace.handler = got.append
        return namespace

    monkeypatch.setattr(cli, "_plan", spy)
    main(argv)
    monkeypatch.setattr(cli, "_plan", plan)
    return got.pop()


def validate(doc, schema_name):
    schema = json.loads((SCHEMA_DIR / schema_name).read_text())
    jsonschema.validate(doc, schema)


class TestKernelCommand:
    def test_stationary_value(self):
        code, out = run_cli(["kernel", "--spec", "stationary:0.5",
                             "--dt", "0", "--dx", "1"])
        assert code == 0
        assert float(out) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_json_output_validates(self):
        code, out = run_cli(["kernel", "--spec", "lattice:2",
                             "--point", "0.5,0", "--point", "0.5,1",
                             "--output", "json"])
        assert code == 0
        doc = json.loads(out)
        validate(doc, "kernel.json")
        assert doc["value"] == pytest.approx(0.4674224108992433, abs=1e-12)

    def test_grid_csv(self):
        code, out = run_cli(["kernel", "--spec", "finite:0,2",
                             "--grid", "0.5,-1:1,0.5,-1:1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s,x,t,y,value"
        assert len(lines) == 1 + 9

    def test_point_count_usage_error(self):
        code, _ = run_cli(["kernel", "--spec", "finite:0,2",
                           "--point", "0.5,0"])
        assert code == 2

    def test_negative_time_usage_error(self):
        code, _ = run_cli(["kernel", "--spec", "finite:0,2",
                           "--point", "-0.5,0", "--point", "0.5,1"])
        assert code == 2

    def test_grid_refuses_json(self, capsys):
        code, err = usage_error(["kernel", "--spec", "finite:0,2", "--grid",
                                 "0.5,-1:1,0.5,-1:1", "--output", "json"],
                                capsys)
        assert code == 2 and "CSV only" in err

    def test_grid_refuses_points(self, capsys):
        code, err = usage_error(["kernel", "--spec", "finite:0,2", "--grid",
                                 "0.5,-1:1,0.5,-1:1", "--point", "0.5,0"],
                                capsys)
        assert code == 2 and "not allowed with" in err

    def test_lag_refuses_points_and_finite_spec(self, capsys):
        code, err = usage_error(["kernel", "--spec", "finite:0,2",
                                 "--dt", "3", "--dx", "4", "--point", "0.5,0",
                                 "--point", "0.5,1"], capsys)
        assert code == 2 and "not allowed with" in err
        code, err = usage_error(["kernel", "--spec", "finite:0,2",
                                 "--dt", "3", "--dx", "4"], capsys)
        assert code == 2 and "stationary spec" in err

    def test_displacement_needs_lag(self, capsys):
        code, err = usage_error(["kernel", "--spec", "stationary:0.5",
                                 "--dx", "1"], capsys)
        assert code == 2 and "--dt and --dx" in err
        code, err = usage_error(["kernel", "--spec", "stationary:0.5",
                                 "--point", "0.5,0", "--point", "0.5,1",
                                 "--dx", "1"], capsys)
        assert code == 2 and "--dt and --dx" in err

    @pytest.mark.parametrize("x", [10 ** 6, 10 ** 9])
    def test_far_site_answers_zero_at_once(self, x):
        # p(2, x|0) rounds to 0 from order 178 on, so no table is built out
        # to x: 10^6 took 0.38 s and 70 MB more peak memory, and 10^9 would
        # take minutes and tens of GB, so the child's address space is capped
        env = {**os.environ, "PYTHONPATH": str(SCHEMA_DIR.parents[1]),
               "OPENBLAS_NUM_THREADS": "1"}
        code = ("import contextlib, io, resource as r, sys, time\n"
                "r.setrlimit(r.RLIMIT_AS, (1 << 30, 1 << 30))\n"
                "from ncrw.cli import main\n"
                "rss = r.getrusage(r.RUSAGE_SELF).ru_maxrss\n"
                "start, out = time.perf_counter(), io.StringIO()\n"
                "with contextlib.redirect_stdout(out):\n"
                "    rc = main(sys.argv[1:])\n"
                "seconds = time.perf_counter() - start\n"
                "rss = r.getrusage(r.RUSAGE_SELF).ru_maxrss - rss\n"
                "print(rc, float(out.getvalue()), seconds < 1, rss < 10240)\n")
        argv = ["kernel", "--spec", "finite:0", "--point", f"2,{x}",
                "--point", "1,0"]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.stdout == "0 0.0 True True\n", done.stderr

    def test_lattice_pair_beyond_domain_exits_1(self, capsys):
        # |y - x| = 1240 on 2Z: beyond 2048 quadrature nodes
        code, out = run_cli(["kernel", "--spec", "lattice:2",
                             "--point", "1,0", "--point", "1,1240"])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "numerical convergence failure" in err and "2048" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["kernel", "--spec", "stationary:0.5", "--dt", "720", "--dx", "1"],
        ["kernel", "--spec", "lattice:2", "--point", "0,0",
         "--point", "800,1"],
        ["relaxation", "--a", "2", "--tau", "1", "--dx-max", "0",
         "--dt", "800"],
    ])
    def test_overflowing_integrand_exits_1(self, argv, capsys):
        # the integrand is already inf at 64 nodes: refused with that
        # reason, not after refining to 2048 nodes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code, out = run_cli(argv)
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "numerical convergence failure" in err and "overflows" in err
        assert "Traceback" not in err


class TestDensityCommand:
    def test_initial_indicator_csv(self):
        code, out = run_cli(["density", "--spec", "finite:0,2",
                             "--t", "0", "--window", "-3:5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x,rho"
        rows = {int(line.split(",")[1]): float(line.split(",")[2])
                for line in lines[1:]}
        assert rows == {x: (1.0 if x in (0, 2) else 0.0)
                        for x in range(-3, 6)}

    def test_json_validates(self):
        code, out = run_cli(["density", "--spec", "lattice:2", "--t", "1",
                             "--window", "0:3", "--output", "json"])
        assert code == 0
        validate(json.loads(out), "density.json")

    @pytest.mark.parametrize("n", [247, 400])
    def test_overflowing_series_exits_1(self, n, capsys):
        # N >= 247 sites: the series weights leave the double range
        spec = "finite:" + ",".join(str(u) for u in range(n))
        code, out = run_cli(["density", "--spec", spec, "--t", "0.5",
                             "--window", "0:2"])
        assert code == 1 and out == ""
        err = capsys.readouterr().err
        assert "numerical convergence failure" in err and "overflows" in err
        assert "Traceback" not in err


class TestCorrelationCommand:
    def test_json_validates_and_is_gauge_free(self, capsys):
        argv = ["correlation", "--spec", "finite:0,2",
                "--at", "0.5:0", "--at", "1.0:1,2"]
        code, out = run_cli(argv)
        assert code == 0
        doc = json.loads(out)
        validate(doc, "correlation.json")
        # a determinant does not see the gauge, so the command has no --gauge
        paper = correlation_function(KernelSpec(FiniteConfiguration((0, 2)),
                                                "paper"),
                                     MultiTimePointSet(((0.5, (0,)),
                                                        (1.0, (1, 2)))))
        assert paper == pytest.approx(doc["value"], rel=1e-10)
        code, err = usage_error(argv + ["--gauge", "paper"], capsys)
        assert code == 2 and "--gauge" in err

    def test_lattice_large_backward_lag(self):
        # the 2x2 determinant of the 40-digit lattice kernel at lag 40
        lat = LatticeSpec(2)
        pts = [(0.5, 0), (40.5, 1)]
        k = [[lattice_kernel_mpmath(lat, *p, *q) for q in pts] for p in pts]
        want = k[0][0] * k[1][1] - k[0][1] * k[1][0]
        code, out = run_cli(["correlation", "--spec", "lattice:2",
                             "--at", "0.5:0", "--at", "40.5:1"])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(want, abs=1e-14)


class TestSimulateCommand:
    def test_json_validates_and_z_is_small(self):
        code, out = run_cli(["simulate", "--config", "0,2", "--T", "1",
                             "--at", "0.5:0", "--estimator", "dmr",
                             "--samples", "4000", "--seed", "7"])
        assert code == 0
        doc = json.loads(out)
        validate(doc, "simulate.json")
        assert abs(doc["z_score"]) <= 3.0
        assert doc["ess"] >= 100

    def test_negative_first_site_separate_form(self):
        code, out = run_cli(["simulate", "--config", "-2,0,3", "--T", "1",
                             "--samples", "10", "--estimator", "h",
                             "--at", "0.5:0"])
        assert code == 0
        assert json.loads(out)["config"] == [-2, 0, 3]

    def test_thread_count_does_not_change_results(self):
        argv = ["simulate", "--config", "-1,1,4", "--T", "1",
                "--at", "0.5:1,4", "--estimator", "dmr",
                "--samples", str(2 * BLOCK_SIZE + 1), "--seed", "5"]
        code1, out1 = run_cli(argv + ["--threads", "1"])
        code2, out2 = run_cli(argv + ["--threads", "2"])
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("horizon", ["nan", "inf", "-1"])
    def test_bad_horizon_usage_error(self, horizon, capsys):
        code, err = usage_error(["simulate", "--config", "0,2",
                                 "--T", horizon, "--at", "0:0",
                                 "--estimator", "h", "--samples", "10"],
                                capsys)
        assert code == 2
        assert err.startswith("ncrw: horizon must be finite and >= 0, got "
                              f"{float(horizon)}")

    @pytest.mark.parametrize("argv", [
        # no path of the 320 survives to T = 8
        ["--config=0,1,2,3", "--T", "8", "--samples", "320",
         "--estimator", "h", "--at=8:0,1", "--seed", "3"],
        ["--config=0,2", "--T", "1", "--samples", "1", "--estimator", "dmr",
         "--at=1:0"],
    ])
    def test_untrusted_error_bar_has_no_z_score(self, argv):
        code, out = run_cli(["simulate", *argv])
        assert code == 0
        doc = json.loads(out)
        validate(doc, "simulate.json")
        assert doc["std_error"] == math.inf
        assert doc["z_score"] is None
        code, out = run_cli(["simulate", *argv, "--output", "csv"])
        fields = out.splitlines()[1].split(",")
        assert (code, fields[1], fields[4]) == (0, "inf", "nan")

    def test_at_beyond_horizon_usage_error(self):
        code, _ = run_cli(["simulate", "--config", "0,2", "--T", "0.4",
                           "--at", "0.5:0", "--estimator", "h",
                           "--samples", "10", "--seed", "1"])
        assert code == 2


class TestRelaxationCommand:
    def test_csv_shape(self):
        code, out = run_cli(["relaxation", "--a", "2", "--dt", "0",
                             "--dx-max", "2", "--tau", "2,4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "tau,dt,dx,lattice_value,stationary_value,gap"
        assert len(lines) == 1 + 2 * 3

    def test_json_validates(self):
        code, out = run_cli(["relaxation", "--a", "2", "--tau", "2",
                             "--dx-max", "1", "--output", "json"])
        assert code == 0
        validate(json.loads(out), "relaxation.json")

    def test_negative_dx_max_usage_error(self, capsys):
        code, err = usage_error(["relaxation", "--a", "2", "--tau", "2",
                                 "--dx-max", "-1"], capsys)
        assert code == 2 and "--dx-max" in err

    @pytest.mark.parametrize("tau", ["nan", "inf", "2,nan"])
    def test_non_finite_tau_usage_error(self, tau, capsys):
        # exit 2 at once, not exit 1 after quadrature refinement (and no
        # numpy warning on the way)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = usage_error(["relaxation", "--a", "2", "--tau", tau],
                                    capsys)
        assert code == 2
        assert err.startswith("ncrw: tau grid must be finite and >= 0")

    @pytest.mark.parametrize("dt,shown", [("nan", "nan"), ("inf", "inf"),
                                          ("-inf", "inf")])
    def test_non_finite_dt_usage_error(self, dt, shown, capsys):
        # refused before any quadrature, with the point check's text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = usage_error(["relaxation", "--a", "2", f"--dt={dt}",
                                     "--dx-max", "1", "--tau", "1"], capsys)
        assert code == 2
        assert err == ("ncrw: time coordinate must be finite and >= 0, "
                       f"got {shown}\n")


class TestGlobalBehavior:
    def test_deterministic_bytes(self):
        argv = ["simulate", "--config", "0,2", "--T", "1", "--at", "0.5:0",
                "--estimator", "h", "--samples", "500", "--seed", "3"]
        _, out1 = run_cli(argv)
        _, out2 = run_cli(argv)
        assert out1 == out2

    def test_out_file(self, tmp_path):
        target = tmp_path / "result.txt"
        code, out = run_cli(["kernel", "--spec", "stationary:0.5",
                             "--dt", "0", "--dx", "2", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert float(target.read_text()) == pytest.approx(0.0, abs=1e-16)

    def test_config_file_layering(self, tmp_path, monkeypatch):
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text("seed = 11\ntol-quad = 1e-12\n# comment\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        argv = ["simulate", "--config", "0,2", "--T", "1", "--at", "0.5:0",
                "--estimator", "h", "--samples", "200"]
        _, out = run_cli(argv)
        assert json.loads(out)["seed"] == 11
        # explicit flag wins over the file
        _, out2 = run_cli(argv + ["--seed", "4"])
        assert json.loads(out2)["seed"] == 4

    def test_bad_config_value_rejected(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text("tol-quad = 0.5\n")  # above the 1e-4 ceiling
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        code, _ = usage_error(["kernel", "--spec", "stationary:0.5",
                               "--dt", "0", "--dx", "1"], capsys)
        assert code == 2

    @pytest.mark.parametrize("key, default, in_file, flag", [
        ("tol_quad", 1e-13, ("1e-12", 1e-12), ("1e-11", 1e-11)),
        ("threads", 1, ("2", 2), ("3", 3)),
        ("seed", 0, ("11", 11), ("4", 4)),
        ("output", None, ("csv", "csv"), ("json", "json")),
        ("out", None, ("a.txt", "a.txt"), ("b.txt", "b.txt")),
    ], ids=["tol_quad", "threads", "seed", "output", "out"])
    def test_flag_beats_file_beats_default(self, key, default, in_file, flag,
                                           tmp_path, monkeypatch):
        argv = ["relaxation", "--a", "2", "--tau", "2"]
        option = "--" + key.replace("_", "-")
        monkeypatch.delenv("NCRW_CONFIG", raising=False)
        assert getattr(settings_of(argv, monkeypatch), key) == default
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text(f"# one setting\n{key} = {in_file[0]}\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        assert getattr(settings_of(argv, monkeypatch), key) == in_file[1]
        assert getattr(settings_of(argv + [option, flag[0]], monkeypatch),
                       key) == flag[1]

    def test_file_settings_reach_the_request(self, tmp_path, monkeypatch):
        cfg, target = tmp_path / "ncrw.cfg", tmp_path / "result.json"
        cfg.write_text(f"output = json\nout = {target}\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        argv = ["kernel", "--spec", "stationary:0.5", "--dt", "0", "--dx", "1"]
        assert run_cli(argv) == (0, "")
        validate(json.loads(target.read_text()), "kernel.json")
        code, out = run_cli(argv + ["--output", "csv", "--out", ""])
        assert code == 0 and out.startswith("s,x,t,y,value\n")

    def test_tolerance_from_file_reaches_the_quadrature(self, tmp_path,
                                                        monkeypatch):
        tols, sweep = [], cli.relaxation_sweep

        def spy(*args, tol):
            tols.append(tol)
            return sweep(*args, tol=tol)

        monkeypatch.setattr(cli, "relaxation_sweep", spy)
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text("tol_quad = 1e-12\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        argv = ["relaxation", "--a", "2", "--tau", "2"]
        assert run_cli(argv)[0] == 0
        assert run_cli(argv + ["--tol-quad", "1e-9"])[0] == 0
        assert tols == [1e-12, 1e-9]

    @pytest.mark.parametrize("line, option, good", [
        ("threads=0", "--threads", "2"), ("output=xml", "--output", "csv"),
        ("seed = -1", "--seed", "2")], ids=["threads", "output", "seed"])
    def test_bad_file_setting_exits_2(self, line, option, good, tmp_path,
                                      monkeypatch, capsys):
        # refused by the parse that checks flags, even where a flag of the
        # request sets the same key
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text(line + "\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        argv = ["relaxation", "--a", "2", "--tau", "2"]
        for extra in ([], [option, good]):
            code, err = usage_error(argv + extra, capsys)
            assert code == 2 and f"error: argument {option}: " in err

    def test_malformed_file_line_names_its_place(self, tmp_path, monkeypatch,
                                                 capsys):
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text("seed = 1\n\n# note\nspec = lattice:2\n")
        monkeypatch.setenv("NCRW_CONFIG", str(cfg))
        code, err = usage_error(["relaxation", "--a", "2", "--tau", "2"],
                                capsys)
        assert code == 2
        assert err == (f"ncrw: {cfg}:4: expected 'key=value' with a known "
                       "key, got 'spec = lattice:2'\n")

    def test_threads_validated(self, capsys):
        code, _ = usage_error(["relaxation", "--a", "2", "--tau", "2",
                               "--threads", "0"], capsys)
        assert code == 2

    def test_successive_calls_are_independent(self):
        # one parser serves every in-process call; repeated --point and --at
        # values must not carry over from one call to the next
        config = FiniteConfiguration((0, 2))
        first = ["kernel", "--spec", "finite:0,2",
                 "--point", "0.5,0", "--point", "1.0,1"]
        _, out1 = run_cli(first)
        _, out2 = run_cli(["kernel", "--spec", "finite:0,2",
                           "--point", "2.0,-1", "--point", "0.5,3"])
        spec = KernelSpec(config)
        assert float(out1) == spec.values([(0.5, 0)], [(1.0, 1)])[0]
        assert float(out2) == spec.values([(2.0, -1)], [(0.5, 3)])[0]
        groups = ((0.5, (0, 1)), (1.0, (2,)))
        _, out3 = run_cli(["correlation", "--spec", "finite:0,2",
                           "--at", "0.5:0,1", "--at", "1.0:2"])
        _, out4 = run_cli(["correlation", "--spec", "finite:0,2",
                           "--at", "1.0:-1"])
        assert json.loads(out3)["value"] == correlation_function(
            spec, MultiTimePointSet(groups))
        assert json.loads(out4)["points"] == [[1.0, [-1]]]
        assert json.loads(out4)["value"] == correlation_function(
            spec, MultiTimePointSet(((1.0, (-1,)),)))
        assert run_cli(first)[1] == out1

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_spec_usage_error(self):
        code, _ = run_cli(["kernel", "--spec", "circle:1",
                           "--point", "0,0", "--point", "1,0"])
        assert code == 2


def outcome(call, argv):
    """Exit code, stdout and stderr of ``call(argv)``, which exits."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = call(argv)
    except SystemExit as exc:
        code = exc.code
    return code, out.getvalue(), err.getvalue()


SIMULATE = ["simulate", "--config=0,2", "--T", "1", "--estimator", "h",
            "--at=0.5:0"]


def fields(namespace):
    """A namespace's attributes by repr, so that NaN equals NaN and -0.0
    differs from 0.0."""
    return {k: repr(v) for k, v in vars(namespace).items()}


def _load_streams():
    path = Path(__file__).resolve().parents[1] / "bench" / "streams.py"
    spec = importlib.util.spec_from_file_location("bench_streams", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


STREAMS = _load_streams()
# the request shapes of every workload (round 0 of three seeds)
STREAM_ARGVS = [list(r.argv) for w in STREAMS.WORKLOADS for seed in range(3)
                for r in STREAMS.round_requests(w, seed, 0)]
BAD_VALUES = ["ten", "bogus", "nan", "", "-1", "-1e-3", "-x", "--", "1e400",
              "paper", "dmr"]
EXTRA_TOKENS = [["--"], ["-h"], ["--help"], ["--spec="], ["--tau="],
                ["--bogus"], ["extra"], ["--point", "0,0"], ["--dt", "1"],
                ["--dx", "2"], ["--grid", "0.5,-1:1,1,0:2"],
                ["--output", "json"], ["--output", "xml"], ["--gauge", "dmr"],
                ["--seed", "-3"]]


@st.composite
def mutated_argvs(draw):
    """A benchmark request with up to three edits: a flag dropped,
    abbreviated, repeated or given a bad or flag-like value; a fused value
    split; '--', help, an empty '--opt=' or a --point/--dt/--grid added."""
    argv = list(draw(st.sampled_from(STREAM_ARGVS)))
    for _ in range(draw(st.integers(0, 3))):
        flags = [i for i, a in enumerate(argv) if a.startswith("--")]
        edit = draw(st.sampled_from(["drop", "abbrev", "repeat", "value",
                                     "unfuse", "insert"]))
        if edit == "insert" or not flags:
            at = draw(st.integers(1, len(argv)))
            argv[at:at] = draw(st.sampled_from(EXTRA_TOKENS))
            continue
        i = draw(st.sampled_from(flags))
        option, eq, value = argv[i].partition("=")
        width = 1 if eq or i + 1 == len(argv) else 2
        if edit == "drop":
            del argv[i:i + width]
        elif edit == "abbrev":
            cut = draw(st.integers(3, max(3, len(option) - 1)))
            argv[i] = option[:cut] + eq + value
        elif edit == "repeat":
            argv += argv[i:i + width]
        elif edit == "value":
            bad = draw(st.sampled_from(BAD_VALUES))
            if eq:
                argv[i] = option + "=" + bad
            elif width == 2:
                argv[i + 1] = bad
        elif eq:
            argv[i:i + 1] = [option, value]
        elif width == 2:
            argv[i + 1] = draw(st.sampled_from(["-1e-3", "-x", "-0.5"]))
    return argv


class TestParsing:
    """A request naming a subcommand is read by the one-pass plan, or by one
    full parse where the plan defers; the outcome is that of a full parse."""

    @pytest.mark.parametrize("argv, code, text", [
        (SIMULATE + ["--samples", "10", "--bogus"], 2,
         "ncrw: error: unrecognized arguments: --bogus\n"),
        (["kernel", "--spec", "lattice:2", "--point", "0,0", "extra"], 2,
         "ncrw: error: unrecognized arguments: extra\n"),
        (SIMULATE, 2, "ncrw simulate: error: the following arguments are "
                      "required: --samples\n"),
        (SIMULATE + ["--samples", "ten"], 2,
         "ncrw simulate: error: argument --samples: invalid int value: "
         "'ten'\n"),
        (["frobnicate"], 2,
         "ncrw: error: argument command: invalid choice: 'frobnicate'"),
        ([], 2, "ncrw: error: the following arguments are required: "
                "command\n"),
        (["--help"], 0, "usage: ncrw [-h] {kernel,density,correlation,"),
        (["simulate", "--help"], 0, "usage: ncrw simulate [-h] "),
        (["density", "--spec", "finite:0", "--window", "--t", "1"], 2,
         "ncrw density: error: argument --window: expected one argument\n"),
        (["density", "--spec", "finite:0", "--t", "1", "--window"], 2,
         "ncrw density: error: argument --window: expected one argument\n"),
    ], ids=["unknown-option", "leftover", "missing-flag", "bad-value",
            "unknown-command", "no-command", "help", "simulate-help",
            "flag-after-window", "window-last"])
    def test_usage_outcome_is_a_full_parse(self, argv, code, text):
        # errors go to stderr, help to stdout, never both
        got = outcome(main, argv)
        assert got == outcome(_parser()[0].parse_args, _normalize_argv(argv))
        assert got[0] == code
        assert text in got[2 if code else 1] and not got[1 if code else 2]

    @pytest.mark.parametrize("argv", [
        ["kernel", "--spec", "lattice:2", "--grid", "0.5,-1:1,1.25,0:2"],
        ["kernel", "--spec", "stationary:0.5", "--dt", "-1", "--dx", "2",
         "--output", "json"],
        ["density", "--spec", "finite:0,2,5", "--t", "1.5", "--window",
         "-2:7", "--tol-quad", "1e-12"],
        ["correlation", "--spec", "finite:0,1,3", "--at", "0.5:0,1",
         "--at", "1.0:2", "--output", "csv"],
        SIMULATE + ["--samples", "64", "--seed", "3", "--threads", "2",
                    "--at", "0.75:2"],
        ["relaxation", "--a", "5", "--dx-max", "3", "--tau", "0.5,4,16"],
        ["selftest", "--out", "report.txt"],
    ])
    def test_namespace_matches_full_parse(self, argv):
        argv = _normalize_argv(argv)
        parser, tables = _parser()
        planned = _plan(argv, tables)
        assert planned is not None
        assert fields(planned) == fields(parser.parse_args(argv))

    @settings(max_examples=400, deadline=None)
    @given(argv=mutated_argvs())
    def test_plan_is_a_full_parse(self, argv):
        # the plan builds the full parse's namespace or defers to it, and a
        # deferred request that argparse refuses ends as one full parse
        parser, tables = _parser()
        normalized = _normalize_argv(argv)
        planned = _plan(normalized, tables)
        full = outcome(parser.parse_args, normalized)
        if planned is not None:
            assert fields(planned) == fields(full[0])
        if not isinstance(full[0], argparse.Namespace):
            assert outcome(main, argv) == full

    @pytest.mark.parametrize("workload", STREAMS.WORKLOADS)
    def test_workload_requests_take_the_plan(self, workload, tmp_path,
                                             monkeypatch):
        # also with every setting in $NCRW_CONFIG, whose flags come first
        parser, tables = _parser()
        cfg = tmp_path / "ncrw.cfg"
        cfg.write_text("tol-quad = 1e-12\nthreads = 2\nseed = 9\n"
                       f"output = json\nout = {tmp_path / 'out.txt'}\n")
        for config in ("", str(cfg)):
            monkeypatch.setenv("NCRW_CONFIG", config)
            for index in range(2):
                for request in STREAMS.round_requests(workload, 5, index):
                    argv = _normalize_argv(list(request.argv))
                    argv[1:1] = _load_config_file()
                    planned = _plan(argv, tables)
                    assert planned is not None, argv
                    assert fields(planned) == fields(parser.parse_args(argv))
                    assert planned.tol_quad == (1e-12 if config else 1e-13)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--config=0,2,5", "--T", "1", "--samples", "50",
         "--estimator", "dmr", "--at=0.5:0"],
        ["density", "--spec", "finite:0,2,5", "--t", "1", "--window=-3:8"],
    ])
    def test_requests_leave_numpy_ma_unimported(self, argv):
        # np.unique imports numpy.ma on its first call (about 1 MB of RSS)
        env = {**os.environ, "PYTHONPATH": str(SCHEMA_DIR.parents[1])}
        code = ("import io, sys, contextlib\n"
                "from ncrw.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    rc = main(sys.argv[1:])\n"
                "print(rc, 'numpy.ma' in sys.modules)\n")
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.stdout == "0 False\n", done.stderr


class TestSelftestCommand:
    def test_prints_line_per_check(self, tmp_path):
        target = tmp_path / "selftest.txt"
        code, _ = run_cli(["selftest", "--out", str(target)])
        lines = target.read_text().strip().splitlines()
        flagged = [l for l in lines if l.startswith(("PASS", "FAIL"))]
        assert len(flagged) == 8
        # exit code mirrors the per-check flags
        assert (code == 0) == all(l.startswith("PASS") for l in flagged)


CELLS = {
    "f": st.floats() | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310]),
    "i": st.integers(-10 ** 20, 10 ** 20),
    "s": st.text(max_size=6),
}


@st.composite
def csv_tables(draw):
    kinds = draw(st.text(alphabet="fis", min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[k] for k in kinds)), max_size=8))
    return kinds, rows


# Exact standard output of one call per CSV table writer (and the relaxation
# JSON), recorded before the writer formatted a table with one %-template.
# The relaxation calls are at dt = 0, where the principal band is the closed
# form sine kernel.
GOLDEN = [
    (["kernel", "--spec", "lattice:2", "--grid", "0.5,-1:1,1.25,0:2"],
     "s,x,t,y,value\n"
     "0.5,-1,1.25,0,0.19338892490464032\n"
     "0.5,-1,1.25,1,0.042456919687761496\n"
     "0.5,-1,1.25,2,-0.044669253895078836\n"
     "0.5,0,1.25,0,1.0799621003412747\n"
     "0.5,0,1.25,1,0.5656452070323239\n"
     "0.5,0,1.25,2,-0.26236797905671944\n"
     "0.5,1,1.25,0,0.19338892490464032\n"
     "0.5,1,1.25,1,0.26996667159953464\n"
     "0.5,1,1.25,2,0.19338892490464032\n"),
    (["density", "--spec", "finite:0,2,5", "--t", "1.5", "--window", "-2:7"],
     "t,x,rho\n"
     "1.5,-2,0.19291153879770001\n"
     "1.5,-1,0.34790360840187956\n"
     "1.5,0,0.33111540908883919\n"
     "1.5,1,0.25499786375767797\n"
     "1.5,2,0.44618253336644653\n"
     "1.5,3,0.2750292442548547\n"
     "1.5,4,0.16286541737743737\n"
     "1.5,5,0.33512338574638484\n"
     "1.5,6,0.32610762092407514\n"
     "1.5,7,0.16734749976279142\n"),
    (["correlation", "--spec", "finite:0,1,3", "--at", "0.5:0,1",
      "--at", "1.0:2", "--output", "csv"],
     "points,value\n"
     "0.5:0|1;1.0:2,0.10231896395151563\n"),
    (["simulate", "--config", "0,10,21", "--T", "1", "--samples", "64",
      "--estimator", "dmr", "--at", "0.25:0", "--seed", "3",
      "--output", "csv"],
     "estimate,std_error,ess,analytic_value,z_score\n"
     "0.82723214285714286,0.050513287934733545,61.514377081539159,"
     "0.79007547504193398,0.73558204849420439\n"),
    (["relaxation", "--a", "5", "--dt", "0", "--dx-max", "3",
      "--tau", "0.5,4,16"],
     "tau,dt,dx,lattice_value,stationary_value,gap\n"
     "0.5,0,0,0.66645430714421838,0.20000000000000001,0.46645430714421837\n"
     "0.5,0,1,0.62236107070646962,0.1870978567577278,0.43526321394874179\n"
     "0.5,0,2,0.5003540374540838,0.1513653457281314,0.34898869172595237\n"
     "0.5,0,3,0.32842276746980753,0.10091023048542094,0.22751253698438659\n"
     "4,0,0,0.27140015534596112,0.20000000000000001,0.071400155345961114\n"
     "4,0,1,0.2511293575463584,0.1870978567577278,0.064031500788630596\n"
     "4,0,2,0.19530606949795043,0.1513653457281314,0.043940723769819029\n"
     "4,0,3,0.11747917450553511,0.10091023048542094,0.016568944020114162\n"
     "16,0,0,0.21697231355601143,0.20000000000000001,0.01697231355601142\n"
     "16,0,1,0.20132252757683261,0.1870978567577278,0.014224670819104807\n"
     "16,0,2,0.15826126446183092,0.1513653457281314,0.0068959187336995187\n"
     "16,0,3,0.098328961291103509,0.10091023048542094,0.0025812691943174343"
     "\n"),
    (["relaxation", "--a", "4", "--dt", "0", "--dx-max", "1",
      "--tau", "2,32", "--output", "json"],
     json.dumps({"a": 4, "entries": [
         {"tau": 2.0, "dt": 0.0, "dx": 0,
          "lattice_value": 0.3805462871549059,
          "stationary_value": 0.25, "gap": 0.1305462871549059},
         {"tau": 2.0, "dt": 0.0, "dx": 1,
          "lattice_value": 0.33750790908950745,
          "stationary_value": 0.22507907903927651,
          "gap": 0.11242883005023094},
         {"tau": 32.0, "dt": 0.0, "dx": 0,
          "lattice_value": 0.2570371709357262,
          "stationary_value": 0.25, "gap": 0.0070371709357262},
         {"tau": 32.0, "dt": 0.0, "dx": 1,
          "lattice_value": 0.23016273509398552,
          "stationary_value": 0.22507907903927651,
          "gap": 0.005083656054709007}]}, indent=2) + "\n"),
]


# Exact standard output of simulate requests, recorded before the exit scan
# skipped samples that cannot exit and the Taylor rows were laid out
# power-major: N = 2, 3 and 5 for each estimator at 320 samples, and 4096
# samples (two blocks).  Any change to the sample stream or to the rounding
# shows here.
SIMULATE_GOLDEN = [
    (["--config=0,2", "--T", "1", "--samples", "320",
      "--estimator", "h", "--at", "0.5:0", "--seed", "11"],
     "0.67031249999999998,0.037879217482216378,"
     "229.13027989821882,0.64503527044914999,"
     "0.66731129181106241\n"),
    (["--config=0,2", "--T", "1", "--samples", "320",
      "--estimator", "dmr", "--at", "0.5:0", "--seed", "11"],
     "0.6796875,0.037808030708178446,"
     "243.29692154915591,0.64503527044914999,"
     "0.91653093011676523\n"),
    (["--config=-1,1,4", "--T", "1.5", "--samples", "320",
      "--estimator", "h", "--at", "0.75:1,4", "--seed", "12"],
     "0.29375000000000001,0.039658057939857924,"
     "107.39161366226699,0.31340207274316961,"
     "-0.49553795026907982\n"),
    (["--config=-1,1,4", "--T", "1.5", "--samples", "320",
      "--estimator", "dmr", "--at", "0.75:1,4", "--seed", "12"],
     "0.28354166666666664,0.041087668287789363,"
     "133.68529661360273,0.31340207274316961,"
     "-0.72674861633306753\n"),
    (["--config=-3,0,1,4,6", "--T", "0.75", "--samples", "320",
      "--estimator", "h", "--at", "0.25:0,1", "--at", "0.5:4",
      "--seed", "13"],
     "0.39684027777777775,0.066527699100695614,"
     "61.477469371268491,0.47488451459102426,"
     "-1.1731089135537303\n"),
    (["--config=-3,0,1,4,6", "--T", "0.75", "--samples", "320",
      "--estimator", "dmr", "--at", "0.25:0,1", "--at", "0.5:4",
      "--seed", "13"],
     "0.39400628306878305,0.068388770303376922,"
     "83.529451259006564,0.47488451459102426,"
     "-1.182624444970428\n"),
    (["--config=-1,1,4", "--T", "1", "--samples", "4096",
      "--estimator", "h", "--at", "0.5:1,4", "--seed", "5"],
     "0.42281901041666664,0.011516335742747966,"
     "2005.462328529286,0.43624857643988613,"
     "-1.1661318602730311\n"),
]

DMR_GOLDEN = [(a, w) for a, w in SIMULATE_GOLDEN if "dmr" in a]


JSON_LEAVES = (st.none() | st.booleans()
               | st.integers(-10 ** 30, 10 ** 30) | CELLS["f"] | st.text())
JSON_DOCS = st.recursive(
    JSON_LEAVES, lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4), max_leaves=24)


def written(emit, *args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        emit(*args, None)
    return buf.getvalue()


class TestOutputBytes:
    @settings(max_examples=300, deadline=None)
    @given(table=csv_tables(), data=st.data())
    def test_csv_template_matches_per_value_writer(self, table, data):
        # ints are declared like strings: only floats get '%.17g'; a float
        # column that holds one value may be passed once formatted by _fmt
        kinds, rows = table
        const = {j: data.draw(CELLS["f"]) for j, k in enumerate(kinds)
                 if k == "f" and data.draw(st.booleans())}
        rows = [[const.get(j, v) for j, v in enumerate(row)] for row in rows]
        header = [f"c{i}" for i in range(len(kinds))]
        want = csv_per_value(header, rows)
        assert written(_emit_csv, header, kinds.replace("i", "s"),
                       rows) == want
        text = {j: _fmt(v) for j, v in const.items()}
        assert written(_emit_csv, header, "".join(
            "s" if j in const or k == "i" else k for j, k in enumerate(kinds)),
            [[text.get(j, v) for j, v in enumerate(row)]
             for row in rows]) == want

    @settings(max_examples=300, deadline=None)
    @given(doc=JSON_DOCS)
    def test_json_writer_matches_json_dumps(self, doc):
        assert written(_emit_json, doc) == json.dumps(
            doc, indent=2, allow_nan=True) + "\n"

    @pytest.mark.parametrize("argv,want", GOLDEN,
                             ids=[" ".join(a[:1] + a[-2:]) for a, _ in GOLDEN])
    def test_golden_output(self, argv, want):
        assert run_cli(argv) == (0, want)

    @pytest.mark.parametrize("argv,want", SIMULATE_GOLDEN,
                             ids=[f"{a[0]} {a[6]} n={a[4]}"
                                  for a, _ in SIMULATE_GOLDEN])
    def test_simulate_golden_output(self, argv, want):
        assert run_cli(["simulate", *argv, "--output", "csv"]) == (
            0, "estimate,std_error,ess,analytic_value,z_score\n" + want)

    @pytest.mark.parametrize("argv,want", DMR_GOLDEN,
                             ids=[f"{a[0]} n={a[4]}" for a, _ in DMR_GOLDEN])
    def test_simulate_golden_dmr_is_exact(self, argv, want):
        # the ESS of each dmr line is its exact rational value over the
        # same samples, correctly rounded; the estimate is within one ulp
        # of it (the weights are rounded products of pairwise ratios)
        flat = [part for arg in argv for part in arg.split("=", 1)]
        opts = {}
        for key, value in zip(flat[::2], flat[1::2]):
            opts.setdefault(key, []).append(value)
        config = FiniteConfiguration(
            tuple(int(x) for x in opts["--config"][0].split(",")))
        T = float(opts["--T"][0])
        groups = tuple((float(t), tuple(int(x) for x in xs.split(",")))
                       for t, xs in (at.split(":") for at in opts["--at"]))
        blocks = WalkBlock.sweep(config, T, int(opts["--samples"][0]),
                                 int(opts["--seed"][0]))
        mean, ess = estimate_exact(
            blocks, OccupationProduct(MultiTimePointSet(groups)))
        estimate, _, got_ess = (float(v) for v in want.split(",")[:3])
        assert got_ess == float(ess)
        assert abs(Fraction(estimate) - mean) <= math.ulp(estimate)
