#!/usr/bin/env python3
"""Benchmark of ncrw: one closed-loop client driving the ``ncrw`` CLI.

    python3 bench/run.py --workload analytic|mc|relax --seed N --seconds S --trace 0|1

Run from the root of a checkout; ``ncrw`` is imported from ``src/`` there.
The stream of CLI argv lists comes from ``streams.py`` and the seed; each
request goes through ``ncrw.cli.main`` in this process, its text is spooled
to a temporary file, and after the timed phase every output is checked
against ``checks.py``.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``units_per_s``,
``latency_p50_ms``, ``latency_p95_ms``, ``peak_rss_mb``), with every time
scaled to a reference host speed (see ``CAL_REF_S``).  ``--trace 1``
prints the per-layer metrics of ``layers.py`` instead, from a fixed number
of rounds that alternate traced and untraced, so that its counts repeat
exactly for a seed and its overhead is measured on the same stream.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run, the host
facts and every failure are also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

import streams
from layers import PER_LAYER, Tracer

# One BLAS thread (numpy is not imported yet) and a fixed hash seed.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 9           # fresh interpreters timed per run, after one unmeasured
SETUP_TIMEOUT_S = 60
# Round pairs (one traced, one untraced) of a --trace 1 run: fixed work, so
# that counts repeat exactly for a seed; 13-25 s each on a 2-CPU VM.
TRACE_PAIRS = {"analytic": 4, "mc": 8, "relax": 40}

END_TO_END = {"setup_s": "s", "units_per_s": "1/s", "latency_p50_ms": "ms",
              "latency_p95_ms": "ms", "peak_rss_mb": "MB"}

# Host-speed reference.  On a shared 2-CPU VM the CPU speed switches between
# phases about 1.5x apart that last 10-20 s, so raw wall times of 30 s runs
# spread by 20-30% from run to run.  A fixed pure-Python loop is timed
# between requests (at most every CAL_EVERY_S) and around each set-up
# probe, and each measured time is scaled by CAL_REF_S over the loop's time
# around it: times are reported in seconds of a host on which the loop takes
# CAL_REF_S.  The loop runs only while no request is in flight.
CAL_REF_S = 1.5e-3
CAL_EVERY_S = 0.25
CAL_REPEATS = 3


def _reference_loop() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def reference_time() -> float:
    """Fastest of CAL_REPEATS wall timings of the reference loop, seconds."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def load_cli():
    """Import ``ncrw.cli`` from this checkout's ``src/``, nowhere else."""
    init = os.path.join(SRC, "ncrw", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"bench: no ncrw sources at {init}")
    sys.path.insert(0, SRC)
    import ncrw.cli
    if os.path.dirname(os.path.abspath(ncrw.__file__)) != os.path.dirname(init):
        raise SystemExit(f"bench: imported ncrw from {ncrw.__file__}, not {SRC}")
    return ncrw.cli


def call(cli, argv) -> tuple[int, str, float]:
    """Run one request through ``ncrw.cli.main``; exit code, text, seconds.

    The text is stdout, or stderr (an error message) when the code is not 0."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:      # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:              # a crash is one failed request, not the run's end
        rc = 1
        err.write(traceback.format_exc())
    seconds = time.perf_counter() - t0
    text = out.getvalue() if rc == 0 else err.getvalue() or out.getvalue()
    return rc, text, seconds


def warm_up(cli, workload: str) -> None:
    """Touch every request type once."""
    for req in streams.warmup_requests(workload):
        rc, text, _ = call(cli, req.argv)
        if rc != 0:
            raise SystemExit(f"bench: warm-up request failed ({rc}): "
                             f"{' '.join(req.argv)}\n{text}")


def measure_setup(workload: str) -> tuple[float, float]:
    """Median time of a fresh interpreter doing import + warm-up: scaled to
    the reference speed, and as wall time."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload]
    scaled, wall = [], []
    for i in range(SETUP_REPEATS + 1):
        before = reference_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        # A blocking wait: Popen.wait(timeout) polls, in steps of up to 50 ms.
        watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            rc = proc.wait()
        finally:
            watchdog.cancel()
            watchdog.join()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        seconds = time.perf_counter() - t0
        if rc != 0:
            raise SystemExit(f"bench: set-up probe exited with {rc}")
        after = reference_time()
        if i:      # the first run may compile the bytecode caches
            wall.append(seconds)
            scaled.append(seconds * 2.0 * CAL_REF_S / (before + after))
    return statistics.median(scaled), statistics.median(wall)


class Log:
    """Requests run so far: (round, exit code, seconds, units, reading) in
    memory and the output texts in a temporary file, so that the benchmark's
    own memory does not grow with the number of requests and skew
    ``peak_rss_mb``.  ``reading`` indexes the last reference-loop timing
    taken before the request."""

    def __init__(self):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.entries: list[tuple[int, int, float, int, int]] = []
        self.readings: list[float] = []     # reference-loop seconds
        self._last_reading = -float("inf")
        self._spool = tempfile.TemporaryFile("w+", dir=OUT_DIR, encoding="utf-8")

    def calibrate(self, force: bool = False) -> None:
        """Time the reference loop if CAL_EVERY_S has passed (or ``force``)."""
        if force or time.perf_counter() - self._last_reading >= CAL_EVERY_S:
            self.readings.append(reference_time())
            self._last_reading = time.perf_counter()

    def add(self, index: int, req, rc: int, text: str, seconds: float) -> None:
        self.entries.append((index, rc, seconds, req.units, len(self.readings) - 1))
        self._spool.write(json.dumps(text) + "\n")

    def scaled_seconds(self) -> list[float]:
        """Each request's seconds at the reference speed, by the mean of the
        readings just before and just after it."""
        r = self.readings
        return [seconds * 2.0 * CAL_REF_S / (r[k] + r[min(k + 1, len(r) - 1)])
                for _, _, seconds, _, k in self.entries]

    def replay(self, workload: str, seed: int):
        """(request, exit code, text) in run order; requests are regenerated."""
        self._spool.seek(0)
        current, reqs = None, iter(())
        for index, rc, *_ in self.entries:
            if index != current:
                current, reqs = index, iter(streams.round_requests(workload, seed, index))
            yield next(reqs), rc, json.loads(self._spool.readline())

    def close(self) -> None:
        self._spool.close()


def run_round(cli, workload, seed, index, log, tracer=None):
    """Drive one whole round; a tracer, if given, is active only meanwhile."""
    if tracer is not None:
        tracer.install()
    try:
        for req in streams.round_requests(workload, seed, index):
            log.calibrate()
            if tracer is not None:
                tracer.request = len(log.entries)
            log.add(index, req, *call(cli, req.argv))
    finally:
        if tracer is not None:
            tracer.uninstall()


def timed_phase(cli, workload, seed, seconds, log):
    """Whole rounds until ``seconds`` of wall time have passed."""
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        run_round(cli, workload, seed, index, log)
        index += 1
    log.calibrate(force=True)


def check_all(log, workload, seed) -> tuple[int, list, list]:
    """Count failed operations; split them into known faults and others."""
    import checks    # pulls in scipy, so only after the timed phase
    failed, known, unexpected = 0, [], []
    for req, rc, text in log.replay(workload, seed):
        reason = f"exit code {rc}: {text.strip()[-200:]}" if rc != 0 \
            else checks.check(req, text)
        if reason is None:
            continue
        failed += 1
        entry = {"argv": " ".join(req.argv), "reason": reason}
        if req.known_fault:
            known.append(dict(entry, known_fault=req.known_fault))
        else:
            unexpected.append(entry)
    return failed, known, unexpected


def rerun_fixed_mc(cli) -> list:
    """The fixed simulate request on one thread and on two: same bytes.

    Its sample count spans two of ``estimate_many``'s thread chunks, so the
    two-thread run really splits the samples between workers."""
    req = streams.FIXED_MC
    (rc1, one, _), (rc2, two, _) = (call(cli, req.argv + ("--threads", n))
                                    for n in ("1", "2"))
    if rc1 != 0 or rc2 != 0 or one != two:
        return [{"argv": " ".join(req.argv),
                 "reason": "one thread and two threads are not bit-identical"}]
    return []


def host_facts() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "pinned_env": {k: os.environ.get(k) for k in PINNED_ENV},
            "note": "no CPU pinning or frequency-governor control is applied"}


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timings(entries, latencies) -> dict:
    units = sum(u for _, rc, _, u, _ in entries if rc == 0)
    return {"units_per_s": units / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 50),
            "latency_p95_ms": 1e3 * percentile(latencies, 95)}


def end_to_end(log, setup_s: float) -> dict:
    """Metrics at the reference speed (see CAL_REF_S)."""
    return dict(timings(log.entries, log.scaled_seconds()), setup_s=setup_s,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)


def traced_run(cli, workload, seed, log):
    """Alternate traced and untraced rounds; per-layer metrics and overhead."""
    tracer = Tracer()
    rounds = []                                  # (traced, first, end entry)
    for pair in range(TRACE_PAIRS[workload]):
        for traced in (True, False):
            first = len(log.entries)
            run_round(cli, workload, seed, 2 * pair + traced, log,
                      tracer if traced else None)
            rounds.append((traced, first, len(log.entries)))
    log.calibrate(force=True)
    scaled = log.scaled_seconds()
    spent = {True: [0.0, 0], False: [0.0, 0]}   # scaled seconds, units
    for traced, lo, hi in rounds:
        for (_, rc, _, units, _), seconds in zip(log.entries[lo:hi], scaled[lo:hi]):
            spent[traced][0] += seconds
            spent[traced][1] += units if rc == 0 else 0
    metrics = tracer.metrics()
    rate = {k: units / secs for k, (secs, units) in spent.items()}
    metrics["trace.overhead_pct"] = 100.0 * (rate[False] / rate[True] - 1.0)
    return metrics, tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=streams.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="import and warm up only (used to time set-up)")
    args = ap.parse_args(argv)

    if args.setup_probe:
        warm_up(load_cli(), args.workload)
        return 0

    marks = [("start", time.perf_counter())]
    cli = load_cli()
    setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(args.workload)
    marks.append(("setup", time.perf_counter()))
    warm_up(cli, args.workload)
    marks.append(("warm_up", time.perf_counter()))
    log = Log()
    if args.trace:
        metrics, tracer = traced_run(cli, args.workload, args.seed, log)
        units = PER_LAYER
    else:
        timed_phase(cli, args.workload, args.seed, args.seconds, log)
        metrics = end_to_end(log, setup_s)     # rss before scipy is loaded
        units = END_TO_END
        tracer = None

    marks.append(("requests", time.perf_counter()))
    failed, known, unexpected = check_all(log, args.workload, args.seed)
    log.close()
    if args.workload == "mc":
        unexpected += rerun_fixed_mc(cli)
    marks.append(("checks", time.perf_counter()))
    report = {
        "correct": not unexpected,
        "attempted": len(log.entries),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        phases = {b[0]: b[1] - a[1] for a, b in zip(marks, marks[1:])}
        wall = None if args.trace else dict(
            timings(log.entries, [e[2] for e in log.entries]), setup_s=setup_wall_s)
        json.dump(dict(report, host=host_facts(), seconds=args.seconds,
                       phase_s=phases, wall_metrics=wall,
                       reference_loop_ms=[1e3 * r for r in log.readings],
                       known_faults=known, unexpected_failures=unexpected),
                  fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.json")
    for entry in unexpected[:20]:
        print(f"FAILED {entry['argv']}: {entry['reason']}", file=sys.stderr)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        # the hash seed only takes effect at interpreter start
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, **PINNED_ENV})
    sys.exit(main())
