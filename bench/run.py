"""Benchmark of free-stein: four closed-loop workloads, one client each.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {gram,sweep,exact-fd,quadrature} \\
        --seed N --seconds S --trace {0,1}

A round is one pass over the workload's report list, in an order permuted by
the seed; every report is computed and checked against its oracle.  The run
repeats whole rounds until ``--seconds`` have passed (at least one round).
With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics, timed in reference seconds (:mod:`hostspeed`); with
``--trace 1`` the first half of the time runs untraced, the rest traced, and
the JSON holds the per-layer metrics in wall time.  The
spans of a traced run are written to ``.bench_run/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the host's cores are shared, and a fixed thread count
# keeps repeated runs comparable.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hostspeed   # noqa: E402
import oracles     # noqa: E402
import workloads   # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5

END_TO_END_UNITS = {"setup_s": "s", "round_s": "s", "reports_per_s": "1/s",
                    "peak_rss_mb": "MB"}
SELF_TIME_LAYERS = ["ncalg", "trace", "stein.entry", "stein.gram",
                    "stein.design", "stein.relations", "fdalg", "linalg",
                    "quadrature", "closedform", "cli", "serialize", "bench"]
COUNTERS = {  # metric -> (source, key)
    "ncalg.calls": ("spans", "ncalg"),
    "trace.inner_calls": ("spans", "trace.inner"),
    "trace.words_traced": ("counts", "trace.words_traced"),
    "stein.gram_m": ("counts", "stein.gram_m"),
    "stein.kept_rank": ("counts", "stein.kept_rank"),
    "stein.design_columns": ("counts", "stein.design_columns"),
    "fdalg.translate_rows": ("counts", "fdalg.translate_rows"),
    "linalg.calls": ("spans", "linalg"),
    "linalg.input_bytes": ("counts", "linalg.input_bytes"),
    "quadrature.leggauss_calls": ("counts", "quadrature.leggauss_calls"),
    "quadrature.integrand_points": ("counts", "quadrature.integrand_points"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FACTORIES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, and print the set-up time")
    return ap.parse_args(argv)


# -- environment ---------------------------------------------------------------------


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": len(os.sched_getaffinity(0))}


# -- rounds ----------------------------------------------------------------------------


class Runner:
    """Runs whole rounds of one workload and keeps the tallies."""

    def __init__(self, workload, seed: int, speed=None):
        self.workload = workload
        self.rng = random.Random(seed)
        self.speed = speed      # HostSpeed: time in reference seconds
        self.attempted = 0
        self.failed = 0
        self.incorrect = []
        self.failures = {}
        self.wall = []          # wall time of each round

    def _report(self, rep, results):
        self.attempted += 1
        try:
            data = rep.run()
        except workloads.ReportFailed as exc:
            self.failed += 1
            self.failures[rep.label] = str(exc)
            return
        except Exception as exc:  # any other program fault fails the report
            self.failed += 1
            self.failures[rep.label] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
            return
        try:
            rep.check(data)
        except oracles.CheckFailed as exc:
            self.incorrect.append(f"{rep.label}: {exc}")
            return
        results[rep.label] = data

    def _timed(self, label, fn, args, tracer):
        """Run ``fn`` as one root span of the round; return its wall time and
        its time in reference seconds (the wall time again without a
        HostSpeed)."""
        t = time.perf_counter()
        if tracer is None:
            fn(*args)
        else:
            tracer.report = label
            tracer.call(label, "bench", fn, args, {})
            tracer.end_report()
        end = time.perf_counter()
        if self.speed is None:
            return end - t, end - t
        return end - t, self.speed.seconds(t, end)

    def _round_check(self, results):
        try:
            self.workload.round_check(results)
        except oracles.CheckFailed as exc:
            self.incorrect.append(f"round: {exc}")

    def round(self, tracer=None) -> float:
        """One pass over the reports; returns the time spent computing and
        checking them.  The previous report's model is collected before each
        report starts, outside the timing, so that no report pays for another
        one's garbage and the peak memory does not depend on the order."""
        order = self.rng.sample(self.workload.reports, len(self.workload.reports))
        results = {}
        timed = []
        for rep in order:
            gc.collect()
            timed.append(self._timed(rep.label, self._report, (rep, results),
                                     tracer))
        if self.workload.round_check is not None and len(results) == len(order):
            timed.append(self._timed("round check", self._round_check,
                                     (results,), tracer))
        self.wall.append(sum(wall for wall, _ in timed))
        return sum(counted for _, counted in timed)

    def rounds(self, seconds: float, tracer=None) -> list:
        """Whole rounds until ``seconds`` of wall time have passed (at least
        one); the time of each round."""
        times = []
        start = time.perf_counter()
        while not times or time.perf_counter() - start < seconds:
            times.append(self.round(tracer))
        return times


# -- metrics ---------------------------------------------------------------------------


def setup_probe_time(args) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True, cwd=ROOT)
    return float(done.stdout.split()[-1])


def end_to_end(setup_times, round_times, succeeded) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "round_s": statistics.median(round_times),
        "reports_per_s": succeeded / sum(round_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, traced_times, untraced_times) -> dict:
    rounds = len(traced_times)
    selfs = tracer.self_times()
    spans = tracer.span_counts()
    out = {f"{layer}.self_s": selfs.get(layer, 0.0) / rounds
           for layer in SELF_TIME_LAYERS}
    for name, (source, key) in COUNTERS.items():
        out[name] = (spans if source == "spans" else tracer.counts)[key] / rounds
    traced = sum(end - start for _, layer, parent, _, start, end
                 in tracer.spans if parent < 0) / 1e9 / rounds
    out["probe.traced_round_s"] = traced
    out["probe.overhead_s"] = traced - statistics.fmean(untraced_times)
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("_bytes") else "count"


# -- main ------------------------------------------------------------------------------


def timed_setup(name: str, workdir: Path):
    """Set up a workload; the set-up time is in reference seconds."""
    speed = hostspeed.HostSpeed()
    with speed:
        t0 = time.perf_counter()
        workload = workloads.setup(name, workdir)
        t1 = time.perf_counter()
    return workload, speed.seconds(t0, t1)


def run(args, workdir: Path) -> int:
    workload, setup_time = timed_setup(args.workload, workdir)
    import free_stein

    if not Path(free_stein.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"free_stein imported from {free_stein.__file__}, "
                           f"not from {ROOT / 'src'}")
    env = environment()
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise RuntimeError(f"{env['blas_threads']} BLAS threads exceed "
                           f"nproc {env['nproc']}")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    if args.trace == 0:
        setup_times = [setup_time] + [setup_probe_time(args)
                                      for _ in range(SETUP_SAMPLES - 1)]
        speed = hostspeed.HostSpeed()
        runner = Runner(workload, args.seed, speed)
        with speed:
            times = runner.rounds(args.seconds)
        metrics = end_to_end(setup_times, times, runner.attempted - runner.failed)
        print(f"round wall time: median {statistics.median(runner.wall):.3f} s; "
              f"reference loop: median {speed.median_pace() * 1e6:.0f} us, "
              f"{hostspeed.REFERENCE_S * 1e6:.0f} us at reference speed")
    else:
        import probe

        runner = Runner(workload, args.seed)
        untraced = runner.rounds(args.seconds / 2)
        tracer = probe.Tracer()
        tracer.install()
        try:
            traced = runner.rounds(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if tracer.missing:
            print("probe: not found, not traced: " + ", ".join(tracer.missing),
                  file=sys.stderr)
        tracer.write(RUN_DIR / f"spans-{args.workload}.jsonl")
        metrics = per_layer(tracer, traced, untraced)
        times = untraced + traced

    print(f"workload {args.workload}: seed {args.seed}, {len(times)} rounds, "
          f"attempted {runner.attempted}, failed {runner.failed}")
    for label, why in sorted(runner.failures.items()):
        print(f"  failed: {label}: {why}")
    for what in runner.incorrect:
        print(f"  INCORRECT: {what}")
    print(json.dumps({
        "correct": not runner.incorrect,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS.get(k) or unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src" / "free_stein" / "__init__.py"
    if not src.is_file():
        print(f"error: the program source {src} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            print(timed_setup(args.workload, workdir)[1])
            return 0
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
