#!/usr/bin/env python3
"""liqshock benchmark: one closed-loop caller, one workload per run.

    python3 perfbench/run.py --workload richardson_ladder --seed 1 \
        --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout and nowhere else.  One caller in one process
starts each operation after the previous one ends, cycling through the
inputs the seed makes until the next whole cycle would pass
``--seconds``.  Every operation's output is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles of the same inputs, and prints the per-layer
metrics and the tracing overhead.  Each metric is printed as a line
``name value unit``, then one JSON line with the run's report
(environment, calibration, CPU time, failures by class, the raw wall
times), and last the result object.  The report and the spans are also
written under ``perfbench/out/``.

The speed of a shared machine drifts by a factor of two and more between
processes, so every timed end-to-end metric is normalised to a reference
machine: a fixed calibration kernel (a Thomas forward sweep over numpy
scalars, the library's hot loop, plus the small array reductions of its
checks) is timed between operations, at least every ``CAL_EVERY_S``,
and each operation's wall time is scaled by ``CAL_REF_MS`` over the mean
of the readings just before and just after it (each the median of a
short burst, so an interrupted reading does not count).  The readings
come from the one CPU the run is pinned to (``pin_cpu``).  Set-up time
is scaled by readings taken in the same process right after it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 4      # fresh processes timing set-up, besides this one
                      # and the memory pass
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_BEYOND = 10
FAIL_CLASSES = ("liqshock_error", "raw_exception", "check_mismatch")

CAL_ROWS = 250
CAL_REPS = 6
CAL_REF_MS = 2.5      # the kernel's time on the reference machine
CAL_EVERY_S = 0.25
CAL_BURST = 3
SETUP_CAL_READINGS = 9
PIN_ROUNDS = 5


def pin_threads():
    """One caller and no helper threads: every BLAS/OpenMP pool gets one
    thread (at most nproc), set before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> dict:
    """Run on one CPU, the one whose calibration readings are fastest.

    The CPUs of a shared host are contended unequally; a process the
    scheduler moves between them mid-operation has a speed the short
    calibration readings cannot follow.  Child processes inherit the
    choice.  Returns the readings, for the report."""
    cpus = sorted(os.sched_getaffinity(0))
    readings = {cpu: [] for cpu in cpus}
    if len(cpus) > 1:
        for _ in range(PIN_ROUNDS):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                calibration_ms()
                readings[cpu].append(calibration_ms())
        best = min(cpus, key=lambda c: statistics.median(readings[c]))
        os.sched_setaffinity(0, {best})
    return {"cpu": sorted(os.sched_getaffinity(0)),
            "readings_ms": {c: statistics.median(r)
                            for c, r in readings.items() if r}}


def load_workloads():
    """Import the library from this checkout's ``src/``, then the workloads."""
    src = ROOT / "src"
    if not (src / "liqshock" / "__init__.py").is_file():
        raise SystemExit(f"error: no liqshock sources under {src}")
    sys.path.insert(0, str(src))
    import liqshock
    if Path(liqshock.__file__).resolve().parent != src / "liqshock":
        raise SystemExit(f"error: imported liqshock from {liqshock.__file__}")
    import workloads
    return workloads


def calibration_ms() -> float:
    """One timing, in ms, of the fixed calibration kernel.  It does not
    touch the library, so a change to the library never moves it."""
    import numpy as np
    lo = np.linspace(0.5, 1.0, CAL_ROWS)
    up = lo[::-1].copy()
    di = lo + up + 1.0
    f = np.ones(CAL_ROWS)
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        d = di - lo - up
        bool(np.all(lo > 0) and np.all(up > 0) and np.all(d >= 0))
        float(np.max(np.abs(f) / d))
        cp = np.empty(CAL_ROWS)
        dp = np.empty(CAL_ROWS)
        cp[0] = -up[0] / di[0]
        dp[0] = f[0] / di[0]
        for i in range(1, CAL_ROWS):
            den = di[i] + lo[i] * cp[i - 1]
            cp[i] = -up[i] / den
            dp[i] = (f[i] + lo[i] * dp[i - 1]) / den
    return (time.perf_counter() - t0) * 1e3


def setup_calibration_ms() -> float:
    """Median of several kernel readings after a discarded warm-up."""
    calibration_ms()
    return statistics.median(calibration_ms()
                             for _ in range(SETUP_CAL_READINGS))


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Measurement:
    """Outcome of running whole cycles of a workload's inputs."""

    def __init__(self):
        self.latencies = []
        self.norm_latencies = []  # scaled to the reference machine
        self.cal_ms = []          # one median per burst of readings
        self._pending = 0         # latencies not yet scaled
        self._cal_t = None
        self.counts = Counter()
        self.exception_types = Counter()
        self.examples = {}
        self.observed = {}
        self.cycles = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        """Operations that raised, other than a documented breakdown, or
        whose output failed its check."""
        return sum(self.counts[c] for c in FAIL_CLASSES) - self.counts["breakdown"]

    def record_failure(self, kind, detail):
        self.counts[kind] += 1
        self.examples.setdefault(kind, detail)

    def calibrate(self):
        """Take a burst of kernel readings and scale the latencies since
        the previous burst by the mean of the two."""
        cal = statistics.median(calibration_ms() for _ in range(CAL_BURST))
        if self._pending:
            factor = CAL_REF_MS / ((self.cal_ms[-1] + cal) / 2.0)
            self.norm_latencies.extend(
                lat * factor for lat in self.latencies[-self._pending:])
            self._pending = 0
        self.cal_ms.append(cal)
        self._cal_t = time.perf_counter()

    def timed(self, latency):
        self.latencies.append(latency)
        self._pending += 1
        if time.perf_counter() - self._cal_t >= CAL_EVERY_S:
            self.calibrate()


def run_cycle(m, workload, items, reference, run):
    """Run every item once, adding latencies, outcomes and time to ``m``."""
    from workloads import failure_class
    cpu0 = time.process_time()
    t_start = time.perf_counter()
    if m._cal_t is None:
        m.calibrate()
    for item in items:
        t0 = time.perf_counter()
        try:
            out = run(item)
        except Exception as err:  # every exception is counted, by class
            m.timed(time.perf_counter() - t0)
            m.exception_types[type(err).__name__] += 1
            m.record_failure(failure_class(err), f"{type(err).__name__}: {err}")
            if workload.breakdown(item, err, reference):
                m.counts["breakdown"] += 1
            continue
        m.timed(time.perf_counter() - t0)
        problems, observed = workload.check(item, out, reference)
        m.observed.update(observed)
        if problems:
            m.record_failure("check_mismatch", "; ".join(problems))
        else:
            m.counts["ok"] += 1
    m.cycles += 1
    m.wall_s += time.perf_counter() - t_start
    m.cpu_s += time.process_time() - cpu0


def cycles_until(seconds, step):
    """Call ``step`` until the next call would end after ``seconds`` (at
    least once), judging by the mean time per call so far."""
    t_start = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        if (time.perf_counter() - t_start) * (n + 1) / n > seconds:
            return


def measure(workload, items, reference, seconds):
    m = Measurement()
    cycles_until(seconds, lambda: run_cycle(m, workload, items, reference,
                                            workload.run))
    m.calibrate()
    return m


def latency_summary(latencies):
    """Median and the highest listed percentile with at least ten samples
    beyond it (the median when there are fewer than twenty samples)."""
    n = len(latencies)
    tail_p = next((p for p in TAIL_PERCENTILES
                   if n * (1.0 - p / 100.0) >= TAIL_BEYOND), 50.0)
    ordered = sorted(latencies)

    def pct(p):  # linear interpolation between closest ranks
        x = (n - 1) * p / 100.0
        lo = int(x)
        hi = min(lo + 1, n - 1)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (x - lo)

    return {"p50_ms": pct(50.0) * 1e3, "tail_ms": pct(tail_p) * 1e3,
            "tail_percentile": tail_p, "samples": n,
            "tail_samples_beyond": int(n * (1.0 - tail_p / 100.0))}


def run_probe(args, kind) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe", kind,
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def probe(args, setup_s, workload, items) -> dict:
    """Child-process body: report set-up time and, for the memory pass,
    the peak resident set after one operation of each scheme."""
    out = {"setup_s": setup_s, "cal_ms": setup_calibration_ms()}
    if args.probe == "memory":
        out["rss_before_mib"] = _peak_rss_mib()
        first_per_scheme = {item[0]: item for item in reversed(items)}
        for item in first_per_scheme.values():
            try:
                workload.run(item)
            except Exception:  # failures are counted by the timed pass
                pass
        out["peak_mib"] = _peak_rss_mib()
    return out


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_run(args, workload, items, reference, setup_main):
    main = {"setup_s": setup_main, "cal_ms": setup_calibration_ms()}
    probes = [run_probe(args, "setup") for _ in range(SETUP_PROBES)]
    memory = run_probe(args, "memory")
    setups = [main] + probes + [memory]
    m = measure(workload, items, reference, args.seconds)
    lat = latency_summary(m.norm_latencies)
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] * CAL_REF_MS / p["cal_ms"]
                                      for p in setups), "s"),
        "ops_per_s": (m.attempted / sum(m.norm_latencies), "1/ref_s"),
        "latency_p50_ms": (lat["p50_ms"], "ref_ms"),
        "latency_tail_ms": (lat["tail_ms"], "ref_ms"),
        "ok_share": (m.counts["ok"] / m.attempted, "ratio"),
        "peak_mib": (memory["peak_mib"], "MiB"),
    }
    report = {"latency": lat, "setup_samples": setups, "memory": memory,
              "raw": {"setup_s": statistics.median(p["setup_s"] for p in setups),
                      "ops_per_s": m.attempted / m.wall_s,
                      "latency": latency_summary(m.latencies)},
              "calibration_ms": {"mean": statistics.fmean(m.cal_ms),
                                 "median": statistics.median(m.cal_ms),
                                 "min": min(m.cal_ms), "max": max(m.cal_ms),
                                 "readings": len(m.cal_ms),
                                 "reference": CAL_REF_MS}}
    return m, metrics, report, m.failed == 0


def traced_run(args, workload, items, reference):
    """Alternate untraced and traced cycles of the same inputs, so that a
    drift in machine speed falls on both halves of the overhead alike."""
    import spans
    plain, m = Measurement(), Measurement()
    tracer = spans.Tracer()
    op_ids = itertools.count()

    def traced(item):
        return tracer.run_op(next(op_ids), workload.run, item)

    def untraced_cycle():
        run_cycle(plain, workload, items, reference, workload.run)

    def traced_cycle():
        tracer.install()
        try:
            run_cycle(m, workload, items, reference, traced)
        finally:
            tracer.remove()

    def pair():
        first, second = ((untraced_cycle, traced_cycle) if plain.cycles % 2 == 0
                         else (traced_cycle, untraced_cycle))
        first()
        second()

    cycles_until(args.seconds, pair)
    metrics = spans.layer_metrics(tracer)
    for kind in FAIL_CLASSES:
        metrics[f"fail.{kind}"] = (m.counts[kind] / m.attempted, "ratio")
    metrics["trace.overhead_s"] = (m.wall_s - plain.wall_s, "s")
    metrics["trace.overhead_share"] = ((m.wall_s - plain.wall_s) / plain.wall_s,
                                       "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
    tracer.write(spans_file)
    report = {"untraced_wall_s": plain.wall_s, "absent": tracer.absent,
              "spans": len(tracer.start),
              "spans_file": str(spans_file.relative_to(ROOT)),
              "untraced_failed": plain.failed}
    return m, metrics, report, m.failed + plain.failed == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("richardson_ladder", "param_sweep",
                                 "verify_audit"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own tests")
    parser.add_argument("--probe", choices=("setup", "memory"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    pinned = pin_cpu() if not args.probe else None
    t0 = time.perf_counter()
    workloads = load_workloads()
    workload = workloads.WORKLOADS[args.workload]
    size = "tiny" if args.tiny else "full"
    items = workload.inputs(args.seed, size)
    setup_main = time.perf_counter() - t0

    if args.probe:
        print(json.dumps(probe(args, setup_main, workload, items)))
        return 0

    with open(BENCH_DIR / "reference.json") as fh:
        reference = json.load(fh)[args.workload]
    if args.trace:
        m, metrics, report, correct = traced_run(args, workload, items,
                                                 reference)
    else:
        m, metrics, report, correct = untraced_run(args, workload, items,
                                                   reference, setup_main)
    report.update({
        "workload": args.workload, "seed": args.seed, "size": size,
        "seconds": args.seconds, "trace": args.trace,
        "cycles": m.cycles, "wall_s": m.wall_s, "cpu_s": m.cpu_s,
        "attempted": m.attempted,
        "fail_share": sum(m.counts[c] for c in FAIL_CLASSES) / m.attempted,
        "failures": {c: m.counts[c] for c in FAIL_CLASSES},
        "documented_breakdowns": m.counts["breakdown"],
        "failed": m.failed,
        "exception_types": dict(m.exception_types),
        "failure_examples": m.examples,
        "observed": m.observed,
        "environment": environment(),
        "pinned": pinned,
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    report_json = json.dumps(report, default=str)
    (OUT_DIR / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(report_json + "\n")
    print(report_json)
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
