"""mfkg benchmark: one workload per process, metrics as one JSON line.

Run from the repository root:

    python3 bench/run.py --workload attraction --seed 1 --seconds 25 --trace 0

The run measures set-up as the median of several fresh interpreters that
import mfkg and build the workload's inputs, then repeats the workload's
body for ``--seconds`` and reports the median body time.  Every operation
is checked against the recorded reference (see workloads.py).  With
``--trace 1`` bodies alternate untraced and traced; the per-layer metrics
come from the traced ones, and the median difference within a pair is the
tracing overhead.  Metric names and units are
those of BENCHMARK.json; the last line of standard output is the result.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
# run_s and setup_s are rescaled to a machine on which calibration_s()
# takes this long (see calibration_s and the README).
CAL_REFERENCE_S = 0.05
# The workloads slow down less than the kernel when the host does: over
# ten-run sets, log median body time rose by 0.73-0.82 times log kernel time.
CAL_ELASTICITY = 0.75
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("attraction", "distance", "counterexample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one fresh-interpreter set-up, timed by the parent process
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def limit_threads() -> dict[str, str]:
    """Cap the BLAS/OpenMP thread variables at nproc; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(min(max(wanted, 1), nproc))
    return {var: os.environ[var] for var in THREAD_VARS}


def setup_child(args) -> int:
    start = time.monotonic()
    import mfkg  # noqa: F401  (the import is what is timed)

    imported = time.monotonic()
    from workloads import WORKLOADS

    WORKLOADS[args.workload].from_seed(args.seed)
    print(json.dumps({"import_s": imported - start, "ready": time.monotonic()}))
    return 0


def calibration_s() -> float:
    """Time a fixed kernel that uses no mfkg code: numpy FFTs and Python arithmetic.

    The speed of the host drifts by tens of percent over tens of seconds,
    for this kernel and the workloads alike (see CAL_ELASTICITY).  Timing it
    next to each body and each set-up lets them be rescaled to one
    reference speed, so that runs made minutes apart can be compared.
    """
    import numpy as np

    x = np.exp(1j * np.arange(4096.0))
    z = 0.3 + 0.1j
    acc = 0j
    start = time.perf_counter()
    for _ in range(400):
        x = np.fft.ifft(np.fft.fft(x))
    for _ in range(40000):
        acc += (2.0 - 4.0 * (z.real * z.real + z.imag * z.imag)) * z
    return time.perf_counter() - start


def rescaled(wall_s: float, cal_before: float, cal_after: float) -> float:
    return wall_s * (CAL_REFERENCE_S / (0.5 * (cal_before + cal_after))) ** CAL_ELASTICITY


def fresh_setups(args) -> list[dict]:
    """Time interpreter start, ``import mfkg`` and input building, in new processes."""
    runs = []
    cal = calibration_s()
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-child"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        record = json.loads(proc.stdout.splitlines()[-1])
        wall = record["ready"] - start
        cal_after = calibration_s()
        runs.append({"wall_s": wall, "import_s": record["import_s"],
                     "setup_s": rescaled(wall, cal, cal_after)})
        cal = cal_after
    return runs


def run_bodies(workload, reference, ledger, seconds: float, tracer=None):
    """Repeat the body until the next one would end after ``seconds``.

    Returns one record per body: wall time, rescaled time, and whether it
    was traced.  With a tracer, bodies alternate untraced and traced, in
    pairs running the same cases.
    """
    bodies: list[dict] = []
    cal = calibration_s()
    start = time.perf_counter()
    for index in itertools.count():
        traced = tracer is not None and index % 2 == 1
        body_index = index if tracer is None else index // 2
        with tracer.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            with tracer.span("body") if traced else contextlib.nullcontext():
                raw = workload.body(body_index)
            wall = time.perf_counter() - t0
        cal_after = calibration_s()
        bodies.append({"wall_s": wall, "run_s": rescaled(wall, cal, cal_after),
                       "traced": traced})
        cal = cal_after
        ledger.check(workload.finish(raw), reference)
        pair_open = tracer is not None and not traced
        elapsed = time.perf_counter() - start
        if not pair_open and elapsed * (1 + 1 / len(bodies)) > seconds:
            return bodies


def machine(args, threads: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mfkg" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"bench: needs src/mfkg and BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    threads = limit_threads()
    sys.path.insert(0, str(SRC))
    if args.setup_child:
        return setup_child(args)

    spec = json.loads(SPEC.read_text())
    import mfkg  # noqa: F401  (first import compiles bytecode before set-up is timed)
    from tracing import Tracer
    from workloads import OUT_DIR, WORKLOADS, Ledger

    setups = fresh_setups(args)
    import_s = statistics.median(r["import_s"] for r in setups)

    tracer = Tracer() if args.trace else None
    if tracer is None:
        workload = WORKLOADS[args.workload].from_seed(args.seed)
    else:
        with tracer.installed(), tracer.span("setup"):
            workload = WORKLOADS[args.workload].from_seed(args.seed)
    reference = workload.reference()
    ledger = Ledger()

    bodies = run_bodies(workload, reference, ledger, args.seconds, tracer)
    plain = [b for b in bodies if not b["traced"]]
    if tracer is None:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "run_s": statistics.median(b["run_s"] for b in plain),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        declared = spec["end_to_end"]
    else:
        traced = [b for b in bodies if b["traced"]]
        values = {
            "import_s": import_s,
            **tracer.layer_metrics(),
            # rescaled like run_s; the overhead may come out <= 0 when
            # tracing costs less than what rescaling leaves of the drift
            "trace.run_s": statistics.median(b["run_s"] for b in traced),
            "trace.overhead_s": statistics.median(
                t["run_s"] - p["run_s"] for p, t in zip(plain, traced)),
        }
        declared = spec["per_layer"]
    if {m["name"] for m in declared} != set(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    fail_frac = ledger.failed / max(ledger.attempted, 1)

    description = machine(args, threads)
    print("machine " + json.dumps(description, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload} wall: setup {statistics.median(r['wall_s'] for r in setups):.6g} s, "
          f"run {statistics.median(b['wall_s'] for b in plain):.6g} s, "
          f"untraced, before rescaling to CAL_REFERENCE_S = {CAL_REFERENCE_S} s")
    print(f"{args.workload} fail_frac = {fail_frac:.6g} ({ledger.failed} of "
          f"{ledger.attempted} operations; {len(bodies)} bodies)")
    for failure in ledger.failures[:20]:
        print(f"bench: FAILED {failure}", file=sys.stderr)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.save(OUT_DIR / f"{stem}-spans.npz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "machine": description,
        "metrics": metrics,
        "fail_frac": fail_frac,
        "failures": ledger.failures,
        "setups": setups,
        "bodies": bodies,
    }, indent=2) + "\n")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
