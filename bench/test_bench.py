"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They do not run as part of the package's own suite (tests/), and take
about half a minute, most of it in two short end-to-end runs.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import mfkg  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Ledger, Op  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    cls = WORKLOADS[name]
    a, b = cls.from_seed(11), cls.from_seed(11)
    assert a.cases == b.cases and a.digest() == b.digest()
    picks = {tuple(cls.from_seed(s).cases) for s in range(20)}
    assert len(picks) > 1  # the seed does choose among the pool's cases


def reference_op(workload, kind, key):
    ref = workload.reference()
    case = workload.cases[0]
    value = np.array(ref[f"c{case}_{kind}_{key}"], copy=True)
    return ref, Op(case, kind, {key: value})


@pytest.mark.parametrize("name,kind,key", [
    ("attraction", "trajectory", "gamma"),
    ("attraction", "distance", "distance"),
    ("attraction", "trajectory", "outside_mass_fraction"),
    ("distance", "row8", "distance"),
    ("counterexample", "persistence", "gamma"),
])
def test_perturbation_of_1e8_trips_the_gate(name, kind, key):
    workload = WORKLOADS[name].from_seed(0)
    ref, op = reference_op(workload, kind, key)
    clean = Ledger()
    clean.check([op], ref)
    assert (clean.attempted, clean.failed) == (1, 0)

    flat = op.values[key].reshape(-1)
    flat[flat.size // 2] += 1e-8 * np.max(np.abs(flat))
    perturbed = Ledger()
    perturbed.check([op], ref)
    assert (perturbed.attempted, perturbed.failed) == (1, 1)
    assert "deviation" in perturbed.failures[0]


def test_raised_operation_counts_as_failed():
    ledger = Ledger()
    ledger.check([Op(0, "persistence", error=RuntimeError("boom"))], {})
    assert (ledger.attempted, ledger.failed) == (1, 1)


def test_tracer_restores_every_binding():
    before = (mfkg.evolve, mfkg.cli.evolve, mfkg.dynamics.evolve, mfkg.Grid.forward,
              dict(mfkg.cli._RUNNERS))
    tracer = Tracer()
    with tracer.installed():
        assert mfkg.evolve is not before[0] and mfkg.cli.evolve is mfkg.evolve
    after = (mfkg.evolve, mfkg.cli.evolve, mfkg.dynamics.evolve, mfkg.Grid.forward,
             dict(mfkg.cli._RUNNERS))
    assert after == before


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_appears_in_the_output(trace, section):
    proc = run_bench("--workload", "counterexample", "--seed", "5", "--seconds", "1",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    machine = json.loads(lines[0].removeprefix("machine "))
    assert {"nproc", "python", "numpy", "scipy", "threads", "seed"} <= set(machine)
    assert any(" fail_frac = 0 " in line for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "distance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
