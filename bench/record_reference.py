"""Record the reference outputs the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_reference.py [workload ...]

Each workload runs every case of its pool once, through the same body as
the benchmark, and the checked values are written to
bench/reference/<workload>.npz.  Recording stops without writing if any
operation raises or breaks an invariant.
"""
from __future__ import annotations

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

from workloads import REFERENCE_DIR, WORKLOADS, reference_key  # noqa: E402


def record(name: str) -> dict[str, np.ndarray]:
    cls = WORKLOADS[name]
    workload = cls(range(cls.pool))
    arrays: dict[str, np.ndarray] = {}
    for index in range(workload.bodies_per_pass()):
        for op in workload.finish(workload.body(index)):
            if op.error is not None or op.problems:
                raise RuntimeError(f"{name} {op.label}: {op.error!r} {op.problems}")
            for key, value in op.values.items():
                arrays[reference_key(op, key)] = np.asarray(value)
    return arrays


def main(argv: list[str]) -> int:
    names = argv or list(WORKLOADS)
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        arrays = record(name)
        np.savez_compressed(REFERENCE_DIR / f"{name}.npz", **arrays)
        print(f"{name}: {len(arrays)} arrays -> {REFERENCE_DIR / (name + '.npz')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
