"""The benchmark's workloads: inputs from a seed, a timed body, checks.

Each workload draws its inputs from a fixed pool of cases whose outputs
were recorded by ``record_reference.py``; the workload seed only picks which
cases a run uses, so any seed can be checked.  A body is one repetition of
the workload's work, made only of calls to mfkg's public functions.  Every
operation in it (a trajectory, a snapshot distance, a CLI run, a
persistence run) is checked against the recorded reference and against the
invariants that hold at the benchmark's size; an operation that raises or
fails a check counts as failed.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mfkg
import mfkg.cli

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"

# Reference agreement: largest deviation over the largest reference magnitude.
RTOL = 1e-10
# The bounded polish in manifold_distance resolves omega only to xatol = 1e-6 m.
ABS_TOL = {"best_omega": 1e-6}


@dataclass(eq=False)
class Op:
    """One checked operation: reference values, invariant problems or an error."""

    case: int
    kind: str
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    error: BaseException | None = None

    @property
    def label(self) -> str:
        return f"case {self.case} {self.kind}"


def reference_key(op: Op, key: str) -> str:
    return f"c{op.case}_{op.kind}_{key}"


def deviation(key: str, got, ref) -> str | None:
    """Why ``got`` disagrees with the reference ``ref``, or None if it agrees."""
    got = np.asarray(got)
    ref = np.asarray(ref)
    if got.shape != ref.shape:
        return f"{key}: shape {got.shape}, reference {ref.shape}"
    nan_ref = np.isnan(ref)
    if not np.array_equal(np.isnan(got), nan_ref):
        return f"{key}: NaN entries differ from the reference"
    err = float(np.max(np.abs(got[~nan_ref] - ref[~nan_ref]), initial=0.0))
    if key in ABS_TOL:
        limit = ABS_TOL[key]
    else:
        limit = RTOL * float(np.max(np.abs(ref[~nan_ref]), initial=0.0))
    if not err <= limit:
        return f"{key}: deviation {err:.3e} from the reference exceeds {limit:.3e}"
    return None


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ops: list[Op], reference) -> None:
        for op in ops:
            self.attempted += 1
            if op.error is not None:
                self.failures.append(f"{op.label}: raised {op.error!r}")
                continue
            problems = list(op.problems)
            for key, got in op.values.items():
                name = reference_key(op, key)
                if name not in reference:
                    problems.append(f"{key}: no reference recorded")
                    continue
                why = deviation(key, got, reference[name])
                if why:
                    problems.append(why)
            if problems:
                self.failures.append(f"{op.label}: {'; '.join(problems)}")


class Workload:
    """A pool of cases; a run uses ``per_run`` of them, chosen by the seed."""

    name = ""
    pool = 0
    per_run = 0

    def __init__(self, cases) -> None:
        self.cases = [int(c) for c in cases]
        if not self.cases or any(not 0 <= c < self.pool for c in self.cases):
            raise ValueError(f"{self.name}: cases must lie in [0, {self.pool})")

    @classmethod
    def from_seed(cls, seed: int) -> "Workload":
        rng = np.random.default_rng(seed)
        return cls(rng.choice(cls.pool, size=cls.per_run, replace=False))

    def reference(self):
        with np.load(REFERENCE_DIR / f"{self.name}.npz") as data:
            return {key: data[key] for key in data.files}

    def digest(self) -> str:
        """SHA-256 of the built inputs, to show that a seed fixes them."""
        h = hashlib.sha256()
        for chunk in self.input_arrays():
            h.update(np.ascontiguousarray(chunk).tobytes())
        return h.hexdigest()

    def input_arrays(self):
        raise NotImplementedError

    def bodies_per_pass(self) -> int:
        """Bodies needed to run every case once."""
        return len(self.cases)

    def body(self, index: int):
        """The timed work of body number ``index``; returns raw results."""
        raise NotImplementedError

    def finish(self, raw) -> list[Op]:
        """Untimed: turn raw results into checked operations."""
        return raw


# attraction -----------------------------------------------------------------

ATTRACTION_T = 25.0
# Snapshots at t = 0 and t = 25 (samples of 0.1); only the final one is
# measured, so a body makes one manifold_distance call per 2500 steps per
# seed, near the acceptance fixture's rate of 5 calls per 20000 steps.
ATTRACTION_SNAPSHOT_STRIDE = 250
ATTRACTION_SNAPSHOT_TIMES = (0.0, 25.0)


def attraction_state(grid, rho, pot, case: int):
    """Solitary wave plus a radiation shell, seeded as criterion 6's run ``case``."""
    rng = np.random.default_rng(1000 + case)
    omega = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.35, 0.8))
    theta = float(rng.uniform(0.0, 2.0 * np.pi))
    ws = mfkg.build_solitary(rho, pot, omega, theta).initial_state()
    pert = mfkg.random_state(grid, case, 0.7 * mfkg.energy_norm(ws, 1.0),
                             envelope_width=8.0, band_limit=0.5,
                             band_center=1.2, envelope_center=30.0)
    return mfkg.FieldState(grid, ws.psi + pert.psi, ws.pi + pert.pi)


class Attraction(Workload):
    """Criterion 6's sponge-damped runs: evolve, report, final-snapshot distance."""

    name = "attraction"
    pool = 10  # the ten seeds of the acceptance fixture
    per_run = 2

    def __init__(self, cases) -> None:
        super().__init__(cases)
        self.grid = mfkg.make_grid(1, 4096, 256.0)
        self.rho = mfkg.CouplingProfile.gaussian(self.grid, amplitude=4.0, width=1.0)
        self.pot = mfkg.PolynomialPotential((-1.0, 1.0))
        self.spec = mfkg.SeminormSpec(0.5, 24.0, 8.0)
        self.integ = mfkg.Integrator(0.01, 10, mfkg.Sponge(64.0, 3.0))
        self.observers = mfkg.Observers(snapshot_stride=ATTRACTION_SNAPSHOT_STRIDE)
        self.report_cfg = mfkg.AttractionConfig(
            window_width=ATTRACTION_T / 4, n_windows=4, measure_distance=False)
        self.states = [attraction_state(self.grid, self.rho, self.pot, c) for c in self.cases]

    def input_arrays(self):
        for state in self.states:
            yield state.psi
            yield state.pi

    def bodies_per_pass(self) -> int:
        return 1

    def body(self, index: int) -> list[Op]:
        ops = []
        for case, state in zip(self.cases, self.states):
            try:
                traj = mfkg.evolve(state, self.rho, self.pot, self.integ, ATTRACTION_T,
                                   self.observers)
                report = mfkg.attraction_report(traj, self.rho, self.pot, self.report_cfg)
            except Exception as exc:  # a failed operation is counted, not fatal
                ops.append(Op(case, "trajectory", error=exc))
                continue
            windows = report.windows
            op = Op(case, "trajectory", {
                "gamma": traj.gamma,
                "dominant_frequency": [w.dominant_frequency for w in windows],
                "concentration": [w.concentration for w in windows],
                "outside_mass_fraction": [w.outside_mass_fraction for w in windows],
            })
            times = [s.time for s in traj.snapshots]
            if len(times) != len(ATTRACTION_SNAPSHOT_TIMES) or not np.allclose(
                    times, ATTRACTION_SNAPSHOT_TIMES, rtol=0.0, atol=1e-9):
                op.problems.append(f"snapshot times {times}")
            # a coarse sanity check only: with windows of T/4 the +-3 bin
            # cluster spans about +-3 rad; the reference values above are the gate
            conc = windows[-1].concentration
            if not conc > 0.95:
                op.problems.append(f"late-window concentration {conc:.3f} <= 0.95")
            ops.append(op)
            try:
                d, w = mfkg.manifold_distance(traj.snapshots[-1], self.rho, self.pot, self.spec)
            except Exception as exc:
                ops.append(Op(case, "distance", error=exc))
                continue
            op = Op(case, "distance", {"distance": d})
            if not (np.isfinite(d) and d >= 0.0):
                op.problems.append(f"distance {d!r} is not a finite nonnegative number")
            if w is not None and not abs(w) < 1.0:
                op.problems.append(f"best omega {w!r} outside the gap (-m, m)")
            ops.append(op)
        return ops


# distance -------------------------------------------------------------------

DISTANCE_FILES = ["config.json", "distance.csv", "distance.json", "manifest.json"]


def distance_config(case: int) -> dict:
    """The CLI's distance experiment at its defaults, seed ``case``, one seminorm observer."""
    return {
        "experiment": "distance",
        "seed": case,
        "seminorms": [{"epsilon": 0.5, "radius": 8.0, "cutoff_width": 8.0}],
    }


def read_distance_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(v) for v in row] for row in rows[1:]])


class Distance(Workload):
    """``mfkg distance`` in-process: evolve, 17 snapshot distances, files, manifest."""

    name = "distance"
    pool = 8
    per_run = 2

    def __init__(self, cases) -> None:
        super().__init__(cases)
        self.configs = [mfkg.config_from_dict(distance_config(c)) for c in self.cases]
        self.manifests: dict[int, bytes] = {}

    def input_arrays(self):
        for cfg in self.configs:
            yield np.frombuffer(json.dumps(cfg.raw, sort_keys=True).encode(), dtype=np.uint8)

    def body(self, index: int):
        slot = index % len(self.cases)
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        outdir = Path(tempfile.mkdtemp(prefix=f"distance-{self.cases[slot]}-", dir=OUT_DIR))
        try:
            files = mfkg.cli.run_experiment(self.configs[slot], outdir)
        except Exception as exc:
            return slot, outdir, exc
        return slot, outdir, files

    def finish(self, raw) -> list[Op]:
        slot, outdir, files = raw
        case = self.cases[slot]
        try:
            if isinstance(files, BaseException):
                return [Op(case, "cli", error=files)]
            return self._collect(slot, outdir, files)
        except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed outputs
            return [Op(case, "cli", error=exc)]
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _collect(self, slot: int, outdir: Path, files: list[str]) -> list[Op]:
        case = self.cases[slot]
        cli = Op(case, "cli")
        ops = [cli]
        if files != DISTANCE_FILES:
            cli.problems.append(f"files {files} != {DISTANCE_FILES}")
            return ops
        manifest_bytes = (outdir / "manifest.json").read_bytes()
        manifest = json.loads(manifest_bytes)
        for name, digest in manifest["files"].items():
            if hashlib.sha256((outdir / name).read_bytes()).hexdigest() != digest:
                cli.problems.append(f"manifest hash of {name} does not match the file")
        # reruns of the same config must reproduce the hashed outputs byte for byte
        first = self.manifests.setdefault(case, manifest_bytes)
        if manifest_bytes != first:
            cli.problems.append("manifest.json differs from the first run of this config")
        if json.loads((outdir / "config.json").read_text()) != self.configs[slot].raw:
            cli.problems.append("config.json is not the resolved configuration")
        header, table = read_distance_csv(outdir / "distance.csv")
        if header != ["t", "distance", "best_omega"]:
            cli.problems.append(f"distance.csv header {header}")
            return ops
        summary = json.loads((outdir / "distance.json").read_text())
        if table.size and summary["final"] != table[-1, 1]:
            cli.problems.append("distance.json final differs from distance.csv")
        cli.values = {"rows": np.array([len(table)])}
        for k, (t, d, w) in enumerate(table):
            row = Op(case, f"row{k}", {"t": t, "distance": d, "best_omega": w})
            if not (np.isfinite(d) and d >= 0.0):
                row.problems.append(f"distance {d!r} is not a finite nonnegative number")
            ops.append(row)
        return ops


# counterexample -------------------------------------------------------------

COUNTEREXAMPLE_B = (-0.5, -0.75, -1.0, -1.25, -1.5)
COUNTEREXAMPLE_T = 200.0
# The persistence error grows like dt^2 T: dt = 0.01 fails tol 1e-3 beyond T ~ 100.
COUNTEREXAMPLE_DT = 0.005
COUNTEREXAMPLE_TOL = 1e-3


class Counterexample(Workload):
    """Two-frequency beat at omega1 = 2: build once, then verify persistence."""

    name = "counterexample"
    pool = len(COUNTEREXAMPLE_B)
    per_run = 2

    def __init__(self, cases) -> None:
        super().__init__(cases)
        self.grid = mfkg.make_grid(1, 1024, 64.0)
        self.integ = mfkg.Integrator(COUNTEREXAMPLE_DT, 10)
        self.solutions = [mfkg.build_counterexample(2.0, COUNTEREXAMPLE_B[c], self.grid)
                          for c in self.cases]

    def input_arrays(self):
        for sol in self.solutions:
            yield sol.rho.values
            yield sol.phi0
            yield sol.phi1

    def body(self, index: int) -> list[Op]:
        slot = index % len(self.cases)
        sol = self.solutions[slot]
        try:
            rep = mfkg.verify_persistence(sol, self.integ, COUNTEREXAMPLE_T, COUNTEREXAMPLE_TOL)
        except Exception as exc:
            return [Op(self.cases[slot], "persistence", error=exc)]
        op = Op(self.cases[slot], "persistence", {"gamma": rep.gamma})
        # criterion 8 at this size: tracked within tol, force peaks at
        # omega0 and 3 omega0 within one bin, no single dominant peak
        bin_width = 2.0 * np.pi / COUNTEREXAMPLE_T
        if not (rep.passed and rep.max_relative_error <= COUNTEREXAMPLE_TOL):
            op.problems.append(f"tracking error {rep.max_relative_error:.3e} > {COUNTEREXAMPLE_TOL}")
        for peak, target in zip(rep.force_peaks, (sol.omega0, 3.0 * sol.omega0)):
            if not abs(peak - target) <= bin_width:
                op.problems.append(f"force peak {peak:.4f} not within a bin of {target:.4f}")
        if not rep.force_concentration < 0.95:
            op.problems.append(f"force concentration {rep.force_concentration:.3f} >= 0.95")
        return [op]


WORKLOADS = {w.name: w for w in (Attraction, Distance, Counterexample)}
