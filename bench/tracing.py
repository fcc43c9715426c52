"""In-memory span recording around mfkg's layer entry points.

A traced run replaces selected functions and methods of the imported mfkg
modules with wrappers that record one span per call: its name, start, end,
parent span and the top-level span (``setup`` or ``body``) it belongs to.
The wrappers live here; the package itself is not modified, and
:meth:`Tracer.uninstall` restores every binding it replaced.  Spans stay in
flat arrays until the run ends, when :meth:`Tracer.save` writes them out and
:meth:`Tracer.layer_metrics` reduces them to the per-layer metrics listed in
BENCHMARK.json.
"""
from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

def _evolve_steps(bound: inspect.BoundArguments, result) -> float:
    # evolve takes ceil(T / dt) Strang steps, whatever the sampling
    return float(math.ceil(bound.arguments["T"] / bound.arguments["integ"].dt - 1e-12))


def _persistence_steps(bound: inspect.BoundArguments, result) -> float:
    return float((len(result.times) - 1) * bound.arguments["integ"].steps_per_sample)


def _bytes_written(bound: inspect.BoundArguments, result) -> float:
    return float(os.path.getsize(bound.arguments["path"]))


# (span name, module, attribute, counter): the attribute is a module-level
# function, or "Class.method".  A counter turns the call's bound arguments
# and result into the span's value (steps taken, bytes written).
WRAPPED = (
    ("config.build", "mfkg.config", "config_from_dict", None),
    ("grid.transform", "mfkg.grid", "Grid.forward", None),
    ("grid.transform", "mfkg.grid", "Grid.inverse", None),
    ("potential.force", "mfkg.potential", "PolynomialPotential.force", None),
    ("dynamics.evolve", "mfkg.dynamics", "evolve", _evolve_steps),
    ("fields.seminorm", "mfkg.fields", "local_seminorm", None),
    ("solitary.build", "mfkg.solitary", "build_solitary", None),
    ("solitary.distance", "mfkg.solitary", "manifold_distance", None),
    ("solitary.resolvent", "mfkg.solitary", "resolvent_profile", None),
    ("spectral.report", "mfkg.spectral", "attraction_report", None),
    ("spectral.window", "mfkg.spectral", "windowed_spectrum", None),
    ("multifreq.build", "mfkg.multifreq", "build_counterexample", None),
    ("multifreq.persist", "mfkg.multifreq", "verify_persistence", _persistence_steps),
    ("io.write", "mfkg.io", "write_columns_csv", _bytes_written),
    ("io.write", "mfkg.io", "save_snapshot", _bytes_written),
    ("cli.run", "mfkg.cli", "run_experiment", None),
)


class Tracer:
    """Span recorder; install() wraps the entry points in WRAPPED."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: list[int] = []
        self._undo: list = []

    # recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else idx)
        self.value.append(0.0)
        self.end.append(math.nan)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (used for setup and body roots)."""
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrapper(self, name: str, func, counter):
        name_id = self._name_id(name)
        signature = inspect.signature(func) if counter is not None else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.value[idx] = counter(signature.bind(*args, **kwargs), result)
            return result

        return traced

    # installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in WRAPPED, at every place mfkg binds it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for name, module_name, attr, counter in WRAPPED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                sites = [owner]
            else:
                original = getattr(owner, attr)
                # `from .x import f` copies the binding into other modules
                sites = [mod for key, mod in sorted(sys.modules.items())
                         if (key == "mfkg" or key.startswith("mfkg."))
                         and getattr(mod, attr, None) is original]
            traced = self._wrapper(name, getattr(owner, attr), counter)
            for site in sites:
                self._undo.append(functools.partial(setattr, site, attr, getattr(site, attr)))
                setattr(site, attr, traced)
        # run_experiment dispatches through this table; the runner span lets
        # cli.manifest_s exclude the experiment itself
        runners = sys.modules["mfkg.cli"]._RUNNERS
        for key, runner in list(runners.items()):
            self._undo.append(functools.partial(runners.__setitem__, key, runner))
            runners[key] = self._wrapper("cli.runner", runner, None)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # reduction ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "root": np.frombuffer(self.root, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write all spans as flat arrays (names indexes the name table)."""
        np.savez(path, **self.arrays())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics: set-up layers per set-up, the others per body."""
        a = self.arrays()
        ids = {n: i for i, n in enumerate(a["names"].tolist())}

        def named(name: str) -> np.ndarray:
            return a["name"] == ids.get(name, -1)

        duration = a["end"] - a["start"]
        in_setup = named("setup")[a["root"]]
        in_body = named("body")[a["root"]]
        n_setups = max(int(np.count_nonzero(named("setup"))), 1)
        n_bodies = max(int(np.count_nonzero(named("body"))), 1)

        def per_body(name: str, what: str = "time") -> float:
            sel = named(name) & in_body
            if what == "calls":
                return float(np.count_nonzero(sel)) / n_bodies
            if what == "value":
                return float(a["value"][sel].sum()) / n_bodies
            return float(duration[sel].sum()) / n_bodies

        def per_setup(name: str) -> float:
            return float(duration[named(name) & in_setup].sum()) / n_setups

        def rate_us(name: str) -> float:
            steps = per_body(name, "value")
            return 1e6 * per_body(name) / steps if steps else 0.0

        distances = duration[named("solitary.distance") & in_body]
        return {
            "config.build_s": per_setup("config.build"),
            "grid.transform_calls": per_body("grid.transform", "calls"),
            "grid.transform_s": per_body("grid.transform"),
            "potential.force_calls": per_body("potential.force", "calls"),
            "potential.force_s": per_body("potential.force"),
            "dynamics.evolve_s": per_body("dynamics.evolve"),
            "dynamics.steps": per_body("dynamics.evolve", "value"),
            "dynamics.step_us": rate_us("dynamics.evolve"),
            "fields.seminorm_calls": per_body("fields.seminorm", "calls"),
            "fields.seminorm_s": per_body("fields.seminorm"),
            "solitary.build_s": per_setup("solitary.build"),
            "solitary.distance_calls": per_body("solitary.distance", "calls"),
            "solitary.distance_s": per_body("solitary.distance"),
            "solitary.distance_ms_p50": (1e3 * float(np.median(distances))
                                         if distances.size else 0.0),
            "solitary.resolvent_calls": per_body("solitary.resolvent", "calls"),
            "spectral.report_s": per_body("spectral.report"),
            "spectral.window_calls": per_body("spectral.window", "calls"),
            "multifreq.build_s": per_setup("multifreq.build"),
            "multifreq.persist_s": per_body("multifreq.persist"),
            "multifreq.step_us": rate_us("multifreq.persist"),
            "io.write_s": per_body("io.write"),
            "io.bytes_written": per_body("io.write", "value"),
            # what the CLI adds around the experiment: config.json and the
            # hashed manifest, i.e. run_experiment outside the runner
            "cli.manifest_s": per_body("cli.run") - per_body("cli.runner"),
            "trace.spans_per_body": float(np.count_nonzero(in_body & ~named("body"))) / n_bodies,
        }
