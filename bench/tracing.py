"""Per-layer tracing for the traced run.

``install`` replaces every public function of the ``teardrop`` layers
(core, meanfield, semiclassics, quantum), ``TableArtifact.write`` and
``cli.main`` with a timing wrapper, in every ``teardrop`` namespace that
binds it, so calls through ``from .x import y`` names are caught too.
Each call is a span; its self time is its duration minus the time of the
wrapped calls it makes.  The hot inner functions run ~10^5 times per
operation, so spans are folded into per-function totals as they end
rather than kept one by one.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYERS = ("core", "meanfield", "semiclassics", "quantum")


@dataclass
class Stat:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    def __init__(self):
        self.stats = defaultdict(Stat)
        self.counts = defaultdict(int)
        self._stack = []  # [name, child time] per open span

    def reset(self):
        self.stats.clear()
        self.counts.clear()

    def _span_name(self, name, args, kwargs):
        if name == "quantum.exact_spectrum":
            vectors = kwargs.get("want_vectors", args[1] if len(args) > 1 else False)
            return name + (".vectors" if vectors else ".values")
        return name

    def _after(self, name, args, result):
        if name == "semiclassics.quantize":
            self.counts["quantize.levels"] += len(result.levels)
        elif name == "semiclassics.action":
            if any(frame[0] == "semiclassics.quantize" for frame in self._stack):
                self.counts["action.in_quantize"] += 1
        elif name == "quantum.build_generators":
            self.counts["build_generators.bytes"] += sum(
                arr.nbytes
                for op in result.values()
                for arr in (op.dense, op.diag, op.offdiag)
                if arr is not None
            )
        elif name == "artifacts.write":
            self.counts["artifacts.bytes_written"] += os.path.getsize(args[1])

    def wrap(self, name, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            span = self._span_name(name, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat = self.stats[span]
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
            self._after(name, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced


def install(tracer):
    """Wrap the layers' public functions everywhere they are bound."""
    from teardrop import artifacts, cli

    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"teardrop.{layer}"]
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                originals[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    originals[id(cli.main)] = tracer.wrap("cli.main", cli.main)
    for name, module in list(sys.modules.items()):
        if name == "teardrop" or name.startswith("teardrop."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in originals:
                    setattr(module, attr, originals[id(obj)])
    artifacts.TableArtifact.write = tracer.wrap(
        "artifacts.write", artifacts.TableArtifact.write
    )


# name -> (unit, better); the per-layer metrics of BENCHMARK.json
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "artifacts.write_s": ("s", "lower"),
    "artifacts.bytes_written": ("bytes", "lower"),
    "core.self_s": ("s", "lower"),
    "core.basis_states.calls": ("count", "lower"),
    "meanfield.self_s": ("s", "lower"),
    "meanfield.energy_range.calls": ("count", "lower"),
    "meanfield.energy_range.s": ("s", "lower"),
    "meanfield.fixed_points.calls": ("count", "lower"),
    "meanfield.integrate_trajectory.s": ("s", "lower"),
    "semiclassics.self_s": ("s", "lower"),
    "semiclassics.quantize.self_s": ("s", "lower"),
    "semiclassics.quantize.levels": ("count", "higher"),
    "semiclassics.action.calls": ("count", "lower"),
    "semiclassics.action.s": ("s", "lower"),
    "semiclassics.action.calls_per_level": ("calls/level", "lower"),
    "semiclassics.turning_points.calls": ("count", "lower"),
    "semiclassics.turning_points.s": ("s", "lower"),
    "semiclassics.period.calls": ("count", "lower"),
    "semiclassics.period.s": ("s", "lower"),
    "semiclassics.wkb_state.s": ("s", "lower"),
    "quantum.self_s": ("s", "lower"),
    "quantum.exact_spectrum.values_s": ("s", "lower"),
    "quantum.exact_spectrum.vectors_s": ("s", "lower"),
    "quantum.evolve_state.s": ("s", "lower"),
    "quantum.observables.calls": ("count", "lower"),
    "quantum.observables.s": ("s", "lower"),
    "quantum.variational_ground_state.s": ("s", "lower"),
    "quantum.build_hamiltonian.s": ("s", "lower"),
    "quantum.build_generators.s": ("s", "lower"),
    "quantum.build_generators.bytes": ("bytes", "lower"),
}


def per_layer(tracer, ops):
    """The per-layer metrics, each per operation; times are self times."""
    stats, counts = tracer.stats, tracer.counts

    def stat(name):
        return stats.get(name, Stat())

    def layer_self(layer):
        return sum(s.self_time for k, s in stats.items() if k.startswith(layer + "."))

    levels = counts["quantize.levels"]
    raw = {
        "cli.main.self_s": stat("cli.main").self_time,
        "artifacts.write_s": stat("artifacts.write").self_time,
        "artifacts.bytes_written": counts["artifacts.bytes_written"],
        "core.self_s": layer_self("core"),
        "core.basis_states.calls": stat("core.basis_states").calls,
        "meanfield.self_s": layer_self("meanfield"),
        "meanfield.energy_range.calls": stat("meanfield.energy_range").calls,
        "meanfield.energy_range.s": stat("meanfield.energy_range").self_time,
        "meanfield.fixed_points.calls": stat("meanfield.fixed_points").calls,
        "meanfield.integrate_trajectory.s": stat("meanfield.integrate_trajectory").self_time,
        "semiclassics.self_s": layer_self("semiclassics"),
        "semiclassics.quantize.self_s": stat("semiclassics.quantize").self_time,
        "semiclassics.quantize.levels": levels,
        "semiclassics.action.calls": stat("semiclassics.action").calls,
        "semiclassics.action.s": stat("semiclassics.action").self_time,
        "semiclassics.turning_points.calls": stat("semiclassics.turning_points").calls,
        "semiclassics.turning_points.s": stat("semiclassics.turning_points").self_time,
        "semiclassics.period.calls": stat("semiclassics.period").calls,
        "semiclassics.period.s": stat("semiclassics.period").self_time,
        "semiclassics.wkb_state.s": stat("semiclassics.wkb_state").self_time,
        "quantum.self_s": layer_self("quantum"),
        "quantum.exact_spectrum.values_s": stat("quantum.exact_spectrum.values").self_time,
        "quantum.exact_spectrum.vectors_s": stat("quantum.exact_spectrum.vectors").self_time,
        "quantum.evolve_state.s": stat("quantum.evolve_state").self_time,
        "quantum.observables.calls": stat("quantum.observables").calls,
        "quantum.observables.s": stat("quantum.observables").self_time,
        "quantum.variational_ground_state.s": stat("quantum.variational_ground_state").self_time,
        "quantum.build_hamiltonian.s": stat("quantum.build_hamiltonian").self_time,
        "quantum.build_generators.s": stat("quantum.build_generators").self_time,
        "quantum.build_generators.bytes": counts["build_generators.bytes"],
    }
    metrics = {name: value / ops for name, value in raw.items()}
    # a ratio of two totals, not a per-operation figure
    metrics["semiclassics.action.calls_per_level"] = (
        counts["action.in_quantize"] / levels if levels else 0.0
    )
    return {name: {"value": metrics[name], "unit": PER_LAYER[name][0]}
            for name in PER_LAYER}


def layer_shares(tracer, op_seconds):
    """Share of the operations' time spent in each layer's own code."""
    shares = {
        "cli": tracer.stats["cli.main"].self_time if "cli.main" in tracer.stats else 0.0,
        "artifacts": sum(s.self_time for k, s in tracer.stats.items()
                         if k.startswith("artifacts.")),
    }
    for layer in LAYERS:
        shares[layer] = sum(s.self_time for k, s in tracer.stats.items()
                            if k.startswith(layer + "."))
    return {k: v / op_seconds for k, v in shares.items()}
