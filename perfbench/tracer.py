"""Span tracer that wraps curmeta's public functions from outside the package.

Each traced function is replaced by a wrapper in every curmeta module
namespace that holds it, because several modules import functions by name
(``curmeta.meta.sample_episode``, ``curmeta.harness.fine_tune``,
``curmeta.cli.run_sweep``, ...).  Spans nest on a stack; when a span closes,
its duration is added to its layer's busy time and to its parent's child
time, so a layer's self time is its busy time minus the time covered by the
spans it caused.  Spans are folded into per-layer totals in memory as they
close and read out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, function, layer name) for every public function the benchmark times
LAYERS = (
    ("nets", "forward", "nets.forward"),
    ("nets", "grad", "nets.grad"),
    ("nets", "hessian_vector_product", "nets.hvp"),
    ("metrics", "compute_auc", "metrics.compute_auc"),
    ("tasks", "sample_episode", "tasks.sample_episode"),
    ("tasks", "generate_source", "tasks.generate_source"),
    ("tasks", "map_labels", "tasks.map_labels"),
    ("tasks", "write_split_dataset", "tasks.write_split_dataset"),
    ("samplers", "select_batch", "samplers.select_batch"),
    ("samplers", "record_outcome", "samplers.record_outcome"),
    ("meta", "meta_train", "meta.meta_train"),
    ("meta", "fine_tune", "meta.fine_tune"),
    ("meta", "multitask_train", "meta.multitask_train"),
    ("meta", "save_checkpoint", "meta.save_checkpoint"),
    ("harness", "run_pipeline", "harness.run_pipeline"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "write_manifest", "harness.write_manifest"),
    ("cli", "main", "cli.main"),
)
# layers the workloads call into; their self time is the glue between the
# inner layers, so it is left out of the coverage share
ENTRY_POINTS = ("harness.run_pipeline", "harness.run_sweep", "cli.main")


class Tracer:
    def __init__(self):
        self.totals = {name: [0, 0.0, 0.0, 0] for _, _, name in LAYERS}  # calls, busy, self, failed
        self._stack = []  # [start, child time] of each open span
        self._replaced = []  # (module, attribute, original) for uninstall

    def _wrap(self, fn, name):
        totals = self.totals[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - frame[1]
                if not ok:
                    totals[3] += 1

        return traced

    def install(self) -> None:
        """Replace each traced function in every loaded curmeta module."""
        for module_name, _, _ in LAYERS:
            importlib.import_module(f"curmeta.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "curmeta" or n.startswith("curmeta.")]
        for module_name, fn_name, layer in LAYERS:
            original = getattr(sys.modules[f"curmeta.{module_name}"], fn_name)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._replaced.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._replaced):
            setattr(module, attr, original)
        self._replaced.clear()

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for name, (calls, busy, own, failed) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.busy_s"] = busy
            out[f"{name}.self_s"] = own
            out[f"{name}.failed"] = failed
        return out

    def inner_self_s(self) -> float:
        """Self time of the layers below the entry points."""
        return sum(t[2] for name, t in self.totals.items() if name not in ENTRY_POINTS)
