"""The benchmark's tracer (perfbench/tracer.py) wraps curmeta functions by name.

A traced name that no longer exists crashes every traced benchmark run, so
each one must stay a callable of its curmeta module.  The traced benchmark
runs also fail unless ``nets.hessian_vector_product`` is called once per
(episode, inner step) of every second-order meta-update, so the call count
is checked here on a tiny lockstep meta-train.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from curmeta.meta import MetaConfig, meta_train
from curmeta.nets import Architecture
from curmeta.tasks import SourceConfig, generate_source

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_a_curmeta_callable():
    tracer = load_tracer()
    assert tracer.LAYERS
    for module, function, _ in tracer.LAYERS:
        fn = getattr(importlib.import_module(f"curmeta.{module}"), function, None)
        assert callable(fn), f"curmeta.{module}.{function}"


@pytest.mark.parametrize("mode", ["second", "first"])
def test_traced_hvp_calls_are_one_per_episode_and_inner_step(mode):
    configs = [
        MetaConfig(meta_updates=3, meta_batch_size=2, inner_steps=2, gradient_mode=mode, seed=seed)
        for seed in (1, 2)
    ]
    data = generate_source(SourceConfig(dim=4, seed=3), n_subjects=30)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        results = meta_train(Architecture((4, 8, 2)), configs, data)
    finally:
        tracer.uninstall()
    assert not any(isinstance(r, Exception) for r in results)
    expected = sum(c.meta_updates * c.meta_batch_size * c.inner_steps for c in configs)
    calls = tracer.layer_metrics()["nets.hvp.calls"]
    assert calls == (expected if mode == "second" else 0)
