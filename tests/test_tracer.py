"""The per-layer tracer of perfbench/ finds every function it wraps."""

import importlib.util
from pathlib import Path

import yangian.modules
from yangian.fock import PLAIN

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_on_every_traced_name():
    # install() raises on a name LAYERS lists but the package no longer has
    tracer = _load_tracer().Tracer()
    original = yangian.modules.fock_module
    try:
        tracer.install()
        yangian.modules.fock_module(1, 2, PLAIN, 0, 1)
        assert tracer.calls[tracer.names.index("modules.fock_module")] == 1
    finally:
        tracer.uninstall()
    assert yangian.modules.fock_module is original
