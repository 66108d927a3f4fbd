"""Every name the benchmark's tracer hooks is still defined by the package."""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_finds_every_hook_target(monkeypatch):
    # loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("hcat_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)

    tracer = module.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.absent == set()
