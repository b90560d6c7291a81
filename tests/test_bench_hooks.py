"""The traced benchmark's hooks: every name `bench/tracing.py` patches
exists, is replaced while a Tracer is installed, and is the original
object again after `uninstall`.  A rename or deletion of a traced function
fails here instead of crashing `bench/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_hook():
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original, attr
    finally:
        tracer.uninstall()
    names = {(owner, attr) for owner, attr, _ in patched}
    for module, attr, _ in tracing.FUNCTION_SPANS:
        assert (module, attr) in names, attr
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, attr
