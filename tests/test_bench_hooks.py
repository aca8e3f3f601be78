"""The benchmark tracer wraps levyrisk functions by name; a renamed one breaks it."""
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing  # imports levyrisk and with it every module the tracer resolves

    originals = {(module, attr): getattr(sys.modules[module], attr)
                 for module, attr, _, _ in tracing.SPANNED}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, name, _ in tracing.SPANNED:
            assert getattr(sys.modules[module], attr) is not originals[module, attr], name
    finally:
        tracer.uninstall()
    for (module, attr), original in originals.items():
        assert getattr(sys.modules[module], attr) is original
