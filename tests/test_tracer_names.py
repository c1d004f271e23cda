"""bench/tracer.py wraps auditopt's functions by name, so each name it lists
must still resolve, or every traced bench run fails at install."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_in_auditopt():
    missing = []
    for short, names in load_tracer().PUBLIC.items():
        module = importlib.import_module(f"auditopt.{short}")
        for qual in names:
            if "." in qual:  # Cls.meth, which the tracer reads from Cls.__dict__
                cls_name, meth = qual.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, qual, None))
            if not found:
                missing.append(f"{short}.{qual}")
    assert not missing, f"bench/tracer.py wraps names auditopt no longer has: {missing}"
