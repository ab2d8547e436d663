"""The benchmark's per-layer tracer names functions of the package; every
one of them must exist, so that a rename or a deletion fails here rather
than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for module in tracer.MODULES:
        importlib.import_module(f"adiabatic_lab.{module}")
    for module, name, _, _ in tracer.TRACED:
        owner = importlib.import_module(f"adiabatic_lab.{module}")
        *outer, attr = name.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            assert isinstance(owner, type), f"{module}.{name}: {part} is not a class of adiabatic_lab.{module}"
        # the tracer patches a method in its class's own namespace
        found = vars(owner).get(attr)
        assert callable(found), f"{module}.{name} does not resolve in adiabatic_lab.{module}"
