"""What the benchmark's tracer relies on in the program, checked without editing it.

``perfbench/tracer.py`` wraps the functions named in its ``TARGETS`` and
counts ``lp.feasible_point`` results that are ``None`` as infeasible solves.
"""

import importlib
import importlib.util
from pathlib import Path

from flipforge import lp

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves_to_a_callable():
    targets = load_tracer().TARGETS
    assert "lp" in targets and "feasible_point" in targets["lp"]
    for module_name, functions in targets.items():
        module = importlib.import_module(f"flipforge.{module_name}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_feasible_point_returns_none_when_infeasible():
    # w >= 1 and -w >= 0 cannot both hold
    assert lp.feasible_point([[1], [-1]], [1, 0]) is None
    farkas = []
    assert lp.feasible_point([[1], [-1]], [1, 0], farkas) is None
    assert farkas and lp.is_farkas([[1], [-1]], [1, 0], farkas)
    assert lp.feasible_point([[1], [-1]], [1, -2]) is not None
