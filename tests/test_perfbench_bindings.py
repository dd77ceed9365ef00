"""The module attributes perfbench's tracer wraps must exist.

``perfbench/tracing.py`` replaces each ``(module, attribute)`` in its
``WRAPPED`` list at the binding gcmi looks up at call time.  A missing
attribute only prints a note in a traced run and blanks the metrics built
on it, so a rename is caught here instead.  The tracing module imports
only the standard library; it is loaded by path, not as a package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, attr) for module, attr, *_ in tracing.WRAPPED]


@pytest.mark.parametrize("module, attr", _wrapped())
def test_wrapped_binding_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
