"""Every virlab name the benchmark's tracer wraps still exists.

perfbench/tracing.py patches functions and methods by name; a deletion in
src/virlab that one of them relies on would only surface when the traced
benchmark runs. This test reads perfbench/ and changes nothing there.
"""

import importlib
import os
import sys

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench")


def _import_tracing():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(BENCH)


def test_every_traced_name_resolves():
    tracing = _import_tracing()
    missing = [f"{module.__name__}.{attr}" for module, attr in tracing.FUNCTIONS
               if not callable(getattr(module, attr, None))]
    # install() looks methods up in the class's own namespace.
    missing += [f"{cls.__qualname__}.{attr}" for cls, attr, _ in tracing.METHODS
                if attr not in cls.__dict__]
    assert not missing, f"perfbench/tracing.py wraps missing names: {missing}"
