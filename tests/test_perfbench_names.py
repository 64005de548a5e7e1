"""The benchmark's tracer names poiskit functions and classes; each name must resolve.

``perfbench/tracer.py`` wraps functions and counts constructions by module
and name, so a rename or deletion in poiskit would break traced benchmark
runs without failing any other test. The tracer imports only the standard
library, so it is loaded here by file path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_and_counted_class_resolves():
    tracer = load_tracer()
    for module_name, names in tracer.TRACED_FUNCTIONS.items():
        module = importlib.import_module(module_name)
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"
    for module_name, class_name in tracer.COUNTED_CLASSES.values():
        cls = getattr(importlib.import_module(module_name), class_name, None)
        assert isinstance(cls, type), f"{module_name}.{class_name}"
        assert hasattr(cls, "__post_init__"), f"{module_name}.{class_name}.__post_init__"
