"""The benchmark's span tracer finds program functions by name.

``perfbench/spans.py`` wraps each of its ``TARGETS`` where it is defined, so
renaming one of them would silently drop a layer from ``--trace 1``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def span_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_span_target_is_defined():
    targets = span_targets()
    assert targets
    for name, _holders in targets:
        home, attr = name.split(".", 1)
        assert callable(getattr(importlib.import_module(f"spatialqr.{home}"), attr, None)), name
