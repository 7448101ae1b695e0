"""The benchmark's span tracer finds program functions by name and reads the graph.

``perfbench/spans.py`` wraps each of its ``TARGETS`` where it is defined, so
renaming one of them would silently drop a layer from ``--trace 1``; its
counters read ``len(graph.edges)``, so the derived edge list must keep
counting what ``dataflow.edges`` has always counted.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from spatialqr.dataflow import build_graph, relay_view
from spatialqr.specdsl import builtin_qr_spec

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_graph_counts_at_17x15():
    graph = build_graph(builtin_qr_spec(), 17, 15)
    assert spans_module()._graph_counts(graph) == {"nodes": 1495, "edges": 5710}


def test_relay_view_shares_every_table_but_relay_from():
    graph = build_graph(builtin_qr_spec(), 6, 5)
    view = relay_view(graph)
    assert not graph.relay_from and view.relay_from
    for field in dataclasses.fields(graph):
        if field.name != "relay_from":
            assert getattr(view, field.name) is getattr(graph, field.name), field.name


def test_every_span_target_is_defined():
    targets = spans_module().TARGETS
    assert targets
    for name, _holders in targets:
        home, attr = name.split(".", 1)
        assert callable(getattr(importlib.import_module(f"spatialqr.{home}"), attr, None)), name
