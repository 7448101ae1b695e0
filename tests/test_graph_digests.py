"""Graph export bytes pinned over a grid of small shapes.

Each entry holds the sha256 of ``graph_to_json`` and of ``emit_dot`` for the
built-in spec's dataflow graph and for its relay view, plus ``graph_stats``
of both, so any change to node numbering, edge order, edge sources, patterns
or the critical path shows up as a changed entry.

Regenerate the fixture (only when the exports are meant to change) with::

    PYTHONPATH=src python tests/test_graph_digests.py
"""

import hashlib
import json
from pathlib import Path

from spatialqr.dataflow import build_graph, emit_dot, graph_stats, graph_to_json, relay_view
from spatialqr.specdsl import builtin_qr_spec

FIXTURE = Path(__file__).parent / "fixtures" / "graph_digests.json"
SPEC = builtin_qr_spec()


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def exports(graph):
    return {"json": sha(graph_to_json(graph)), "dot": sha(emit_dot(graph)),
            "stats": graph_stats(graph)}


def compute_digests():
    out = {}
    for m in range(1, 9):
        for n in range(1, m + 1):
            graph = build_graph(SPEC, m, n)
            out[f"{m}x{n}"] = {"graph": exports(graph), "relay": exports(relay_view(graph))}
    return out


def test_graph_digests_match_fixture():
    pinned = json.loads(FIXTURE.read_text())
    assert compute_digests() == pinned


def test_fixture_covers_every_shape():
    pinned = json.loads(FIXTURE.read_text())
    assert len(pinned) == 36


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
