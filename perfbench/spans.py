"""Span tracing for the benchmark, installed from outside the program.

The package modules import one another's functions by name, so a function is
wrapped in every module that holds a reference to it, not only where it is
defined.  Spans stay in memory until the caller writes them out.

Run as a script, this file is the traced form of the ``spatialqr`` command
line: ``python3 perfbench/spans.py SPANS.json simulate A.txt ...`` times the
package import, runs ``spatialqr.cli.main`` with every wrapper installed and
writes the spans to ``SPANS.json``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict

# (span name, modules that hold the function under that attribute name)
TARGETS = [
    ("specdsl.validate", ["specdsl", "simulator", "cli"]),
    ("dataflow.build_graph", ["dataflow", "simulator", "cli"]),
    ("dataflow.relay_view", ["dataflow", "simulator", "cli"]),
    ("dataflow.evaluate_graph", ["dataflow", "cli"]),
    ("simulator.place", ["simulator"]),
    ("simulator.wire", ["simulator"]),
    ("simulator.drain", ["simulator"]),
    ("simulator.run", ["simulator", "cli"]),
    ("simulator.report_to_json", ["simulator", "cli"]),
    ("numeric.qr_givens_reference", ["numeric", "cli"]),
    ("numeric.read_matrix", ["numeric", "cli"]),
]


def _graph_counts(graph) -> dict:
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _report_counts(report) -> dict:
    return {
        "firings": report.total_firings(),
        "steps": report.steps,
        "pes": len(report.firings),
        "channels": len(report.channel_sends),
        "channel_sends": sum(report.channel_sends.values()),
    }


COUNTERS = {"dataflow.build_graph": _graph_counts, "simulator.run": _report_counts}


class Tracer:
    """Records spans (id, op, name, parent, start, end, attrs) for the current op.

    Calls made while ``op`` is None (the benchmark's own checks) run unrecorded.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.op: int | None = None
        self._stack: list[int] = []

    def begin(self, name: str, **attrs) -> dict:
        span = {
            "id": len(self.spans), "op": self.op, "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None, "attrs": attrs,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                span["attrs"].update(counter(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every module that refers to it by name."""
        for name, modules in TARGETS:
            attr = name.split(".", 1)[1]
            original = getattr(importlib.import_module(f"spatialqr.{name.split('.')[0]}"), attr)
            traced = self.wrap(name, original)
            for mod in modules:
                module = importlib.import_module(f"spatialqr.{mod}")
                if getattr(module, attr, None) is original:
                    setattr(module, attr, traced)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the time its direct children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += s["end"] - s["start"] - child_time[s["id"]]
    return out


def op_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one op, from the spans that share its op id."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        calls[s["name"]] += 1
    graphs = [s["attrs"] for s in spans if s["name"] == "dataflow.build_graph"]
    runs = [s["attrs"] for s in spans if s["name"] == "simulator.run"]
    firings = sum(r["firings"] for r in runs)
    pe_sweeps = sum(r["pes"] * r["steps"] for r in runs)
    op_attrs = next((s["attrs"] for s in spans if s["parent"] is None and s["name"] == "op"), {})
    return {
        "specdsl.validate.self_s": self_s["specdsl.validate"],
        "specdsl.validate.calls": calls["specdsl.validate"],
        "dataflow.build_graph.self_s": self_s["dataflow.build_graph"],
        "dataflow.build_graph.calls": calls["dataflow.build_graph"],
        "dataflow.relay_view.self_s": self_s["dataflow.relay_view"],
        "dataflow.evaluate_graph.self_s": self_s["dataflow.evaluate_graph"],
        "dataflow.nodes": max((g["nodes"] for g in graphs), default=0),
        "dataflow.edges": max((g["edges"] for g in graphs), default=0),
        "simulator.place.self_s": self_s["simulator.place"],
        "simulator.wire.self_s": self_s["simulator.wire"],
        "simulator.drain.self_s": self_s["simulator.drain"],
        "simulator.run.self_s": self_s["simulator.run"],
        "simulator.run.self_s_per_firing": self_s["simulator.run"] / firings if firings else 0.0,
        "simulator.pes": sum(r["pes"] for r in runs),
        "simulator.channels": sum(r["channels"] for r in runs),
        "simulator.channel_sends": sum(r["channel_sends"] for r in runs),
        "simulator.pe_sweeps": pe_sweeps,
        "simulator.fire_ratio": firings / pe_sweeps if pe_sweeps else 0.0,
        "numeric.qr_givens_reference.self_s": self_s["numeric.qr_givens_reference"],
        "cli.import_s": self_s["cli.import"],
        "cli.read_matrix.self_s": self_s["numeric.read_matrix"],
        "cli.report_to_json.self_s": self_s["simulator.report_to_json"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.report_bytes": op_attrs.get("report_bytes", 0),
        "cli.event_log_bytes": op_attrs.get("event_log_bytes", 0),
    }


def _traced_cli(out_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.op = 0
    span = tracer.begin("cli.import")
    cli = importlib.import_module("spatialqr.cli")
    tracer.end(span)
    tracer.install()
    code = tracer.wrap("cli.main", cli.main)(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
