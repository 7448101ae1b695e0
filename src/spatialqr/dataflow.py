"""Iteration-level dataflow: enumeration, graph building, traces, DOT export.

Every loop iteration of a spatial function becomes a node; every argument of
its firing recurrence case becomes an edge from memory or from the producing
iteration.  The module also carries a pull-based evaluator over the
topological order, used as an independent oracle against both the imperative
reference and the processing-element simulator.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

from spatialqr import numeric, specdsl
from spatialqr.numeric import AugmentedMatrix
from spatialqr.specdsl import (
    KERNEL_ELIMINATE,
    CallRef,
    ConstRef,
    FuncSpec,
    MemoryRef,
    SpatialSpec,
    enumerate_domain,
)


class CycleError(ValueError):
    """The iteration-level dependence graph contains a cycle."""

    def __init__(self, witness: list["IterNode"]):
        names = " -> ".join(map(str, witness))
        super().__init__(f"dependence cycle: {names}")
        self.witness = witness


@dataclass(frozen=True)
class IterNode:
    func: str
    coords: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.func}{self.coords}"


@dataclass(frozen=True)
class MemorySource:
    input: str
    row: int
    col: int


@dataclass(frozen=True)
class ProducerSource:
    node: IterNode
    index: int | None  # None marks a relayed (c, s) pair in the relay view


@dataclass(frozen=True)
class FlowEdge:
    source: MemorySource | ProducerSource
    sink: IterNode
    port: int
    pattern: str  # case label a-d for data/memory edges, "cs" for rotation pairs


@dataclass
class DataflowGraph:
    spec: SpatialSpec
    m: int
    n: int
    nodes: list[IterNode]
    edges: list[FlowEdge]
    node_pattern: dict[IterNode, str]
    node_case: dict[IterNode, specdsl.RecurrenceCase]
    node_cells: dict[IterNode, tuple[int, ...]]  # flat (tuple index, row, col) triples
    node_stores: dict[IterNode, tuple[int, ...]]  # likewise, only for nodes that store
    topo_order: list[IterNode]
    in_edges: dict[IterNode, list[FlowEdge]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.in_edges:
            self.in_edges = {node: [] for node in self.nodes}
            for e in self.edges:
                self.in_edges[e.sink].append(e)


def enumerate_iterations(func: FuncSpec, m: int, n: int) -> list[IterNode]:
    """Iteration points in loop-nest order, respecting per-dim step signs."""
    return [IterNode(func.name, pt) for pt in enumerate_domain(func, {"M": m, "N": n})]


def build_graph(spec: SpatialSpec, m: int, n: int) -> DataflowGraph:
    """One node per iteration, one edge per firing-case argument.

    Built from one :func:`specdsl.walk`, so the spec is validated on the
    way: a spec with violations at (m, n) raises ValueError naming the first
    few.  Raises :class:`CycleError` with a witness path if the dependences
    are cyclic.
    """
    # a call reads a rotation pair when its producer only eliminates
    cs_funcs = {f.name for f in spec.funcs if {c.kernel for c in f.cases} == {KERNEL_ELIMINATE}}
    report = specdsl.ValidationReport(m, n)
    nodes: list[IterNode] = []
    edges: list[FlowEdge] = []
    node_pattern: dict[IterNode, str] = {}
    node_case: dict[IterNode, specdsl.RecurrenceCase] = {}
    node_cells: dict[IterNode, tuple[int, ...]] = {}
    node_stores: dict[IterNode, tuple[int, ...]] = {}
    for firing in specdsl.walk(spec, m, n, report):
        if not report.ok:
            continue  # the walk goes on to collect every violation
        node = IterNode(firing.func, firing.coords)
        case = firing.case
        nodes.append(node)
        node_pattern[node] = case.label
        node_case[node] = case
        node_cells[node] = firing.cells
        if firing.stores:
            node_stores[node] = firing.stores
        for port, (arg, source) in enumerate(zip(case.args, firing.sources)):
            if isinstance(arg, MemoryRef):
                edges.append(FlowEdge(MemorySource(arg.input, *source), node, port, case.label))
            elif isinstance(arg, CallRef):
                pattern = "cs" if arg.func in cs_funcs and arg.index in (0, 1) else case.label
                producer = ProducerSource(IterNode(arg.func, source), arg.index)
                edges.append(FlowEdge(producer, node, port, pattern))
            # ConstRef arguments carry no edge
    if not report.ok:
        summary = "; ".join(str(v) for v in report.violations[:5])
        raise ValueError(f"spec does not validate at ({m}, {n}): {summary}")

    topo = _topo_sort(nodes, edges)
    return DataflowGraph(spec, m, n, nodes, edges, node_pattern, node_case,
                         node_cells, node_stores, topo)


def _topo_sort(nodes: list[IterNode], edges: list[FlowEdge]) -> list[IterNode]:
    index = {node: i for i, node in enumerate(nodes)}
    indeg = {node: 0 for node in nodes}
    succs: dict[IterNode, list[IterNode]] = {node: [] for node in nodes}
    for e in edges:
        if isinstance(e.source, ProducerSource):
            succs[e.source.node].append(e.sink)
            indeg[e.sink] += 1

    ready = [index[node] for node in nodes if indeg[node] == 0]
    heapq.heapify(ready)
    order: list[IterNode] = []
    while ready:
        node = nodes[heapq.heappop(ready)]
        order.append(node)
        for nxt in succs[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, index[nxt])
    if len(order) != len(nodes):
        remaining = {node for node in nodes if indeg[node] > 0}
        raise CycleError(_find_cycle(remaining, succs))
    return order


def _find_cycle(remaining: set[IterNode], succs: dict[IterNode, list[IterNode]]) -> list[IterNode]:
    """A closed path of edges, first node repeated last, found by walking
    predecessors: every node left unsorted has one, and it is left too."""
    preds: dict[IterNode, list[IterNode]] = {}
    for node, nexts in succs.items():
        if node in remaining:
            for nxt in nexts:
                preds.setdefault(nxt, []).append(node)
    path: list[IterNode] = []
    seen: dict[IterNode, int] = {}
    node = min(remaining, key=str)
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = preds[node][0]
    return (path[seen[node]:] + [node])[::-1]


def relay_view(graph: DataflowGraph) -> DataflowGraph:
    """Rewrite rotation-pair edges into hop-by-hop relay chains.

    For each function with a relay directive, the two (c, s) edges of every
    node are replaced by a single pair edge: from the original producer at
    the chain head, from the neighbour one step against the relay vector
    elsewhere.  Data and memory edges are untouched.  The view shares
    ``graph``'s node list and per-node tables.
    """
    spec = graph.spec
    domains = {f.name: {node.coords for node in graph.nodes if node.func == f.name}
               for f in spec.funcs}
    new_edges: list[FlowEdge] = []
    handled: set[tuple[IterNode, int]] = set()

    for func in spec.funcs:
        relay = func.relay()
        if relay is None:
            continue
        vec = relay.vector
        for node in graph.nodes:
            if node.func != func.name:
                continue
            cs_edges = sorted(
                (e for e in graph.in_edges[node] if e.pattern == "cs"),
                key=lambda e: e.port,
            )
            if not cs_edges:
                continue
            for e in cs_edges:
                handled.add((node, e.port))
            prev = tuple(c - v for c, v in zip(node.coords, vec))
            if prev in domains[func.name]:
                source = ProducerSource(IterNode(func.name, prev), None)
            else:
                head = cs_edges[0].source
                assert isinstance(head, ProducerSource)
                source = ProducerSource(head.node, None)
            new_edges.append(FlowEdge(source, node, cs_edges[0].port, "cs"))

    for e in graph.edges:
        if (e.sink, e.port) not in handled:
            new_edges.append(e)

    topo = _topo_sort(graph.nodes, new_edges)
    return DataflowGraph(graph.spec, graph.m, graph.n, graph.nodes, new_edges,
                         graph.node_pattern, graph.node_case, graph.node_cells,
                         graph.node_stores, topo)


# --- graph execution (the schedule-independent oracle) -----------------------

KERNELS = {
    specdsl.KERNEL_ELIMINATE: numeric.kernel_eliminate,
    specdsl.KERNEL_UPDATE: numeric.kernel_update,
}


def evaluate_graph(graph: DataflowGraph, aug: AugmentedMatrix) -> AugmentedMatrix:
    """Fire every node once in topological order and replay cell writes.

    Memory arguments read the immutable initial snapshot; producer arguments
    read the recorded output tuples.  The returned matrix carries each cell's
    final value, which is schedule-independent because dependences totally
    order every cell's updates.
    """
    snapshot = aug.inner
    result = aug.inner.copy()
    values: dict[IterNode, tuple[float, ...]] = {}

    for node in graph.topo_order:
        case = graph.node_case[node]
        args: list[float] = []
        ports = {e.port: e for e in graph.in_edges[node]}
        for port, arg in enumerate(case.args):
            if isinstance(arg, ConstRef):
                args.append(arg.value)
                continue
            edge = ports[port]
            if isinstance(edge.source, MemorySource):
                args.append(snapshot.get(edge.source.row, edge.source.col))
            else:
                args.append(values[edge.source.node][edge.source.index])
        out = KERNELS[case.kernel](*args)
        values[node] = out
        cells = graph.node_cells[node]
        for i in range(0, len(cells), 3):
            result.set(cells[i + 1], cells[i + 2], out[cells[i]])

    return AugmentedMatrix(aug.m, aug.n, result)


# --- access trace --------------------------------------------------------------

@dataclass(frozen=True)
class Access:
    name: str
    indices: tuple[int, int]
    mode: str  # "R", "W", or "RW"

    def render(self) -> str:
        suffix = "" if self.mode == "RW" else f"({self.mode})"
        return f"{self.name}[{self.indices[0]},{self.indices[1]}]{suffix}"


@dataclass(frozen=True)
class TraceEvent:
    col: int
    row: int
    k: int | None
    accesses: tuple[Access, ...]

    def iteration_label(self) -> str:
        return f"{self.col},{self.row},{'-' if self.k is None else self.k}"


def emit_trace(m: int, n: int) -> list[TraceEvent]:
    """Per-iteration data accesses of the reference loop nest, in loop order.

    Rotation parameters are written by the eliminating iteration and read by
    the update iterations of the same (col, row); matrix cells are read and
    written in place.
    """
    if m < 1 or n < 1:
        raise ValueError(f"sizes must be >= 1, got {m}, {n}")
    events: list[TraceEvent] = []
    for col in range(1, n + 1):
        for row in range(m, col, -1):
            events.append(TraceEvent(col, row, None, (
                Access("c,s", (row, col), "W"),
                Access("A'", (row, col), "RW"),
                Access("A'", (row - 1, col), "RW"),
            )))
            for k in range(col + 1, n + 2):
                events.append(TraceEvent(col, row, k, (
                    Access("c,s", (row, col), "R"),
                    Access("A'", (row, k), "RW"),
                    Access("A'", (row - 1, k), "RW"),
                )))
    return events


def format_trace_text(events: list[TraceEvent]) -> str:
    if not events:
        return ""
    width = max(len(e.iteration_label()) for e in events)
    lines = [
        f"{e.iteration_label():<{width}}  " + " ".join(a.render() for a in e.accesses)
        for e in events
    ]
    return "\n".join(lines) + "\n"


def trace_to_json(events: list[TraceEvent]) -> str:
    obj = {
        "schema": 1,
        "events": [
            {
                "col": e.col,
                "row": e.row,
                "k": e.k,
                "accesses": [
                    {"name": a.name, "indices": list(a.indices), "mode": a.mode}
                    for a in e.accesses
                ],
            }
            for e in events
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- exports --------------------------------------------------------------------

def _node_id(node: IterNode) -> str:
    return f"{node.func}_" + "_".join(str(c) for c in node.coords)


def emit_dot(graph: DataflowGraph) -> str:
    """Deterministic DOT rendering of the iteration nodes and value edges.

    Elimination nodes are ellipses, update nodes boxes.  The (c, s) pair is
    drawn as one dashed green line per consumer; memory loads are omitted
    (they are boundary inputs, available in the JSON dump).
    """
    lines = ["digraph dataflow {", "  rankdir=TB;"]
    for node in graph.nodes:
        kernel = graph.node_case[node].kernel
        shape = "ellipse" if kernel == KERNEL_ELIMINATE else "box"
        lines.append(f'  "{_node_id(node)}" [shape={shape}];')
    for e in graph.edges:
        if not isinstance(e.source, ProducerSource):
            continue
        if e.pattern == "cs":
            # draw one line per pair: the c element or a relayed pair
            if e.source.index not in (0, None):
                continue
            attrs = ' [color=forestgreen, style=dashed, label="cs"]'
        else:
            attrs = ""
        lines.append(f'  "{_node_id(e.source.node)}" -> "{_node_id(e.sink)}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_stats(graph: DataflowGraph) -> dict[str, int]:
    """Node/edge census plus the longest dependence chain, counted in nodes."""
    x_nodes = sum(1 for node in graph.nodes
                  if graph.node_case[node].kernel == KERNEL_ELIMINATE)
    y_nodes = len(graph.nodes) - x_nodes
    memory_edges = sum(1 for e in graph.edges if isinstance(e.source, MemorySource))
    cs_pairs = sum(
        1 for e in graph.edges
        if e.pattern == "cs" and isinstance(e.source, ProducerSource)
        and e.source.index in (0, None)
    )
    data_edges = sum(
        1 for e in graph.edges
        if isinstance(e.source, ProducerSource) and e.pattern != "cs"
    )

    depth: dict[IterNode, int] = {}
    for node in graph.topo_order:
        best = 0
        for e in graph.in_edges[node]:
            if isinstance(e.source, ProducerSource):
                best = max(best, depth[e.source.node])
        depth[node] = best + 1
    return {
        "x_nodes": x_nodes,
        "y_nodes": y_nodes,
        "memory_edges": memory_edges,
        "cs_edges": cs_pairs,
        "data_edges": data_edges,
        "critical_path_length": max(depth.values(), default=0),
    }


def graph_to_json(graph: DataflowGraph) -> str:
    def source_obj(e: FlowEdge) -> object:
        if isinstance(e.source, MemorySource):
            return {"memory": {"input": e.source.input, "row": e.source.row,
                               "col": e.source.col}}
        return {"producer": {"func": e.source.node.func,
                             "coords": list(e.source.node.coords),
                             "index": e.source.index}}

    obj = {
        "schema": 1,
        "m": graph.m,
        "n": graph.n,
        "nodes": [
            {"func": node.func, "coords": list(node.coords),
             "pattern": graph.node_pattern[node]}
            for node in graph.nodes
        ],
        "edges": [
            {"source": source_obj(e),
             "sink": {"func": e.sink.func, "coords": list(e.sink.coords)},
             "port": e.port, "pattern": e.pattern}
            for e in graph.edges
        ],
        "stats": graph_stats(graph),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
