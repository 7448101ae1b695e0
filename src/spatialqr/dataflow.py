"""Iteration-level dataflow: graph building, traces, DOT export.

Every loop iteration of a spatial function becomes a node; every argument of
its firing recurrence case becomes an edge from memory or from the producing
iteration.  Nodes are numbered in walk order, and every per-node table is a
list indexed by that node id.  The module also carries a pull-based
evaluator over the topological order, used as an independent oracle against
both the imperative reference and the processing-element simulator.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from typing import NamedTuple

from spatialqr import numeric, specdsl
from spatialqr.numeric import AugmentedMatrix
from spatialqr.specdsl import A_PRIME, KERNEL_ELIMINATE, CallRef, ConstRef, MemoryRef, SpatialSpec


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


class MemorySource(NamedTuple):
    input: str
    row: int
    col: int


class ProducerSource(NamedTuple):
    node: int  # producer's node id
    index: int | None  # None marks a relayed (c, s) pair in the relay view


class FlowEdge(NamedTuple):
    source: MemorySource | ProducerSource
    sink: int  # consumer's node id
    port: int
    pattern: str  # case label a-d for data/memory edges, "cs" for rotation pairs


@dataclass
class DataflowGraph:
    """Nodes in walk order; a node's id is its index in ``nodes`` and in every table."""

    spec: SpatialSpec
    m: int
    n: int
    nodes: list[IterNode]
    edges: list[FlowEdge]
    node_pattern: list[str]
    node_case: list[specdsl.RecurrenceCase]
    node_cells: list[tuple[int, ...]]  # flat (tuple index, row, col) triples
    node_stores: list[tuple[int, ...]]  # likewise; empty for nodes that store nothing
    in_edges: list[list[FlowEdge]]  # per node, in port order
    topo_order: list[int]
    ids: dict[str, dict[tuple[int, ...], int]]  # node id per function name and coordinates


def build_graph(spec: SpatialSpec, m: int, n: int) -> DataflowGraph:
    """One node per iteration, one edge per firing-case argument.

    Built from one :func:`specdsl.walk`, so the spec is validated on the
    way: a spec with violations at (m, n) raises ValueError naming the first
    few.  Raises :class:`CycleError` with a witness path if the dependences
    are cyclic.
    """
    report = specdsl.ValidationReport(m, n)
    # the walk goes on to collect every violation
    firings = [firing for firing in specdsl.walk(spec, m, n, report) if report.ok]
    if not report.ok:
        summary = "; ".join(str(v) for v in report.violations[:5])
        raise ValueError(f"spec does not validate at ({m}, {n}): {summary}")

    ids: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in spec.funcs}
    for i, firing in enumerate(firings):
        ids[firing.func][firing.coords] = i
    # a call reads a rotation pair when its producer only eliminates
    cs_funcs = {f.name for f in spec.funcs if {c.kernel for c in f.cases} == {KERNEL_ELIMINATE}}
    nodes: list[IterNode] = []
    edges: list[FlowEdge] = []
    in_edges: list[list[FlowEdge]] = []
    for i, firing in enumerate(firings):
        case = firing.case
        nodes.append(IterNode(firing.func, firing.coords))
        ins = []
        for port, (arg, source) in enumerate(zip(case.args, firing.sources)):
            if isinstance(arg, MemoryRef):
                ins.append(FlowEdge(MemorySource(arg.input, *source), i, port, case.label))
            elif isinstance(arg, CallRef):
                pattern = "cs" if arg.func in cs_funcs and arg.index in (0, 1) else case.label
                producer = ProducerSource(ids[arg.func][source], arg.index)
                ins.append(FlowEdge(producer, i, port, pattern))
            # ConstRef arguments carry no edge
        in_edges.append(ins)
        edges += ins

    return DataflowGraph(
        spec, m, n, nodes, edges,
        node_pattern=[f.case.label for f in firings],
        node_case=[f.case for f in firings],
        node_cells=[f.cells for f in firings],
        node_stores=[f.stores for f in firings],
        in_edges=in_edges,
        topo_order=_topo_sort(nodes, in_edges),
        ids=ids,
    )


def _topo_sort(nodes: list[IterNode], in_edges: list[list[FlowEdge]]) -> list[int]:
    """Kahn's order, always taking the smallest ready node id."""
    indeg = [0] * len(nodes)
    succs: list[list[int]] = [[] for _ in nodes]
    for i, ins in enumerate(in_edges):
        for e in ins:
            if isinstance(e.source, ProducerSource):
                succs[e.source.node].append(i)
                indeg[i] += 1

    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(nodes):
        raise CycleError(_find_cycle(nodes, in_edges, indeg))
    return order


def _find_cycle(nodes: list[IterNode], in_edges: list[list[FlowEdge]],
                indeg: list[int]) -> list[IterNode]:
    """A closed path of edges, first node repeated last, found by walking
    predecessors from the node left unsorted (``indeg`` > 0) with the least
    name: every such node has an unsorted predecessor, and the walk takes
    the one with the least id."""
    path: list[int] = []
    seen: dict[int, int] = {}
    node = min((i for i, d in enumerate(indeg) if d > 0), key=lambda i: str(nodes[i]))
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(e.source.node for e in in_edges[node]
                   if isinstance(e.source, ProducerSource) and indeg[e.source.node] > 0)
    return [nodes[i] for i in (path[seen[node]:] + [node])[::-1]]


def relay_view(graph: DataflowGraph) -> DataflowGraph:
    """Rewrite rotation-pair edges into hop-by-hop relay chains.

    For each function with a relay directive, the two (c, s) edges of every
    node are replaced by a single pair edge: from the original producer at
    the chain head, from the neighbour one step against the relay vector
    elsewhere.  Data and memory edges are untouched.  The view is a port
    remap: it shares ``graph``'s nodes, per-node tables and the in-edge
    lists of every node it does not rewrite.

    The view keeps ``graph``'s topological order when every pair edge points
    forward in it, as it does for the built-in spec.  Otherwise it sorts its
    own edges, which raises :class:`CycleError` when a relay chain closes a
    dependence cycle.
    """
    in_edges = list(graph.in_edges)
    pairs: list[FlowEdge] = []
    for func in graph.spec.funcs:
        relay = func.relay()
        if relay is None:
            continue
        ids = graph.ids[func.name]
        for coords, i in ids.items():
            cs = [e for e in in_edges[i] if e.pattern == "cs"]
            if not cs:
                continue
            prev = ids.get(tuple(c - v for c, v in zip(coords, relay.vector)))
            pair = FlowEdge(ProducerSource(cs[0].source.node if prev is None else prev, None),
                            i, cs[0].port, "cs")
            pairs.append(pair)
            in_edges[i] = [pair if e is cs[0] else e for e in in_edges[i]
                           if e.pattern != "cs" or e is cs[0]]
    edges = pairs + [e for e in graph.edges
                     if e.pattern != "cs" or in_edges[e.sink] is graph.in_edges[e.sink]]

    position = [0] * len(graph.nodes)
    for k, i in enumerate(graph.topo_order):
        position[i] = k
    if all(position[e.source.node] < position[e.sink] for e in pairs):
        topo = graph.topo_order
    else:
        topo = _topo_sort(graph.nodes, in_edges)
    return DataflowGraph(graph.spec, graph.m, graph.n, graph.nodes, edges,
                         graph.node_pattern, graph.node_case, graph.node_cells,
                         graph.node_stores, in_edges, topo, graph.ids)


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
    values: list[tuple[float, ...] | None] = [None] * len(graph.nodes)

    for i in graph.topo_order:
        case = graph.node_case[i]
        args = [arg.value if isinstance(arg, ConstRef) else None for arg in case.args]
        for e in graph.in_edges[i]:
            src = e.source
            if isinstance(src, MemorySource):
                args[e.port] = snapshot.get(src.row, src.col)
            else:
                args[e.port] = values[src.node][src.index]
        out = KERNELS[case.kernel](*args)
        values[i] = out
        cells = graph.node_cells[i]
        for k in range(0, len(cells), 3):
            result.set(cells[k + 1], cells[k + 2], out[cells[k]])

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


_ZEROED = 2  # the eliminate kernel's output that it zeroes


def emit_trace(graph: DataflowGraph) -> list[TraceEvent]:
    """Per-iteration data accesses of a graph or of its :func:`relay_view`.

    Each node follows the elimination whose rotation it applies, in node id
    order, which for the built-in spec is the reference loop nest.  The
    (c, s) pair is written by the eliminating node and read by the nodes
    that apply it, and is named by the cell the elimination zeroes; each
    node's result cells are read and written in place.  A pair edge may come
    from a relay neighbour, so rotations are followed in topological order.
    """
    rotation = list(range(len(graph.nodes)))
    for i in graph.topo_order:
        if graph.node_case[i].kernel != KERNEL_ELIMINATE:
            rotation[i] = next((rotation[e.source.node] for e in graph.in_edges[i]
                                if e.pattern == "cs"), i)
    events: list[TraceEvent] = []
    for i in sorted(range(len(graph.nodes)), key=lambda i: (rotation[i], i)):
        producer, cells = graph.node_cells[rotation[i]], graph.node_cells[i]
        zeroed = next(producer[k + 1:k + 3] for k in range(0, len(producer), 3)
                      if producer[k] == _ZEROED)
        accesses = [Access("c,s", zeroed, "W" if rotation[i] == i else "R")]
        accesses += [Access(A_PRIME, cells[k + 1:k + 3], "RW") for k in range(0, len(cells), 3)]
        col, row, *k = graph.nodes[i].coords
        events.append(TraceEvent(col, row, k[0] if k else None, tuple(accesses)))
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
    names = [_node_id(node) for node in graph.nodes]
    for name, case in zip(names, graph.node_case):
        shape = "ellipse" if case.kernel == KERNEL_ELIMINATE else "box"
        lines.append(f'  "{name}" [shape={shape}];')
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
        lines.append(f'  "{names[e.source.node]}" -> "{names[e.sink]}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_stats(graph: DataflowGraph) -> dict[str, int]:
    """Node/edge census plus the longest dependence chain, counted in nodes."""
    x_nodes = sum(1 for case in graph.node_case if case.kernel == KERNEL_ELIMINATE)
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

    depth = [0] * len(graph.nodes)
    for i in graph.topo_order:
        depth[i] = 1 + max((depth[e.source.node] for e in graph.in_edges[i]
                            if isinstance(e.source, ProducerSource)), default=0)
    return {
        "x_nodes": x_nodes,
        "y_nodes": y_nodes,
        "memory_edges": memory_edges,
        "cs_edges": cs_pairs,
        "data_edges": data_edges,
        "critical_path_length": max(depth, default=0),
    }


def graph_to_json(graph: DataflowGraph) -> str:
    def source_obj(e: FlowEdge) -> object:
        if isinstance(e.source, MemorySource):
            return {"memory": {"input": e.source.input, "row": e.source.row,
                               "col": e.source.col}}
        node = graph.nodes[e.source.node]
        return {"producer": {"func": node.func, "coords": list(node.coords),
                             "index": e.source.index}}

    obj = {
        "schema": 1,
        "m": graph.m,
        "n": graph.n,
        "nodes": [
            {"func": node.func, "coords": list(node.coords), "pattern": pattern}
            for node, pattern in zip(graph.nodes, graph.node_pattern)
        ],
        "edges": [
            {"source": source_obj(e),
             "sink": {"func": graph.nodes[e.sink].func,
                      "coords": list(graph.nodes[e.sink].coords)},
             "port": e.port, "pattern": e.pattern}
            for e in graph.edges
        ],
        "stats": graph_stats(graph),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
