"""Iteration-level dataflow: graph building, traces, DOT export.

Every loop iteration of a spatial function becomes a node.  The arguments
of its firing recurrence case become its rotation pair (the c and s it reads
from one eliminating iteration), its data edges from producing iterations and
its memory loads.  Nodes are numbered in walk order, and every per-node table
is a tuple indexed by that node id.  The module also carries a pull-based
evaluator over the topological order, used as an independent oracle against
both the imperative reference and the processing-element simulator.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping

from spatialqr import specdsl
from spatialqr.numeric import AugmentedMatrix, NonFiniteError
from spatialqr.specdsl import (
    A_PRIME,
    KERNEL_ELIMINATE,
    KERNELS,
    CallRef,
    MemoryRef,
    SpatialSpec,
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
class DataflowGraph:
    """Nodes in walk order; a node's id is its index in ``nodes`` and in every table.

    A node's inputs are its rotation pair, whose c and s it applies, its data
    edges and its memory loads.  ``relay_from`` is wiring only: on a
    :func:`relay_view` it maps each relay hop to the chain neighbour that
    hands it the pair, and it is empty on a plain graph.  The graph is
    immutable: its tables are tuples and its mappings read-only.
    """

    spec: SpatialSpec
    m: int
    n: int
    nodes: tuple[IterNode, ...]
    node_case: tuple[specdsl.RecurrenceCase, ...]
    node_kernel: tuple[tuple[Callable[..., tuple[float, ...]], int], ...]  # (kernel, arity)
    node_cells: tuple[tuple[int, ...], ...]  # flat (tuple index, row, col) triples
    node_stores: tuple[tuple[int, ...], ...]  # likewise; empty for nodes that store nothing
    pairs: tuple[tuple[int, int, int] | None, ...]  # (producer, port of c, port of s)
    data: tuple[tuple[tuple[int, int, int], ...], ...]  # (producer, tuple index, port)
    loads: tuple[tuple[tuple[int, int, int], ...], ...]  # (row, col, port) of the input
    topo_order: tuple[int, ...]
    ids: Mapping[str, Mapping[tuple[int, ...], int]]  # node id per function name and coordinates
    relay_from: Mapping[int, int]  # relay hop -> the chain neighbour that hands it the pair

    @property
    def edges(self) -> list[tuple[tuple, int, int, str]]:
        """Every value edge as ``(source, sink, port, pattern)``, derived from the tables.

        A source is ``(producer, tuple index)`` or ``(input, row, col)``.  A
        pair gives its c and s edges, or on a relay hop (``relay_from``) one
        edge with index None from the chain neighbour, all with pattern "cs".
        Relayed pairs come first, then every other edge in node and port order.
        """
        hops = self.relay_from
        edges = [((hops[i], None), i, min(self.pairs[i][1:]), "cs") for i in sorted(hops)]
        for i, (pair, case) in enumerate(zip(self.pairs, self.node_case)):
            ins = [None] * len(case.args)  # per port, the edge into it
            for p, index, port in self.data[i]:
                ins[port] = ((p, index), i, port, case.label)
            for row, col, port in self.loads[i]:
                ins[port] = ((A_PRIME, row, col), i, port, case.label)
            if pair is not None and i not in hops:
                ins[pair[1]] = ((pair[0], 0), i, pair[1], "cs")
                ins[pair[2]] = ((pair[0], 1), i, pair[2], "cs")
            edges += filter(None, ins)
        return edges

    def producers(self, i: int) -> list[int]:
        """The nodes that hand node ``i`` its inputs: the pair's producer, or on a
        relay hop its chain neighbour, then its data edges' producers."""
        pair = self.pairs[i]
        handed = [] if pair is None else [self.relay_from.get(i, pair[0])]
        return handed + [e[0] for e in self.data[i]]


# The graph build_graph returned last: (spec, shape, graph, derived), the spec
# by identity and the shape as (type(m), m, type(n), n), so that m=True does
# not get the graph of m=1.  ``derived`` is where later stages keep what they
# build from that graph (``simulator.compile_design``), so it goes with it.
_latest: tuple = (None, None, None, None)


def build_graph(spec: SpatialSpec, m: int, n: int) -> DataflowGraph:
    """One node per iteration, with its rotation pair, data edges and memory loads.

    Built from one :func:`specdsl.walk`, so the spec is validated on the
    way: a spec with violations at (m, n) raises ValueError naming the first
    few.  Raises :class:`CycleError` with a witness path if the dependences
    are cyclic.  The graph of the latest ``(spec, m, n)`` is kept and
    returned again at that shape; a call at another shape drops it before
    building, so no two shapes' graphs are kept together, and a build that
    raises keeps nothing.
    """
    global _latest
    kept = kept_graph(spec, m, n)
    if kept is not None:
        return kept[0]
    _latest = (None, None, None, None)
    graph = _build(spec, m, n)
    _latest = (spec, (type(m), m, type(n), n), graph, {})
    return graph


def kept_graph(spec: SpatialSpec, m: int, n: int) -> tuple[DataflowGraph, dict] | None:
    """The graph :func:`build_graph` keeps for ``(spec, m, n)`` and the dict
    where later stages keep what they derive from it; None if it keeps none."""
    spec_, shape, graph, derived = _latest
    return (graph, derived) if spec_ is spec and shape == (type(m), m, type(n), n) else None


def forget_graph(graph: DataflowGraph) -> None:
    """Drop the graph :func:`build_graph` keeps, if it is ``graph``, with what derives from it."""
    global _latest
    if _latest[2] is graph:
        _latest = (None, None, None, None)


def _build(spec: SpatialSpec, m: int, n: int) -> DataflowGraph:
    report = specdsl.ValidationReport(m, n)
    # the walk goes on to collect every violation
    firings = [firing for firing in specdsl.walk(spec, m, n, report) if report.ok]
    if not report.ok:
        summary = "; ".join(str(v) for v in report.violations[:5])
        raise ValueError(f"spec does not validate at ({m}, {n}): {summary}")

    ids: dict[str, dict[tuple[int, ...], int]] = {f.name: {} for f in spec.funcs}
    for i, firing in enumerate(firings):
        ids[firing.func][firing.coords] = i
    plans: dict[int, tuple] = {}  # id of a recurrence case -> where its arguments come from
    pairs: list[tuple[int, int, int] | None] = []
    data: list[tuple[tuple[int, int, int], ...]] = []
    loads: list[tuple[tuple[int, int, int], ...]] = []
    kernels: list[tuple] = []
    for firing in firings:
        plan = plans.get(id(firing.case))
        if plan is None:
            plan = plans[id(firing.case)] = _case_plan(spec, firing.case, ids)
        pair, calls, memory, kernel = plan
        kernels.append(kernel)
        sources = firing.sources
        pairs.append(None if pair is None else (pair[0][sources[pair[1]]], pair[1], pair[2]))
        data.append(tuple([(callee[sources[port]], index, port) for callee, index, port in calls]))
        loads.append(tuple([(*sources[port], port) for port in memory]))

    graph = DataflowGraph(
        spec, m, n, tuple([IterNode(f.func, f.coords) for f in firings]),
        node_case=tuple([f.case for f in firings]),
        node_kernel=tuple(kernels),
        node_cells=tuple([f.cells for f in firings]),
        node_stores=tuple([f.stores for f in firings]),
        pairs=tuple(pairs), data=tuple(data), loads=tuple(loads), topo_order=(),
        ids=MappingProxyType({name: MappingProxyType(of) for name, of in ids.items()}),
        relay_from=MappingProxyType({}),
    )
    return dataclasses.replace(graph, topo_order=_topo_sort(graph))


def _case_plan(spec: SpatialSpec, case: specdsl.RecurrenceCase,
               ids: dict[str, dict[tuple[int, ...], int]]) -> tuple:
    """Where a case's arguments come from: its pair (callee ids, port of c, port of s)
    or None, its data calls (callee ids, tuple index, port) and its memory ports;
    then its kernel and arity, the one place the kernel is looked up."""
    reads = spec.pair_reads(case)  # validation makes it one .0 and one .1 of one call
    ports = {a.index: port for port, a in reads.items()}
    pair = (ids[reads[ports[0]].func], ports[0], ports[1]) if reads else None
    calls = [(ids[a.func], a.index, port) for port, a in enumerate(case.args)
             if isinstance(a, CallRef) and port not in reads]
    memory = [port for port, a in enumerate(case.args) if isinstance(a, MemoryRef)]
    return pair, calls, memory, (KERNELS[case.kernel][0], len(case.args))


def _topo_sort(graph: DataflowGraph) -> tuple[int, ...]:
    """Kahn's order, always taking the smallest ready node id."""
    indeg = [0] * len(graph.nodes)
    succs: list[list[int]] = [[] for _ in indeg]
    for i in range(len(indeg)):
        preds = graph.producers(i)
        for p in preds:
            succs[p].append(i)
        indeg[i] = len(preds)

    ready = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succs[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(indeg):
        raise CycleError(_find_cycle(graph, indeg))
    return tuple(order)


def _find_cycle(graph: DataflowGraph, indeg: list[int]) -> list[IterNode]:
    """A closed path of edges, first node repeated last, found by walking
    predecessors from the node left unsorted (``indeg`` > 0) with the least
    name: every such node has an unsorted predecessor, and the walk takes
    the one with the least id."""
    nodes = graph.nodes
    path: list[int] = []
    seen: dict[int, int] = {}
    node = min((i for i, d in enumerate(indeg) if d > 0), key=lambda i: str(nodes[i]))
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(p for p in graph.producers(node) if indeg[p] > 0)
    return [nodes[i] for i in (path[seen[node]:] + [node])[::-1]]


def relay_view(graph: DataflowGraph) -> DataflowGraph:
    """Wire rotation pairs along hop-by-hop relay chains.

    For each function with a relay vector, every node is handed its pair
    by the neighbour one step against the relay vector; the chain head, which
    has no such neighbour, gets it from the pair's producer.  The view adds
    only ``relay_from``, hop to neighbour, and shares every table of
    ``graph``, ``pairs`` included: a node still applies its own producer's c
    and s, so the view evaluates to the same bits.

    The view keeps ``graph``'s topological order when every neighbour comes
    before its hop in it, as it does for the built-in spec.  Otherwise it
    sorts its nodes again, which raises :class:`CycleError` when a relay
    chain closes a dependence cycle.  A chain that would hand a node another
    elimination's pair than the one it reads raises ValueError.
    """
    relay_from: dict[int, int] = {}
    for func in graph.spec.funcs:
        if func.relay is not None:
            ids = graph.ids[func.name]
            for coords, i in ids.items():
                prev = ids.get(tuple([c - v for c, v in zip(coords, func.relay)]))
                if prev is not None:  # validation gives every node of a relaying function a pair
                    relay_from[i] = prev

    view = dataclasses.replace(graph, relay_from=MappingProxyType(relay_from))
    position = [0] * len(graph.nodes)
    for k, i in enumerate(graph.topo_order):
        position[i] = k
    if any(position[prev] > position[i] for i, prev in relay_from.items()):
        view = dataclasses.replace(view, topo_order=_topo_sort(view))
    nodes, pairs = graph.nodes, graph.pairs
    for i, prev in relay_from.items():
        if pairs[prev][0] != pairs[i][0]:
            raise ValueError(f"relay chain {nodes[prev]} -> {nodes[i]} would pass on the pair of "
                             f"{nodes[pairs[prev][0]]}, but {nodes[i]} reads {nodes[pairs[i][0]]}'s")
    return view


# --- graph execution (the schedule-independent oracle) -----------------------

def evaluate_graph(graph: DataflowGraph, aug: AugmentedMatrix) -> AugmentedMatrix:
    """Fire every node once in topological order and replay cell writes.

    Memory arguments read the immutable initial snapshot; producer arguments
    read the recorded output tuples, a pair its producer's c and s, on a
    relay view as on its graph.  The returned matrix carries each cell's
    final value, which is schedule-independent because dependences totally
    order every cell's updates.  The first non-finite kernel output raises
    :class:`NonFiniteError` naming its node, as the simulator's ``execute``
    does.
    """
    get = aug.inner.get
    result = aug.inner.copy()
    values: list[tuple[float, ...] | None] = [None] * len(graph.nodes)

    for i in graph.topo_order:
        kernel, arity = graph.node_kernel[i]
        args = [None] * arity
        pair = graph.pairs[i]
        if pair is not None:
            src, lo, hi = pair
            args[lo], args[hi] = values[src][:2]
        for producer, index, port in graph.data[i]:
            args[port] = values[producer][index]
        for row, col, port in graph.loads[i]:
            args[port] = get(row, col)
        out = values[i] = kernel(*args)
        if not all(map(math.isfinite, out)):
            raise NonFiniteError(f"non-finite kernel output at {graph.nodes[i]}")
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
    node's result cells are read and written in place.  The rule is keyed
    on the kernel: an eliminating node follows its own rotation, not the
    pair it reads, and any other node the producer of its pair, which only
    ever eliminates (``spec.pair_reads``).
    """
    rotation = [pair[0] if pair is not None and case.kernel != KERNEL_ELIMINATE else i
                for i, (pair, case) in enumerate(zip(graph.pairs, graph.node_case))]
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
    for source, sink, _, pattern in graph.edges:
        # no memory loads, and one line per pair: its c element or the relayed pair
        if len(source) == 3 or pattern == "cs" and source[1] == 1:
            continue
        attrs = ' [color=forestgreen, style=dashed, label="cs"]' if pattern == "cs" else ""
        lines.append(f'  "{names[source[0]]}" -> "{names[sink]}"{attrs};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_stats(graph: DataflowGraph) -> dict[str, int]:
    """Node/edge census plus the longest dependence chain, counted in nodes."""
    x_nodes = sum(1 for case in graph.node_case if case.kernel == KERNEL_ELIMINATE)
    depth = [0] * len(graph.nodes)
    for i in graph.topo_order:
        depth[i] = 1 + max((depth[p] for p in graph.producers(i)), default=0)
    return {
        "x_nodes": x_nodes,
        "y_nodes": len(graph.nodes) - x_nodes,
        "memory_edges": sum(map(len, graph.loads)),
        "cs_edges": sum(1 for pair in graph.pairs if pair is not None),
        "data_edges": sum(map(len, graph.data)),
        "critical_path_length": max(depth, default=0),
    }


def graph_to_json(graph: DataflowGraph) -> str:
    def source_obj(source: tuple) -> object:
        if len(source) == 3:
            return {"memory": {"input": source[0], "row": source[1], "col": source[2]}}
        node = graph.nodes[source[0]]
        return {"producer": {"func": node.func, "coords": list(node.coords),
                             "index": source[1]}}

    obj = {
        "schema": 1,
        "m": graph.m,
        "n": graph.n,
        "nodes": [
            {"func": node.func, "coords": list(node.coords), "pattern": case.label}
            for node, case in zip(graph.nodes, graph.node_case)
        ],
        "edges": [
            {"source": source_obj(source),
             "sink": {"func": graph.nodes[sink].func,
                      "coords": list(graph.nodes[sink].coords)},
             "port": port, "pattern": pattern}
            for source, sink, port, pattern in graph.edges
        ],
        "stats": graph_stats(graph),
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
