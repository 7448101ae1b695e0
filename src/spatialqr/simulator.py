"""Processing-element array simulator driven by scheduling directives.

Iterations are placed onto PEs according to which loop dims are unrolled,
values travel through bounded FIFO channels (relay chains included), and a
deterministic event-driven sweep scheduler fires each PE's iterations in
program order.
Store directives drain final values into an assembled result matrix, and the
report carries occupancy and deadlock diagnostics.
"""

from __future__ import annotations

import heapq
import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Union

from spatialqr import numeric, specdsl
from spatialqr.dataflow import (
    DataflowGraph,
    IterNode,
    MemorySource,
    ProducerSource,
    build_graph,
    enumerate_iterations,
    relay_view,
)
from spatialqr.numeric import AugmentedMatrix, Matrix, NonFiniteError
from spatialqr.specdsl import (
    KERNEL_ARITY,
    ConstRef,
    SpatialSpec,
    eval_expr,
    validate,
)


class WiringError(ValueError):
    """Channels cannot be laid out consistently for this configuration."""


class DrainError(ValueError):
    """Store directives covered a result position twice or not at all."""


class SimulationError(RuntimeError):
    """A run exhausted ``max_steps`` or left values behind in its channels."""


@dataclass(frozen=True)
class PeId:
    """One processing element: a function plus its unrolled-dim coordinates."""

    func: str
    fixed: tuple[tuple[str, int], ...]

    def label(self) -> str:
        inside = ",".join(f"{d}={v}" for d, v in self.fixed)
        return f"{self.func}({inside})"


@dataclass(frozen=True)
class ChannelKey:
    src_pe: PeId
    src_tag: str  # "t<index>" for tuple elements, "cs" for pairs, "relay" for forwards
    dst_pe: PeId
    dst_tag: str  # "p<port>" for data ports, "cs" for the pair port

    def label(self) -> str:
        return f"{self.src_pe.label()}.{self.src_tag}->{self.dst_pe.label()}.{self.dst_tag}"


class Channel:
    """Bounded FIFO; producers block when full, consumers when empty.

    ``src`` and ``dst`` are the indices of the producer and consumer PEs in
    :attr:`Wiring.pes`.
    """

    __slots__ = ("key", "capacity", "src", "dst", "queue", "max_occupancy", "sends")

    def __init__(self, key: ChannelKey, capacity: int, src: int, dst: int):
        self.key = key
        self.capacity = capacity
        self.src = src
        self.dst = dst
        self.queue: deque = deque()
        self.max_occupancy = 0
        self.sends = 0

    def push(self, value) -> None:
        if len(self.queue) >= self.capacity:
            raise WiringError(f"push into full channel {self.key.label()}")
        self.queue.append(value)
        self.sends += 1
        self.max_occupancy = max(self.max_occupancy, len(self.queue))

    def pop(self):
        return self.queue.popleft()


@dataclass(frozen=True)
class SimConfig:
    """Placement and channel knobs for one simulation run.

    ``unroll`` maps function names to the dims kept unrolled; ``None`` means
    follow the spec's unroll directives (the fully spatial layout).  Folded
    dims execute in program order on their PE.
    """

    unroll: dict[str, tuple[str, ...]] | None = None
    channel_capacity: int = 2
    relay_enabled: bool = True
    max_steps: int = 1_000_000
    log_events: bool = False

    def __post_init__(self) -> None:
        if self.channel_capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")

    def describe(self) -> dict:
        return {
            "unroll": None if self.unroll is None
            else {name: list(dims) for name, dims in sorted(self.unroll.items())},
            "channel_capacity": self.channel_capacity,
            "relay_enabled": self.relay_enabled,
        }


def spec_unroll(spec: SpatialSpec) -> dict[str, tuple[str, ...]]:
    """The unroll sets named by the spec's own directives."""
    return {f.name: f.unrolled_dims() for f in spec.funcs}


def folded_unroll(spec: SpatialSpec, drop: tuple[str, ...] = ("row",)) -> dict[str, tuple[str, ...]]:
    """The spec's unroll sets minus ``drop``: those dims time-multiplex on one PE."""
    return {
        f.name: tuple(d for d in f.unrolled_dims() if d not in drop)
        for f in spec.funcs
    }


def place(spec: SpatialSpec, cfg: SimConfig, m: int, n: int) -> dict[IterNode, PeId]:
    """Map each iteration to the PE fixed at its unrolled-dim values."""
    unroll = cfg.unroll if cfg.unroll is not None else spec_unroll(spec)
    placement: dict[IterNode, PeId] = {}
    for func in spec.funcs:
        keep = set(unroll.get(func.name, func.unrolled_dims()))
        unknown = keep - set(func.dims)
        if unknown:
            raise WiringError(f"{func.name}: cannot unroll unknown dims {sorted(unknown)}")
        for node in enumerate_iterations(func, m, n):
            fixed = tuple(
                (d, c) for d, c in zip(func.dims, node.coords) if d in keep
            )
            placement[node] = PeId(func.name, fixed)
    return placement


# --- firing plans -------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class PairFetch:
    chan: Channel
    ports: tuple[int, int]


@dataclass(frozen=True, slots=True)
class ChanFetch:
    chan: Channel
    port: int


@dataclass(frozen=True, slots=True)
class MemFetch:
    row: int
    col: int
    port: int


@dataclass(frozen=True, slots=True)
class ConstFetch:
    value: float
    port: int


Fetch = Union[PairFetch, ChanFetch, MemFetch, ConstFetch]


@dataclass(frozen=True, slots=True)
class PairPush:
    chan: Channel
    forward: bool  # True: forward the consumed pair; False: emit own outputs (0, 1)


@dataclass(frozen=True, slots=True)
class DataPush:
    chan: Channel
    index: int


Push = Union[PairPush, DataPush]


@dataclass(frozen=True, slots=True)
class StoreOp:
    index: int
    position: tuple[int, int]


@dataclass(slots=True)
class FiringPlan:
    """One iteration's firing, with its readiness check compiled in.

    The plan is ready when every queue in ``pops`` holds a value and every
    queue in ``room`` has a free slot.  ``wire`` guarantees that a firing
    pops at most one value from, and pushes at most one value into, each
    channel, so these two sets are the whole check; a channel the plan both
    pops and pushes frees its own slot and needs no room check.  ``wakes``
    lists the PE indices whose readiness this firing can change: the
    consumers of the channels it pushes to, the producers of the channels it
    pops from, and its own PE.
    """

    node: IterNode
    kernel: str
    fetches: tuple[Fetch, ...]
    pushes: tuple[Push, ...]
    stores: tuple[StoreOp, ...]
    pops: tuple[deque, ...]
    room: tuple[deque, ...]
    wakes: tuple[int, ...]


@dataclass
class Wiring:
    channels: dict[ChannelKey, Channel]
    plans: dict[IterNode, FiringPlan]
    pes: list[PeId]  # sorted; a PE's index here is its scheduling priority
    programs: list[list[FiringPlan]]  # per PE index, in program order
    graph: DataflowGraph  # post-relay view when relaying is enabled


def wire(graph: DataflowGraph, placement: dict[IterNode, PeId], cfg: SimConfig) -> Wiring:
    """Turn value edges into bounded channels between placed PEs.

    With relaying enabled, rotation-pair edges are first rewritten into
    hop-by-hop chains along each relay directive's vector; only the chain
    head still receives the pair straight from its producer.  Edges between
    iterations folded onto one PE still go through a channel of the same
    capacity, so folding is purely a re-placement.
    """
    spec = graph.spec
    work = graph
    if cfg.relay_enabled and any(f.relay() is not None for f in spec.funcs):
        work = relay_view(graph)

    local_order: dict[PeId, list[IterNode]] = {}
    for node in work.nodes:
        local_order.setdefault(placement[node], []).append(node)
    pes = sorted(local_order, key=lambda pe: (pe.func, pe.fixed))
    # node -> (index of its PE in ``pes``, its position in that PE's program)
    position = {
        node: (pe, i)
        for pe, nodes in enumerate(local_order[pe] for pe in pes)
        for i, node in enumerate(nodes)
    }

    channels: dict[ChannelKey, Channel] = {}
    flows: dict[ChannelKey, list[tuple[int, int]]] = {}

    def channel_for(key: ChannelKey, src: IterNode, dst: IterNode) -> Channel:
        (src_pe, src_i), (dst_pe, dst_i) = position[src], position[dst]
        chan = channels.get(key)
        if chan is None:
            chan = channels[key] = Channel(key, cfg.channel_capacity, src_pe, dst_pe)
            flows[key] = []
        flows[key].append((src_i, dst_i))
        return chan

    consts = {"M": graph.m, "N": graph.n}
    fetches: dict[IterNode, list[Fetch]] = {node: [] for node in work.nodes}
    pushes: dict[IterNode, list[Push]] = {node: [] for node in work.nodes}
    stores: dict[IterNode, list[StoreOp]] = {node: [] for node in work.nodes}

    for node in work.nodes:
        case = work.node_case[node]
        edges = sorted(work.in_edges[node], key=lambda e: e.port)
        cs_edges = [e for e in edges if e.pattern == "cs"]
        if cs_edges:
            pair_key = _pair_channel(cs_edges, node, placement)
            src_node = cs_edges[0].source.node
            chan = channel_for(pair_key, src_node, node)
            ports = tuple(sorted(e.port for e in cs_edges))
            if len(ports) == 1:
                ports = (ports[0], ports[0] + 1)
            fetches[node].append(PairFetch(chan, ports))
            pushes[src_node].append(
                PairPush(chan, forward=pair_key.src_tag == "relay")
            )
        for e in edges:
            if e.pattern == "cs":
                continue
            if isinstance(e.source, MemorySource):
                fetches[node].append(MemFetch(e.source.row, e.source.col, e.port))
            else:
                key = ChannelKey(
                    placement[e.source.node], f"t{e.source.index}",
                    placement[node], f"p{e.port}",
                )
                chan = channel_for(key, e.source.node, node)
                fetches[node].append(ChanFetch(chan, e.port))
                pushes[e.source.node].append(DataPush(chan, e.source.index))
        for port, arg in enumerate(case.args):
            if isinstance(arg, ConstRef):
                fetches[node].append(ConstFetch(arg.value, port))

        func = spec.func(node.func)
        bindings = dict(consts)
        bindings.update(zip(func.dims, node.coords))
        for directive in func.stores():
            if eval_expr(directive.condition, bindings) is True:
                for idx in directive.indices:
                    cell = func.cell_map[idx]
                    if cell is None:
                        raise WiringError(
                            f"{node}: store index {idx} maps to no result cell"
                        )
                    pos = (eval_expr(cell[0], bindings), eval_expr(cell[1], bindings))
                    stores[node].append(StoreOp(idx, pos))

    for key, pairs in flows.items():
        by_producer = sorted(pairs)
        consumer_seq = [c for _, c in by_producer]
        if consumer_seq != sorted(consumer_seq) or len(set(consumer_seq)) != len(consumer_seq):
            raise WiringError(
                f"channel {key.label()}: push order does not match pop order"
            )
        producers = [p for p, _ in by_producer]
        if len(set(producers)) != len(producers):
            raise WiringError(
                f"channel {key.label()}: one firing would push twice"
            )

    plans: dict[IterNode, FiringPlan] = {}
    for node in work.nodes:
        popped = [f.chan for f in fetches[node] if isinstance(f, (PairFetch, ChanFetch))]
        pushed = [p.chan for p in pushes[node]]
        wakes = {position[node][0], *[c.src for c in popped], *[c.dst for c in pushed]}
        plans[node] = FiringPlan(
            node=node,
            kernel=work.node_case[node].kernel,
            fetches=tuple(fetches[node]),
            pushes=tuple(pushes[node]),
            stores=tuple(stores[node]),
            pops=tuple([c.queue for c in popped]),
            room=tuple([c.queue for c in pushed if c not in popped]),
            wakes=tuple(sorted(wakes)),
        )
    programs = [[plans[node] for node in local_order[pe]] for pe in pes]
    return Wiring(channels, plans, pes, programs, work)


def _pair_channel(cs_edges, node: IterNode, placement: dict[IterNode, PeId]) -> ChannelKey:
    sources = {e.source for e in cs_edges if isinstance(e.source, ProducerSource)}
    producer_nodes = {s.node for s in sources}
    if len(producer_nodes) != 1:
        raise WiringError(f"{node}: rotation pair drawn from several producers")
    producer = next(iter(producer_nodes))
    indices = sorted(s.index for s in sources)
    if indices == [None]:
        tag = "relay" if producer.func == node.func else "cs"
    elif indices == [0, 1]:
        tag = "cs"
    else:
        raise WiringError(f"{node}: rotation pair uses tuple indices {indices}")
    return ChannelKey(placement[producer], tag, placement[node], "cs")


# --- execution ------------------------------------------------------------------

_KERNELS = {
    specdsl.KERNEL_ELIMINATE: numeric.kernel_eliminate,
    specdsl.KERNEL_UPDATE: numeric.kernel_update,
}


@dataclass
class SimReport:
    status: str  # "completed" or "deadlock"
    m: int
    n: int
    config: dict
    steps: int
    firings: dict[str, int]
    max_occupancy: dict[str, int]
    channel_sends: dict[str, int]
    output: Matrix | None
    drained: list[tuple[int, int]]
    uncovered: list[tuple[int, int]]
    blocked: list[dict]
    events: list[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.status == "completed"

    def total_firings(self) -> int:
        return sum(self.firings.values())


def run(spec: SpatialSpec, cfg: SimConfig, aug: AugmentedMatrix) -> SimReport:
    """Simulate the spec on the given input until completion or deadlock.

    Each sweep visits PEs in a fixed order; a PE fires its next unfired
    iteration if and only if all its input channels hold a value and all its
    output channels have room.  A sweep that fires nothing while work remains
    is a deadlock and is reported with per-PE blocking diagnostics.

    Only PEs whose readiness may have changed are visited: a PE found not
    ready is dropped until a firing on one of its channels wakes it.  A PE
    woken by a firing earlier in the fixed order joins the current sweep,
    any other one the next sweep, so every sweep fires exactly the PEs a
    scan over all of them would.
    """
    m, n = aug.m, aug.n
    check = validate(spec, m, n)
    if not check.ok:
        summary = "; ".join(str(v) for v in check.violations[:5])
        raise ValueError(f"spec does not validate at ({m}, {n}): {summary}")

    graph = build_graph(spec, m, n)
    placement = place(spec, cfg, m, n)
    wiring = wire(graph, placement, cfg)
    snapshot = aug.inner

    pe_labels = [pe.label() for pe in wiring.pes]
    programs = wiring.programs
    pointers = [0] * len(programs)
    capacity = cfg.channel_capacity
    store_events: list[tuple[tuple[int, int], float, IterNode, int]] = []
    events: list[str] = []
    total = len(wiring.plans)
    fired = 0
    steps = 0

    def fire(plan: FiringPlan, step: int, pe: int) -> None:
        arity_in, _ = KERNEL_ARITY[plan.kernel]
        args: list[float | None] = [None] * arity_in
        pair: tuple[float, float] | None = None
        for f in plan.fetches:
            if isinstance(f, PairFetch):
                pair = f.chan.pop()
                args[f.ports[0]], args[f.ports[1]] = pair
            elif isinstance(f, ChanFetch):
                args[f.port] = f.chan.pop()
            elif isinstance(f, MemFetch):
                args[f.port] = snapshot.get(f.row, f.col)
            else:
                args[f.port] = f.value
        try:
            out = _KERNELS[plan.kernel](*args)
        except NonFiniteError as exc:
            raise NonFiniteError(f"{plan.node}: {exc}") from None
        if any(not math.isfinite(v) for v in out):
            raise NonFiniteError(f"non-finite kernel output at {plan.node}")
        for p in plan.pushes:
            if isinstance(p, PairPush):
                p.chan.push(pair if p.forward else (out[0], out[1]))
            else:
                p.chan.push(out[p.index])
        for s in plan.stores:
            store_events.append((s.position, out[s.index], plan.node, s.index))
        if cfg.log_events:
            consumed = ",".join(repr(v) for v in args)
            produced = ",".join(repr(v) for v in out)
            events.append(
                f"step={step} pe={pe_labels[pe]} iter={plan.node} "
                f"consumed=[{consumed}] produced=[{produced}]"
            )

    # ``queued[i]`` is the sweep PE i is queued for; a PE is never queued for
    # the current and the next sweep at once, because only PEs at or before
    # the one firing go to the next sweep and those have left the heap.
    current = list(range(len(programs)))  # ascending, so already a heap
    queued = [1] * len(programs)
    status = "completed"
    blocked: list[dict] = []
    while fired < total:
        if steps >= cfg.max_steps:
            raise SimulationError(f"no completion within {cfg.max_steps} sweeps")
        steps += 1
        later: list[int] = []
        progressed = False
        while current:
            i = heapq.heappop(current)
            k = pointers[i]
            program = programs[i]
            if k >= len(program):
                continue
            plan = program[k]
            if not all(plan.pops) or any(len(q) >= capacity for q in plan.room):
                continue
            fire(plan, steps, i)
            pointers[i] = k + 1
            fired += 1
            progressed = True
            for j in plan.wakes:
                if j > i:
                    if queued[j] != steps:
                        queued[j] = steps
                        heapq.heappush(current, j)
                elif queued[j] != steps + 1:
                    queued[j] = steps + 1
                    later.append(j)
        if not progressed:
            status = "deadlock"
            blocked = _blocking_diagnostics(wiring, pe_labels, pointers)
            break
        heapq.heapify(later)
        current = later

    if status == "completed":
        leftovers = [
            key.label() for key, ch in wiring.channels.items() if ch.queue
        ]
        if leftovers:
            raise SimulationError(f"values left in channels after completion: {leftovers}")
        output, drained, uncovered = drain(spec, store_events, m, n)
    else:
        output, drained, uncovered = None, [], []

    by_label = sorted(
        ((key.label(), ch) for key, ch in wiring.channels.items()),
        key=lambda pair: pair[0],
    )
    return SimReport(
        status=status,
        m=m,
        n=n,
        config=cfg.describe(),
        steps=steps,
        firings=dict(zip(pe_labels, pointers)),
        max_occupancy={label: ch.max_occupancy for label, ch in by_label},
        channel_sends={label: ch.sends for label, ch in by_label},
        output=output,
        drained=drained,
        uncovered=uncovered,
        blocked=blocked,
        events=events,
    )


def _blocking_diagnostics(wiring: Wiring, pe_labels: list[str], pointers: list[int]) -> list[dict]:
    out: list[dict] = []
    for program, label, i in zip(wiring.programs, pe_labels, pointers):
        if i >= len(program):
            continue
        plan = program[i]
        empty = [
            f.chan.key.label()
            for f in plan.fetches
            if isinstance(f, (PairFetch, ChanFetch)) and not f.chan.queue
        ]
        full = [
            p.chan.key.label()
            for p in plan.pushes
            if len(p.chan.queue) >= p.chan.capacity
        ]
        out.append({
            "pe": label,
            "iteration": str(plan.node),
            "waiting_on_empty": empty,
            "waiting_on_full": full,
        })
    return out


def expected_store_positions(spec: SpatialSpec, m: int, n: int) -> list[tuple[int, int]]:
    """Result positions the store directives name, with multiplicity."""
    positions: list[tuple[int, int]] = []
    consts = {"M": m, "N": n}
    for func in spec.funcs:
        directives = func.stores()
        if not directives:
            continue
        for node in enumerate_iterations(func, m, n):
            bindings = dict(consts)
            bindings.update(zip(func.dims, node.coords))
            for d in directives:
                if eval_expr(d.condition, bindings) is True:
                    for idx in d.indices:
                        cell = func.cell_map[idx]
                        if cell is None:
                            raise DrainError(f"{node}: store index {idx} has no cell")
                        positions.append(
                            (eval_expr(cell[0], bindings), eval_expr(cell[1], bindings))
                        )
    return positions


def drain(
    spec: SpatialSpec,
    store_events: list[tuple[tuple[int, int], float, IterNode, int]],
    m: int,
    n: int,
) -> tuple[Matrix, list[tuple[int, int]], list[tuple[int, int]]]:
    """Assemble stored values into an M x (N+1) result.

    Asserts exactly-once coverage: a position stored twice, or a position the
    directives name that never arrived, raises :class:`DrainError`.
    Upper-triangle positions no directive covers are returned as diagnostics
    (this set is empty whenever eliminations reach the bottom row).
    """
    output = Matrix.zeros(m, n + 1)
    seen: dict[tuple[int, int], int] = {}
    for position, value, _node, _idx in store_events:
        seen[position] = seen.get(position, 0) + 1
        output.set(position[0], position[1], value)
    doubles = sorted(p for p, count in seen.items() if count > 1)
    if doubles:
        raise DrainError(f"positions stored more than once: {doubles}")
    expected = expected_store_positions(spec, m, n)
    missing = sorted(set(expected) - set(seen))
    if missing:
        raise DrainError(f"positions never stored: {missing}")
    uncovered = sorted(
        (i, j)
        for i in range(1, m + 1)
        for j in range(i, n + 2)
        if (i, j) not in seen
    )
    return output, sorted(seen), uncovered


def report_to_json(report: SimReport) -> str:
    obj = {
        "schema": 1,
        "status": report.status,
        "m": report.m,
        "n": report.n,
        "config": report.config,
        "steps": report.steps,
        "total_firings": report.total_firings(),
        "firings": report.firings,
        "max_occupancy": report.max_occupancy,
        "channel_sends": report.channel_sends,
        "output": None if report.output is None else [
            report.output.row_values(i) for i in range(1, report.output.rows + 1)
        ],
        "drained": [list(p) for p in report.drained],
        "uncovered": [list(p) for p in report.uncovered],
        "blocked": report.blocked,
    }
    if report.events:
        obj["events"] = report.events
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
