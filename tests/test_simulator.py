import dataclasses
import gc
import json
import sys
import threading
import weakref
from pathlib import Path
from types import MappingProxyType

import pytest

from spatialqr.dataflow import IterNode, build_graph, evaluate_graph, relay_view
from spatialqr.numeric import (
    AugmentedMatrix,
    NonFiniteError,
    qr_givens_reference,
    random_matrix,
)
from spatialqr import simulator, specdsl
from spatialqr.simulator import (
    SimConfig,
    WiringError,
    compile_design,
    drain,
    execute,
    folded_unroll,
    place,
    report_to_json,
    run,
    schedule,
    spec_unroll,
    wire,
)
from spatialqr.specdsl import (
    COL,
    K,
    KERNEL_ELIMINATE,
    M,
    BoundSpec,
    CallRef,
    FuncSpec,
    IntLit,
    MemoryRef,
    ROW,
    Name,
    RecurrenceCase,
    SpatialSpec,
    builtin_qr_spec,
    validate,
)

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = builtin_qr_spec()


def make_aug(m, n, seed=0):
    return AugmentedMatrix.from_parts(random_matrix(m, n, seed), [1.0] * m)


def config(mode="full", capacity=2, relay=True, **kw):
    unroll = spec_unroll(SPEC) if mode == "full" else folded_unroll(SPEC)
    return SimConfig(unroll=unroll, channel_capacity=capacity, relay_enabled=relay, **kw)


def assert_immutable(value):
    """Fail on any list, dict, set or mutable object reachable from ``value``,
    through the fields of the frozen dataclasses it holds."""
    if dataclasses.is_dataclass(value):
        assert type(value).__dataclass_params__.frozen, type(value).__name__
        value = tuple([getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, MappingProxyType):
        value = tuple(value.items())
    if isinstance(value, tuple):
        for item in value:
            assert_immutable(item)
    else:
        hash(value)  # a list, dict, set or mutable dataclass raises TypeError


def x_count(m, n):
    return sum(max(0, m - col) for col in range(1, n + 1))


def y_count(m, n):
    return sum(max(0, m - col) * (n + 1 - col) for col in range(1, n + 1))


class TestPlacement:
    def test_full_unroll_one_iteration_per_pe(self):
        pe_labels, node_pe = place(build_graph(SPEC, 4, 4), config("full"))
        assert len(set(pe_labels)) == len(pe_labels) == 26
        assert sorted(node_pe) == list(range(26))
        assert sum(1 for label in pe_labels if label.startswith("X(")) == 6
        assert sum(1 for label in pe_labels if label.startswith("Y(")) == 20
        assert pe_labels[0] == "X(col=1,row=2)"

    def test_row_folded_counts(self):
        pe_labels, _ = place(build_graph(SPEC, 4, 4), config("folded"))
        assert pe_labels[:3] == ("X(col=1)", "X(col=2)", "X(col=3)")
        assert len(pe_labels) == 12
        assert all(label.startswith("Y(") for label in pe_labels[3:])

    def test_fold_preserves_program_order(self):
        cfg = config("folded")
        g = build_graph(SPEC, 4, 4)
        pe_labels, node_pe = place(g, cfg)
        pe = node_pe[g.ids["X"][(1, 3)]]
        assert pe_labels[pe] == "X(col=1)"
        order = [g.nodes[i] for i, p in enumerate(node_pe) if p == pe]
        assert order == [IterNode("X", (1, 4)), IterNode("X", (1, 3)), IterNode("X", (1, 2))]

    def test_unknown_unroll_dim_rejected(self):
        cfg = SimConfig(unroll={"X": ("bogus",), "Y": ()})
        with pytest.raises(WiringError):
            place(build_graph(SPEC, 4, 4), cfg)

    def test_unknown_unroll_function_rejected(self):
        cfg = SimConfig(unroll={"Z": (), "X": ("col",)})
        with pytest.raises(WiringError, match=r"unknown functions \['Z'\]"):
            place(build_graph(SPEC, 4, 4), cfg)
        with pytest.raises(WiringError, match=r"unknown functions \['Z'\]"):
            run(SPEC, cfg, make_aug(4, 4))


def channel_keys(design):
    """Per channel: (producer PE, tag, consumer PE, tag), read back from the design's tables."""
    wiring = design.wiring
    ends = {}  # channel -> (producer PE, consumer PE), from the nodes that push and pop it
    for i, pops in enumerate(wiring.pops):
        for c, producer in zip(pops, wiring.graph.producers(i)):
            ends[c] = (wiring.node_pe[producer], wiring.node_pe[i])
    for c, label in enumerate(wiring.chan_labels):
        src, dst = (wiring.pe_labels[pe] for pe in ends[c])
        head, tail = label.split("->")
        yield src, head[len(src) + 1:], dst, tail[len(dst) + 1:]


class TestWiring:
    def test_broadcast_without_relay(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full", relay=False)
        design = schedule(wire(g, place(g, cfg), cfg.relay_enabled), cfg)
        outgoing = [
            k for k in channel_keys(design)
            if k[0] == "X(col=1,row=4)" and k[3] == "cs"
        ]
        assert len(outgoing) == 4

    def test_single_head_channel_with_relay(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full", relay=True)
        design = schedule(wire(g, place(g, cfg), cfg.relay_enabled), cfg)
        outgoing = [
            k for k in channel_keys(design)
            if k[0] == "X(col=1,row=4)" and k[3] == "cs"
        ]
        assert len(outgoing) == 1
        assert outgoing[0][2] == "Y(col=1,row=4,k=2)"
        forwards = [
            k for k in channel_keys(design)
            if k[0] == "Y(col=1,row=4,k=2)" and k[1] == "relay"
        ]
        assert len(forwards) == 1
        assert forwards[0][2] == "Y(col=1,row=4,k=3)"

    def test_memory_ports_have_no_channels(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full")
        design = schedule(wire(g, place(g, cfg), cfg.relay_enabled), cfg)
        i = g.ids["X"][(1, 4)]
        assert {(row, col) for row, col, _ in design.wiring.graph.loads[i]} == {(4, 1), (3, 1)}
        assert design.wiring.graph.pairs[i] is None and design.wiring.graph.data[i] == ()
        assert design.wiring.pops[i] == ()


class TestRunEquivalence:
    @pytest.mark.parametrize("mode", ["full", "folded"])
    @pytest.mark.parametrize("relay", [True, False])
    def test_bitwise_match_4x4(self, mode, relay):
        aug = make_aug(4, 4, 0)
        rep = run(SPEC, config(mode, relay=relay), aug)
        assert rep.completed
        ref = qr_givens_reference(aug).r_aug
        for i, j in rep.drained:
            assert rep.output.get(i, j) == ref.inner.get(i, j)

    def test_matches_graph_evaluation_oracle(self):
        aug = make_aug(6, 4, 3)
        ref = qr_givens_reference(aug).r_aug
        via_graph = evaluate_graph(build_graph(SPEC, 6, 4), aug)
        rep = run(SPEC, config("folded", capacity=1), aug)
        assert via_graph.inner.data == ref.inner.data
        for i, j in rep.drained:
            assert rep.output.get(i, j) == ref.inner.get(i, j)

    @pytest.mark.parametrize("relay", [True, False])
    def test_a_pair_read_from_an_eliminator_that_reads_one_is_its_output(self, relay):
        """X(1, row) eliminates on the pair of X(1, row+1), and Y(1, row, k)
        reads X(1, row)'s pair: it gets X(1, row)'s own c and s, in the
        simulator and in the graph evaluator alike."""
        x = SPEC.func("X")
        b = dataclasses.replace(x.cases[1], args=(CallRef("X", (IntLit(1), ROW + 1), 0),
                                                  CallRef("X", (IntLit(1), ROW + 1), 1)))
        x = dataclasses.replace(x, cases=(x.cases[0], b, *x.cases[2:]))
        spec = dataclasses.replace(SPEC, funcs=(x, *SPEC.funcs[1:]))
        aug = make_aug(4, 3, 1)
        lines = []
        rep = execute(compile_design(spec, config("full", relay=relay), 4, 3), aug, lines.append)
        fields = {line.split(" iter=")[1].split(" consumed=")[0]: line for line in lines}
        c_s = fields["X(1, 3)"].split("produced=[")[1].split(",")[:2]
        assert fields["Y(1, 3, 2)"].split("consumed=[")[1].split(",")[:2] == c_s
        graph = build_graph(spec, 4, 3)
        for values in (evaluate_graph(graph, aug), evaluate_graph(relay_view(graph), aug)):
            assert [rep.output.get(*p) for p in rep.drained] == \
                [values.inner.get(*p) for p in rep.drained]

    @pytest.mark.parametrize("relay", [True, False])
    def test_a_pair_read_from_a_relayed_eliminator_is_its_output(self, relay):
        """G(col, row, k) eliminates on X(col, row)'s pair, swapped, and relays
        it along k; Y, not relayed, reads G's pair.  Each Y gets its own G's
        c and s, not the pair that G read, with relay on or off."""
        y = SPEC.func("Y")
        g = FuncSpec("G", y.bounds, 4, tuple([
            RecurrenceCase(label, cond, KERNEL_ELIMINATE,
                           (CallRef("X", (COL, ROW), 1), CallRef("X", (COL, ROW), 0)))
            for label, cond in (("a", ROW.eq(M)), ("b", ROW.ne(M)))
        ]), unroll=y.dims, relay=(0, 0, 1), cell_map=(None,) * 4)
        y = dataclasses.replace(y, cases=tuple([
            dataclasses.replace(case, args=tuple([
                CallRef("G", (*a.coords, K), a.index) if isinstance(a, CallRef) and a.func == "X"
                else a for a in case.args]))
            for case in y.cases
        ]), relay=None)
        spec = dataclasses.replace(SPEC, funcs=(SPEC.func("X"), g, y))
        aug = make_aug(4, 3, 1)
        lines = []
        rep = execute(compile_design(spec, SimConfig(relay_enabled=relay), 4, 3), aug, lines.append)
        assert rep.completed
        assert any(".relay->" in label for label in rep.channel_sends) == relay
        fired = {line.split(" iter=")[1].split(" consumed=")[0]: line for line in lines}
        ys = [it for it in fired if it.startswith("Y")]
        assert ys
        for it in ys:
            consumed = fired[it].split("consumed=[")[1].split(",")[:2]
            assert consumed == fired["G" + it[1:]].split("produced=[")[1].split(",")[:2]
        graph = build_graph(spec, 4, 3)
        for values in (evaluate_graph(graph, aug), evaluate_graph(relay_view(graph), aug)):
            assert [rep.output.get(*p) for p in rep.drained] == \
                [values.inner.get(*p) for p in rep.drained]

    def test_exactly_once_firing(self):
        rep = run(SPEC, config("folded"), make_aug(6, 4))
        assert rep.total_firings() == x_count(6, 4) + y_count(6, 4)

    def test_relay_conservation(self):
        rep = run(SPEC, config("folded", relay=True), make_aug(4, 4))
        pair_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if label.endswith(".cs")
        )
        head_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if ".cs->" in label
        )
        forward_sends = sum(
            sends for label, sends in rep.channel_sends.items()
            if ".relay->" in label
        )
        assert pair_sends == y_count(4, 4)
        assert head_sends == x_count(4, 4)
        assert forward_sends == y_count(4, 4) - x_count(4, 4)

    def test_trivial_size_completes_empty(self):
        rep = run(SPEC, config("full"), make_aug(1, 1))
        assert rep.completed and rep.steps == 0
        assert rep.total_firings() == 0
        assert rep.drained == []
        assert rep.uncovered == [(1, 1), (1, 2)]

    def test_deterministic_report(self):
        aug = make_aug(8, 8, 2)
        r1 = run(SPEC, config("folded", capacity=1), aug)
        r2 = run(SPEC, config("folded", capacity=1), aug)
        assert report_to_json(r1) == report_to_json(r2)

    def test_capacity_monotonicity(self):
        aug = make_aug(6, 4, 1)
        for mode in ("full", "folded"):
            for relay in (True, False):
                statuses = [
                    run(SPEC, config(mode, capacity=cap, relay=relay), aug).status
                    for cap in (1, 2, 8)
                ]
                for earlier, later in zip(statuses, statuses[1:]):
                    assert not (earlier == "completed" and later == "deadlock")

    def test_capacity_one_behavior_pinned(self):
        pins = json.loads((FIXTURES / "capacity1_behavior.json").read_text())
        assert pins["capacity"] == 1
        for key, expected in pins["runs"].items():
            size, mode, relay_part = key.split("/")
            m, n = (int(v) for v in size.split("x"))
            relay = relay_part == "relay=on"
            aug = make_aug(m, n, pins["seed"])
            rep = run(SPEC, config(mode, capacity=1, relay=relay), aug)
            assert rep.status == expected["status"], key
            assert rep.steps == expected["steps"], key

    def test_non_finite_input_names_iteration(self):
        aug = make_aug(4, 4)
        aug.inner.set(4, 1, float("nan"))
        with pytest.raises(NonFiniteError, match=r"X\(1, 4\)"):
            run(SPEC, config("full"), aug)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(channel_capacity=0)

    @pytest.mark.parametrize("capacity", [1.5, True, "2"])
    def test_non_int_capacity_rejected(self, capacity):
        with pytest.raises(ValueError, match="channel capacity must be an int"):
            SimConfig(channel_capacity=capacity)

    @pytest.mark.parametrize("unroll", [
        {"X": "row"}, [("X", ())], 5, {"X": None}, {1: ()}, {"X": ("col", 1)},
    ])
    def test_malformed_unroll_rejected(self, unroll):
        with pytest.raises(ValueError, match="^unroll must map function names to tuples of dim "
                                             "names, got "):
            SimConfig(unroll=unroll)

    @pytest.mark.parametrize("field", ["relay_enabled"])
    @pytest.mark.parametrize("value", ["no", 1, None])
    def test_non_bool_switch_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a bool, got {value!r}$"):
            SimConfig(**{field: value})

    def test_every_config_field_describes_the_design(self):
        """The config holds only what the report echoes: no switch outside the design."""
        cfg = config("folded")
        assert [f.name for f in dataclasses.fields(cfg)] == list(cfg.describe())

    def test_invalid_spec_rejected(self):
        import dataclasses

        x = SPEC.func("X")
        broken = dataclasses.replace(x, cases=x.cases[:-1])
        spec = dataclasses.replace(
            SPEC, funcs=tuple(broken if f.name == "X" else f for f in SPEC.funcs)
        )
        with pytest.raises(ValueError, match="guard-gap"):
            run(spec, config("full"), make_aug(4, 4))


class TestEventStream:
    def test_one_line_per_firing_in_replay_order(self):
        design = compile_design(SPEC, config("folded", capacity=1), 4, 3)
        lines = []
        report = execute(design, make_aug(4, 3), lines.append)
        assert len(lines) == report.total_firings() == sum(map(len, design.sweeps))
        fired = [str(design.wiring.graph.nodes[i]) for sweep in design.sweeps for i in sweep]
        assert all(f" iter={it} consumed=" in line for line, it in zip(lines, fired))
        assert all(line.endswith("]\n") and line.count("\n") == 1 for line in lines)
        assert lines[-1].startswith(f"step={report.steps} ")

    def test_nothing_is_buffered(self):
        """A sink that fails on its first line stops the run after one firing,
        before the later firing whose output is non-finite."""
        design = compile_design(SPEC, config("full"), 4, 4)
        aug = make_aug(4, 4)
        aug.inner.set(4, 4, float("nan"))
        lines = []

        def sink(line):
            lines.append(line)
            raise OSError("sink is full")

        with pytest.raises(OSError, match="sink is full"):
            execute(design, aug, sink)
        assert len(lines) == 1 and lines[0].startswith("step=1 ")


class TestDrain:
    def test_coverage_at_4x4(self):
        rep = run(SPEC, config("full"), make_aug(4, 4))
        expected = [(i, j) for i in range(1, 5) for j in range(i, 6)]
        assert rep.drained == expected
        assert len(rep.drained) == 14
        assert rep.uncovered == []

    def test_diagonal_head_provenance(self):
        # R[1][1] must come from the last eliminating iteration of column 1.
        aug = make_aug(4, 4, 5)
        ref = qr_givens_reference(aug).r_aug
        rep = run(SPEC, config("full"), aug)
        assert rep.output.get(1, 1) == ref.inner.get(1, 1)
        g = build_graph(SPEC, 4, 4)
        values = evaluate_graph(g, aug)
        assert rep.output.get(1, 1) == values.inner.get(1, 1)

    def test_store_provenance_matches_directives(self):
        g = build_graph(SPEC, 4, 4)
        cfg = config("full")
        design = compile_design(SPEC, cfg, 4, 4)

        def stores_of(node):
            s = design.wiring.graph.node_stores[g.ids[node.func][node.coords]]
            return [(s[k], (s[k + 1], s[k + 2])) for k in range(0, len(s), 3)]

        assert stores_of(IterNode("X", (1, 2))) == [(3, (1, 1))]
        assert stores_of(IterNode("Y", (3, 4, 4))) == [(1, (3, 4)), (0, (4, 4))]
        assert stores_of(IterNode("Y", (3, 4, 5))) == [(1, (3, 5)), (0, (4, 5))]
        assert stores_of(IterNode("Y", (1, 4, 3))) == []
        assert stores_of(IterNode("X", (1, 4))) == []

    def test_bottom_row_comes_from_update_nodes(self):
        aug = make_aug(4, 4, 6)
        rep = run(SPEC, config("full"), aug)
        ref = qr_givens_reference(aug).r_aug
        assert rep.output.get(4, 4) == ref.inner.get(4, 4)
        assert rep.output.get(4, 5) == ref.inner.get(4, 5)

    def test_tall_matrix_reports_uncovered_tail(self):
        rep = run(SPEC, config("folded"), make_aug(6, 4))
        assert rep.uncovered == [(5, 5)]
        assert (5, 5) not in rep.drained

    def test_double_store_detected(self):
        """Two store directives naming one position fail validation, before any data flows."""
        x = SPEC.func("X")
        twice = dataclasses.replace(x, stores=x.stores + x.stores[:1])
        spec = dataclasses.replace(SPEC, funcs=tuple(twice if f.name == "X" else f
                                                     for f in SPEC.funcs))
        assert validate(spec, 4, 4).rules() == {"store-duplicate"}
        with pytest.raises(ValueError,
                           match=r"\[store-duplicate\] X\(1, 2\): result position \(1, 1\)"):
            compile_design(spec, config("full"), 4, 4)

    def test_coverage_is_fixed_once_per_completing_design(self, monkeypatch):
        graphs = []
        monkeypatch.setattr(simulator, "drain", lambda graph: graphs.append(graph) or drain(graph))
        design = compile_design(SPEC, config("full"), 4, 4)
        execute(design, make_aug(4, 4))
        execute(design, make_aug(4, 4, 1))
        assert len(graphs) == 1 and graphs[0] is design.wiring.graph
        compile_design(chain_spec(), SimConfig(unroll={"F": ()}), 2, 2)  # deadlocks
        assert len(graphs) == 1


def chain_spec():
    """Two iterations where the first needs the second's output.

    The dependence is acyclic, so the full unroll runs; folding both onto one
    PE inverts the needed firing order against the program order and jams.
    """
    row = Name("row")
    f = FuncSpec(
        name="F",
        bounds=(BoundSpec("row", IntLit(1), 1, IntLit(2)),),
        tuple_arity=4,
        cases=(
            RecurrenceCase(
                "head", row.eq(1), KERNEL_ELIMINATE,
                (CallRef("F", (row + 1,), 3), MemoryRef(IntLit(1), IntLit(1))),
            ),
            RecurrenceCase(
                "tail", row.ne(1), KERNEL_ELIMINATE,
                (MemoryRef(IntLit(2), IntLit(1)), MemoryRef(IntLit(1), IntLit(1))),
            ),
        ),
        unroll=("row",),
        cell_map=(None, None, None, None),
    )
    return SpatialSpec((f,))


class TestDeadlock:
    def test_fold_induced_deadlock(self):
        spec = chain_spec()
        aug = make_aug(2, 2)
        rep = run(spec, SimConfig(unroll={"F": ()}), aug)
        assert rep.status == "deadlock"
        assert rep.output is None
        assert len(rep.blocked) == 1
        diag = rep.blocked[0]
        assert diag["pe"] == "F()"
        assert diag["iteration"] == "F(1,)"
        assert diag["waiting_on_empty"]

    def test_same_spec_completes_when_unrolled(self):
        spec = chain_spec()
        rep = run(spec, SimConfig(unroll={"F": ("row",)}), make_aug(2, 2))
        assert rep.completed
        assert rep.total_firings() == 2

    def test_deadlock_report_serializes(self):
        spec = chain_spec()
        rep = run(spec, SimConfig(unroll={"F": ()}), make_aug(2, 2))
        obj = json.loads(report_to_json(rep))
        assert obj["status"] == "deadlock"
        assert obj["output"] is None


class TestDesignReuse:
    @pytest.mark.parametrize("spec, cfg, shape", [
        (SPEC, config("full"), (4, 4)),
        (chain_spec(), SimConfig(unroll={"F": ()}), (2, 2)),  # deadlocks
    ])
    def test_executions_share_no_state(self, spec, cfg, shape):
        design = compile_design(spec, cfg, *shape)
        aug = make_aug(*shape)
        first = execute(design, aug)
        expected = report_to_json(first)
        for table in (first.firings, first.max_occupancy, first.channel_sends):
            for key in table:
                table[key] += 1
            table["stray"] = 1
        for entry in first.blocked:
            entry["waiting_on_empty"].append("stray")
        first.blocked.append({"pe": "stray"})
        assert report_to_json(execute(design, aug)) == expected

    def test_input_of_another_shape_rejected(self):
        design = compile_design(SPEC, config("full"), 4, 3)
        with pytest.raises(ValueError, match="^design is for 4x3 inputs, got 4x4$"):
            execute(design, make_aug(4, 4))

    @pytest.mark.parametrize("spec, cfg, shape", [
        (SPEC, config("full"), (4, 4)),
        (chain_spec(), SimConfig(unroll={"F": ()}), (2, 2)),  # deadlocks
    ])
    def test_design_holds_no_mutable_state(self, spec, cfg, shape):
        """A design, its graph included, is immutable all the way down, so
        no caller can change a later report; its configuration keeps its own
        read-only copy of the unroll sets it was given."""
        unroll = dict(cfg.unroll)
        design = compile_design(spec, dataclasses.replace(cfg, unroll=unroll), *shape)
        aug = make_aug(*shape)
        expected = report_to_json(execute(design, aug))
        name = next(iter(unroll))
        unroll[name] = ("zz",)
        with pytest.raises(TypeError):
            design.cfg.unroll[name] = ("zz",)
        for f in dataclasses.fields(design):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(design, f.name, None)
        assert_immutable(design)
        for table, key in ((design.firings, design.wiring.pe_labels[0]),
                           (design.max_occupancy, design.wiring.chan_labels[0]),
                           (design.channel_sends, design.wiring.chan_labels[0]),
                           (design.sweeps, 0)):
            with pytest.raises(TypeError):
                table[key] = 99
        for entry in design.blocked:
            with pytest.raises(AttributeError):
                entry[2].append("stray")
        assert report_to_json(execute(design, aug)) == expected



class TestStages:
    """``build_graph`` keeps the latest shape's graph, ``compile_design`` keeps its
    stages when that shape is asked for again in a row, and a stage never
    changes a report."""

    def test_a_wiring_is_immutable(self):
        g = build_graph(SPEC, 4, 3)
        for mode in ("full", "folded"):
            for relay in (True, False):
                assert_immutable(wire(g, place(g, config(mode)), relay))

    @pytest.mark.parametrize("relay", [False, True])
    def test_a_shape_asked_for_once_keeps_nothing(self, relay):
        """A design's graph is the graph stage, or with relay the wiring's view."""
        def graph_of(m, n):
            return weakref.ref(compile_design(SPEC, config("full", relay=relay), m, n).wiring.graph)

        compile_design(SPEC, config("full"), 2, 2)
        once = graph_of(5, 4)
        gc.collect()
        assert once() is None
        graph_of(5, 4)
        again = graph_of(5, 4)
        gc.collect()
        assert again() is not None
        graph_of(5, 3)
        gc.collect()
        assert again() is None

    def test_a_selfcheck_pass_builds_each_stage_the_fewest_times(self, monkeypatch):
        """The oracle's graph, then twelve configurations: 1 walk, 2 placements, 4 wirings."""
        calls = {"walk": 0, "place": 0, "wire": 0}

        def counted(name, fn):
            def counting(*args):
                calls[name] += 1
                return fn(*args)
            return counting

        build_graph(SPEC, 2, 2)  # so that no stage of 5 x 4 is kept
        monkeypatch.setattr(specdsl, "walk", counted("walk", specdsl.walk))
        monkeypatch.setattr(simulator, "place", counted("place", simulator.place))
        monkeypatch.setattr(simulator, "wire", counted("wire", simulator.wire))
        aug = make_aug(5, 4)
        evaluate_graph(build_graph(SPEC, 5, 4), aug)
        for mode in ("full", "folded"):
            for relay in (True, False):
                for capacity in (1, 2, 8):
                    assert run(SPEC, config(mode, capacity, relay), aug).completed
        assert calls == {"walk": 1, "place": 2, "wire": 4}

    def test_a_design_without_relay_fires_the_kept_graph(self):
        graph = build_graph(SPEC, 5, 4)
        assert compile_design(SPEC, config("full", relay=False), 5, 4).wiring.graph is graph
        assert build_graph(SPEC, 5, 4) is graph

    def test_a_new_shape_drops_the_old_stages_before_building(self, monkeypatch):
        """Neither shape A's kept graph nor its kept wiring is alive while B's graph is walked."""
        cfg = config("full", relay=False)
        compile_design(SPEC, cfg, 5, 4)
        wiring = compile_design(SPEC, cfg, 5, 4).wiring  # a repeat, so its stages are kept
        kept = weakref.ref(wiring.graph), weakref.ref(wiring)
        del wiring
        alive = []
        walk = specdsl.walk

        def walking(spec, m, n, report):
            gc.collect()
            alive.append([ref() is not None for ref in kept])
            return walk(spec, m, n, report)

        monkeypatch.setattr(specdsl, "walk", walking)
        build_graph(SPEC, 5, 3)
        assert alive == [[False, False]]

    def test_a_spec_that_does_not_validate_raises_again(self):
        spec = dataclasses.replace(SPEC, funcs=SPEC.funcs[:1])  # X calls a Y it lacks
        errors = []
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^spec does not validate at \(4, 3\)") as info:
                compile_design(spec, config(), 4, 3)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert compile_design(SPEC, config(), 4, 3).drained

    def test_a_bool_shape_is_not_the_int_shape(self):
        graph = build_graph(SPEC, 1, 1)
        assert build_graph(SPEC, True, 1) is not graph

    def test_concurrent_callers_get_sequential_reports(self):
        """Two threads, each on its own shape, interleave their calls."""
        configs = [config(mode, capacity, relay) for mode in ("full", "folded")
                   for relay in (True, False) for capacity in (1, 8)]
        shapes = [(4, 3), (5, 5)]
        expected = {shape: [report_to_json(run(SPEC, configs[k % len(configs)], make_aug(*shape)))
                            for k in range(20)] for shape in shapes}
        got: dict = {shape: [] for shape in shapes}

        def caller(shape):
            try:
                got[shape] += [report_to_json(run(SPEC, configs[k % len(configs)], make_aug(*shape)))
                               for k in range(20)]
            except Exception as exc:  # reported by the assertion below
                got[shape] = exc

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so the calls interleave
        try:
            threads = [threading.Thread(target=caller, args=(shape,)) for shape in shapes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
