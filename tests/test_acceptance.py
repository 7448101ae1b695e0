"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <n> PASS`` line on success (visible with
``pytest -s`` or ``-rA``); a failing criterion fails its test.
"""

import dataclasses
import json
import subprocess
import sys
import time
from pathlib import Path

from spatialqr import cli
from spatialqr.dataflow import build_graph, evaluate_graph
from spatialqr.numeric import (
    AugmentedMatrix,
    Matrix,
    qr_givens_reference,
    random_matrix,
    solve,
    verify_qr,
    write_matrix,
)
from spatialqr.simulator import (
    SimConfig,
    folded_unroll,
    run,
    spec_unroll,
)
from spatialqr.specdsl import (
    COL,
    ROW,
    CallRef,
    IntLit,
    builtin_qr_spec,
    validate,
)

FIXTURES = Path(__file__).parent / "fixtures"
SPEC = builtin_qr_spec()
SEEDS = range(10)


def make_aug(m, n, seed):
    return AugmentedMatrix.from_parts(random_matrix(m, n, seed), [1.0] * m)


def x_count(m, n):
    return sum(max(0, m - col) for col in range(1, n + 1))


def y_count(m, n):
    return sum(max(0, m - col) * (n + 1 - col) for col in range(1, n + 1))


def test_criterion_1_golden_trace(capsys):
    start = time.perf_counter()
    assert cli.main(["trace", "4", "4"]) == 0
    out = capsys.readouterr().out
    golden = (FIXTURES / "trace_4x4_golden.txt").read_text()
    assert out == golden
    lines = out.splitlines()
    assert len(lines) == 26
    elapsed_ms = (time.perf_counter() - start) * 1e3
    with capsys.disabled():
        print(f"\nACCEPTANCE 1 PASS: trace 4 4 matches the golden transcription "
              f"row for row ({elapsed_ms:.1f} ms)")


def test_criterion_2_graph_census(capsys):
    g = build_graph(SPEC, 4, 4)
    x_nodes = [n for n in g.nodes if n.func == "X"]
    y_nodes = [n for n in g.nodes if n.func == "Y"]
    assert len(x_nodes) == 6 and len(y_nodes) == 20

    patterns = {}
    for node in x_nodes:
        patterns.setdefault(g.node_case[g.ids["X"][node.coords]].label, []).append(node.coords)
    assert patterns["a"] == [(1, 4)]
    # pattern (c): one node per applicable boundary column (cols 2 and 3 here)
    assert sorted(patterns["c"]) == [(2, 4), (3, 4)]
    assert sum(len(v) for v in patterns.values()) == len(x_nodes)
    for i, node in enumerate(g.nodes):
        assert g.node_case[i].label in "abcd"

    for m in range(1, 9):
        for n in range(1, m + 1):
            gmn = build_graph(SPEC, m, n)
            xs = [nd for nd in gmn.nodes if nd.func == "X"]
            ys = [nd for nd in gmn.nodes if nd.func == "Y"]
            assert len(xs) == x_count(m, n)
            assert len(ys) == y_count(m, n)
            census = {"a": 0, "b": 0, "c": 0, "d": 0}
            for nd in xs:
                census[gmn.node_case[gmn.ids["X"][nd.coords]].label] += 1
            assert census["a"] == (1 if m >= 2 else 0)
            assert census["b"] == max(0, m - 2)
            assert census["c"] == max(0, min(n, m - 1) - 1)
            assert sum(census.values()) == len(xs)
    with capsys.disabled():
        print("\nACCEPTANCE 2 PASS: graph census and pattern classification match "
              "closed forms for all 1 <= n <= m <= 8")


def test_criterion_3_qr_correctness(capsys):
    start = time.perf_counter()
    for size in (4, 8, 16):
        for seed in SEEDS:
            aug = make_aug(size, size, seed)
            result = qr_givens_reference(aug, accumulate_q=True)
            report = verify_qr(aug, result, 1e-10)
            assert report.reconstruction_ok, (size, seed, report)
            assert report.orthogonality_ok, (size, seed, report)
            assert report.triangular_ok and report.lower_triangle_max_abs == 0.0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"QR correctness suite took {elapsed:.2f}s, budget 1s"
    with capsys.disabled():
        print(f"\nACCEPTANCE 3 PASS: verify_qr at tol 1e-10, exact lower-triangle "
              f"zeros, seeds 0..9, sizes 4/8/16 ({elapsed:.2f} s)")


def test_criterion_4_solve_residual(capsys):
    worst = 0.0
    for size in (4, 8, 16):
        for seed in SEEDS:
            a = random_matrix(size, size, seed)
            z = [1.0] * size
            y = solve(a, z)
            for i in range(1, size + 1):
                acc = sum(a.get(i, j) * y[j - 1] for j in range(1, size + 1))
                worst = max(worst, abs(acc - z[i - 1]))
    assert worst < 1e-9, worst
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: solve residual max {worst:.2e} < 1e-9 "
              f"over the random suite")


def test_criterion_5_three_way_bitwise_equivalence(capsys):
    pins = json.loads((FIXTURES / "capacity1_behavior.json").read_text())["runs"]
    completed = 0
    for m, n in ((4, 4), (6, 4), (8, 8)):
        for seed in SEEDS:
            aug = make_aug(m, n, seed)
            reference = qr_givens_reference(aug).r_aug
            graph_result = evaluate_graph(build_graph(SPEC, m, n), aug)
            assert graph_result.inner.data == reference.inner.data
            for mode in ("full", "folded"):
                unroll = spec_unroll(SPEC) if mode == "full" else folded_unroll(SPEC)
                for relay in (True, False):
                    for capacity in (1, 2, 8):
                        cfg = SimConfig(unroll=unroll, channel_capacity=capacity,
                                        relay_enabled=relay)
                        rep = run(SPEC, cfg, aug)
                        if capacity == 1:
                            key = (f"{m}x{n}/{mode}/"
                                   f"relay={'on' if relay else 'off'}")
                            assert rep.status == pins[key]["status"], key
                        assert rep.completed, (m, n, seed, mode, relay, capacity)
                        for i, j in rep.drained:
                            assert rep.output.get(i, j) == reference.inner.get(i, j)
                        for j in range(1, n + 1):
                            for i in range(j + 1, m + 1):
                                assert reference.inner.get(i, j) == 0.0
                        completed += 1
    with capsys.disabled():
        print(f"\nACCEPTANCE 5 PASS: {completed} simulator runs bitwise-equal to "
              f"reference and graph evaluation (capacity-1 behavior pinned)")


def test_criterion_6_drain_coverage(capsys):
    expected = [(i, j) for i in range(1, 5) for j in range(i, 6)]
    assert len(expected) == 14
    declared = [(stored[k + 1], stored[k + 2]) for stored in build_graph(SPEC, 4, 4).node_stores
                for k in range(0, len(stored), 3)]
    assert sorted(declared) == expected          # every position named...
    assert len(set(declared)) == len(declared)  # ...exactly once
    rep = run(SPEC, SimConfig(), make_aug(4, 4, 0))
    assert rep.drained == expected
    assert rep.uncovered == []
    with capsys.disabled():
        print("\nACCEPTANCE 6 PASS: store directives cover the 14 upper-triangle "
              "positions of the 4x5 result exactly once")


def test_criterion_7_command_determinism(tmp_path, capsys):
    matrix = tmp_path / "a.txt"
    rhs = tmp_path / "z.txt"
    write_matrix(str(matrix), random_matrix(4, 4, 0))
    write_matrix(str(rhs), Matrix(4, 1, [1.0, 2.0, 3.0, 4.0]))

    commands = [
        ["trace", "4", "4"],
        ["trace", "4", "4", "--format", "json"],
        ["graph", "4", "4"],
        ["graph", "4", "4", "--format", "json"],
        ["graph", "4", "4", "--format", "json", "--relay"],
        ["solve", str(matrix), str(rhs)],
        ["simulate", str(matrix), "--rhs", str(rhs)],
        ["simulate", str(matrix), "--unroll", "folded", "--capacity", "1"],
        ["verify", str(matrix)],
    ]
    for argv in commands:
        runs = [
            subprocess.run([sys.executable, "-m", "spatialqr", *argv],
                           capture_output=True, check=False)
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0, argv
        assert runs[0].stdout == runs[1].stdout, argv

    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    for out in (out1, out2):
        code = subprocess.run(
            [sys.executable, "-m", "spatialqr", "decompose", str(matrix),
             "--rhs", str(rhs), "--output", str(out)],
            capture_output=True, check=False,
        ).returncode
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    with capsys.disabled():
        print("\nACCEPTANCE 7 PASS: repeated command invocations are byte-identical")


def test_criterion_8_spec_validation(capsys):
    for m in range(1, 9):
        for n in range(1, m + 1):
            report = validate(SPEC, m, n)
            assert report.ok, (m, n, report.violations)

    x = SPEC.func("X")

    def with_x(**changes):
        patched = dataclasses.replace(x, **changes)
        return dataclasses.replace(
            SPEC, funcs=tuple(patched if f.name == "X" else f for f in SPEC.funcs)
        )

    overlapping = with_x(cases=x.cases + (dataclasses.replace(x.cases[0], label="dup"),))
    assert "guard-overlap" in validate(overlapping, 4, 4).rules()

    escaped = dataclasses.replace(
        x.cases[1],
        args=(CallRef("Y", (COL - 1, ROW - 1, COL), 0), x.cases[1].args[1]),
    )
    out_of_domain = with_x(cases=(x.cases[0], escaped) + x.cases[2:])
    assert "callref-out-of-domain" in validate(out_of_domain, 4, 4).rules()

    bad_index = dataclasses.replace(
        x.cases[1],
        args=(CallRef("X", (IntLit(1), ROW + 1), 9), x.cases[1].args[1]),
    )
    bad_tuple = with_x(cases=(x.cases[0], bad_index) + x.cases[2:])
    assert "callref-tuple-index" in validate(bad_tuple, 4, 4).rules()
    with capsys.disabled():
        print("\nACCEPTANCE 8 PASS: builtin spec validates for 1 <= n <= m <= 8; "
              "injected faults rejected with expected rule ids")
