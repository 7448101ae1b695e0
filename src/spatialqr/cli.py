"""Command-line front end: decompose, solve, trace, graph, simulate, verify.

Exit codes: 0 success, 1 verification or equivalence failure, 2 usage error,
3 simulated deadlock.  Failures print a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import sys

from spatialqr import dataflow
from spatialqr.dataflow import build_graph, emit_dot, emit_trace, evaluate_graph, relay_view
from spatialqr.numeric import (
    AugmentedMatrix,
    DimensionError,
    NonFiniteError,
    SingularMatrixError,
    qr_givens_reference,
    random_matrix,
    read_matrix,
    read_vector,
    solve,
    verify_qr,
    write_matrix,
)
from spatialqr.simulator import (
    SimConfig,
    SimulationError,
    folded_unroll,
    report_to_json,
    run,
    spec_unroll,
)
from spatialqr.specdsl import builtin_qr_spec, validate

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_DEADLOCK = 3


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _load_augmented(matrix_path: str, rhs_path: str | None) -> AugmentedMatrix:
    a = read_matrix(matrix_path)
    z = read_vector(rhs_path) if rhs_path else [0.0] * a.rows
    return AugmentedMatrix.from_parts(a, z)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_decompose(args) -> int:
    aug = _load_augmented(args.matrix, args.rhs)
    result = qr_givens_reference(aug, accumulate_q=args.accumulate_q)
    if args.rhs:
        out = result.r_aug.inner
    else:
        out = result.r_aug.coefficient_part()
    write_matrix(args.output, out)
    if args.q_output:
        if result.q is None:
            raise _Usage("--q-output needs --accumulate-q")
        write_matrix(args.q_output, result.q)
    return EXIT_OK


def cmd_solve(args) -> int:
    a = read_matrix(args.matrix)
    z = read_vector(args.rhs)
    y = solve(a, z)
    sys.stdout.write("\n".join(repr(v) for v in y) + "\n")
    return EXIT_OK


def cmd_trace(args) -> int:
    events = emit_trace(args.m, args.n)
    if args.format == "json":
        sys.stdout.write(dataflow.trace_to_json(events))
    else:
        sys.stdout.write(dataflow.format_trace_text(events))
    return EXIT_OK


def cmd_graph(args) -> int:
    spec = builtin_qr_spec()
    graph = build_graph(spec, args.m, args.n)
    if args.relay:
        graph = relay_view(graph)
    text = dataflow.graph_to_json(graph) if args.format == "json" else emit_dot(graph)
    _write_text(args.output, text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    spec = builtin_qr_spec()
    aug = _load_augmented(args.matrix, args.rhs)
    unroll = spec_unroll(spec) if args.unroll == "full" else folded_unroll(spec)
    cfg = SimConfig(
        unroll=unroll,
        channel_capacity=args.capacity,
        relay_enabled=args.relay,
        log_events=args.event_log,
    )
    report = run(spec, cfg, aug)
    for line in report.events:
        sys.stderr.write(line + "\n")
    report.events = []
    _write_text(args.report, report_to_json(report))
    if not report.completed:
        blocked = ", ".join(b["pe"] for b in report.blocked)
        print(f"error: deadlock after {report.steps} sweeps; blocked PEs: {blocked}",
              file=sys.stderr)
        return EXIT_DEADLOCK
    reference = qr_givens_reference(aug).r_aug
    for i, j in report.drained:
        got, want = report.output.get(i, j), reference.inner.get(i, j)
        if got != want:
            print(f"error: simulated output differs from reference at ({i}, {j}): "
                  f"{got!r} != {want!r}", file=sys.stderr)
            return EXIT_FAIL
    return EXIT_OK


def cmd_verify(args) -> int:
    aug = _load_augmented(args.matrix, None)
    result = qr_givens_reference(aug, accumulate_q=True)
    report = verify_qr(aug, result, args.tol)
    sys.stdout.write(
        f"reconstruction_max_error {report.reconstruction_max_error!r}\n"
        f"orthogonality_max_error {report.orthogonality_max_error!r}\n"
        f"lower_triangle_max_abs {report.lower_triangle_max_abs!r}\n"
        f"result {'PASS' if report.passed else 'FAIL'}\n"
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def _check(name: str, ok: bool, detail: str = "") -> bool:
    status = "ok" if ok else "FAIL"
    suffix = f" ({detail})" if detail and not ok else ""
    print(f"selfcheck: {name} {status}{suffix}")
    return ok


def cmd_selfcheck(args) -> int:
    spec = builtin_qr_spec()
    top = args.max_size
    all_ok = True

    ok = all(
        validate(spec, m, n).ok
        for m in range(1, top + 1)
        for n in range(1, m + 1)
    )
    all_ok &= _check(f"spec-validation sizes<={top}", ok)

    ok = True
    for m in range(1, top + 1):
        for n in range(1, m + 1):
            g = build_graph(spec, m, n)
            stats = dataflow.graph_stats(g)
            ok &= stats["x_nodes"] == sum(max(0, m - c) for c in range(1, n + 1))
            ok &= stats["y_nodes"] == sum(
                max(0, m - c) * (n + 1 - c) for c in range(1, n + 1)
            )
    all_ok &= _check("node-count-formulas", ok)

    events = emit_trace(4, 4)
    first = dataflow.format_trace_text(events).splitlines()[0]
    ok = len(events) == 26 and first == "1,4,-  c,s[4,1](W) A'[4,1] A'[3,1]"
    all_ok &= _check("trace-shape", ok)

    sizes = [s for s in (4, 8, 16) if s <= max(4, top)]
    ok = True
    for size in sizes:
        for seed in range(10):
            aug = AugmentedMatrix.from_parts(
                random_matrix(size, size, seed), [1.0] * size
            )
            rep = verify_qr(aug, qr_givens_reference(aug, accumulate_q=True), 1e-10)
            ok &= rep.passed
    all_ok &= _check(f"qr-round-trip sizes={sizes}", ok)

    ok = True
    for size in sizes:
        for seed in range(10):
            a = random_matrix(size, size, seed)
            z = [1.0] * size
            y = solve(a, z)
            resid = max(
                abs(sum(a.get(i, j) * y[j - 1] for j in range(1, size + 1)) - z[i - 1])
                for i in range(1, size + 1)
            )
            ok &= resid < 1e-9
    all_ok &= _check("solve-residual", ok)

    ok = True
    eq_sizes = [(m, n) for m, n in ((4, 4), (6, 4), (8, 8)) if m <= max(4, top)]
    for m, n in eq_sizes:
        for seed in range(10):
            aug = AugmentedMatrix.from_parts(random_matrix(m, n, seed), [1.0] * m)
            reference = qr_givens_reference(aug).r_aug
            g = build_graph(spec, m, n)
            ok &= evaluate_graph(g, aug).inner.data == reference.inner.data
            for unroll in (spec_unroll(spec), folded_unroll(spec)):
                for relay in (True, False):
                    for capacity in (1, 2, 8):
                        cfg = SimConfig(unroll=unroll, channel_capacity=capacity,
                                        relay_enabled=relay)
                        rep = run(spec, cfg, aug)
                        if not rep.completed:
                            ok = False
                            continue
                        ok &= all(
                            rep.output.get(i, j) == reference.inner.get(i, j)
                            for i, j in rep.drained
                        )
    all_ok &= _check(f"three-way-equivalence sizes={eq_sizes}", ok)

    ok = True
    for size in (s for s in (4, 8) if s <= top):
        aug = AugmentedMatrix.from_parts(random_matrix(size, size, 0), [1.0] * size)
        rep = run(spec, SimConfig(), aug)
        expected = [(i, j) for i in range(1, size + 1) for j in range(i, size + 2)]
        ok &= rep.drained == expected and rep.uncovered == []
    all_ok &= _check("drain-coverage", ok)

    aug = AugmentedMatrix.from_parts(random_matrix(4, 4, 0), [1.0] * 4)
    r1 = report_to_json(run(spec, SimConfig(), aug))
    r2 = report_to_json(run(spec, SimConfig(), aug))
    g = build_graph(spec, 4, 4)
    ok = r1 == r2 and emit_dot(g) == emit_dot(build_graph(spec, 4, 4))
    all_ok &= _check("determinism", ok)

    print("selfcheck: all passed" if all_ok else "selfcheck: FAILURES above")
    return EXIT_OK if all_ok else EXIT_FAIL


class _Usage(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialqr",
        description="Givens-rotation QR as a spatial dataflow program with a "
                    "processing-element array simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="factor a matrix, writing R (and Q)")
    p.add_argument("matrix", help="input matrix file (.txt whitespace or .csv)")
    p.add_argument("--rhs", help="right-hand-side vector file; output gains its column")
    p.add_argument("--output", required=True, help="output matrix file")
    p.add_argument("--accumulate-q", action="store_true")
    p.add_argument("--q-output", help="write the orthogonal factor here")
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("solve", help="solve A y = z and print y")
    p.add_argument("matrix")
    p.add_argument("rhs")
    p.set_defaults(handler=cmd_solve)

    p = sub.add_parser("trace", help="print per-iteration data accesses")
    p.add_argument("m", type=_positive)
    p.add_argument("n", type=_positive)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(handler=cmd_trace)

    p = sub.add_parser("graph", help="export the iteration dataflow graph")
    p.add_argument("m", type=_positive)
    p.add_argument("n", type=_positive)
    p.add_argument("--format", choices=("dot", "json"), default="dot")
    p.add_argument("--relay", action=argparse.BooleanOptionalAction, default=False,
                   help="rewrite rotation-pair edges into relay chains")
    p.add_argument("--output", help="write here instead of stdout")
    p.set_defaults(handler=cmd_graph)

    p = sub.add_parser("simulate", help="run the PE-array simulation")
    p.add_argument("matrix")
    p.add_argument("--rhs")
    p.add_argument("--unroll", choices=("full", "folded"), default="full",
                   help="folded keeps the row loop on one PE per column")
    p.add_argument("--capacity", type=_positive, default=2,
                   help="channel capacity (default 2)")
    p.add_argument("--relay", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--report", help="report JSON path (default stdout)")
    p.add_argument("--event-log", action="store_true",
                   help="log every firing to stderr")
    p.set_defaults(handler=cmd_simulate)

    p = sub.add_parser("verify", help="decompose and check QR identities")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("selfcheck", help="run the full property suite")
    p.add_argument("--max-size", type=_positive, default=8)
    p.set_defaults(handler=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (DimensionError, ValueError) as exc:
        if isinstance(exc, (NonFiniteError, SingularMatrixError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
