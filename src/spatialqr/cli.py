"""Command-line front end: decompose, solve, trace, graph, simulate, verify.

Exit codes: 0 success, 1 verification or equivalence failure, 2 usage error,
3 simulated deadlock.  Failures print a single ``error: ...`` line on stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress

from spatialqr import dataflow
from spatialqr.dataflow import build_graph, emit_dot, emit_trace, evaluate_graph, relay_view
from spatialqr.numeric import (
    AugmentedMatrix,
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
    folded_unroll,
    report_to_json,
    run,
    spec_unroll,
)
from spatialqr.specdsl import builtin_qr_spec

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


@contextmanager
def _writing(path: str, stream=None):
    """Report a failure to write ``path`` as a usage error naming it.  A
    standard ``stream`` that fails is pointed at the null device, so the
    interpreter's last flush of what it still buffers cannot fail at exit
    and turn the exit code into 120."""
    try:
        yield
    except OSError as exc:
        if stream is not None:
            with suppress(OSError):  # a stream without a descriptor (a capture) keeps it
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        raise _Usage(f"cannot write {path}: {exc.strerror or exc}") from None


def _error(message: object) -> None:
    """Print ``error: message`` on stderr; a stderr that fails changes no exit code."""
    with suppress(_Usage), _writing("standard error", sys.stderr):
        print(f"error: {message}", file=sys.stderr, flush=True)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        with _writing("standard output", sys.stdout):
            sys.stdout.write(text)
            sys.stdout.flush()
    else:
        with _writing(path), open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_decompose(args) -> int:
    if args.q_output and not args.accumulate_q:
        raise _Usage("--q-output needs --accumulate-q")
    aug = _load_augmented(args.matrix, args.rhs)
    result = qr_givens_reference(aug, accumulate_q=args.accumulate_q)
    if args.rhs:
        out = result.r_aug.inner
    else:
        out = result.r_aug.coefficient_part()
    with _writing(args.output):
        write_matrix(args.output, out)
    if args.q_output:
        with _writing(args.q_output):
            write_matrix(args.q_output, result.q)
    return EXIT_OK


def cmd_solve(args) -> int:
    a = read_matrix(args.matrix)
    z = read_vector(args.rhs)
    y = solve(a, z)
    _write_text(None, "\n".join(repr(v) for v in y) + "\n")
    return EXIT_OK


def cmd_trace(args) -> int:
    events = emit_trace(build_graph(builtin_qr_spec(), args.m, args.n))
    _write_text(None, dataflow.trace_to_json(events) if args.format == "json"
                else dataflow.format_trace_text(events))
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
    cfg = SimConfig(unroll=unroll, channel_capacity=args.capacity, relay_enabled=args.relay)
    with _writing("standard error", sys.stderr):
        report = run(spec, cfg, aug, on_event=sys.stderr.write if args.event_log else None)
        sys.stderr.flush()
    _write_text(args.report, report_to_json(report))
    if not report.completed:
        blocked = ", ".join(b["pe"] for b in report.blocked)
        _error(f"deadlock after {report.steps} sweeps; blocked PEs: {blocked}")
        return EXIT_DEADLOCK
    mismatch = _drain_mismatch(report, qr_givens_reference(aug).r_aug)
    if mismatch:
        _error(mismatch)
        return EXIT_FAIL
    return EXIT_OK


def _drain_mismatch(report, reference: AugmentedMatrix) -> str | None:
    """The first drained cell whose simulated bits differ from ``reference``, described."""
    for i, j in report.drained:
        got, want = report.output.get(i, j), reference.inner.get(i, j)
        if got != want:
            return f"simulated output differs from reference at ({i}, {j}): {got!r} != {want!r}"
    return None


def cmd_verify(args) -> int:
    aug = _load_augmented(args.matrix, None)
    result = qr_givens_reference(aug, accumulate_q=True)
    report = verify_qr(aug, result, args.tol)
    _write_text(
        None,
        f"reconstruction_max_error {report.reconstruction_max_error!r}\n"
        f"orthogonality_max_error {report.orthogonality_max_error!r}\n"
        f"lower_triangle_max_abs {report.lower_triangle_max_abs!r}\n"
        f"result {'PASS' if report.passed else 'FAIL'}\n"
    )
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_selfcheck(args) -> int:
    spec = builtin_qr_spec()
    configs = [(f"{mode} relay={'on' if relay else 'off'} capacity={capacity}",
                SimConfig(unroll=unroll, channel_capacity=capacity, relay_enabled=relay))
               for mode, unroll in (("full", spec_unroll(spec)), ("folded", folded_unroll(spec)))
               for relay in (True, False)
               for capacity in (1, 2, 8)]
    for m in range(1, args.max_size + 1):
        for n in range(1, m + 1):
            failure = _check_shape(spec, configs, m, n)
            if failure:
                _write_text(None, f"selfcheck: {m}x{n} FAIL {failure}\n")
                return EXIT_FAIL
            _write_text(None, f"selfcheck: {m}x{n} ok\n")
    _write_text(None, "selfcheck: all passed\n")
    return EXIT_OK


def _check_shape(spec, configs, m: int, n: int) -> str | None:
    """The first way one seeded m x n input fails the three-way check, or None."""
    aug = AugmentedMatrix(m, n, random_matrix(m, n + 1, 100 * m + n))
    result = qr_givens_reference(aug, accumulate_q=True)
    if not verify_qr(aug, result, 1e-10).passed:
        return "verify_qr fails at tolerance 1e-10"
    if evaluate_graph(build_graph(spec, m, n), aug).inner.data != result.r_aug.inner.data:
        return "evaluate_graph differs from the reference"
    for label, cfg in configs:
        report = run(spec, cfg, aug)
        if not report.completed:
            return f"{label}: deadlock after {report.steps} sweeps"
        mismatch = _drain_mismatch(report, result.r_aug)
        if mismatch:
            return f"{label}: {mismatch}"
    return None


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser whose help, usage and errors are written through
    :func:`_writing`, so a standard stream that fails is a usage error."""

    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
            with _writing("standard output" if file is sys.stdout else "standard error", file):
                file.write(message)
                file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except (NonFiniteError, SingularMatrixError) as exc:
        _error(exc)
        return EXIT_FAIL
    except OSError as exc:
        _error(f"cannot read input: {exc}")
        return EXIT_USAGE
    except (_Usage, ValueError) as exc:
        _error(exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
