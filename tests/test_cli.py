import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from spatialqr import cli
from spatialqr.numeric import (
    AugmentedMatrix,
    Matrix,
    parse_matrix_text,
    random_matrix,
    write_matrix,
)
from spatialqr.simulator import SimReport

FIXTURES = Path(__file__).parent / "fixtures"
# a child whose standard streams buffer, as they do unless PYTHONUNBUFFERED is set
BUFFERED_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.fixture
def matrix4(tmp_path):
    path = tmp_path / "a4.txt"
    write_matrix(str(path), random_matrix(4, 4, 0))
    return path


@pytest.fixture
def rhs4(tmp_path):
    path = tmp_path / "z4.txt"
    write_matrix(str(path), Matrix(4, 1, [1.0, 2.0, 3.0, 4.0]))
    return path


def matmul(a, b):
    out = Matrix.zeros(a.rows, b.cols)
    for i in range(1, a.rows + 1):
        for j in range(1, b.cols + 1):
            acc = 0.0
            for k in range(1, a.cols + 1):
                acc += a.get(i, k) * b.get(k, j)
            out.set(i, j, acc)
    return out


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def deadlocked_report(spec, cfg, aug, on_event=None):
    """What ``run`` returns for a design that deadlocks after seven sweeps."""
    return SimReport(
        status="deadlock", m=aug.m, n=aug.n, config=cfg.describe(), steps=7,
        firings={}, max_occupancy={}, channel_sends={}, output=None,
        drained=[], uncovered=[],
        blocked=[{"pe": "X(col=1)", "iteration": "X(1, 2)",
                  "waiting_on_empty": [], "waiting_on_full": []}],
    )


class TestTrace:
    def test_text_output(self, capsys):
        assert run_cli("trace", "4", "4") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 26
        assert lines[0] == "1,4,-  c,s[4,1](W) A'[4,1] A'[3,1]"

    def test_matches_golden_fixture(self, capsys):
        assert run_cli("trace", "4", "4") == 0
        assert capsys.readouterr().out == (FIXTURES / "trace_4x4_golden.txt").read_text()

    def test_empty_space(self, capsys):
        assert run_cli("trace", "1", "1") == 0
        assert capsys.readouterr().out == ""

    def test_json_count(self, capsys):
        assert run_cli("trace", "4", "4", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert len(obj["events"]) == 26

    def test_invalid_size_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "0", "4")
        assert exc.value.code == 2


class TestGraph:
    def test_dot_node_statements(self, capsys):
        assert run_cli("graph", "4", "4") == 0
        out = capsys.readouterr().out
        assert out.count("[shape=") == 26
        assert '"X_1_4" [shape=ellipse];' in out

    def test_json_stats(self, capsys):
        assert run_cli("graph", "4", "4", "--format", "json") == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["stats"]["x_nodes"] == 6
        assert obj["stats"]["y_nodes"] == 20

    def test_relay_flag_rewrites_edges(self, capsys):
        assert run_cli("graph", "4", "4", "--format", "json", "--relay") == 0
        obj = json.loads(capsys.readouterr().out)
        relayed = [
            e for e in obj["edges"]
            if e["pattern"] == "cs" and e["source"]["producer"]["func"] == "Y"
        ]
        assert len(relayed) == 14  # one per non-head chain position

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert run_cli("graph", "4", "4", "--output", target) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("digraph dataflow {")


class TestDecompose:
    def test_writes_upper_triangular_r(self, matrix4, tmp_path, capsys):
        out = tmp_path / "r.txt"
        assert run_cli("decompose", matrix4, "--output", out) == 0
        r = parse_matrix_text(out.read_text())
        assert (r.rows, r.cols) == (4, 4)
        for j in range(1, 5):
            for i in range(j + 1, 5):
                assert r.get(i, j) == 0.0

    def test_rhs_adds_column(self, matrix4, rhs4, tmp_path):
        out = tmp_path / "raug.txt"
        assert run_cli("decompose", matrix4, "--rhs", rhs4, "--output", out) == 0
        r = parse_matrix_text(out.read_text())
        assert (r.rows, r.cols) == (4, 5)

    def test_q_output_reconstructs(self, matrix4, tmp_path):
        r_path, q_path = tmp_path / "r.txt", tmp_path / "q.txt"
        assert run_cli(
            "decompose", matrix4, "--output", r_path,
            "--accumulate-q", "--q-output", q_path,
        ) == 0
        q = parse_matrix_text(q_path.read_text())
        r = parse_matrix_text(r_path.read_text())
        a = parse_matrix_text(matrix4.read_text())
        recon = matmul(q, r)
        for i in range(1, 5):
            for j in range(1, 5):
                assert abs(recon.get(i, j) - a.get(i, j)) < 1e-12

    def test_q_output_without_flag_is_usage_error(self, matrix4, tmp_path, capsys):
        code = run_cli("decompose", matrix4, "--output", tmp_path / "r.txt",
                       "--q-output", tmp_path / "q.txt")
        assert code == 2
        assert capsys.readouterr().err == "error: --q-output needs --accumulate-q\n"
        assert not (tmp_path / "r.txt").exists() and not (tmp_path / "q.txt").exists()

    def test_overflow_fails_and_writes_nothing(self, tmp_path, capsys):
        """Finite entries whose column norm overflows end as for a non-finite input."""
        matrix, out = tmp_path / "big.txt", tmp_path / "r.txt"
        matrix.write_text("2 2\n1.5e308 1.0\n1.5e308 1.0\n")
        assert run_cli("decompose", matrix, "--output", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "non-finite" in err[0]
        assert not out.exists()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = run_cli("decompose", tmp_path / "nope.txt", "--output", tmp_path / "r.txt")
        assert code == 2

    def test_csv_autodetect(self, tmp_path):
        src = tmp_path / "a.csv"
        src.write_text("2.0,1.0\n0.0,1.0\n")
        out = tmp_path / "r.csv"
        assert run_cli("decompose", src, "--output", out) == 0
        assert out.read_text() == "2.0,1.0\n0.0,1.0\n"


class TestSolve:
    def test_identity(self, tmp_path, capsys):
        a_path, z_path = tmp_path / "a.txt", tmp_path / "z.txt"
        write_matrix(str(a_path), Matrix.identity(3))
        write_matrix(str(z_path), Matrix(3, 1, [5.0, -1.0, 2.0]))
        assert run_cli("solve", a_path, z_path) == 0
        assert capsys.readouterr().out == "5.0\n-1.0\n2.0\n"

    def test_singular_matrix_fails(self, tmp_path, capsys):
        a_path, z_path = tmp_path / "a.txt", tmp_path / "z.txt"
        write_matrix(str(a_path), Matrix(2, 2, [1.0, 0.0, 0.0, 0.0]))
        write_matrix(str(z_path), Matrix(2, 1, [1.0, 1.0]))
        assert run_cli("solve", a_path, z_path) == 1
        assert "singular" in capsys.readouterr().err

    def test_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        a_path, z_path = tmp_path / "a.txt", tmp_path / "z.txt"
        write_matrix(str(a_path), Matrix.identity(3))
        write_matrix(str(z_path), Matrix(2, 1, [1.0, 1.0]))
        assert run_cli("solve", a_path, z_path) == 2


class TestSimulate:
    def test_full_unroll_completes(self, matrix4, rhs4, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = run_cli("simulate", matrix4, "--rhs", rhs4, "--report", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["status"] == "completed"
        assert report["total_firings"] == 26
        assert len(report["firings"]) == 26

    def test_folded_has_fewer_pes(self, matrix4, tmp_path):
        report_path = tmp_path / "report.json"
        assert run_cli("simulate", matrix4, "--unroll", "folded",
                       "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert len(report["firings"]) == 12  # 3 X + 9 Y processing elements
        assert report["total_firings"] == 26

    def test_report_to_stdout(self, matrix4, capsys):
        assert run_cli("simulate", matrix4) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["schema"] == 1
        assert obj["status"] == "completed"

    def test_capacity_zero_is_usage_error(self, matrix4):
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", matrix4, "--capacity", "0")
        assert exc.value.code == 2

    def test_nan_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1.0 2.0\nnan 4.0\n")
        assert run_cli("simulate", bad) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_event_log_goes_to_stderr(self, matrix4, tmp_path, capsys):
        assert run_cli("simulate", matrix4, "--report", tmp_path / "r.json",
                       "--event-log") == 0
        err = capsys.readouterr().err
        assert err.count("step=") == 26

    def test_event_log_keeps_the_firings_before_a_non_finite_output(self, tmp_path, capsys):
        """The log is streamed, so the firings that ran precede the error line."""
        bad = tmp_path / "bad.txt"
        bad.write_text("3 3\n1.0 2.0 3.0\n4.0 5.0 6.0\n7.0 8.0 nan\n")
        assert run_cli("simulate", bad, "--report", tmp_path / "r.json", "--event-log") == 1
        *events, last = capsys.readouterr().err.splitlines()
        assert events and all(line.startswith("step=") for line in events)
        assert last.startswith("error: ") and "non-finite" in last

    def test_deadlock_exit_code(self, matrix4, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", deadlocked_report)
        code = run_cli("simulate", matrix4, "--report", tmp_path / "r.json")
        assert code == 3
        assert "deadlock" in capsys.readouterr().err

    def test_mismatch_exit_code(self, matrix4, tmp_path, monkeypatch, capsys):
        real_run = cli.run

        def tampered(spec, cfg, aug, on_event=None):
            report = real_run(spec, cfg, aug, on_event)
            i, j = report.drained[0]
            report.output.set(i, j, report.output.get(i, j) + 1.0)
            return report

        monkeypatch.setattr(cli, "run", tampered)
        code = run_cli("simulate", matrix4, "--report", tmp_path / "r.json")
        assert code == 1
        assert "differs from reference" in capsys.readouterr().err


class TestVerify:
    def test_identity_all_zero_errors(self, tmp_path, capsys):
        path = tmp_path / "i.txt"
        write_matrix(str(path), Matrix.identity(4))
        assert run_cli("verify", path, "--tol", "1e-12") == 0
        out = capsys.readouterr().out
        assert "reconstruction_max_error 0.0" in out
        assert "orthogonality_max_error 0.0" in out
        assert out.rstrip().endswith("result PASS")

    def test_random_passes_default_tolerance(self, tmp_path, capsys):
        path = tmp_path / "a8.txt"
        write_matrix(str(path), random_matrix(8, 8, 3))
        assert run_cli("verify", path) == 0

    def test_non_finite_fixture_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1.0 inf\n0.0 1.0\n")
        assert run_cli("verify", path) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "non-finite" in captured.err

    def test_nan_pivot_fixture_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\nnan 1.0\n1.0 1.0\n")
        assert run_cli("verify", path) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestSelfcheck:
    def test_small_selfcheck_passes(self, capsys):
        assert run_cli("selfcheck", "--max-size", "4") == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("selfcheck: all passed")

    def test_tampered_report_names_shape_and_configuration(self, monkeypatch, capsys):
        real_run = cli.run

        def tampered(spec, cfg, aug, on_event=None):
            report = real_run(spec, cfg, aug, on_event)
            if report.drained:
                i, j = report.drained[0]
                report.output.set(i, j, report.output.get(i, j) + 1.0)
            return report

        monkeypatch.setattr(cli, "run", tampered)
        assert run_cli("selfcheck", "--max-size", "3") == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "selfcheck: 1x1 ok"
        assert lines[-1].startswith(
            "selfcheck: 2x1 FAIL full relay=on capacity=1: simulated output differs")

    @pytest.mark.parametrize("name,fake,failure", [
        ("verify_qr", lambda aug, result, tol: SimpleNamespace(passed=False),
         "verify_qr fails at tolerance 1e-10"),
        ("evaluate_graph",
         lambda graph, aug: AugmentedMatrix(aug.m, aug.n, Matrix.zeros(aug.m, aug.n + 1)),
         "evaluate_graph differs from the reference"),
        ("run", deadlocked_report, "full relay=on capacity=1: deadlock after 7 sweeps"),
    ], ids=["verify-qr", "evaluate-graph", "deadlock"])
    def test_each_check_names_its_failure(self, monkeypatch, capsys, name, fake, failure):
        monkeypatch.setattr(cli, name, fake)
        assert run_cli("selfcheck", "--max-size", "3") == 1
        assert capsys.readouterr().out == f"selfcheck: 1x1 FAIL {failure}\n"


class TestHostileInputs:
    """Every bad input file ends in one ``error:`` line and a documented exit code."""

    @pytest.mark.parametrize("command", ["decompose", "solve", "simulate"])
    @pytest.mark.parametrize("name,text,rhs_rows,code", [
        ("empty.txt", "", 2, 2),
        ("ragged.txt", "2 2\n1.0 2.0\n3.0\n", 2, 2),
        ("ragged.csv", "1.0,2.0\n3.0\n", 2, 2),
        ("nan.txt", "2 2\n1.0 2.0\n3.0 nan\n", 2, 1),
        ("inf.txt", "2 2\n1.0 2.0\n3.0 inf\n", 2, 1),
        ("zero.txt", "0 0\n", 2, 2),
        ("rhs.txt", "2 2\n1.0 2.0\n3.0 4.0\n", 3, 2),
    ], ids=["empty", "ragged-txt", "ragged-csv", "nan", "inf", "zero-header", "rhs-length"])
    def test_one_error_line(self, tmp_path, capsys, command, name, text, rhs_rows, code):
        matrix, rhs = tmp_path / name, tmp_path / "z.txt"
        matrix.write_text(text)
        write_matrix(str(rhs), Matrix(rhs_rows, 1, [1.0] * rhs_rows))
        argv = {
            "decompose": ("decompose", matrix, "--rhs", rhs, "--output", tmp_path / "r.txt"),
            "solve": ("solve", matrix, rhs),
            "simulate": ("simulate", matrix, "--rhs", rhs, "--report", tmp_path / "r.json"),
        }[command]
        assert run_cli(*argv) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


    @pytest.mark.parametrize("command", ["graph", "trace"])
    @pytest.mark.parametrize("m,n", [("0", "4"), ("4", "-1"), ("x", "4"), ("4", "2.5")])
    def test_bad_size_is_usage_error(self, command, m, n):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, m, n)
        assert exc.value.code == 2

    @pytest.mark.parametrize("target", ["missing/out", "."], ids=["no-dir", "a-dir"])
    @pytest.mark.parametrize("command", ["graph", "simulate"])
    def test_unwritable_output(self, tmp_path, capsys, matrix4, command, target):
        path = tmp_path / target
        argv = {
            "graph": ("graph", "3", "3", "--output", path),
            "simulate": ("simulate", matrix4, "--report", path),
        }[command]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("argv", [
        ("simulate", "a" * 300),
        ("decompose", "/dev/null/x", "--output", "o.txt"),
    ], ids=["name-too-long", "not-a-directory"])
    def test_unreadable_input_path(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot read input: ")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["trace", "solve"])
    def test_full_stdout_is_one_error_line(self, matrix4, rhs4, command):
        argv = {"trace": ("trace", "3", "3"), "solve": ("solve", matrix4, rhs4)}[command]
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "spatialqr", *map(str, argv)],
                                  stdout=full, stderr=subprocess.PIPE, env=BUFFERED_ENV,
                                  check=False)
        assert done.returncode == 2
        err = done.stderr.decode().splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write standard output: ")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_stdout_is_pointed_at_the_null_device(self, capsys, monkeypatch):
        """In process, the failed stream's descriptor now refers to the null
        device, so the interpreter's last flush at exit cannot fail again."""
        with open("/dev/full", "w") as full:
            monkeypatch.setattr(sys, "stdout", full)
            assert run_cli("trace", "3", "3") == 2
            device = os.fstat(full.fileno()).st_rdev
        assert device == os.stat(os.devnull).st_rdev
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot write standard output: ")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("event_log", [False, True], ids=["missing-input", "event-log"])
    def test_full_stderr_keeps_the_usage_exit_code(self, tmp_path, matrix4, event_log):
        """An unreadable input, or an event log stderr cannot take, is a usage
        error even when its error line cannot be printed either."""
        argv = ("simulate", matrix4, "--event-log") if event_log else ("simulate", "missing.txt")
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "spatialqr", *map(str, argv)],
                                  cwd=tmp_path, stdout=subprocess.PIPE, stderr=full,
                                  env=BUFFERED_ENV, check=False)
        assert (done.returncode, done.stdout) == (2, b"")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("full", ["stdout", "stderr"])
    def test_full_stream_under_argparse_is_a_usage_error(self, full):
        """Help and usage text that argparse writes go through the same guard."""
        argv = ("--help",) if full == "stdout" else ("trace", "0", "4")
        with open("/dev/full", "w") as sink:
            streams = ({"stdout": sink, "stderr": subprocess.PIPE} if full == "stdout"
                       else {"stdout": subprocess.PIPE, "stderr": sink})
            done = subprocess.run([sys.executable, "-m", "spatialqr", *argv], **streams,
                                  env=BUFFERED_ENV, check=False)
        assert done.returncode == 2
        if full == "stdout":
            err = done.stderr.decode().splitlines()
            assert len(err) == 1 and err[0].startswith("error: cannot write standard output: ")
        else:
            assert done.stdout == b""

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: spatialqr")

    @pytest.mark.parametrize("name,text", [
        ("empty.txt", ""),
        ("empty.csv", ""),
        ("ragged.txt", "2 2\n1.0 2.0\n3.0\n"),
        ("ragged.csv", "1.0,2.0\n3.0\n"),
        ("zero.txt", "0 0\n"),
        ("short.txt", "2 2\n1.0 2.0\n"),
    ], ids=["empty", "empty-csv", "ragged-txt", "ragged-csv", "zero-header", "missing-row"])
    def test_verify_file_shape(self, tmp_path, capsys, name, text):
        matrix = tmp_path / name
        matrix.write_text(text)
        assert run_cli("verify", matrix) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")


class TestDeterminism:
    def _capture(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "spatialqr", *map(str, argv)],
            capture_output=True, check=False,
        )

    @pytest.mark.parametrize("argv", [
        ("trace", "4", "4"),
        ("trace", "5", "3", "--format", "json"),
        ("graph", "4", "4"),
        ("graph", "4", "4", "--format", "json", "--relay"),
    ])
    def test_byte_identical_stdout(self, argv):
        first, second = self._capture(*argv), self._capture(*argv)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_simulate_and_verify_byte_identical(self, matrix4):
        for argv in (["simulate", matrix4, "--unroll", "folded"], ["verify", matrix4]):
            first, second = self._capture(*argv), self._capture(*argv)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
