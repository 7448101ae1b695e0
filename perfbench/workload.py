"""One round of a benchmark workload, run in its own fresh Python process.

``run.py`` starts this file once per round; it prints one JSON object on
stdout.  A workload is a fixed pool of shapes whose matrices come from the
seed.  A round sets up (import, spec, inputs, one warm-up op) and then runs
one pass over the pool in an order drawn from the seed and the round number:
a closed loop with one caller, each op starting when the previous one
returned.  Every op is checked outside the timed interval.  The first round
checks each output bit for bit against ``qr_givens_reference`` and
``evaluate_graph`` and writes a digest of every shape's report bytes; later
rounds must reproduce those bytes exactly.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import resource
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORK = OUT / "work"

FULL, FOLDED = "full", "folded"
GRID_CONFIGS = [(u, relay, cap) for u in (FULL, FOLDED) for relay in (True, False) for cap in (1, 2, 8)]

# name -> (op kind, shape pool, simulator configs as (unroll, relay, capacity),
#          seconds one pass over the pool took on the reference machine)
# Each pool covers its ranges densely, so that the median and the tail fall
# among shapes of similar cost and do not jump between distant ones.
WORKLOADS = {
    "full_sweep": ("sim", [(m, n) for m in range(14, 21) for n in (m - 4, m - 2, m)],
                   [(FULL, True, 2)], 9.5),
    "check_grid": ("grid", [(m, n) for m in range(3, 11) for n in range(1, m + 1)],
                   GRID_CONFIGS, 9.5),
    "cli_cold": ("cli", [(m, n) for m in range(10, 15) for n in range(m - 2, m + 1)],
                 [(FULL, True, 2)], 5.5),
}
WARMUP_SHAPE = (4, 4)
CLI_TIMEOUT_S = 60


class OpFailure(Exception):
    """An op whose output is wrong, or whose process exited nonzero."""


def _bits(values: list[float]) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def digest_path(workload: str, seed: int) -> Path:
    return WORK / f"digests-{workload}-{seed}.json"


class Workload:
    def __init__(self, name: str, seed: int, pkg: dict) -> None:
        self.name = name
        self.seed = seed
        self.kind, self.shapes, configs, _ = WORKLOADS[name]
        self.pkg = pkg
        self.spec = pkg["specdsl"].builtin_qr_spec()
        sim = pkg["simulator"]
        self.configs = [
            sim.SimConfig(
                unroll=sim.spec_unroll(self.spec) if u == FULL else sim.folded_unroll(self.spec),
                channel_capacity=cap, relay_enabled=relay,
            )
            for u, relay, cap in configs
        ]
        unroll, relay, cap = configs[0]
        self.cli_flags = ["--unroll", unroll, "--capacity", str(cap), "--relay" if relay else "--no-relay"]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src")) if self.kind == "cli" else None
        rng = random.Random(seed)
        self.inputs = [self._make_input(m, n, rng.randrange(2**31)) for m, n in self.shapes]
        self.warmup = self._make_input(*WARMUP_SHAPE, rng.randrange(2**31), tag="warmup")
        self.known_digests: dict[str, str] | None = None  # from the first round
        self.digests: dict[int, str] = {}
        self.sims: dict[int, list[tuple[int, int]]] = {}  # (sweeps, firings) per simulation
        self.failures: list[str] = []
        self.tracer = None

    # --- inputs and oracles ---------------------------------------------------

    def _make_input(self, m: int, n: int, mseed: int, tag: str | None = None) -> dict:
        numeric = self.pkg["numeric"]
        a = numeric.random_matrix(m, n, mseed)
        z = numeric.random_matrix(m, 1, mseed + 1).column(1)
        item = {"m": m, "n": n, "aug": numeric.AugmentedMatrix.from_parts(a, z)}
        if self.kind == "cli":
            stem = tag or f"{m}x{n}"
            item["files"] = {k: WORK / f"{stem}.{k}" for k in ("A.txt", "z.txt", "R.json", "err")}
            numeric.write_matrix(str(item["files"]["A.txt"]), a)
            numeric.write_matrix(str(item["files"]["z.txt"]), numeric.Matrix(m, 1, z))
        return item

    def oracle(self, item: dict):
        """The reference result, checked bitwise against the graph evaluator, and R's positions.

        Every simulation must drain R's positions and the rhs column beside
        them; a tall matrix may leave its residual position undrained.
        """
        if "oracle" not in item:
            numeric, dataflow = self.pkg["numeric"], self.pkg["dataflow"]
            m, n, aug = item["m"], item["n"], item["aug"]
            upper = [(i, j) for i in range(1, m + 1) for j in range(i, n + 2)]
            ref = numeric.qr_givens_reference(aug).r_aug.inner
            graph = dataflow.evaluate_graph(dataflow.build_graph(self.spec, m, n), aug).inner
            if _bits([graph.get(i, j) for i, j in upper]) != _bits([ref.get(i, j) for i, j in upper]):
                raise OpFailure(f"{m}x{n}: evaluate_graph differs from qr_givens_reference")
            item["oracle"] = (ref, {(i, j) for i, j in upper if i <= n})
        return item["oracle"]

    # --- ops ------------------------------------------------------------------

    def op(self, item: dict):
        """The timed unit of work; returns what ``check`` needs."""
        numeric, dataflow, sim = self.pkg["numeric"], self.pkg["dataflow"], self.pkg["simulator"]
        if self.kind == "sim":
            return [sim.run(self.spec, cfg, item["aug"]) for cfg in self.configs]
        if self.kind == "grid":
            m, n, aug = item["m"], item["n"], item["aug"]
            ref = numeric.qr_givens_reference(aug).r_aug
            graph = dataflow.evaluate_graph(dataflow.build_graph(self.spec, m, n), aug)
            return [sim.run(self.spec, cfg, aug) for cfg in self.configs], ref, graph
        # A blocking wait() returns as soon as the process exits; a wait with a
        # timeout polls, which would round the op time up by tens of milliseconds.
        with open(item["files"]["err"], "wb") as err:
            proc = subprocess.Popen(self._cli_command(item), stdout=subprocess.DEVNULL, stderr=err,
                                    cwd=WORK, env=self.env)
            watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                return proc.wait()
            finally:
                watchdog.cancel()

    def _cli_command(self, item: dict) -> list[str]:
        files = item["files"]
        head = ([sys.executable, str(HERE / "spans.py"), str(files["R.json"]) + ".spans"]
                if self.tracer is not None else [sys.executable, "-m", "spatialqr"])
        return head + ["simulate", str(files["A.txt"]), "--rhs", str(files["z.txt"]),
                       "--report", str(files["R.json"]), "--event-log", *self.cli_flags]

    def report_bytes(self, item: dict, result) -> list[bytes]:
        if self.kind == "cli":
            if result != 0:
                raise OpFailure(f"{item['m']}x{item['n']}: exit code {result}")
            return [item["files"]["R.json"].read_bytes()]
        reports = result if self.kind == "sim" else result[0]
        return [self.pkg["simulator"].report_to_json(r).encode() for r in reports]

    def check(self, item: dict, result, blobs: list[bytes]) -> list[tuple[int, int]]:
        """Raise OpFailure unless every simulation matches the oracle bit for bit.

        Returns (sweeps, firings) of each simulation.  The check reads the
        report JSON, so it checks what a user of the report receives.
        """
        ref, r_positions = self.oracle(item)
        if self.kind == "grid":
            for label, mat in (("qr_givens_reference", result[1]), ("evaluate_graph", result[2])):
                if _bits(mat.inner.data) != _bits(ref.data):
                    raise OpFailure(f"{item['m']}x{item['n']}: {label} differs from the oracle")
        sims = []
        for blob in blobs:
            rep = json.loads(blob)
            where = f"{item['m']}x{item['n']} {rep['config']}"
            if rep["status"] != "completed":
                raise OpFailure(f"{where}: {rep['status']}")
            drained = [tuple(p) for p in rep["drained"]]
            if not r_positions <= set(drained):
                raise OpFailure(f"{where}: positions of R left undrained")
            got = [rep["output"][i - 1][j - 1] for i, j in drained]
            if _bits(got) != _bits([ref.get(i, j) for i, j in drained]):
                raise OpFailure(f"{where}: output differs from the reference")
            sims.append((rep["steps"], rep["total_firings"]))
        return sims

    def timed_op(self, index: int | None, op_id: int = 0) -> tuple[float, bool]:
        """Run, time and check one op; index None is the untimed warm-up.

        Returns the op's host seconds and whether it passed its check.
        """
        item = self.warmup if index is None else self.inputs[index]
        gc.collect()
        span = None
        if self.tracer is not None:
            self.tracer.op = op_id
            span = self.tracer.begin("op", m=item["m"], n=item["n"])
        failure = None
        t0 = time.perf_counter()
        try:
            result = self.op(item)
        except Exception as exc:  # any exception is a failed op, counted, not fatal
            failure = f"{item['m']}x{item['n']}: {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if span is not None:
            self.tracer.end(span)
            self.tracer.op = None
        sims = None
        if failure is None:
            try:
                blobs = self.report_bytes(item, result)
                digest = hashlib.sha256(b"".join(blobs)).hexdigest()
                if index is None or self.known_digests is None:
                    sims = self.check(item, result, blobs)
                elif self.known_digests.get(str(index)) != digest:
                    raise OpFailure(f"{item['m']}x{item['n']}: report bytes differ from the first round")
            except OpFailure as exc:
                failure = str(exc)
        if index is None:
            if failure is not None:
                raise OpFailure(f"warm-up op failed: {failure}")
            return elapsed, True
        if span is not None and self.kind == "cli" and failure is None:
            self._merge_cli_spans(item, span)
        if failure is not None:
            self.failures.append(failure)
            return elapsed, False
        self.digests[index] = digest
        if sims is not None:
            self.sims[index] = sims
        return elapsed, True

    def _merge_cli_spans(self, item: dict, op_span: dict) -> None:
        """Adopt the spans the traced CLI process wrote, under this op's span."""
        files = item["files"]
        op_span["attrs"]["report_bytes"] = files["R.json"].stat().st_size
        op_span["attrs"]["event_log_bytes"] = files["err"].stat().st_size
        spans_path = Path(str(files["R.json"]) + ".spans")
        child = json.loads(spans_path.read_text())
        spans_path.unlink()
        offset = len(self.tracer.spans)
        for s in child:
            s["id"] += offset
            s["op"] = op_span["op"]
            s["parent"] = op_span["id"] if s["parent"] is None else s["parent"] + offset
        self.tracer.spans.extend(child)

    def run_pass(self, round_no: int) -> list[tuple[int, float, bool]]:
        """One pass over the pool in this round's order: (index, seconds, passed) per op."""
        order = list(range(len(self.inputs)))
        random.Random(f"{self.seed}/{round_no}").shuffle(order)
        return [(i, *self.timed_op(i, op_id)) for op_id, i in enumerate(order)]


def _import_package() -> dict:
    src = ROOT / "src"
    if not (src / "spatialqr" / "__init__.py").is_file():
        raise SystemExit(f"error: no spatialqr package under {src}")
    sys.path.insert(0, str(src))
    import spatialqr
    from spatialqr import dataflow, numeric, simulator, specdsl
    if Path(spatialqr.__file__).resolve().parent != src / "spatialqr":
        raise SystemExit(f"error: imported spatialqr from {spatialqr.__file__}, not {src}")
    return {"numeric": numeric, "dataflow": dataflow, "simulator": simulator, "specdsl": specdsl}


def _layer_results(w: Workload, traced: list[float]) -> dict:
    """Per-layer medians over the traced ops, and each self time's median share of an op."""
    import spans
    by_op: dict[int, list[dict]] = {}
    for s in w.tracer.spans:
        by_op.setdefault(s["op"], []).append(s)
    per_op = [spans.op_layer_metrics(by_op[k]) for k in sorted(by_op)]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"spans-{w.name}-seed{w.seed}.json").write_text(json.dumps(w.tracer.spans))
    return {
        "layer": {name: statistics.median(op[name] for op in per_op) for name in per_op[0]},
        "share_of_op": {
            name: statistics.median(op[name] / t for op, t in zip(per_op, traced))
            for name in per_op[0] if name.endswith("_s") and not name.endswith("per_firing")
        },
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--round", type=int, required=True,
                   help="0 checks against the oracles; later rounds must reproduce its report bytes")
    p.add_argument("--t0", type=float, required=True,
                   help="perf_counter reading of the parent when it started this process")
    p.add_argument("--trace", action="store_true", help="trace the pass and report per-layer metrics")
    args = p.parse_args()

    pkg = _import_package()
    WORK.mkdir(parents=True, exist_ok=True)
    w = Workload(args.workload, args.seed, pkg)
    if args.round > 0:
        w.known_digests = json.loads(digest_path(w.name, w.seed).read_text())
    w.timed_op(None)
    gc.collect()
    out: dict = {"setup_s": time.perf_counter() - args.t0}
    if args.trace:
        import spans
        w.tracer = spans.Tracer()
        w.tracer.install()
    ops = w.run_pass(args.round)
    if args.round == 0:
        digest_path(w.name, w.seed).write_text(json.dumps(w.digests))
    if args.trace:
        out.update(_layer_results(w, [t for _, t, _ in ops]))
    out.update({
        "ops": ops,
        "failures": w.failures,
        "peak_rss_mb": _peak_rss_mb(),
        "digests": w.digests,
        "sims": w.sims,
    })
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
