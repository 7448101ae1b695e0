"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload full_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  A run is a sequence of
rounds, one at a time, each a fresh Python process that sets up and makes
one pass over the workload's pool (see workload.py).  With ``--trace 0`` it
runs as many rounds as fit in ``--seconds`` at the pass time measured on the
reference machine, and at least three, and prints the end-to-end metrics.
The number of rounds depends only on ``--seconds``, so every run of a
workload times the same ops, whatever the seed, commit or machine.  With
``--trace 1`` it runs one untraced and one traced round and prints the
per-layer metrics.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(seed, shapes, environment, digest, every op time) goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workload import OUT, ROOT, WORK, WORKLOADS

MIN_ROUNDS = 3
RUN_TIMEOUT_S = 170


def _metric_units(group: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[group]}


def _round(args, round_no: int, trace: bool, deadline: float) -> dict:
    t0 = time.perf_counter()
    cmd = [sys.executable, str(Path(__file__).with_name("workload.py")),
           "--workload", args.workload, "--seed", str(args.seed),
           "--round", str(round_no), "--t0", repr(t0)] + (["--trace"] if trace else [])
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise SystemExit(f"error: {args.workload} round {round_no} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _op_seconds(rnd: dict) -> list[float]:
    return [t for _, t, _ in rnd["ops"]]


def tail(times: list[float]) -> tuple[float, float]:
    """Host time at the highest percentile with at least ten ops beyond it, and that percentile."""
    ordered = sorted(times)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(rounds: list[dict]) -> dict:
    """The end-to-end metrics over every timed op of every round.

    Simulated statistics come from round 0, which checked every shape
    against the oracles; later rounds reproduced its report bytes.
    """
    sims = {int(i): s for i, s in rounds[0]["sims"].items()}
    firings = {i: sum(f for _, f in s) for i, s in sims.items()}
    times = [t for rnd in rounds for t in _op_seconds(rnd)]
    fired = sum(firings.get(i, 0) for rnd in rounds for i, _, ok in rnd["ops"] if ok)
    tail_s, tail_pct = tail(times)
    flat = [s for i in sorted(sims) for s in sims[i]]
    sweeps = sum(s for s, _ in flat)
    return {
        "latency_p50_s": statistics.median(times),
        "latency_tail_s": tail_s,
        "tail_percentile": tail_pct,
        "timed_ops": len(times),
        "firings_per_s": fired / sum(times),
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
        "sim_sweeps": sweeps / len(flat) if flat else 0.0,
        "sim_sweeps_total": sweeps,
        "sim_firings_per_sweep": sum(f for _, f in flat) / sweeps if sweeps else 0.0,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "spatialqr" / "__init__.py").is_file():
        print(f"error: no spatialqr package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_TIMEOUT_S
    rounds: list[dict] = []
    try:
        if args.trace:
            rounds = [_round(args, 0, False, deadline), _round(args, 1, True, deadline)]
        else:
            pass_s = WORKLOADS[args.workload][3]
            for round_no in range(max(MIN_ROUNDS, round(args.seconds / pass_s))):
                rounds.append(_round(args, round_no, False, deadline))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failures = [f for r in rounds for f in r["failures"]]
    attempted = sum(len(r["ops"]) for r in rounds)
    shapes = WORKLOADS[args.workload][1]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "commit": _git_commit(),
        },
        "shapes": shapes,
        "round_orders": [[shapes[i] for i, _, _ in r["ops"]] for r in rounds],
        "op_seconds": [_op_seconds(r) for r in rounds],
        "setup_samples_s": [r["setup_s"] for r in rounds],
        "attempted": attempted,
        "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "failures": failures[:10],
        # sha256 over the sha256 of each shape's report bytes, in pool order
        "report_sha256": hashlib.sha256("".join(
            rounds[0]["digests"].get(str(i), "FAILED") for i in range(len(shapes))
        ).encode()).hexdigest(),
    }
    if args.trace:
        untraced, traced = (statistics.median(_op_seconds(r)) for r in rounds)
        record.update({
            "layer": rounds[1]["layer"],
            "share_of_op": rounds[1]["share_of_op"],
            "tracing_overhead_s": traced - untraced,
        })
        values = record["layer"]
        units = _metric_units("per_layer")
    else:
        record.update(end_to_end(rounds))
        values = record
        units = _metric_units("end_to_end")

    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{args.workload}: {len(rounds)} rounds, {attempted} ops, {len(failures)} failed, "
          f"report sha256 {record['report_sha256'][:16]}; record in {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
