"""Report bytes pinned over a grid of small configurations.

Each entry is the run's status and the sha256 of ``report_to_json(run(...))``
with the streamed event lines added under ``"events"``, so any change to firing order, sweep counts,
occupancy, deadlock diagnostics or drained values shows up as a changed
digest.  A configuration that raises records the exception type and message
instead.

Regenerate the fixture (only when the report is meant to change) with::

    PYTHONPATH=src python tests/test_report_digests.py
"""

import hashlib
import json
from pathlib import Path

from spatialqr.numeric import AugmentedMatrix, random_matrix
from spatialqr.simulator import (
    SimConfig,
    compile_design,
    execute,
    folded_unroll,
    report_to_json,
    run,
    spec_unroll,
)
from spatialqr.specdsl import builtin_qr_spec

FIXTURE = Path(__file__).parent / "fixtures" / "report_digests.json"
SPEC = builtin_qr_spec()
UNROLLS = {
    "spec": spec_unroll(SPEC),
    "folded_row": folded_unroll(SPEC),
    "folded_row_k": folded_unroll(SPEC, ("row", "k")),
    "none": {"X": (), "Y": ()},
}


def config_key(m, n, unroll, relay, capacity):
    return f"{m}x{n}/{unroll}/relay={'on' if relay else 'off'}/cap={capacity}"


def outcome(m, n, unroll, relay, capacity):
    aug = AugmentedMatrix.from_parts(
        random_matrix(m, n, 100 * m + n), [float(i) for i in range(1, m + 1)]
    )
    cfg = SimConfig(unroll=UNROLLS[unroll], channel_capacity=capacity, relay_enabled=relay)
    lines = []
    try:
        report = run(SPEC, cfg, aug, lines.append)
    except Exception as exc:  # the failure itself is what gets pinned
        return f"raises {type(exc).__name__}: {exc}"
    obj = json.loads(report_to_json(report))
    if lines:
        obj["events"] = [line.rstrip("\n") for line in lines]
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return f"{report.status} {digest}"


def compute_digests():
    return {
        config_key(m, n, unroll, relay, capacity): outcome(m, n, unroll, relay, capacity)
        for m in range(1, 7)
        for n in range(1, m + 1)
        for unroll in UNROLLS
        for relay in (True, False)
        for capacity in (1, 2, 8)
    }


def test_report_digests_match_fixture():
    pinned = json.loads(FIXTURE.read_text())
    assert compute_digests() == pinned


def test_fixture_covers_every_outcome():
    pinned = json.loads(FIXTURE.read_text())
    assert len(pinned) == 21 * len(UNROLLS) * 2 * 3
    kinds = {v.split(":")[0] if v.startswith("raises") else v.split(" ")[0]
             for v in pinned.values()}
    assert kinds == {"completed", "deadlock", "raises WiringError"}


def attempt(fn):
    """The report JSON of ``fn()``, or the exception it raises."""
    try:
        return report_to_json(fn())
    except Exception as exc:
        return f"raises {type(exc).__name__}: {exc}"


def test_schedule_does_not_depend_on_the_data():
    """Everything but the output values is fixed by the spec, configuration and shape.

    One design per configuration executes both seeded inputs, and each
    execution reports exactly what a fresh ``run()`` does, so no value or
    counter state leaks from one execution to the next.
    """
    for m in range(1, 7):
        for n in range(1, m + 1):
            for unroll in UNROLLS:
                for relay in (True, False):
                    for capacity in (1, 2, 8):
                        key = (m, n, unroll, relay, capacity)
                        cfg = SimConfig(unroll=UNROLLS[unroll], channel_capacity=capacity,
                                        relay_enabled=relay)
                        augs = [AugmentedMatrix(m, n, random_matrix(m, n + 1, seed))
                                for seed in (1, 2)]
                        try:
                            design = compile_design(SPEC, cfg, m, n)
                        except Exception as exc:
                            failure = f"raises {type(exc).__name__}: {exc}"
                            assert [attempt(lambda: run(SPEC, cfg, aug)) for aug in augs] \
                                == [failure, failure], key
                            continue
                        schedules = []
                        for aug in augs:
                            got = attempt(lambda: execute(design, aug))
                            assert got == attempt(lambda: run(SPEC, cfg, aug)), key
                            obj = json.loads(got)
                            del obj["output"]
                            schedules.append(obj)
                        assert schedules[0] == schedules[1], key


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps(compute_digests(), indent=2, sort_keys=True) + "\n")
