"""The repository's benchmark: four workloads, checked verdicts, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload check-cold --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for why it exists):

==================  =====================================================
``check-cold``      in-process cold ``cached_check`` calls (``cold.py``)
``proof-edit``      AFS-2 n=3 proofs: replays and one-client edits
                    (``proof.py``)
``serve-mix``       open loop against ``repro serve`` (``served.py``)
``cluster-batch``   closed loop of 4-check batches against two ring
                    members and ``repro cluster router`` (``served.py``)
==================  =====================================================

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics, measured with no tracing:

* ``verdict_p50_ms`` / ``verdict_p90_ms``: median and p90 time from an
  op's start (its due time, in the open loop) to its checked verdict;
* ``cold_p50_ms``: median over ops no cache could answer;
* ``replay_p50_ms``: median over ops answered entirely from a store (on
  ``check-cold``: the replay made after each op, outside its timing);
* ``verdicts_per_s``: ops per second of time spent in ops for the closed
  loops, completed ops per wall second for the open loop;
* ``rss_peak_mb``: summed peak RSS (VmHWM) of the processes that check;
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh interpreters of the
  wall time from start until the first op could be sent.

Op times are scaled to the reference speed of ``common.py``'s
calibration kernel (the machine's speed flips by up to 1.9x within a
second; see there): an in-process op's CPU time by the kernel's CPU time
just before and after it, a served op's wall time by a probe process's
samples and stolen CPU time around it.  The run record keeps every
metric as measured too (``as_measured``).

With ``--trace 1`` the line carries the per-layer metrics of
``layers.py``: untraced and traced blocks alternate, the traced ops
record the benchmark's spans, and ``obs.trace_overhead_ratio`` is the
traced over the untraced ``verdict_p50_ms`` of the same run.

An op whose verdict differs from the hand-written answer, or that meets
an HTTP error, an unretried 429 or a timeout, counts as failed.  Each
run also writes a record (machine, seed, class counts, rate, metrics)
to ``.perfbench/runs/``, and, when traced, its spans as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    REFERENCE_MS,
    SpanLog,
    clock,
    machine,
    median,
    program_env,
    program_present,
    quantile,
    use_program,
    write_record,
    OUT,
)

WORKLOADS = {
    "check-cold": ("cold", "ColdCheck"),
    "proof-edit": ("proof", "ProofEdit"),
    "serve-mix": ("served", "ServeMix"),
    "cluster-batch": ("served", "ClusterBatch"),
}
END_TO_END = {
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "cold_p50_ms": "ms",
    "replay_p50_ms": "ms",
    "verdicts_per_s": "ops/s",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}
#: Set-ups per run; their median is ``setup_s`` (3 spread by up to 0.34
#: of the median between runs on proof-edit's 0.7 s set-up).
SETUP_SAMPLES = 5


def workload_class(name: str):
    module_name, class_name = WORKLOADS[name]
    module = __import__(module_name)
    return getattr(module, class_name)


def setup_probe(name: str, seed: int) -> int:
    """Set the workload up in this fresh interpreter, say so, tear down."""
    use_program()
    workload = workload_class(name)(seed, False)
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.teardown()
    return 0


def measure_setup(name: str, seed: int) -> list[float]:
    """Seconds from interpreter start to ``ready``, once per sample."""
    samples = []
    for sample in range(SETUP_SAMPLES):
        started = clock()
        proc = subprocess.Popen(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed * 100 + sample),
                "--setup-probe",
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=program_env(),
        )
        try:
            line = proc.stdout.readline()
            elapsed = clock() - started
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:  # interrupted: let it tear down
                proc.terminate()
                proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed ({code})")
        samples.append(elapsed)
    return samples


def at_reference_speed(ops: list[dict]) -> list[float]:
    """Each op's ms scaled to the reference speed by the calibration
    time taken around it (``cal_ms``)."""
    return [op["ms"] * REFERENCE_MS / op["cal_ms"] for op in ops]


def end_to_end(result: dict, setup_samples: list[float], scale=True) -> dict:
    """The end-to-end metrics; ``scale=False`` gives the times as
    measured, kept in the run record."""
    ops = [op for op in result["ops"] if not op["traced"]]
    side = [op for op in result["side_ops"] if not op["traced"]]
    every = ops + side
    if scale:
        times = at_reference_speed(ops) + at_reference_speed(side)
    else:
        times = [op["ms"] for op in every]
    op_ms = times[: len(ops)]

    def class_ms(kind):
        return median(ms for ms, op in zip(times, every) if op["kind"] == kind)

    if result["open_loop"]:  # completions track the offered rate
        per_s = len(ops) / result["wall_s"]
    else:  # ops per second of time spent in ops
        per_s = len(ops) / (sum(op_ms) / 1e3)
    values = {
        "verdict_p50_ms": median(op_ms),
        "verdict_p90_ms": quantile(op_ms, 0.9),
        "cold_p50_ms": class_ms("cold"),
        "replay_p50_ms": class_ms("replay"),
        "verdicts_per_s": per_s,
        "rss_peak_mb": result["rss_mb"],
        "setup_s": median(setup_samples),
    }
    return {
        name: {"value": values[name], "unit": unit}
        for name, unit in END_TO_END.items()
    }


def per_layer(result: dict) -> dict:
    from layers import PER_LAYER

    layers = dict(result["layers"])
    ops = result["ops"]
    times = at_reference_speed(ops)
    traced = [ms for ms, op in zip(times, ops) if op["traced"]]
    plain = [ms for ms, op in zip(times, ops) if not op["traced"]]
    layers["obs.trace_overhead_ratio"] = median(traced) / median(plain)
    return {
        name: {"value": float(layers[name]), "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def class_counts(ops: list[dict]) -> dict:
    counts: dict[str, int] = {}
    for op in ops:
        counts[op["cls"]] = counts.get(op["cls"], 0) + 1
    return counts


def class_medians(ops: list[dict]) -> dict:
    return {
        cls: median(op["ms"] for op in ops if op["cls"] == cls)
        for cls in sorted(class_counts(ops))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # a terminated run still stops the services it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.seconds is None and not args.setup_probe:
        parser.error("--seconds is required")
    if not program_present():
        print(
            "perfbench: no program sources (src/repro) next to the "
            "benchmark; run it from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    setup_samples = measure_setup(args.workload, args.seed)
    use_program()
    trace = bool(args.trace)
    workload = workload_class(args.workload)(args.seed, trace)
    log = SpanLog()
    try:
        workload.setup()
        result = workload.run(args.seconds, log)
    finally:
        workload.teardown()

    every = result["ops"] + result["side_ops"]
    failed = sum(1 for op in every if not op["ok"])
    untraced = [op for op in result["ops"] if not op["traced"]]
    metrics = per_layer(result) if trace else end_to_end(result, setup_samples)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "setup_samples_s": setup_samples,
        "calibration_p50_ms": median(op["cal_ms"] for op in every),
        "as_measured": None if trace else end_to_end(
            result, setup_samples, scale=False
        ),
        "ops_per_class": class_counts(untraced),
        "class_p50_ms": class_medians(untraced),
        "traced_ops_per_class": class_counts(
            [op for op in result["ops"] if op["traced"]]
        ),
        "side_ops": len(result["side_ops"]),
        "samples_beyond_p90": len(untraced) // 10,
        "slowest_ops": sorted(
            ({k: op[k] for k in ("cls", "ms", "polls") if k in op}
             for op in untraced),
            key=lambda op: -op["ms"],
        )[:5],
        "attempted": len(every),
        "failed": failed,
        "metrics": metrics,
        **result["record"],
    }
    write_record(tag, record)
    if trace:
        log.write(OUT / "runs" / f"{tag}-spans.jsonl")
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(untraced),
                "attempted": len(every),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
