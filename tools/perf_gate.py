#!/usr/bin/env python3
"""Performance gate: the repository's benchmark, base program vs change.

Runs ``perfbench/run.py`` on two programs on the same machine, in the
same job, and fails when the change is worse than the base beyond the
bounds of ``BENCHMARK.json``::

    python3 tools/perf_gate.py <base-rev>      # e.g. HEAD^ or a merge-base

Both programs are measured by the change's benchmark: the change's
``perfbench/`` and ``BENCHMARK.json`` are laid next to each program's
``src/`` and ``examples/`` in a temporary tree (the base's from
``git archive <base-rev>``, the change's from the working tree).  Every
workload of ``BENCHMARK.json`` runs ``PAIRS`` times on each side, with
``--seconds <run_seconds> --trace 0``, one fixed seed per pair, and the
side that runs first alternating from pair to pair.

The gate fails when, for any workload:

* the change's median of an end-to-end metric is worse than the base's
  by more than that metric's ``bound`` (relative; ``better`` says which
  direction is worse; exactly the bound passes);
* the change's share of failed ops is higher than the base's;
* a run is missing, exits non-zero, or reports ``correct: false``.

It prints each metric's base ("parent") and change medians, each with
its runs' min–max, their ratio and its bound, and writes that table,
with every run's summary line, to ``.perfbench/perf_gate.json``.  A row
is marked ``unresolved`` when the parent's own spread, (max − min) /
median, is wider than the bound: the runs cannot tell a change of that
size from noise.  The mark is information only; it changes no
verdict.  The bounds come from
``BENCHMARK.json`` alone: the base rev is the gate's only input.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
#: What a program is: its sources and the example models the benchmark reads.
PROGRAM = ("src", "examples")
#: What the benchmark is: always the change's.
BENCHMARK = ("perfbench", "BENCHMARK.json")
OUTPUT = ROOT / ".perfbench" / "perf_gate.json"
#: One seed per pair of runs; the first side alternates between pairs.
SEEDS = (1, 2, 3)
PAIRS = len(SEEDS)
#: A run that takes this long is stopped and counts as failed.
RUN_TIMEOUT_S = 900
SIDES = ("parent", "change")


# ----------------------------------------------------------------------
# verdict (pure)
# ----------------------------------------------------------------------
def worse_by(metric: dict, parent: float, change: float) -> float:
    """How much worse ``change`` is than ``parent``, relative to
    ``parent``; negative when it is better."""
    ratio = change / parent
    return ratio - 1 if metric["better"] == "lower" else 1 - ratio


def failed_share(runs: list[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 1.0


def metric_values(runs: list[dict], name: str) -> list[float] | None:
    """The runs' values of one metric; None when a run lacks it."""
    values = [run["metrics"].get(name, {}).get("value") for run in runs]
    return None if None in values else values


def verdict(benchmark: dict, parent: dict, change: dict) -> tuple[list, list]:
    """Compare two sides' runs: ``(rows, failures)``; no failures is a pass.

    ``parent`` and ``change`` map each workload to its runs' summary
    lines (the JSON that ``perfbench/run.py`` prints last), with None
    for a run that exited non-zero or printed no summary.
    """
    rows: list[dict] = []
    failures: list[str] = []
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {"parent": parent.get(workload, []), "change": change.get(workload, [])}
        broken = False
        for side, side_runs in runs.items():
            if len(side_runs) != PAIRS:
                failures.append(f"{workload}: {side} has {len(side_runs)} of {PAIRS} runs")
                broken = True
            for run in side_runs:
                if run is None:
                    failures.append(f"{workload}: a {side} run failed")
                    broken = True
                elif not run["correct"]:
                    failures.append(f"{workload}: a {side} run reports correct: false")
        if broken:
            continue
        shares = {side: failed_share(side_runs) for side, side_runs in runs.items()}
        if shares["change"] > shares["parent"]:
            failures.append(
                f"{workload}: failed-op share {shares['parent']:.4f} -> {shares['change']:.4f}"
            )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = {side: metric_values(side_runs, name) for side, side_runs in runs.items()}
            if None in values.values():
                failures.append(f"{workload}: {name} missing from a run")
                continue
            p, c = (median(values[side]) for side in SIDES)
            ranges = {side: [min(values[side]), max(values[side])] for side in SIDES}
            low, high = ranges["parent"]
            row = {
                "workload": workload,
                "metric": name,
                "better": metric["better"],
                "parent": p,
                "parent_range": ranges["parent"],
                "change": c,
                "change_range": ranges["change"],
                "ratio": c / p,
                "bound": metric["bound"],
                "ok": worse_by(metric, p, c) <= metric["bound"],
                "unresolved": (high - low) / p > metric["bound"],
            }
            if not row["ok"]:
                failures.append(
                    f"{workload}: {name} {p:.4g} -> {c:.4g} "
                    f"({metric['better']} is better, bound {metric['bound']:.0%})"
                )
            rows.append(row)
    return rows, failures


def table(rows: list[dict]) -> str:
    def side(row: dict, name: str) -> str:
        low, high = row[f"{name}_range"]
        return f"{row[name]:>10.3f} {f'{low:.3f}-{high:.3f}':>19}"

    lines = [
        f"{'workload':<14} {'metric':<16} {'parent':>10} {'min-max':>19} "
        f"{'change':>10} {'min-max':>19} {'ratio':>7} {'bound':>6}  verdict"
    ]
    for row in rows:
        mark = "ok" if row["ok"] else "FAIL"
        if row["unresolved"]:
            mark += " unresolved"
        lines.append(
            f"{row['workload']:<14} {row['metric']:<16} {side(row, 'parent')} "
            f"{side(row, 'change')} {row['ratio']:>7.3f} {row['bound']:>6.2f}  "
            f"{mark}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# runs
# ----------------------------------------------------------------------
def copy(source: Path, target: Path) -> None:
    if source.is_dir():
        shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
    else:
        shutil.copy2(source, target)


def materialise(tree: Path, base_rev: str | None) -> None:
    """Lay a program (the base rev's, or the working tree's when None)
    and the change's benchmark out in ``tree``."""
    tree.mkdir()
    if base_rev is None:
        for name in PROGRAM:
            copy(ROOT / name, tree / name)
    else:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", base_rev, *PROGRAM],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
    for name in BENCHMARK:
        copy(ROOT / name, tree / name)


def run_once(tree: Path, command: list, workload: str, seed: int, seconds) -> dict | None:
    """One benchmark run; its summary line, or None when it failed."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(args, cwd=tree, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()  # run.py stops the services it started on SIGTERM
        proc.communicate()
        return None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print(__doc__, file=sys.stderr)
        return 2
    base_rev = argv[0]
    resolved = subprocess.run(
        ["git", "rev-parse", "--verify", f"{base_rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if resolved.returncode != 0:
        print(f"perf_gate: unknown revision {base_rev!r}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    runs = {side: {w: [] for w in workloads} for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="perf-gate-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        materialise(trees["parent"], base_rev)
        materialise(trees["change"], None)
        for pair, seed in enumerate(SEEDS):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    summary = run_once(trees[side], benchmark["command"], workload,
                                       seed, benchmark["run_seconds"])
                    runs[side][workload].append(summary)
                    print(f"pair {pair + 1}/{PAIRS} {workload} {side} seed {seed}: "
                          f"{'ok' if summary else 'FAILED'}", file=sys.stderr, flush=True)
    rows, failures = verdict(benchmark, runs["parent"], runs["change"])
    print(table(rows))
    for failure in failures:
        print(f"FAIL: {failure}")
    OUTPUT.parent.mkdir(parents=True, exist_ok=True)
    OUTPUT.write_text(json.dumps({
        "base_rev": base_rev,
        "base_commit": resolved.stdout.strip(),
        "seeds": list(SEEDS),
        "passed": not failures,
        "failures": failures,
        "rows": rows,
        "runs": runs,
    }, indent=2) + "\n")
    print(f"{'PASS' if not failures else 'FAIL'}: comparison written to "
          f"{OUTPUT.relative_to(ROOT)}")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
