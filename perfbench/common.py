"""Shared plumbing: clocks, quantiles, spans, RSS, run records.

Everything here belongs to the benchmark, not to the program under test:
the spans are the benchmark's own, recorded around calls into the
program's public functions and endpoints, kept in memory and written out
when the run ends.
"""

from __future__ import annotations

import bisect
import json
import operator
import os
import platform
import select
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: Root of the checkout the benchmark runs in (the parent of ``perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes lives under here (ignored by git).
OUT = ROOT / ".perfbench"

clock = time.perf_counter
#: In-process ops and the calibration kernel are timed in thread CPU time:
#: the hypervisor steals up to 30% of this VM's CPU time in bursts, which
#: wall time counts and CPU time does not, and a single-threaded op that
#: never waits (the store sits in the page cache, nothing is fsynced)
#: takes exactly its CPU time on a CPU of its own.
cpu_clock = time.thread_time


def program_present() -> bool:
    """True when the checkout holds the program's sources."""
    return (ROOT / "src" / "repro" / "__init__.py").is_file()


def use_program() -> None:
    """Make ``import repro`` load the checkout's own sources."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def program_env() -> dict:
    """Environment for program subprocesses: the checkout's sources on
    ``PYTHONPATH`` and every temporary file inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(scratch_root())
    return env


def scratch_root() -> Path:
    path = OUT / "tmp"
    path.mkdir(parents=True, exist_ok=True)
    return path


@contextmanager
def scratch_dir(name: str):
    """A fresh directory under the checkout, removed afterwards."""
    path = scratch_root() / f"{name}-{os.getpid()}-{time.time_ns()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]); NaN when empty."""
    data = sorted(values)
    if not data:
        return float("nan")
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
# The CPU of a shared 2-core VM changes speed within a second and stays
# changed for minutes: every check-cold class slowed by the same 1.9x at
# once, with CPU time tracking wall time (so not steal), and no repetition
# inside one run can steady that.  Each timed op is therefore paired with
# samples of a fixed calibration kernel taken around it, outside its
# timing, and reported times are scaled to the speed at which the kernel
# takes ``REFERENCE_MS`` (see ``run.py``).  The kernel is the benchmark's
# own code, BDD-style work like the program's (tuple-keyed unique and
# computed tables, recursion), so a change to the program never moves it.
REFERENCE_MS = 1.0
CALIBRATION_WIDTH = 10


def _mk(nodes: list, unique: dict, var: int, lo: int, hi: int) -> int:
    if lo == hi:
        return lo
    key = (var, lo, hi)
    node = unique.get(key)
    if node is None:
        node = unique[key] = len(nodes)
        nodes.append(key)
    return node


def _apply(nodes, unique, memo, op, a: int, b: int) -> int:
    if a < 2 and b < 2:
        return op(a, b)
    key = (op, a, b)
    found = memo.get(key)
    if found is not None:
        return found
    va, la, ha = nodes[a]
    vb, lb, hb = nodes[b]
    var = min(va, vb)
    lo = _apply(nodes, unique, memo, op, la if va == var else a,
                lb if vb == var else b)
    hi = _apply(nodes, unique, memo, op, ha if va == var else a,
                hb if vb == var else b)
    memo[key] = result = _mk(nodes, unique, var, lo, hi)
    return result


def calibration_kernel(width: int = CALIBRATION_WIDTH) -> int:
    """Build "at most one of ``width``" or "two neighbours set" as a BDD
    from scratch; returns the node count (always the same)."""
    nodes = [(width, 0, 0), (width, 1, 1)]
    unique: dict = {}
    memo: dict = {}
    pos = [_mk(nodes, unique, v, 0, 1) for v in range(width)]
    neg = [_mk(nodes, unique, v, 1, 0) for v in range(width)]
    at_most_one = 1
    for i in range(width):
        for j in range(i + 1, width):
            pair = _apply(nodes, unique, memo, operator.or_, neg[i], neg[j])
            at_most_one = _apply(
                nodes, unique, memo, operator.and_, at_most_one, pair
            )
    neighbours = 0
    for i in range(width):
        both = _apply(
            nodes, unique, memo, operator.and_, pos[i], pos[(i + 1) % width]
        )
        neighbours = _apply(nodes, unique, memo, operator.or_, neighbours, both)
    _apply(nodes, unique, memo, operator.or_, at_most_one, neighbours)
    return len(nodes)


def calibrate() -> float:
    """One run of the calibration kernel, in CPU ms."""
    started = cpu_clock()
    calibration_kernel()
    return (cpu_clock() - started) * 1e3


def cpu_jiffies() -> tuple[int, int]:
    """The VM's ``(busy, stolen)`` CPU time so far, in clock ticks: busy
    counts user, system and interrupt time, stolen the time the
    hypervisor ran something else while a CPU had work (``/proc/stat``)."""
    with open("/proc/stat") as handle:
        fields = [int(f) for f in handle.readline().split()[1:9]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields
    return user + nice + system + irq + softirq, steal


#: Seconds between samples of a :class:`SpeedProbe`.
PROBE_INTERVAL = 0.02
#: Seconds on either side of an op whose probe samples set its speed.
PROBE_WINDOW = 0.1


class SpeedProbe:
    """A separate process that samples the calibration kernel and the
    VM's stolen CPU time every ``PROBE_INTERVAL`` seconds, for ops timed
    in wall time across processes.  ``clock`` is the system-wide
    monotonic clock, so its sample times compare with the benchmark's."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--speed-probe"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.samples: list[tuple[float, float]] = []

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        out = self.proc.stdout.read()
        self.proc.wait(timeout=60)
        self.samples = [
            (float(at), float(ms), int(busy), int(stolen))
            for at, ms, busy, stolen in (
                line.split() for line in out.splitlines()
            )
        ]
        self.times = [sample[0] for sample in self.samples]

    def cal_ms(self, start: float, end: float) -> float:
        """The kernel's time around ``[start, end]`` in wall terms: the
        median sample within ``PROBE_WINDOW`` of it, stretched by the
        share of busy CPU time stolen over that window."""
        lo = bisect.bisect_left(self.times, start - PROBE_WINDOW)
        hi = bisect.bisect_right(self.times, end + PROBE_WINDOW)
        window = self.samples[max(0, min(lo, hi - 2)):max(hi, 2)]
        busy = window[-1][2] - window[0][2]
        stolen = window[-1][3] - window[0][3]
        kept = busy / (busy + stolen) if busy else 1.0
        return median(sample[1] for sample in window) / kept


def _speed_probe() -> None:
    """The :class:`SpeedProbe` process: sample until stdin closes."""
    while True:
        at = clock()
        busy, stolen = cpu_jiffies()
        print(f"{at!r} {calibrate()!r} {busy} {stolen}", flush=True)
        if select.select([sys.stdin], [], [], PROBE_INTERVAL)[0]:
            return


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans recorded by the benchmark around program calls.

    ``span(name)`` is a context manager yielding a dict the caller may
    annotate; nesting links a span to the span that caused it, and every
    span of one op shares the op's id.
    """

    def __init__(self):
        self.records: list[dict] = []
        self._stack: list[dict] = []
        self._next = 0
        self.origin = clock()

    @contextmanager
    def span(self, name: str, op: int, **attrs):
        self._next += 1
        record = {
            "id": self._next,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": op,
            "name": name,
            "start": clock() - self.origin,
            "end": None,
            **attrs,
        }
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = clock() - self.origin
            self._stack.pop()
            self.records.append(record)

    def add(self, name: str, op: int, start: float, end: float, **attrs):
        """Record an already-timed interval (absolute ``clock()`` values)."""
        self._next += 1
        self.records.append(
            {
                "id": self._next,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "op": op,
                "name": name,
                "start": start - self.origin,
                "end": end - self.origin,
                **attrs,
            }
        )

    def write(self, path: Path) -> None:
        with path.open("w") as handle:
            for record in sorted(self.records, key=lambda r: r["start"]):
                handle.write(json.dumps(record) + "\n")


def span_ms(record: dict) -> float:
    return (record["end"] - record["start"]) * 1e3


# ----------------------------------------------------------------------
# processes and machine
# ----------------------------------------------------------------------
def descendants(pid: int) -> list[int]:
    """``pid``'s live descendants (Linux ``/proc``)."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                text = Path(f"/proc/{parent}/task/{tid}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                found.append(int(child))
                frontier.append(int(child))
    return found


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def machine() -> dict:
    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 0
    return {
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def write_record(name: str, record: dict) -> Path:
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / f"{name}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


if __name__ == "__main__" and sys.argv[1:] == ["--speed-probe"]:
    _speed_probe()
