"""The on-disk content-addressed result store.

A :class:`ResultStore` maps a fingerprint (see
:mod:`repro.store.fingerprint`) to a :class:`StoreRecord` persisted as
one JSON file under ``<root>/objects/<h[:2]>/<h>.json``.  Properties:

* **atomic writes** — records are written to a temporary file in the
  same directory and published with ``os.replace``, so readers (other
  processes, a serving instance) never observe a torn record;
* **bounded size** — the store keeps a running total of its record
  bytes: one directory scan at its first write, then each write adds
  its size delta (an overwrite stats only its own path).  Only when the
  total passes ``max_bytes`` does a write list and stat the records,
  evicting the least-recently-used ones (by file mtime;
  :meth:`ResultStore.get` touches records it serves) until the store
  fits, and resetting the total from that scan.  Eviction order is
  deterministic: ties on the nanosecond mtime break on the record file
  name.  Records written into the same root by *other* instances (a
  ``repro serve`` and a ``repro check --cache`` sharing a directory)
  are seen at the next rescan, which also runs once this instance's
  own bytes added since its last scan pass 1/8 of ``max_bytes``; so
  ``k`` instances sharing one root keep it within
  ``(1 + (k - 1) / 8) * max_bytes``, plus one record per instance;
* **observable** — hits, misses, writes and evictions accumulate in a
  :class:`~repro.obs.metrics.MetricsRegistry` under ``store.*``, the
  same registry the serving layer renders at ``/metrics``.  Lookups and
  writes tagged with a record *kind* (``report``/``spec``/
  ``obligation``) additionally count under ``store.<event>.<kind>``,
  and :meth:`ResultStore.flush_counters` folds the in-memory counters
  into a ``counters.json`` sidecar so ``repro store stats`` can report
  lifetime hit rates across processes.

Corrupt or unreadable records are treated as misses and removed, so a
damaged store heals itself instead of poisoning reports.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.metrics import MetricsRegistry

__all__ = ["ResultStore", "StoreRecord"]

#: Default size cap: plenty for tens of thousands of records.
_DEFAULT_MAX_BYTES = 256 * 1024 * 1024

#: A write rescans the directory once the bytes this instance added
#: since its last scan pass ``max_bytes // _RESCAN_DIVISOR`` — the
#: bound on how long other writers' records go unseen.
_RESCAN_DIVISOR = 8


@dataclass
class StoreRecord:
    """One cached result: a verdict plus everything needed to replay it.

    ``result`` is the serialized :class:`~repro.checking.result.CheckResult`
    (including its :class:`~repro.checking.result.CheckStats`);
    ``counterexample`` the decoded execution sequence for failed specs;
    ``certificate`` optional proof-certificate text (the paper's
    "theorems and proofs in the documentation"); ``meta`` free-form
    JSON-safe metadata (report-level resource numbers); ``kind`` the
    record's flavor (``report``/``spec``/``obligation``) so on-disk
    stores can be inventoried per kind (``repro store stats``).
    """

    verdict: bool
    result: dict = field(default_factory=dict)
    spec_text: str = ""
    counterexample: list | None = None
    certificate: str | None = None
    meta: dict = field(default_factory=dict)
    kind: str = ""

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "result": self.result,
            "spec_text": self.spec_text,
            "counterexample": self.counterexample,
            "certificate": self.certificate,
            "meta": self.meta,
            "kind": self.kind,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StoreRecord":
        return cls(
            verdict=bool(data["verdict"]),
            result=data.get("result", {}),
            spec_text=data.get("spec_text", ""),
            counterexample=data.get("counterexample"),
            certificate=data.get("certificate"),
            meta=data.get("meta", {}),
            kind=str(data.get("kind", "")),
        )


class ResultStore:
    """A content-addressed, size-capped store of check records.

    Parameters
    ----------
    root:
        Store directory (created on first write).
    max_bytes:
        Size cap, checked after every write against a running total of
        the record bytes (one scan at the first write, then each
        write's size delta).  A write that takes the total past the cap
        scans the directory and evicts least-recently-used records
        (file mtime) first.  Other instances' writes into the same root
        are counted at the next scan, which also runs once this
        instance has added ``max_bytes / 8`` since its last one, so
        ``k`` instances on one root stay within
        ``(1 + (k - 1) / 8) * max_bytes`` (plus a record each).
    metrics:
        Registry receiving ``store.hits`` / ``store.misses`` /
        ``store.writes`` / ``store.evictions`` (plus per-kind variants
        ``store.hits.<kind>`` etc. for kind-tagged accesses); a private
        registry is created when omitted.
    """

    #: Counter names persisted to the ``counters.json`` sidecar.
    _EVENTS = ("hits", "misses", "writes", "evictions")

    def __init__(
        self,
        root: str | os.PathLike,
        max_bytes: int = _DEFAULT_MAX_BYTES,
        metrics: MetricsRegistry | None = None,
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Counter values already folded into ``counters.json`` — the
        #: next :meth:`flush_counters` persists only the delta.
        self._flushed: dict[str, int] = {}
        #: Guards the running total and eviction: a serving instance's
        #: job thread and HTTP threads write concurrently.
        self._lock = threading.Lock()
        #: Record bytes as of the last scan plus this instance's write
        #: deltas since; ``None`` until the first write (or after a
        #: removal not sized here), so the next write rescans.
        self._total: int | None = None
        #: Bytes this instance added since its last scan.
        self._unscanned = 0

    def _count(self, event: str, kind: str | None) -> None:
        self.metrics.add(f"store.{event}")
        if kind:
            self.metrics.add(f"store.{event}.{kind}")

    # -- paths -----------------------------------------------------------
    @property
    def _objects(self) -> Path:
        return self.root / "objects"

    def path_for(self, fingerprint: str) -> Path:
        """Where a fingerprint's record lives (whether or not it exists)."""
        return self._objects / fingerprint[:2] / f"{fingerprint}.json"

    def _record_files(self) -> list[Path]:
        if not self._objects.is_dir():
            return []
        return [p for p in self._objects.glob("*/*.json")]

    @property
    def _trash(self) -> Path:
        return self.root / "trash"

    def _discard(self, path: Path) -> bool:
        """Atomically move a record out of the lookup namespace.

        Eviction via ``os.replace`` into ``<root>/trash`` means a
        concurrent reader that already resolved the path either gets
        the full old bytes or ``FileNotFoundError`` (a clean miss) —
        never a half-deleted/partially-rewritten JSON file.  The
        trashed copy is unlinked immediately (best-effort; ``gc``
        sweeps leftovers).
        """
        trash = self._trash
        try:
            trash.mkdir(parents=True, exist_ok=True)
            target = trash / f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}"
            os.replace(path, target)
        except OSError:
            return False
        try:
            target.unlink()
        except OSError:
            pass
        return True

    def _sweep_trash(self) -> int:
        """Remove leftover trashed records (crashed evictors)."""
        removed = 0
        if not self._trash.is_dir():
            return removed
        for path in self._trash.iterdir():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    # -- read ------------------------------------------------------------
    def _fetch_remote(
        self, fingerprint: str, kind: str | None
    ) -> StoreRecord | None:
        """Hook for remote tiers: a record from elsewhere, or ``None``.

        The base store is purely local; the cluster's
        :class:`~repro.cluster.peers.PeerAwareStore` overrides this to
        probe the fingerprint's owner shard.  Must never raise for a
        peer problem — a failed fetch is just a miss.
        """
        return None

    def get(self, fingerprint: str, kind: str | None = None) -> StoreRecord | None:
        """The record for a fingerprint, or ``None`` (counted as a miss).

        Served records are touched (mtime), so hot entries survive
        eviction; corrupt records are removed and miss.  On a local
        miss the :meth:`_fetch_remote` hook runs — a remote hit is
        written back locally (read-through write-back) and counted as
        ``store.hits`` plus ``store.remote_hits``.  ``kind`` tags the
        lookup for the per-kind counters (``store.hits.<kind>``).
        """
        record, remote = self._read(fingerprint, kind)
        self._count_lookup(record is not None, remote, kind)
        return record

    def replay(
        self, fingerprint: str, formula, restriction, text=None, kind=None
    ):
        """``(record, verdict)`` for the record filed under a fingerprint,
        its verdict bound to *this* check
        (:meth:`~repro.checking.result.CheckResult.replayed`), or ``None``.

        Looked up and counted like :meth:`get`, except that a record
        with no verdict, or one written for another formula or
        restriction, replays nothing and counts as a miss: the hit
        counters count what was actually replayed.
        """
        from repro.checking.result import CheckResult

        record, remote = self._read(fingerprint, kind)
        result = (
            CheckResult.replayed(record.result, formula, restriction, text)
            if record is not None and record.result
            else None
        )
        self._count_lookup(result is not None, remote, kind)
        return None if result is None else (record, result)

    def _read(
        self, fingerprint: str, kind: str | None
    ) -> tuple[StoreRecord | None, bool]:
        """``(record, fetched remotely)``, counting nothing."""
        path = self.path_for(fingerprint)
        try:
            record = StoreRecord.from_dict(json.loads(path.read_text()))
        except FileNotFoundError:
            record = None
        except (OSError, ValueError, KeyError, TypeError):
            # unreadable or torn record: drop it and report a miss
            with self._lock:
                if self._discard(path):
                    self._total = None
            record = None
        if record is not None:
            try:
                os.utime(path)
            except OSError:
                pass
            return record, False
        # a local miss: last chance for the remote tier to serve it
        record = self._fetch_remote(fingerprint, kind)
        if record is None:
            return None, False
        self.local_record(fingerprint, record, kind=kind)
        return record, True

    def _count_lookup(self, hit: bool, remote: bool, kind: str | None) -> None:
        self._count("hits" if hit else "misses", kind)
        if hit and remote:
            self.metrics.add("store.remote_hits")

    def peek_local(self, fingerprint: str) -> StoreRecord | None:
        """The locally present record, or ``None`` — no counters, no
        remote hook.

        This is what the serving tier's ``GET /v1/store/<fingerprint>``
        answers peers with: consulting :meth:`get` there would both
        distort this instance's hit-rate math with other shards' probes
        and, on a peer-aware store, recurse back into the cluster.
        """
        path = self.path_for(fingerprint)
        try:
            record = StoreRecord.from_dict(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError, TypeError):
            return None
        try:
            os.utime(path)
        except OSError:
            pass
        return record

    def __contains__(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).is_file()

    def __len__(self) -> int:
        return len(self._record_files())

    # -- write -----------------------------------------------------------
    def _write(self, fingerprint: str, record: StoreRecord) -> Path:
        """Publish a record atomically and keep the store under its cap.

        The tmp file is written outside the lock; sizing the old record,
        ``os.replace`` and the total's update run under it, so two
        threads overwriting one path never count its old size twice.
        """
        path = self.path_for(fingerprint)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record.to_dict(), sort_keys=True).encode()
        fd, tmp_name = tempfile.mkstemp(
            dir=path.parent, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            with self._lock:
                old = 0 if self._total is None else _size_of(path)
                os.replace(tmp_name, path)
                if self._total is not None:
                    delta = len(payload) - old
                    self._total += delta
                    self._unscanned += max(delta, 0)
                if (
                    self._total is None
                    or self._total > self.max_bytes
                    or self._unscanned > self.max_bytes // _RESCAN_DIVISOR
                ):
                    self._evict()
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def put(
        self, fingerprint: str, record: StoreRecord, kind: str | None = None
    ) -> Path:
        """Persist a record atomically (tmp file + ``os.replace``).

        ``kind`` tags the write for the per-kind counters and is stamped
        onto the record when the record doesn't already carry one.
        """
        if kind and not record.kind:
            record.kind = kind
        path = self._write(fingerprint, record)
        self._count("writes", kind or record.kind or None)
        return path

    def local_record(
        self, fingerprint: str, record: StoreRecord, kind: str | None = None
    ) -> Path:
        """Persist a record *received* from elsewhere, not computed here.

        Same atomic write and size-cap enforcement as :meth:`put`, but
        no write counters (the record was someone else's work — counting
        it would distort hit-rate math) and no peer push (the record
        came *from* the cluster; re-announcing it would echo forever).
        Used by the write-back path of :meth:`get` and by the serving
        tier's ``PUT /v1/store/<fingerprint>`` endpoint.
        """
        if kind and not record.kind:
            record.kind = kind
        return self._write(fingerprint, record)

    def _evict(self, max_bytes: int | None = None) -> int:
        """Scan the records and remove least-recently-used ones until
        the cap is met; the running total restarts from this scan.

        Eviction order is deterministic: oldest nanosecond mtime first,
        ties broken by record file name.  Returns the number evicted.
        The caller holds ``_lock``.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        files = self._record_files()
        sized = []
        total = 0
        for path in files:
            try:
                stat = path.stat()
            except OSError:
                continue
            sized.append((stat.st_mtime_ns, path.name, stat.st_size, path))
            total += stat.st_size
        evicted = 0
        if total > cap:
            for _, _, size, path in sorted(sized, key=lambda t: (t[0], t[1])):
                if not self._discard(path):
                    continue
                self.metrics.add("store.evictions")
                evicted += 1
                total -= size
                if total <= cap:
                    break
        self._total = total
        self._unscanned = 0
        return evicted

    # -- maintenance -----------------------------------------------------
    def gc(self, max_bytes: int | None = None) -> int:
        """Evict down to ``max_bytes`` (default: the store's cap).

        Returns the number of records removed and flushes the counters,
        so ``repro store gc`` leaves an up-to-date sidecar behind.
        Leftover trashed records from interrupted evictors are swept.
        """
        with self._lock:
            evicted = self._evict(max_bytes)
        self._sweep_trash()
        self.flush_counters()
        return evicted

    def clear(self) -> int:
        """Remove every record; returns the number removed."""
        removed = 0
        with self._lock:
            for path in self._record_files():
                if self._discard(path):
                    removed += 1
            self._total = None
        self._sweep_trash()
        return removed

    def total_bytes(self) -> int:
        """Bytes currently used by record files."""
        total = 0
        for path in self._record_files():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def counters(self) -> dict[str, int]:
        """Snapshot of the store's own counters (hits/misses/...)."""
        return {
            name.split(".", 1)[1]: int(value)
            for name, value in self.metrics.as_dict().items()
            if name.startswith("store.")
        }

    def stats(self) -> dict:
        """An inventory of the store: sizes, per-kind counts, counters.

        ``records_by_kind`` is computed by reading every record file, so
        this is an ops call (``repro store stats``), not a hot-path one;
        unreadable records count under ``"?"``.  ``counters`` merges the
        persisted sidecar with this process's unflushed deltas.
        """
        by_kind: dict[str, int] = {}
        total = 0
        records = 0
        for path in self._record_files():
            try:
                stat = path.stat()
            except OSError:
                continue
            records += 1
            total += stat.st_size
            try:
                kind = str(json.loads(path.read_text()).get("kind", "")) or "?"
            except (OSError, ValueError, AttributeError):
                kind = "?"
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return {
            "root": str(self.root),
            "records": records,
            "records_by_kind": dict(sorted(by_kind.items())),
            "total_bytes": total,
            "max_bytes": self.max_bytes,
            "counters": self.persistent_counters(),
        }

    # -- persisted counters ----------------------------------------------
    @property
    def _counters_path(self) -> Path:
        return self.root / "counters.json"

    def _read_sidecar(self) -> dict[str, int]:
        try:
            data = json.loads(self._counters_path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(data, dict):
            return {}
        out: dict[str, int] = {}
        for name, value in data.items():
            try:
                out[str(name)] = int(value)
            except (TypeError, ValueError):
                continue
        return out

    def flush_counters(self) -> dict[str, int]:
        """Fold this process's counter deltas into ``counters.json``.

        Only the delta since the previous flush is added, so repeated
        flushes are idempotent; the sidecar is best-effort across
        processes (read-modify-write, last writer's merge wins) and any
        corrupt sidecar is replaced rather than trusted.  Returns the
        merged counters as written.
        """
        current = self.counters()
        merged = self._read_sidecar()
        for name, value in current.items():
            delta = value - self._flushed.get(name, 0)
            if delta:
                merged[name] = merged.get(name, 0) + delta
            self._flushed[name] = value
        self.root.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(merged, sort_keys=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-counters-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp_name, self._counters_path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return merged

    def persistent_counters(self) -> dict[str, int]:
        """Sidecar counters plus this process's unflushed deltas."""
        merged = self._read_sidecar()
        for name, value in self.counters().items():
            delta = value - self._flushed.get(name, 0)
            if delta:
                merged[name] = merged.get(name, 0) + delta
        return dict(sorted(merged.items()))


def _size_of(path: Path) -> int:
    """A file's size in bytes, 0 when it does not exist."""
    try:
        return path.stat().st_size
    except OSError:
        return 0
