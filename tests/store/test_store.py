"""ResultStore mechanics: atomicity, healing, eviction, counters."""

import json
import os
import sys
import threading
from pathlib import Path

from repro.store.store import ResultStore, StoreRecord


def _record(i=0):
    return StoreRecord(
        verdict=True, result={"i": i}, spec_text=f"spec {i}"
    )


FP = "ab" + "0" * 62


class TestRoundTrip:
    def test_put_get(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, _record())
        record = store.get(FP)
        assert record is not None
        assert record.verdict is True and record.result == {"i": 0}

    def test_missing_is_none(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(FP) is None

    def test_contains_and_len(self, tmp_path):
        store = ResultStore(tmp_path)
        assert FP not in store and len(store) == 0
        store.put(FP, _record())
        assert FP in store and len(store) == 1

    def test_layout_shards_by_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(FP, _record())
        assert path == tmp_path / "objects" / FP[:2] / f"{FP}.json"
        assert path.is_file()

    def test_record_fields_survive(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(
            FP,
            StoreRecord(
                verdict=False,
                result={"holds": False},
                spec_text="AG x",
                counterexample=[{"x": True}, {"x": False}],
                certificate="THEOREM ...",
                meta={"user_time": 1.5},
            ),
        )
        record = store.get(FP)
        assert record.counterexample == [{"x": True}, {"x": False}]
        assert record.certificate == "THEOREM ..."
        assert record.meta == {"user_time": 1.5}

    def test_no_tmp_litter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, _record())
        leftovers = [
            p for p in (tmp_path / "objects").rglob("*") if ".tmp-" in p.name
        ]
        assert leftovers == []


class TestHealing:
    def test_corrupt_record_misses_and_heals(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(FP, _record())
        path.write_text("{not json")
        assert store.get(FP) is None
        assert not path.exists()
        assert store.counters()["misses"] == 1

    def test_wrong_shape_misses(self, tmp_path):
        store = ResultStore(tmp_path)
        path = store.put(FP, _record())
        path.write_text(json.dumps({"no": "verdict"}))
        assert store.get(FP) is None


class TestEviction:
    def test_lru_eviction_respects_cap(self, tmp_path):
        store = ResultStore(tmp_path)
        fp2 = "cd" + "0" * 62
        store.put(FP, _record(0))
        # cap the store at exactly one record: the next put must evict
        store.max_bytes = store.total_bytes()
        store.put(fp2, _record(1))
        assert len(store) == 1
        assert store.counters()["evictions"] >= 1
        assert fp2 in store and FP not in store

    def test_get_touch_protects_hot_records(self, tmp_path):
        store = ResultStore(tmp_path)
        fp2 = "cd" + "0" * 62
        a = store.put(FP, _record(0))
        store.put(fp2, _record(1))
        # make both records look stale, then serve the first (touch)
        os.utime(a, (1, 1))
        b = store.path_for(fp2)
        os.utime(b, (2, 2))
        assert store.get(FP) is not None
        # room for two records: the third put evicts exactly one — the
        # cold record, not the hot (just-served) one
        store.max_bytes = store.total_bytes()
        store.put("ef" + "0" * 62, _record(2))
        assert not b.exists()
        assert FP in store

    def test_clear(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, _record())
        assert store.clear() == 1
        assert len(store) == 0 and store.total_bytes() == 0


class TestCounters:
    def test_hit_miss_write_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        store.get(FP)
        store.put(FP, _record())
        store.get(FP)
        assert store.counters() == {"hits": 1, "misses": 1, "writes": 1}

    def test_shared_registry(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        store = ResultStore(tmp_path, metrics=registry)
        store.get(FP)
        assert registry.as_dict().get("store.misses") == 1


class TestTrashEviction:
    """Eviction goes through rename-to-trash: readers racing an evictor
    see either the full record or a clean miss — never torn JSON."""

    def test_evicted_record_leaves_no_partial_file(self, tmp_path):
        store = ResultStore(tmp_path)
        fp2 = "cd" + "0" * 62
        store.put(FP, _record(0))
        store.max_bytes = store.total_bytes()
        store.put(fp2, _record(1))  # evicts FP via rename-to-trash
        assert not store.path_for(FP).exists()
        # a reader holding the evicted fingerprint gets a miss, and the
        # trash directory is not part of the record namespace
        assert store.get(FP) is None
        assert len(store) == 1

    def test_discard_is_atomic_replace(self, tmp_path, monkeypatch):
        """The published path disappears atomically: an interrupted
        discard (crash between replace and unlink) leaves the bytes in
        trash, not a half-written record at the original path."""
        store = ResultStore(tmp_path)
        path = store.put(FP, _record(0))
        original = path.read_text()
        monkeypatch.setattr(
            "pathlib.Path.unlink",
            lambda self, *a, **k: (_ for _ in ()).throw(OSError("crash")),
        )
        assert store._discard(path) is True  # replace happened anyway
        monkeypatch.undo()
        assert not path.exists()
        leftovers = list((tmp_path / "trash").iterdir())
        assert len(leftovers) == 1
        assert leftovers[0].read_text() == original  # full bytes, not torn

    def test_gc_sweeps_stale_trash(self, tmp_path):
        store = ResultStore(tmp_path)
        trash = tmp_path / "trash"
        trash.mkdir()
        (trash / "leftover.json.123.dead").write_text("{}")
        store.gc()
        assert list(trash.iterdir()) == []

    def test_clear_uses_trash_and_sweeps(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(FP, _record())
        assert store.clear() == 1
        assert len(store) == 0
        trash = tmp_path / "trash"
        assert not trash.exists() or list(trash.iterdir()) == []


class TestPeekLocal:
    def test_peek_does_not_count_or_heal(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.peek_local(FP) is None
        store.put(FP, _record(3))
        record = store.peek_local(FP)
        assert record is not None and record.result == {"i": 3}
        # no hits/misses recorded: peeks serve peer probes, not clients
        assert store.counters() == {"writes": 1}


def _fp(i):
    return f"{i:064x}"


class TestTrackedTotal:
    """The store sizes itself from a running total: a write under the
    cap never lists the record directory again."""

    def test_writes_under_the_cap_list_the_directory_once(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        listings = []
        original = ResultStore._record_files

        def counting(self):
            listings.append(1)
            return original(self)

        monkeypatch.setattr(ResultStore, "_record_files", counting)
        for i in range(200):
            store.put(_fp(i), _record(i))
        for i in range(200, 250):
            store.local_record(_fp(i), _record(i))
        assert len(listings) <= 1
        assert store._total == store.total_bytes()

    def test_a_write_stats_only_its_own_path(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path)
        store.put(_fp(0), _record(0))
        statted = []
        original = Path.stat

        def recording(self, *args, **kwargs):
            statted.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Path, "stat", recording)
        target = store.path_for(_fp(1))
        store.put(_fp(1), _record(1))
        store.put(_fp(1), _record(2))  # an overwrite sizes the old record
        assert statted and set(statted) <= {target, target.parent}

    def test_same_bytes_overwrite_at_the_cap_evicts_nothing(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(3):
            store.put(_fp(i), _record(i))
        store.max_bytes = store.total_bytes()
        store.put(_fp(1), _record(1))
        store.local_record(_fp(2), _record(2))
        assert store.counters().get("evictions", 0) == 0
        assert len(store) == 3 and store._total == store.max_bytes

    def test_two_instances_on_one_root_stay_within_the_overshoot(
        self, tmp_path
    ):
        """Each instance sees the other's records only at a rescan; the
        documented bound for two is ``(1 + 1/8) * cap`` plus a record
        each, and every eviction takes the oldest (mtime, name) first."""
        size = len(json.dumps(_record(100).to_dict(), sort_keys=True))
        cap = 10 * size
        a = ResultStore(tmp_path, max_bytes=cap)
        b = ResultStore(tmp_path, max_bytes=cap)
        order = []
        for i in range(100, 160):
            # names fall as i rises, and pairs share an mtime, so the
            # name tie-break decides which of a pair goes first
            fp = _fp(1000 - i)
            path = (a if i % 2 else b).put(fp, _record(i))
            tick = (i // 2) * 1_000_000_000
            os.utime(path, ns=(tick, tick))
            order.append((tick, path.name, fp))
            assert a.total_bytes() <= cap + cap // 8 + 2 * size
        present = [fp in a for _, _, fp in sorted(order)]
        assert present == sorted(present)  # survivors are the newest
        assert sum(present) >= 10
        assert a.counters()["evictions"] > 0 and b.counters()["evictions"] > 0

    def test_concurrent_put_and_local_record_keep_the_total_exact(
        self, tmp_path
    ):
        store = ResultStore(tmp_path)
        store.put(_fp(0), _record(0))
        start = threading.Barrier(4, timeout=60)

        def writer(write, width):
            start.wait()
            for i in range(300):
                # all four rewrite the same ten records, in two sizes:
                # concurrent overwrites of one path
                write(_fp(i % 10), _record(10**width + i))

        threads = [
            threading.Thread(target=writer, args=(write, width))
            for write in (store.put, store.local_record)
            for width in (3, 9)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store._total == store.total_bytes()

    def test_gc_clear_and_healing_keep_the_total(self, tmp_path):
        store = ResultStore(tmp_path)
        for i in range(4):
            store.put(_fp(i), _record(i))
        store.gc(max_bytes=store.total_bytes() // 2)
        assert store._total == store.total_bytes()
        store.path_for(_fp(3)).write_text("{torn")
        assert store.get(_fp(3)) is None
        store.put(_fp(4), _record(4))
        assert store._total == store.total_bytes()
        store.clear()
        store.put(_fp(5), _record(5))
        assert store._total == store.total_bytes()
