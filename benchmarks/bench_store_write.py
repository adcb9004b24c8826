"""Micro-benchmark of the result store's write path.

One ``put`` into a store of 10 records and one into a store of 2,000,
both far under the size cap: the store tracks its size, so the two
should cost the same (a write used to list and stat every record).
Each benchmark also asserts what the write produced, so with
``--benchmark-disable`` the file is a store-write smoke test.
"""

import itertools

import pytest

from repro.store.store import ResultStore, StoreRecord


def _record(i):
    return StoreRecord(
        verdict=True,
        result={"holds": True, "i": i},
        spec_text=f"AG (x{i} -> AX x{i})",
        kind="spec",
    )


def _fp(i):
    return f"{i:064x}"


@pytest.fixture(params=[10, 2000], ids=lambda n: f"{n}_records")
def populated(request, tmp_path):
    store = ResultStore(tmp_path / "store")
    for i in range(request.param):
        store.put(_fp(i), _record(i))
    return store, request.param


def test_put(benchmark, populated):
    store, size = populated
    fresh = itertools.count(size)

    def next_write():
        i = next(fresh)
        return (_fp(i), _record(i)), {}

    path = benchmark.pedantic(store.put, setup=next_write, rounds=50)
    assert path.is_file()
    assert store.counters()["writes"] > size
    assert store.counters().get("evictions", 0) == 0
