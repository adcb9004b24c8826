"""The front-end memo of ``cached_check``: a repeated submission skips
parsing, elaboration and fingerprinting, and nothing else.

Each test names the mutant of ``repro.store.cached`` it kills.
"""

import sys
import threading
import time
from collections import OrderedDict

import pytest

from repro.errors import ParseError
from repro.obs.tracer import Tracer
from repro.serve.schema import report_payload
from repro.store import ResultStore, cached_check
from repro.store import cached as cached_module
from repro.store.cached import _FRONT_ENDS

#: two failing specs with decoded counterexamples next to two true ones
SOURCE = """
MODULE main
VAR x : boolean; y : boolean;
INIT x & !y
ASSIGN
  next(x) := {0, 1};
  next(y) := x;
SPEC AG x
SPEC x -> AX y
SPEC x -> AX x
SPEC AG EF x
"""
VERDICTS = [False, True, False, True]


def toggle(name: str) -> str:
    """A small true module; ``name`` makes its text distinct."""
    return (
        f"MODULE main\nVAR {name} : boolean;\n"
        f"ASSIGN next({name}) := !{name};\nSPEC AG EF {name}\n"
    )


@pytest.fixture(autouse=True)
def _empty_memo():
    _FRONT_ENDS.clear()
    yield
    _FRONT_ENDS.clear()


def traced(source, **kwargs):
    """``(run, root span attrs, names of every span)`` of one check."""
    tracer = Tracer(enabled=True)
    run = cached_check(source, tracer=tracer, **kwargs)
    (root,) = tracer.roots
    return run, root.attrs, {span.name for span in tracer.spans()}


def memo_hit(attrs) -> bool:
    return attrs.get("front_end") == "memo"


def replayed(source, store, **kwargs):
    """Check ``source`` cold, then once from the store (which admits it)."""
    cold = cached_check(source, store=store, **kwargs)
    warm = cached_check(source, store=store, **kwargs)
    assert cold.misses == len(cold.results) and warm.misses == 0
    return warm


def test_memo_hit_replays_byte_identically(tmp_path):
    """Mutant: a memo hit reuses the admitting run's lists (a caller
    mutating one report corrupts the next)."""
    store = ResultStore(tmp_path / "store")
    admitting = replayed(SOURCE, store)
    hit, attrs, names = traced(SOURCE, store=store)
    assert memo_hit(attrs)
    assert not {"smv.parse", "smv.elaborate", "store.fingerprint"} & names
    _FRONT_ENDS.clear()
    plain, attrs, names = traced(SOURCE, store=store)
    assert not memo_hit(attrs) and "smv.parse" in names
    for run in (admitting, hit):
        assert run.format() == plain.format()
        assert run.format(with_stats=True) == plain.format(with_stats=True)
        assert report_payload(run) == report_payload(plain)
    assert [r.holds for r in hit.results] == VERDICTS
    # every run owns its lists: editing one leaves the memo entry intact
    hit, attrs, _ = traced(SOURCE, store=store)
    assert memo_hit(attrs)
    hit.spec_texts[0] = "edited"
    hit.fingerprints.clear()
    again, attrs, _ = traced(SOURCE, store=store)
    assert memo_hit(attrs)
    assert report_payload(again) == report_payload(plain)


@pytest.mark.parametrize(
    "other", [{"engine": "explicit"}, {"reflexive": True}]
)
def test_engine_and_options_key_separate_entries(tmp_path, other):
    """Mutant: the memo key drops the engine or ``reflexive`` (the other
    variant then replays this one's records)."""
    store = ResultStore(tmp_path / "store")
    replayed(SOURCE, store)
    run, attrs, _ = traced(SOURCE, store=store, **other)
    assert not memo_hit(attrs)
    assert run.misses == len(run.results) == 4
    assert run.fingerprints != cached_check(SOURCE, store=store).fingerprints
    warm, attrs, _ = traced(SOURCE, store=store, **other)
    assert not memo_hit(attrs) and warm.misses == 0
    assert len(_FRONT_ENDS) == 2
    hit, attrs, _ = traced(SOURCE, store=store, **other)
    assert memo_hit(attrs)
    assert report_payload(hit) == report_payload(warm)


def test_only_full_replays_are_admitted(tmp_path):
    """Mutants: admit after a cold check, after a store-less check, or a
    source that fails to parse."""
    store = ResultStore(tmp_path / "store")
    cached_check(SOURCE)
    cached_check(SOURCE)
    assert len(_FRONT_ENDS) == 0
    _, attrs, _ = traced(SOURCE, store=store)  # cold
    assert not memo_hit(attrs) and len(_FRONT_ENDS) == 0
    _, attrs, _ = traced(SOURCE, store=store)  # full replay: admitted
    assert not memo_hit(attrs) and len(_FRONT_ENDS) == 1
    _, attrs, names = traced(SOURCE)  # store-less never consults it
    assert not memo_hit(attrs) and "smv.parse" in names
    for _ in range(2):
        with pytest.raises(ParseError):
            cached_check("MODULE main\nVAR x : boolean;\nSPEC AG (", store=store)
    assert len(_FRONT_ENDS) == 1


def test_memo_hit_still_binds_each_record(tmp_path):
    """Mutant: a memo hit takes the records it finds without
    ``ResultStore.replay``'s binding check."""
    store = ResultStore(tmp_path / "store")
    good = replayed(SOURCE, store)
    # file spec 3's (true) record under spec 0's (false) fingerprint
    foreign = store.get(good.fingerprints[3], kind="spec")
    store.put(good.fingerprints[0], foreign, kind="spec")
    run, attrs, _ = traced(SOURCE, store=store)
    assert memo_hit(attrs)
    assert run.cached_flags == [False, True, True, True]
    assert [r.holds for r in run.results] == VERDICTS
    assert run.counterexamples[0] == good.counterexamples[0]


def test_store_cleared_under_a_memo_hit_recomputes(tmp_path):
    """Mutant: a memo hit answers from the admitting run's verdicts."""
    store = ResultStore(tmp_path / "store")
    good = replayed(SOURCE, store)
    store.clear()
    run, attrs, names = traced(SOURCE, store=store)
    assert memo_hit(attrs) and "smv.check_model" in names
    assert run.misses == 4
    assert [r.holds for r in run.results] == VERDICTS
    assert run.counterexamples == good.counterexamples
    assert cached_check(SOURCE, store=store).misses == 0


class _SlowLookups(OrderedDict):
    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0.0002)
        return value


def test_threads_replaying_shared_and_distinct_sources_agree(tmp_path):
    """Mutant: the memo without its lock (concurrent admissions and
    evictions corrupt the LRU order or raise)."""
    store = ResultStore(tmp_path / "store")
    sources = [SOURCE] + [toggle(f"v{i}") for i in range(5)]
    expected = {s: report_payload(replayed(s, store)) for s in sources}
    _FRONT_ENDS.clear()
    errors: list = []
    got: list = []

    def worker(offset):
        try:
            for i in range(100):
                source = sources[(offset + i) % len(sources)]
                got.append((source, report_payload(
                    cached_check(source, store=store)
                )))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    size = _FRONT_ENDS.size
    sys.setswitchinterval(1e-6)
    _FRONT_ENDS.size = 2  # fewer slots than sources: constant eviction
    # a lookup that pauses before the memo reorders the entry: unlocked,
    # another thread evicts it in between
    _FRONT_ENDS._entries = _SlowLookups()
    try:
        threads = [
            threading.Thread(target=worker, args=(k,)) for k in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        _FRONT_ENDS.size = size
        _FRONT_ENDS._entries = OrderedDict(_FRONT_ENDS._entries)
    assert not errors
    assert len(got) == 800
    assert all(payload == expected[source] for source, payload in got)
    assert len(_FRONT_ENDS) <= 2


def test_the_bound_holds(tmp_path):
    """Mutant: the memo never evicts."""
    store = ResultStore(tmp_path / "store")
    bound = cached_module.FRONT_END_MEMO_SIZE
    assert _FRONT_ENDS.size == bound
    sources = [toggle(f"w{i}") for i in range(bound + 3)]
    for source in sources:
        replayed(source, store)
    assert len(_FRONT_ENDS) == bound
    # least recently used first out: the newest are hits, the oldest not
    _, attrs, _ = traced(sources[-1], store=store)
    assert memo_hit(attrs)
    _, attrs, _ = traced(sources[0], store=store)
    assert not memo_hit(attrs)
    assert len(_FRONT_ENDS) == bound
