"""Self-test of the benchmark's input generators.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It asserts that "novel" never changes the work:

* every catalog entry gives its hand-written verdicts;
* a renamed entry gives the same verdicts, ``transition_nodes``,
  ``fixpoint_iterations`` and ``bdd_mk_calls`` as the original;
* an edited AFS-2 client compiles to a transition relation of the same
  size as the original, and a proof with it is still proven with exactly
  one re-checked obligation, the edited client's;
* prefixes and edits never repeat and keep a constant size.

Exits 0 when every assertion holds, 1 otherwise.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from catalog import ClientEdits, Prefixes, catalog, renamed  # noqa: E402
from common import program_present, scratch_dir, use_program  # noqa: E402

RENAMES = 3
EDITS = 24


def work(run) -> tuple:
    stats = run.merged_stats()
    return (
        tuple(r.holds for r in run.results),
        run.transition_nodes,
        stats.fixpoint_iterations,
        stats.bdd_mk_calls,
    )


def check_renaming(failures: list[str]) -> None:
    from repro.store import cached_check

    prefixes = Prefixes(random.Random(7))
    for entry in catalog().values():
        original = work(cached_check(entry.source, store=None))
        if original[0] != entry.expected:
            failures.append(f"{entry.name}: verdicts {original[0]}")
        for _ in range(RENAMES):
            prefix = prefixes.next()
            got = work(cached_check(renamed(entry.source, prefix), store=None))
            if got != original:
                failures.append(
                    f"{entry.name} renamed {prefix!r}: {got} != {original}"
                )
        print(f"rename  {entry.name:18s} nodes/iterations/mk_calls "
              f"{original[1:]} x{RENAMES} ok")


def check_edits(failures: list[str]) -> None:
    from repro.casestudies.afs2 import Afs2, client_source
    from repro.casestudies.afs_common import ProtocolComponent
    from repro.smv import SmvModel, parse_module, to_symbolic
    from repro.store import ResultStore

    n = 3
    edits = ClientEdits(random.Random(11), n)
    original_nodes = {
        i: to_symbolic(SmvModel(parse_module(client_source(i))), reflexive=True)
        .node_count()
        for i in range(1, n + 1)
    }
    with scratch_dir("selftest") as root:
        store = ResultStore(root / "store")
        pf, proven = Afs2(n, store=store).prove_safety()
        if proven.formula is None or pf.cache_ledger()["misses"] != n + 1:
            failures.append("cold AFS-2 proof did not check every obligation")
        rng = random.Random(5)
        for _ in range(EDITS):
            client = rng.randint(1, n)
            source = edits.edit(client)
            if len(source) != len(client_source(client)):
                failures.append(f"client {client}: edit changed the size")
            nodes = to_symbolic(
                SmvModel(parse_module(source)), reflexive=True
            ).node_count()
            if nodes != original_nodes[client]:
                failures.append(
                    f"client {client}: edited relation has {nodes} nodes, "
                    f"original {original_nodes[client]}"
                )
            study = Afs2(n, store=store)
            study.clients[client - 1] = ProtocolComponent(
                f"client{client}", source
            )
            pf, proven = study.prove_safety()
            ledger = pf.cache_ledger()
            missed = [e["component"] for e in ledger["obligations"] if not e["cached"]]
            if proven.formula is None or missed != [f"client{client}"]:
                failures.append(f"edit of client {client}: re-checked {missed}")
    print(f"edit    {EDITS} AFS-2 client edits: same relation size, proven, "
          f"one re-checked obligation each ok")


def check_uniqueness(failures: list[str]) -> None:
    prefixes = Prefixes(random.Random(3))
    drawn = [prefixes.next() for _ in range(5000)]
    if len(set(drawn)) != len(drawn) or len({len(p) for p in drawn}) != 1:
        failures.append("prefixes repeat or vary in length")
    edits = ClientEdits(random.Random(3), 3)
    sources = [edits.edit(1 + i % 3) for i in range(3000)]
    if len(set(sources)) != len(sources):
        failures.append("client edits repeat")
    print("unique  5000 prefixes, 3000 client edits ok")


def main() -> int:
    if not program_present():
        print("selftest: no program sources (src/repro)", file=sys.stderr)
        return 2
    use_program()
    failures: list[str] = []
    check_uniqueness(failures)
    check_renaming(failures)
    check_edits(failures)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
