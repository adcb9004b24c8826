"""Inputs with hand-written answers, and the generators that make them novel.

The expected verdicts below are written by hand from the paper and from
reading the models; they are never taken from the checker under test.

* The AFS-1 and AFS-2 figure specifications are the paper's Figures 7,
  10, 15 and 17, all reported true.
* ``figure1`` is the toggle component of Figure 1 (``next(x) := {0, 1}``):
  from every state both successors exist, so all three specs hold.
* ``afs2_client_false`` adds ``AG (belief != valid)`` to the AFS-2
  client.  The client has no ``init``, so every encodable state is
  initial, including one with ``belief = valid``: the spec fails there.

:func:`renamed` makes a source novel by prefixing every identifier with
one seeded prefix.  A common prefix keeps identifiers in the same
lexicographic order, so the encoding, the BDD variable order and hence
all work done are unchanged; only the store fingerprints differ.

:class:`ClientEdits` makes never-repeated neutral edits of an AFS-2
client: a seeded permutation of the ``case`` branches of its three
``next`` assignments that keeps every pair of overlapping branches in
order, so the transition function is unchanged while the source text
(and so the obligation fingerprint) is new.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass

from common import ROOT


@dataclass(frozen=True)
class Entry:
    name: str
    source: str
    expected: tuple[bool, ...]


def catalog() -> dict[str, Entry]:
    from repro.casestudies import afs1, afs2

    client = afs2.client_source(rename=False) + afs2.CLIENT_SPECS_FIGURE
    entries = [
        Entry("afs1_server", afs1.AFS1_SERVER_FIGURE, (True,) * 5),
        Entry("afs1_client", afs1.AFS1_CLIENT_FIGURE, (True,) * 6),
        Entry("afs2_client", client, (True,)),
        Entry(
            "afs2_client_false",
            client + "SPEC AG (belief != valid)\n",
            (True, False),
        ),
        Entry(
            "figure1",
            (ROOT / "examples" / "figure1.smv").read_text(),
            (True, True, True),
        ),
    ]
    for n in (2, 3, 4):
        entries.append(
            Entry(
                f"afs2_server{n}",
                afs2.server_source(n, rename=False) + afs2.SERVER_SPECS_FIGURE,
                (True, True),
            )
        )
    return {entry.name: entry for entry in entries}


# ----------------------------------------------------------------------
# seeded, order-preserving identifier renaming
# ----------------------------------------------------------------------
#: Words the SMV front end reads as keywords or temporal operators.
RESERVED = {
    "MODULE", "VAR", "ASSIGN", "SPEC", "FAIRNESS", "INIT", "DEFINE",
    "process", "case", "esac", "next", "init", "boolean", "TRUE", "FALSE",
    "AX", "EX", "AF", "EF", "AG", "EG", "A", "E", "U", "main",
}
# the lexer's comment and identifier patterns, so prefixing sees exactly
# the identifiers the parser will see
_TOKEN = re.compile(r"--[^\n]*|[A-Za-z_][A-Za-z0-9_.$#-]*")
PREFIX_LETTERS = 6


def renamed(source: str, prefix: str) -> str:
    """``source`` with every identifier prefixed by ``prefix``."""

    def swap(match: re.Match) -> str:
        text = match.group()
        if text.startswith("--") or text in RESERVED:
            return text
        return prefix + text

    return _TOKEN.sub(swap, source)


class Prefixes:
    """Never-repeated constant-length prefixes drawn from a seed."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used: set[str] = set()

    def next(self) -> str:
        while True:
            prefix = (
                "".join(
                    self.rng.choice(string.ascii_lowercase)
                    for _ in range(PREFIX_LETTERS)
                )
                + "_"
            )
            if prefix not in self.used:
                self.used.add(prefix)
                return prefix


# ----------------------------------------------------------------------
# neutral AFS-2 client edits
# ----------------------------------------------------------------------
#: Per ``next`` target: pairs of guarded branches (0-based, in source
#: order) whose guards overlap with different results, so their relative
#: order must be kept.  Every other pair is mutually exclusive or maps
#: to the same value, and may be swapped freely.
#:
#: * belief: ``valid & failure -> suspect`` (3) overlaps
#:   ``valid & response = inval -> nofile`` (4);
#: * request: ``valid & failure -> null`` (2) overlaps
#:   ``valid & response != inval -> update`` (4);
#: * time: every guarded branch yields 1.
ORDER_KEPT = {"belief": [(3, 4)], "request": [(2, 4)], "time": []}


def _case_blocks(lines: list[str]) -> dict[str, list[int]]:
    """Line numbers of each ``next(...)`` block's guarded branches
    (the final ``1 : ...`` default excluded), keyed by variable stem."""
    blocks: dict[str, list[int]] = {}
    current = None
    for index, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("next(") and stripped.endswith(":="):
            target = stripped[len("next("): stripped.index(")")]
            current = next(k for k in ORDER_KEPT if k in target.lower())
            if current in blocks:
                raise ValueError(f"two next() blocks for {current}")
            blocks[current] = []
        elif stripped == "esac;":
            current = None
        elif current is not None and ":" in stripped and not stripped.startswith("1 :"):
            blocks[current].append(index)
    return blocks


class ClientEdits:
    """Seeded, never-repeated neutral edits of AFS-2 clients."""

    def __init__(self, rng: random.Random, n: int):
        from repro.casestudies.afs2 import client_source

        self.rng = rng
        self.sources = {i: client_source(i) for i in range(1, n + 1)}
        self.used: set[tuple] = set()
        for i, source in self.sources.items():
            blocks = _case_blocks(source.split("\n"))
            if sorted(blocks) != sorted(ORDER_KEPT):
                raise ValueError(f"client {i}: unexpected case layout")

    def _permutation(self, size: int, kept) -> tuple[int, ...]:
        order = list(range(size))
        self.rng.shuffle(order)
        for a, b in kept:
            ia, ib = order.index(a), order.index(b)
            if ia > ib:  # swapping the pair keeps the draw uniform
                order[ia], order[ib] = b, a
        return tuple(order)

    def edit(self, client: int) -> str:
        """A new edited source for ``client`` (never the original)."""
        lines = self.sources[client].split("\n")
        blocks = _case_blocks(lines)
        while True:
            perms = tuple(
                self._permutation(len(blocks[k]), ORDER_KEPT[k])
                for k in ORDER_KEPT
            )
            identity = all(p == tuple(range(len(p))) for p in perms)
            key = (client, perms)
            if not identity and key not in self.used:
                self.used.add(key)
                break
        edited = list(lines)
        for stem, perm in zip(ORDER_KEPT, perms):
            rows = blocks[stem]
            for slot, source_row in zip(rows, perm):
                edited[slot] = lines[rows[source_row]]
        return "\n".join(edited)


def stratified(rng: random.Random, counts: dict[str, int]):
    """An endless stream of classes: each block holds exactly ``counts``
    of every class, in a fresh seeded order."""
    block = [name for name, count in counts.items() for _ in range(count)]
    while True:
        order = list(block)
        rng.shuffle(order)
        yield from order
