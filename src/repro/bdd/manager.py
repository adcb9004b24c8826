"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the substrate of the symbolic model checker, playing the role that
the CUDD-style package plays inside SMV in the paper.  It is a classic
hash-consed ROBDD implementation:

* nodes are small integers; ``0`` is the constant FALSE and ``1`` the
  constant TRUE;
* every internal node is a triple ``(level, low, high)`` stored in the
  flat parallel lists ``_level/_low/_high`` and interned through
  **per-level unique subtables** — one hash table per variable level,
  keyed on ``(low, high)`` alone.  Structural equality is pointer
  (integer) equality, and all nodes of one level can be enumerated and
  rehashed locally, as :meth:`BDD.restore` does.  (The subtables are
  CPython dicts rather than hand-rolled ``array('q')`` linear probing:
  measured on the find-or-create mix of the engine microbenches, the C
  dict probe beats a Python-level open-addressing loop by ~4× — ``_mk``
  is the hottest function in the package, so the wire format keeps the
  flat-array form but the live tables use the faster probe);
* the boolean connectives run on **specialized recursive kernels**
  (:meth:`BDD._and_rec`, :meth:`BDD._or_rec`, :meth:`BDD._xor_rec`) with
  commutativity-canonicalized per-op caches; the universal memoized
  ``ite`` (if-then-else) is kept for ternary composition and transfer;
* negation is a **memoized involution**: a dedicated bidirectional table
  maps ``u ↔ ¬u``, so repeated :meth:`BDD.negate` calls are O(1) dict
  probes instead of a recursive ``ite`` traversal (the first negation of
  a function is one linear pass that records both directions);
* quantification, renaming and the fused relational product
  (:meth:`BDD.and_exists`) are provided for image computation;
* the variable order is the declaration order and never changes:
  callers declare their variables in the order they want (the symbolic
  systems interleave each atom with its primed copy), and
  :func:`repro.bdd.order.rebuild_with_order` copies functions into a
  fresh manager to measure another order;
* :meth:`BDD.snapshot` / :meth:`BDD.restore` serialize the flat arrays
  to bytes in one packing pass (no per-node Python objects in the wire
  form), so a compiled transition relation crosses the process-pool
  boundary as three memcpy-style blobs instead of being re-elaborated
  per worker.

The manager keeps the statistics the paper's figures report: the total
number of nodes ever allocated (``nodes_allocated``) mirrors SMV's
"BDD nodes allocated" line, and :meth:`BDD.node_count` of a transition
relation mirrors "BDD nodes representing transition relation".  On top of
that, :attr:`BDD.stats` (a :class:`repro.bdd.stats.BDDStats`) tracks
per-operation cache lookups/hits/inserts, ``_mk`` calls and the peak
unique-table size, which the checkers surface in their
``resources used:`` blocks.

Performance notes (per the project's HPC guidelines): the hot paths are
the binary-op recursions and the fused relational product.  They use flat
list storage for node fields (no per-node objects), dict-based
memoization with two-element canonical keys for the commutative ops, and
inlined cofactor computation (no helper calls in the recursion).  The
unique-table probe in ``_mk`` is one two-element-tuple dict probe in the
level's subtable — measurably cheaper than the old global
``(level, low, high)`` key, and local to the level by construction.
:meth:`BDD.conj` / :meth:`BDD.disj` fold **balanced trees** over their
operands — a linear left-fold drags one growing accumulator through every
step, which is directly visible in transition-relation construction
(``frame``, a compiled relation's partitions, a composite's
materialised ``R*``); the balanced fold keeps intermediates
small and cache keys diverse.  Recursion depth is bounded by the number
of variables, which is small (tens) for the systems in this domain.

No garbage collection is performed: ids are never renumbered, so ids
held by clients (transition relations, checker memos) stay valid for
the manager's lifetime.  The reachable size of a root is
:meth:`BDD.node_count`, of several roots
:func:`repro.bdd.order.shared_size`.

Snapshots: :meth:`BDD.snapshot` serializes the manager to bytes — a
magic/version prefix, a compact JSON header (variable order, node
counts), and the three parallel node arrays as packed little-endian
int64 (``array('q')``) blobs, with no per-node object traversal in
either direction.  :meth:`BDD.restore` / :meth:`BDD.from_snapshot`
rebuild the per-level unique subtables in one linear pass.  Node ids
are stable across the round trip, so shipped ids (e.g. a
``SnapshotSpec``'s partitions) index directly into the restored
manager.
"""

from __future__ import annotations

import json
import struct
from array import array
from collections.abc import Iterable, Iterator, Mapping

from repro.bdd.stats import BDDStats
from repro.errors import BddError
from repro.obs.tracer import TRACER

#: Constant node id for FALSE.
FALSE = 0
#: Constant node id for TRUE.
TRUE = 1

#: Level assigned to the two terminal nodes; larger than any variable level.
_TERMINAL_LEVEL = 1 << 30

#: Snapshot wire-format magic (versioned via the JSON header that follows).
_SNAPSHOT_MAGIC = b"RBDD\x01"


def _release(fn) -> None:
    """Empty the closure cells of a finished recursive kernel.

    A nested recursive ``rec`` refers to itself through its closure
    cell.  That reference cycle also holds what ``rec`` captured — the
    manager's node arrays, caches and bound methods — so without a break
    a dropped manager lives on until the cyclic garbage collector runs,
    and peak memory depends on when that happens.  A kernel that defines
    its ``rec`` ends it with ``del rec``; one handed a closure by
    another method (:meth:`BDD._quantifier`) calls this.
    """
    for cell in fn.__closure__ or ():
        del cell.cell_contents


class BDD:
    """A BDD manager: variable ordering, unique table, and operations.

    Variables are created with :meth:`add_var` and are ordered by
    creation order (level 0 at the top).  All node ids returned by one
    manager are only meaningful for that manager; use
    :func:`repro.bdd.ops.transfer` to move functions between managers.

    Example
    -------
    >>> b = BDD()
    >>> x, y = b.add_var("x"), b.add_var("y")
    >>> f = b.apply("and", b.var("x"), b.var("y"))
    >>> b.sat_count(f)
    1
    """

    def __init__(self) -> None:
        # Parallel arrays for node fields.  Slots 0/1 are the terminals.
        self._level: list[int] = [_TERMINAL_LEVEL, _TERMINAL_LEVEL]
        self._low: list[int] = [0, 1]
        self._high: list[int] = [0, 1]
        # per-level unique subtables, keyed on (low, high); the level is
        # implicit, so a level's nodes enumerate/rehash without a scan
        self._tables: list[dict[tuple[int, int], int]] = []
        # memo tables
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._and_cache: dict[tuple[int, int], int] = {}
        self._or_cache: dict[tuple[int, int], int] = {}
        self._xor_cache: dict[tuple[int, int], int] = {}
        # bidirectional u <-> not(u); the terminals are permanent entries
        self._neg_cache: dict[int, int] = {FALSE: TRUE, TRUE: FALSE}
        # quantification/rename caches are two-level: one sub-table per
        # (operation context), so the per-node keys are plain ints/pairs
        self._quant_cache: dict[tuple[int, frozenset[int]], dict[int, int]] = {}
        self._and_exists_cache: dict[frozenset[int], dict[tuple[int, int], int]] = {}
        self._rename_cache: dict[tuple[tuple[int, int], ...], dict[int, int]] = {}
        # variables
        self._var_names: list[str] = []
        self._var_index: dict[str, int] = {}
        # statistics
        self.nodes_allocated: int = 2  # terminals count, like SMV's base cost
        self.cache_enabled: bool = True
        #: Op-level counters (lookups/hits/inserts per memo table, _mk
        #: calls, peak unique-table size).  Cumulative; snapshot/delta to
        #: attribute costs to a single run.
        self.stats = BDDStats()
        ops = self.stats.ops
        self._c_ite = ops["ite"]
        self._c_and = ops["and"]
        self._c_or = ops["or"]
        self._c_xor = ops["xor"]
        self._c_neg = ops["neg"]
        self._c_quant = ops["quant"]
        self._c_and_exists = ops["and_exists"]
        self._c_rename = ops["rename"]

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Declare a new variable at the bottom of the order; return its level."""
        if name in self._var_index:
            raise BddError(f"variable {name!r} already declared")
        level = len(self._var_names)
        self._var_names.append(name)
        self._var_index[name] = level
        self._tables.append({})
        return level

    def declare(self, *names: str) -> None:
        """Declare several variables in order (convenience for tests)."""
        for name in names:
            self.add_var(name)

    @property
    def var_names(self) -> tuple[str, ...]:
        """All declared variable names, top of the order first."""
        return tuple(self._var_names)

    def num_vars(self) -> int:
        """Number of declared variables."""
        return len(self._var_names)

    def level_of(self, name: str) -> int:
        """Level (position in the order) of variable ``name``."""
        try:
            return self._var_index[name]
        except KeyError:
            raise BddError(f"unknown variable {name!r}") from None

    def name_of(self, level: int) -> str:
        """Variable name at ``level``."""
        return self._var_names[level]

    def var(self, name: str) -> int:
        """The BDD of the literal ``name`` (a single positive variable)."""
        return self._mk(self.level_of(name), FALSE, TRUE)

    def nvar(self, name: str) -> int:
        """The BDD of the negative literal ``!name``."""
        return self._mk(self.level_of(name), TRUE, FALSE)

    # ------------------------------------------------------------------
    # node construction / inspection
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        """Find-or-create the node ``(level, low, high)`` (reduction applied)."""
        if low == high:
            return low
        st = self.stats
        st.mk_calls += 1
        tab = self._tables[level]
        key = (low, high)
        node = tab.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            tab[key] = node
            self.nodes_allocated += 1
            total = node - 1  # internal nodes now interned
            if total > st.peak_unique_nodes:
                st.peak_unique_nodes = total
        return node

    def level(self, u: int) -> int:
        """Level of node ``u`` (terminals have a sentinel maximal level)."""
        return self._level[u]

    def low(self, u: int) -> int:
        """Else-branch (variable false) of node ``u``."""
        return self._low[u]

    def high(self, u: int) -> int:
        """Then-branch (variable true) of node ``u``."""
        return self._high[u]

    def is_terminal(self, u: int) -> bool:
        """True iff ``u`` is one of the constants FALSE/TRUE."""
        return u <= 1

    def node_count(self, u: int) -> int:
        """Number of distinct internal nodes reachable from ``u``.

        This is the metric SMV prints as "BDD nodes representing transition
        relation" (terminals excluded).
        """
        seen: set[int] = set()
        stack = [u]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            stack.append(self._low[n])
            stack.append(self._high[n])
        return len(seen)

    def num_live_nodes(self) -> int:
        """Total internal nodes currently interned (no GC is performed)."""
        return len(self._level) - 2

    def unique_size(self) -> int:
        """Current number of interned internal nodes (all subtables)."""
        return len(self._level) - 2

    def clear_caches(self) -> None:
        """Drop all memoization tables (unique table is kept)."""
        self._ite_cache.clear()
        self._and_cache.clear()
        self._or_cache.clear()
        self._xor_cache.clear()
        self._neg_cache.clear()
        self._neg_cache[FALSE] = TRUE
        self._neg_cache[TRUE] = FALSE
        self._quant_cache.clear()
        self._and_exists_cache.clear()
        self._rename_cache.clear()

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> bytes:
        """Serialize the full node store to bytes.

        Wire form: magic, a little-endian ``uint32`` header length, a JSON
        header (variables in order, node/allocation counts), then the ``_level``, ``_low`` and
        ``_high`` arrays as raw 64-bit little-endian integers — one
        packing pass over flat arrays, no per-node Python objects.
        Restoring rehashes the per-level subtables in one linear pass,
        which is far cheaper than re-elaborating the functions; memo
        caches are not serialized.  The format assumes a same-endianness
        reader (true for the fork/spawn process pools it serves).
        """
        header = {
            "version": 2,
            "vars": list(self._var_names),
            "nodes": len(self._level),
            "nodes_allocated": self.nodes_allocated,
        }
        blob = json.dumps(header, separators=(",", ":"), sort_keys=True).encode()
        parts = [_SNAPSHOT_MAGIC, struct.pack("<I", len(blob)), blob]
        for field in (self._level, self._low, self._high):
            parts.append(array("q", field).tobytes())
        return b"".join(parts)

    def restore(self, data: bytes) -> None:
        """Reset this manager to the exact state captured by ``data``.

        Node ids from the snapshotted manager remain valid (the flat
        arrays are restored verbatim); all memo caches start empty.
        """
        if not data.startswith(_SNAPSHOT_MAGIC):
            raise BddError("not a BDD snapshot")
        off = len(_SNAPSHOT_MAGIC)
        (hlen,) = struct.unpack_from("<I", data, off)
        off += 4
        try:
            header = json.loads(data[off : off + hlen].decode())
        except ValueError as exc:
            raise BddError(f"corrupt BDD snapshot header: {exc}") from None
        off += hlen
        if header.get("version") != 2:
            raise BddError(
                f"unsupported snapshot version {header.get('version')!r}"
            )
        count = int(header["nodes"])
        nbytes = count * 8
        fields: list[list[int]] = []
        for _ in range(3):
            arr = array("q")
            arr.frombytes(data[off : off + nbytes])
            if len(arr) != count:
                raise BddError("truncated BDD snapshot")
            off += nbytes
            fields.append(arr.tolist())
        self._level, self._low, self._high = fields
        self._var_names = list(header["vars"])
        self._var_index = {name: lvl for lvl, name in enumerate(self._var_names)}
        self.nodes_allocated = int(header["nodes_allocated"])
        # rebuild the per-level unique subtables: one linear rehash pass
        tables: list[dict[tuple[int, int], int]] = [
            {} for _ in self._var_names
        ]
        level_, low_, high_ = self._level, self._low, self._high
        for n in range(2, len(level_)):
            tables[level_[n]][(low_[n], high_[n])] = n
        self._tables = tables
        self.clear_caches()

    @classmethod
    def from_snapshot(cls, data: bytes) -> BDD:
        """A fresh manager restored from :meth:`snapshot` bytes."""
        bdd = cls()
        bdd.restore(data)
        return bdd

    # ------------------------------------------------------------------
    # core operation: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``if f then g else h`` — the universal ROBDD connective."""
        return self._ite_rec(f, g, h)

    def _ite_rec(self, f: int, g: int, h: int) -> int:
        # terminal cases
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        caching = self.cache_enabled
        if caching:
            c = self._c_ite
            c.lookups += 1
            cached = self._ite_cache.get(key)
            if cached is not None:
                c.hits += 1
                return cached
        level_, low_, high_ = self._level, self._low, self._high
        lf, lg, lh = level_[f], level_[g], level_[h]
        level = lf if lf <= lg else lg
        if lh < level:
            level = lh
        if lf == level:
            f0, f1 = low_[f], high_[f]
        else:
            f0 = f1 = f
        if lg == level:
            g0, g1 = low_[g], high_[g]
        else:
            g0 = g1 = g
        if lh == level:
            h0, h1 = low_[h], high_[h]
        else:
            h0 = h1 = h
        low = self._ite_rec(f0, g0, h0)
        high = self._ite_rec(f1, g1, h1)
        result = self._mk(level, low, high)
        if caching:
            self._ite_cache[key] = result
            c.inserts += 1
        return result

    def _cofactors(self, u: int, level: int) -> tuple[int, int]:
        """(u|var=0, u|var=1) for the variable at ``level``."""
        if self._level[u] == level:
            return self._low[u], self._high[u]
        return u, u

    # ------------------------------------------------------------------
    # specialized binary kernels
    # ------------------------------------------------------------------
    def _and_rec(self, u: int, v: int) -> int:
        """Conjunction kernel (canonicalized cache key, inlined cofactors)."""
        if u <= 1:
            return v if u else FALSE
        if v <= 1:
            return u if v else FALSE
        if u == v:
            return u
        if u > v:  # AND is commutative: canonicalize the cache key
            u, v = v, u
        caching = self.cache_enabled
        if caching:
            c = self._c_and
            c.lookups += 1
            cached = self._and_cache.get((u, v))
            if cached is not None:
                c.hits += 1
                return cached
        level_, low_, high_ = self._level, self._low, self._high
        lu, lv = level_[u], level_[v]
        if lu <= lv:
            top, u0, u1 = lu, low_[u], high_[u]
        else:
            top, u0, u1 = lv, u, u
        if lv <= lu:
            v0, v1 = low_[v], high_[v]
        else:
            v0, v1 = v, v
        low = self._and_rec(u0, v0)
        high = self._and_rec(u1, v1)
        result = self._mk(top, low, high)
        if caching:
            self._and_cache[(u, v)] = result
            c.inserts += 1
        return result

    def _or_rec(self, u: int, v: int) -> int:
        """Disjunction kernel (canonicalized cache key, inlined cofactors)."""
        if u <= 1:
            return TRUE if u else v
        if v <= 1:
            return TRUE if v else u
        if u == v:
            return u
        if u > v:  # OR is commutative
            u, v = v, u
        caching = self.cache_enabled
        if caching:
            c = self._c_or
            c.lookups += 1
            cached = self._or_cache.get((u, v))
            if cached is not None:
                c.hits += 1
                return cached
        level_, low_, high_ = self._level, self._low, self._high
        lu, lv = level_[u], level_[v]
        if lu <= lv:
            top, u0, u1 = lu, low_[u], high_[u]
        else:
            top, u0, u1 = lv, u, u
        if lv <= lu:
            v0, v1 = low_[v], high_[v]
        else:
            v0, v1 = v, v
        low = self._or_rec(u0, v0)
        high = self._or_rec(u1, v1)
        result = self._mk(top, low, high)
        if caching:
            self._or_cache[(u, v)] = result
            c.inserts += 1
        return result

    def _xor_rec(self, u: int, v: int) -> int:
        """Exclusive-or kernel; terminal negations go through the neg table."""
        if u == v:
            return FALSE
        if u <= 1:
            return self.negate(v) if u else v
        if v <= 1:
            return self.negate(u) if v else u
        if u > v:  # XOR is commutative
            u, v = v, u
        caching = self.cache_enabled
        if caching:
            c = self._c_xor
            c.lookups += 1
            cached = self._xor_cache.get((u, v))
            if cached is not None:
                c.hits += 1
                return cached
        level_, low_, high_ = self._level, self._low, self._high
        lu, lv = level_[u], level_[v]
        if lu <= lv:
            top, u0, u1 = lu, low_[u], high_[u]
        else:
            top, u0, u1 = lv, u, u
        if lv <= lu:
            v0, v1 = low_[v], high_[v]
        else:
            v0, v1 = v, v
        low = self._xor_rec(u0, v0)
        high = self._xor_rec(u1, v1)
        result = self._mk(top, low, high)
        if caching:
            self._xor_cache[(u, v)] = result
            c.inserts += 1
        return result

    # ------------------------------------------------------------------
    # derived boolean operations
    # ------------------------------------------------------------------
    def negate(self, u: int) -> int:
        """Logical negation — an amortized-O(1) memoized involution.

        The table stores ``u ↔ ¬u`` in both directions, so negating a
        previously seen function (or a previous negation result) is a
        single dict probe.  The first negation of a function is one pass
        over its DAG, not an ``ite`` recursion.
        """
        cache = self._neg_cache
        c = self._c_neg
        c.lookups += 1
        cached = cache.get(u)
        if cached is not None:
            c.hits += 1
            return cached
        if not self.cache_enabled:
            # local memo only: still linear in the DAG, nothing retained
            cache = dict(cache)
        level_, low_, high_ = self._level, self._low, self._high
        mk = self._mk

        def rec(n: int) -> int:
            r = cache.get(n)
            if r is None:
                r = mk(level_[n], rec(low_[n]), rec(high_[n]))
                cache[n] = r
                cache[r] = n
                c.inserts += 2
            return r

        try:
            return rec(u)
        finally:
            del rec  # see _release

    def apply(self, op: str, u: int, v: int) -> int:
        """Apply a binary boolean operator by name.

        Supported: ``and or xor nand nor xnor iff implies diff``.  Each
        operator dispatches to a specialized kernel (plus the negation
        table) — no throwaway ``ite`` intermediates are built.
        """
        if op == "and":
            return self._and_rec(u, v)
        if op == "or":
            return self._or_rec(u, v)
        if op == "xor":
            return self._xor_rec(u, v)
        if op == "nand":
            return self.negate(self._and_rec(u, v))
        if op == "nor":
            return self.negate(self._or_rec(u, v))
        if op in ("xnor", "iff"):
            return self.negate(self._xor_rec(u, v))
        if op in ("implies", "imp"):
            return self._or_rec(self.negate(u), v)
        if op == "diff":  # u and not v
            return self._and_rec(u, self.negate(v))
        raise BddError(f"unknown operator {op!r}")

    def conj(self, us: Iterable[int]) -> int:
        """Conjunction of an iterable of BDDs (TRUE when empty).

        Folds a balanced tree over the operands: pairwise rounds instead
        of a left-fold, so no single lopsided accumulator is dragged
        through every combination step.
        """
        items = [u for u in us if u != TRUE]
        if not items:
            return TRUE
        land = self._and_rec
        while len(items) > 1:
            paired = [
                land(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)
            ]
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def disj(self, us: Iterable[int]) -> int:
        """Disjunction of an iterable of BDDs (FALSE when empty).

        Balanced-tree fold, like :meth:`conj`.
        """
        items = [u for u in us if u != FALSE]
        if not items:
            return FALSE
        lor = self._or_rec
        while len(items) > 1:
            paired = [
                lor(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)
            ]
            if len(items) & 1:
                paired.append(items[-1])
            items = paired
        return items[0]

    def cube(self, assignment: Mapping[str, bool]) -> int:
        """Conjunction of literals described by a {name: bool} mapping."""
        acc = TRUE
        for name in sorted(assignment, key=self.level_of, reverse=True):
            lit = self.var(name) if assignment[name] else self.nvar(name)
            acc = self._and_rec(lit, acc)
        return acc

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def exists(self, names: Iterable[str], u: int) -> int:
        """Existential quantification over the given variables."""
        levels = frozenset(self.level_of(n) for n in names)
        if not levels:
            return u
        return self._quantify(u, levels, conj=False)

    def forall(self, names: Iterable[str], u: int) -> int:
        """Universal quantification over the given variables."""
        levels = frozenset(self.level_of(n) for n in names)
        if not levels:
            return u
        return self._quantify(u, levels, conj=True)

    def _quantifier(self, levels: frozenset[int], conj: bool):
        """A memoized one-argument quantifier closure for ``levels``.

        Hoists the per-context state (sub-cache, max level, combiner) out
        of the per-node recursion; :meth:`_and_exists` builds one closure
        per relational product and reuses it on every TRUE-branch.
        """
        ckey = (1 if conj else 0, levels)
        cache = self._quant_cache.get(ckey)
        if cache is None:
            cache = self._quant_cache[ckey] = {}
        maxlvl = max(levels)
        c = self._c_quant
        level_, low_, high_ = self._level, self._low, self._high
        combine = self._and_rec if conj else self._or_rec
        mk = self._mk

        def rec(n: int) -> int:
            if n <= 1:
                return n
            lvl = level_[n]
            if lvl > maxlvl:
                return n
            c.lookups += 1
            result = cache.get(n)
            if result is not None:
                c.hits += 1
                return result
            low = rec(low_[n])
            high = rec(high_[n])
            if lvl in levels:
                result = combine(low, high)
            else:
                result = mk(lvl, low, high)
            cache[n] = result
            c.inserts += 1
            return result

        return rec

    def _quantify(self, u: int, levels: frozenset[int], conj: bool) -> int:
        if u <= 1:
            return u
        quantify = self._quantifier(levels, conj)
        try:
            return quantify(u)
        finally:
            _release(quantify)

    def and_exists(self, u: int, v: int, names: Iterable[str]) -> int:
        """Fused ``exists names. (u and v)`` — the relational product.

        The fusion matters: the conjunction ``u and v`` (a constrained
        transition relation) is never materialized, which is the standard
        image-computation optimization in symbolic model checkers.
        """
        levels = frozenset(self.level_of(n) for n in names)
        if not levels:
            return self._and_rec(u, v)
        if TRACER.enabled:
            # the relational-product span: one per image step, with the
            # node traffic it caused attached as counters
            with TRACER.span("bdd.and_exists", category="bdd") as span:
                mk_before = self.stats.mk_calls
                result = self._and_exists(u, v, levels)
                span.add("mk_calls", self.stats.mk_calls - mk_before)
            return result
        return self._and_exists(u, v, levels)

    def _and_exists(self, u: int, v: int, levels: frozenset[int]) -> int:
        cache = self._and_exists_cache.get(levels)
        if cache is None:
            cache = self._and_exists_cache[levels] = {}
        c = self._c_and_exists
        level_, low_, high_ = self._level, self._low, self._high
        lor = self._or_rec
        mk = self._mk
        quantify = self._quantifier(levels, conj=False)

        def rec(a: int, b: int) -> int:
            if a > b:  # canonicalize for the cache: AND is commutative
                a, b = b, a
            # a is now the smaller id: a == 0 covers either side FALSE
            if a == FALSE:
                return FALSE
            if a == TRUE:
                return TRUE if b == TRUE else quantify(b)
            if a == b:
                return quantify(a)
            key = (a, b)
            c.lookups += 1
            result = cache.get(key)
            if result is not None:
                c.hits += 1
                return result
            la, lb = level_[a], level_[b]
            if la <= lb:
                level, a0, a1 = la, low_[a], high_[a]
            else:
                level, a0, a1 = lb, a, a
            if lb <= la:
                b0, b1 = low_[b], high_[b]
            else:
                b0, b1 = b, b
            low = rec(a0, b0)
            if level in levels:
                if low == TRUE:
                    result = TRUE
                else:
                    result = lor(low, rec(a1, b1))
            else:
                result = mk(level, low, rec(a1, b1))
            cache[key] = result
            c.inserts += 1
            return result

        try:
            return rec(u, v)
        finally:
            del rec
            _release(quantify)

    # ------------------------------------------------------------------
    # renaming and cofactoring
    # ------------------------------------------------------------------
    def rename(self, u: int, mapping: Mapping[str, str]) -> int:
        """Substitute variables: each key variable becomes its value variable.

        The mapping must be *order-preserving on the support of* ``u``:
        relabeled levels must remain strictly increasing along every path.
        This holds for the interleaved current/next variable orders used by
        the model checker (``a ↦ a'`` with ``a'`` declared directly below
        ``a``).  A non-monotone mapping raises :class:`BddError`.
        """
        level_map = {self.level_of(a): self.level_of(b) for a, b in mapping.items()}
        support = sorted(self.level_of(n) for n in self.support(u))
        mapped = [level_map.get(lv, lv) for lv in support]
        if sorted(mapped) != mapped or len(set(mapped)) != len(mapped):
            raise BddError("rename mapping is not order-preserving on the support")
        key_map = tuple(sorted(level_map.items()))
        return self._rename(u, level_map, key_map)

    def _rename(
        self,
        u: int,
        level_map: Mapping[int, int],
        key_map: tuple[tuple[int, int], ...],
    ) -> int:
        if u <= 1:
            return u
        cache = self._rename_cache.get(key_map)
        if cache is None:
            cache = self._rename_cache[key_map] = {}
        c = self._c_rename
        level_, low_, high_ = self._level, self._low, self._high
        mk = self._mk
        get_level = level_map.get

        def rec(n: int) -> int:
            if n <= 1:
                return n
            c.lookups += 1
            result = cache.get(n)
            if result is not None:
                c.hits += 1
                return result
            lvl = level_[n]
            result = mk(get_level(lvl, lvl), rec(low_[n]), rec(high_[n]))
            cache[n] = result
            c.inserts += 1
            return result

        try:
            return rec(u)
        finally:
            del rec  # see _release

    def restrict(self, u: int, assignment: Mapping[str, bool]) -> int:
        """Cofactor: fix the given variables to constants."""
        values = {self.level_of(n): bool(b) for n, b in assignment.items()}
        return self._restrict(u, values, {})

    def _restrict(self, u: int, values: Mapping[int, bool], memo: dict[int, int]) -> int:
        if u <= 1:
            return u
        cached = memo.get(u)
        if cached is not None:
            return cached
        lvl = self._level[u]
        if lvl in values:
            result = self._restrict(
                self._high[u] if values[lvl] else self._low[u], values, memo
            )
        else:
            low = self._restrict(self._low[u], values, memo)
            high = self._restrict(self._high[u], values, memo)
            result = self._mk(lvl, low, high)
        memo[u] = result
        return result

    # ------------------------------------------------------------------
    # satisfying assignments
    # ------------------------------------------------------------------
    def sat_count(self, u: int, nvars: int | None = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        Defaults to all declared variables.  Returns an exact ``int``:
        the count is exponential in ``nvars``, and Python integers are
        arbitrary-precision, so counts stay exact past the 2^53 range
        where ``float`` arithmetic starts silently rounding (and the
        ~2^1024 range where it overflows outright).
        """
        if nvars is None:
            nvars = self.num_vars()
        memo: dict[int, int] = {}

        def count(n: int) -> int:
            # count over variables strictly below level(n)'s position
            if n == FALSE:
                return 0
            if n == TRUE:
                return 1
            c = memo.get(n)
            if c is None:
                lvl = self._level[n]
                lo, hi = self._low[n], self._high[n]
                lo_lvl = min(self._level[lo], nvars)
                hi_lvl = min(self._level[hi], nvars)
                c = count(lo) * (2 ** (lo_lvl - lvl - 1)) + count(hi) * (
                    2 ** (hi_lvl - lvl - 1)
                )
                memo[n] = c
            return c

        top = min(self._level[u], nvars)
        try:
            return count(u) * (2**top)
        finally:
            del count  # see _release

    def pick(self, u: int) -> dict[str, bool] | None:
        """One satisfying assignment (partial — only decided variables), or None."""
        if u == FALSE:
            return None
        out: dict[str, bool] = {}
        while u != TRUE:
            name = self._var_names[self._level[u]]
            if self._low[u] != FALSE:
                out[name] = False
                u = self._low[u]
            else:
                out[name] = True
                u = self._high[u]
        return out

    def iter_sat(self, u: int, names: Iterable[str] | None = None) -> Iterator[dict[str, bool]]:
        """Iterate over *total* satisfying assignments of the given variables.

        ``names`` defaults to every declared variable; variables not on a
        path through the BDD are expanded to both values.
        """
        names = list(self._var_names if names is None else names)
        partial: dict[str, bool] = {}

        def rec(n: int, idx: int) -> Iterator[dict[str, bool]]:
            if n == FALSE:
                return
            if idx == len(names):
                # any leftover (unselected) variables are quantified away:
                # n != FALSE means some completion satisfies u
                yield dict(partial)
                return
            name = names[idx]
            for val in (False, True):
                m = self.restrict(n, {name: val})
                if m != FALSE:
                    partial[name] = val
                    yield from rec(m, idx + 1)
                    del partial[name]

        try:
            yield from rec(u, 0)
        finally:
            del rec  # see _release

    # ------------------------------------------------------------------
    # support
    # ------------------------------------------------------------------
    def support(self, u: int) -> set[str]:
        """Set of variable names the function actually depends on."""
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [u]
        while stack:
            n = stack.pop()
            if n <= 1 or n in seen:
                continue
            seen.add(n)
            levels.add(self._level[n])
            stack.append(self._low[n])
            stack.append(self._high[n])
        return {self._var_names[lv] for lv in levels}
