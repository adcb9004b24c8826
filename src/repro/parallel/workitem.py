"""Picklable work items for the process-pool obligation scheduler.

A :class:`WorkItem` is one self-contained model-checking request: a
*system spec* (how to build the system in a worker process), a CTL
formula, a restriction, an engine choice, and the extra atoms of the
composite alphabet the component must be expanded over before checking
(Lemmas 4/5/8–10 — the proof calculus checks obligations on component
*expansions*).

System specs come in four flavors, all frozen/hashable so worker
processes can cache the compiled checker per spec:

* :class:`SmvSpec` — SMV source text, compiled in the worker;
* :class:`ExplicitSpec` — a serialized explicit system (atoms + edges),
  for components built programmatically (e.g. the token ring);
* :class:`ComposeSpec` — the ``∘``-composition of several sub-specs,
  used by the parallel ``verify_monolithic`` re-checks;
* :class:`SnapshotSpec` — a zero-copy :meth:`repro.bdd.manager.BDD.snapshot`
  of a symbolic system's manager plus its relation node ids, for
  symbolic components with no SMV source to recompile from.

:func:`spec_of_component` derives the spec of an in-memory component:
explicit systems serialize directly; symbolic systems ship their SMV
source when they carry one (``smv_source``/``smv_reflexive`` attributes,
attached by :class:`repro.casestudies.afs_common.ProtocolComponent`) and
fall back to a manager snapshot otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Union

from repro.errors import ReproError
from repro.logic.ctl import Formula
from repro.logic.restriction import UNRESTRICTED, Restriction

__all__ = [
    "SmvSpec",
    "ExplicitSpec",
    "ComposeSpec",
    "SnapshotSpec",
    "SystemSpec",
    "WorkItem",
    "WorkOutcome",
    "ParallelError",
    "spec_of_component",
]


class ParallelError(ReproError):
    """A work item could not be specified, scheduled, or executed."""


@dataclass(frozen=True)
class SmvSpec:
    """Build the system by compiling SMV source text in the worker."""

    source: str
    #: Stutter-close the relation (paper-style component semantics).
    reflexive: bool = True


@dataclass(frozen=True)
class ExplicitSpec:
    """A serialized explicit system: canonical atoms + edge list."""

    atoms: tuple[str, ...]
    #: Edges as ``(source, target)`` pairs of sorted atom tuples.
    edges: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    reflexive: bool = True


@dataclass(frozen=True)
class ComposeSpec:
    """The interleaving composition of several sub-specs, in order."""

    parts: tuple["SystemSpec", ...]


@dataclass(frozen=True)
class SnapshotSpec:
    """A symbolic system serialized as a BDD manager snapshot.

    ``snapshot`` is the byte string from
    :meth:`repro.bdd.manager.BDD.snapshot`; node ids are stable across
    snapshot/restore, so ``transition`` and ``partitions`` refer into
    the restored manager directly.  The flat-array wire format makes
    this cheap enough to pickle across the pool boundary.  A compiled
    system ships its ``partitions`` and no relation (its product is
    never built to be sent); ``stutter`` marks a relation that is their
    conjunction plus the stutter step, and the worker derives everything
    else an image needs from the partition BDDs themselves.  Any other
    system ships its ``transition`` alone.
    """

    snapshot: bytes
    atoms: tuple[str, ...]
    transition: int | None = None
    partitions: tuple[int, ...] = ()
    stutter: bool = False


SystemSpec = Union[SmvSpec, ExplicitSpec, ComposeSpec, SnapshotSpec]


@dataclass(frozen=True)
class WorkItem:
    """One obligation: check ``formula`` under ``restriction`` on a system.

    ``expand_to`` lists atoms of the composite alphabet outside the
    component's own; the worker expands the system over them before
    checking (the identity-component composition of Lemma 5), exactly as
    the sequential proof engine does.
    """

    system: SystemSpec
    formula: Formula
    restriction: Restriction = UNRESTRICTED
    engine: Literal["explicit", "symbolic"] = "symbolic"
    expand_to: tuple[str, ...] = ()
    #: Record worker-side spans and ship them back for trace stitching.
    record_spans: bool = False
    #: Free-form label carried through to the outcome (e.g. component name).
    label: str = ""
    #: Request trace identity (``TraceContext.trace_id``): the worker
    #: stamps it on every span it records, so grafted worker spans share
    #: the submitting request's trace instead of pid-only tags.
    trace_id: str = ""
    #: Routing key for live progress events: when non-empty, the worker
    #: activates :data:`~repro.obs.progress.PROGRESS` for this item and
    #: every event is tagged with the key so the parent-side drainer
    #: (:mod:`repro.parallel.pool`) can deliver it to the right
    #: subscriber.  Empty (the default) emits nothing.
    progress_key: str = ""
    #: Obligation name stamped on this item's progress events
    #: (e.g. ``c0.spec1``); falls back to ``label`` when empty.
    progress_obligation: str = ""
    #: Minimum seconds between heartbeat ticks for this item.
    progress_interval: float = 0.05
    #: Content address of this obligation
    #: (:func:`repro.store.fingerprint.obligation_fingerprint`).  When
    #: non-empty, :meth:`ObligationScheduler.run_cached` probes the
    #: result store before submitting the item to the pool and writes
    #: the outcome back on a miss.  Empty items always execute.
    fingerprint: str = ""
    #: :func:`repro.checking.result.bound_text` of ``formula`` and
    #: ``restriction`` when the caller rendered it for the fingerprint;
    #: ``run_cached`` binds a stored record to it (and renders it
    #: itself when ``None``).
    text: dict | None = field(default=None, compare=False)


@dataclass
class WorkOutcome:
    """What a worker sends back for one :class:`WorkItem`.

    ``result.stats`` carries the per-check :class:`CheckStats`; ``bdd``
    is the worker manager's :class:`~repro.bdd.stats.BDDStats` delta for
    the item (``None`` for the explicit engine), already flattened into
    plain dicts so the parent can feed it to a
    :class:`~repro.obs.metrics.MetricsRegistry` without importing
    engine classes.  ``spans`` uses the JSONL record layout of
    :func:`repro.obs.export.to_jsonl_records`; ``wall_origin`` is the
    worker wall-clock time of the earliest span so the parent can rebase
    them onto its own clock (:func:`repro.obs.merge.graft_records`).
    """

    result: object  # CheckResult; typed loosely to stay import-light
    label: str = ""
    pid: int = 0
    #: True when the worker served the checker from its spec cache.
    cached: bool = False
    compile_seconds: float = 0.0
    check_seconds: float = 0.0
    bdd: dict | None = None
    spans: list[dict] = field(default_factory=list)
    wall_origin: float = 0.0
    #: True when the outcome was replayed from the result store without
    #: entering the pool (:meth:`ObligationScheduler.run_cached`);
    #: ``pid`` is then the parent's and timings are zero.
    store_cached: bool = False
    #: The item's obligation fingerprint, echoed back for ledgers.
    fingerprint: str = ""


# ----------------------------------------------------------------------
# deriving specs from in-memory components
# ----------------------------------------------------------------------
def spec_of_component(system) -> SystemSpec:
    """The picklable spec that rebuilds ``system`` in a worker process.

    Explicit :class:`~repro.systems.system.System` components serialize
    canonically (sorted atoms, sorted edges).  Symbolic components
    serialize as SMV source when it is attached (``smv_source``) —
    recompiling in the worker is the cheapest and most cacheable form —
    and otherwise as a :class:`SnapshotSpec` carrying the manager's
    flat-array snapshot and the relation's node ids.
    """
    from repro.systems.symbolic import SymbolicSystem
    from repro.systems.system import System

    if isinstance(system, System):
        edges = tuple(
            sorted(
                (tuple(sorted(s)), tuple(sorted(t)))
                for s, t in system.edges
            )
        )
        return ExplicitSpec(
            atoms=tuple(sorted(system.sigma)),
            edges=edges,
            reflexive=system.reflexive,
        )
    if isinstance(system, SymbolicSystem):
        source = getattr(system, "smv_source", None)
        if source is not None:
            return SmvSpec(
                source=source,
                reflexive=bool(getattr(system, "smv_reflexive", True)),
            )
        # only a compiled system's one group moves all of Σ: it ships as
        # its partitions, its product never built; a composite view (or
        # a system without groups) ships its materialised relation alone
        if [moved for moved, _ in system.groups] == [set(system.atoms)]:
            relation = {
                "partitions": tuple(system.partitions),
                "stutter": system.stutter,
            }
        else:
            relation = {"transition": system.transition}  # before the snapshot
        return SnapshotSpec(
            snapshot=system.bdd.snapshot(), atoms=tuple(system.atoms), **relation
        )
    raise ParallelError(f"cannot derive a work spec for {type(system).__name__}")
