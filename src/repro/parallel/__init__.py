"""Parallel proof engine: process-pool scheduling of check obligations.

Compositional proofs decompose a global property into obligations on
individual components (the whole point of the paper); those obligations
are independent, so this package fans them out across worker processes.
Each worker owns its own BDD manager / explicit checker and caches
compiled systems per spec; the parent merges worker statistics into a
:class:`~repro.obs.metrics.MetricsRegistry` and stitches worker span
trees into its own trace, with results always returned in submission
order so parallel runs are observably deterministic.

Entry points:

* ``CompositionProof(..., parallel=N)`` — discharge proof obligations
  through a shared N-worker pool;
* ``repro check --jobs N model.smv SPEC...`` — batch property checks;
* :class:`ObligationScheduler` / :func:`shared_scheduler` — direct use.

Typical direct use::

    from repro.parallel import ObligationScheduler, WorkItem
    from repro.parallel import spec_of_component

    items = [WorkItem(system=spec_of_component(c), formula=f,
                      engine='symbolic') for c in components]
    with ObligationScheduler(jobs=4) as pool:
        results = pool.map_results(items)  # submission order
"""

from repro.parallel.pool import (
    ObligationScheduler,
    default_jobs,
    shared_scheduler,
    shutdown_shared,
)
from repro.parallel.workitem import (
    ComposeSpec,
    ExplicitSpec,
    ParallelError,
    SmvSpec,
    SnapshotSpec,
    WorkItem,
    WorkOutcome,
    spec_of_component,
)
from repro.parallel.worker import clear_worker_caches, run_work_item

__all__ = [
    "ObligationScheduler",
    "shared_scheduler",
    "shutdown_shared",
    "default_jobs",
    "WorkItem",
    "WorkOutcome",
    "SmvSpec",
    "ExplicitSpec",
    "ComposeSpec",
    "SnapshotSpec",
    "ParallelError",
    "spec_of_component",
    "run_work_item",
    "clear_worker_caches",
]
