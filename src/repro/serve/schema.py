"""The machine-readable check-report schema.

One JSON shape serves every consumer: ``repro check --json`` prints it,
the server's job results embed it (one payload per submitted check),
and ``repro submit`` renders it back to the familiar SMV-style text.
The payload is deterministic given the store contents — a warm-cache
run reproduces the cold run's payload byte-for-byte (see
:mod:`repro.store.cached`).

Schema (``repro.check-report/1``)::

    {
      "schema": "repro.check-report/1",
      "module": "main",
      "engine": "symbolic",              # or "explicit"
      "reflexive": false,
      "all_true": true,
      "user_time": 0.0123,               # seconds
      "specs": [
        {
          "spec": "x -> AX x",           # source-syntax text
          "holds": true,
          "cached": false,               # served from the result store?
          "fingerprint": "sha256-hex",   # content address of this check
          "num_failing": 0,
          "counterexample": null,        # decoded trace for failed specs
          "stats": { ... }               # CheckStats.to_dict()
        }, ...
      ],
      "resources": {
        "bdd_nodes_allocated": 8,
        "transition_nodes": 0,
        "num_fairness": 0
      },
      "cache": {"hits": 0, "misses": 2}  # null when no store was used
    }

The serving layer wraps these payloads in a *job document* (one payload
per submitted check under ``"reports"``) that additionally carries the
request's ``trace_id`` and the per-stage ``timings`` block filled by the
job executor — see :class:`repro.serve.jobs.Job`.  The payload itself
stays trace-free on purpose: it must be byte-identical between the cold
run and a warm cache replay, and a per-request trace id would break
that.
"""

from __future__ import annotations

__all__ = ["REPORT_SCHEMA", "report_payload", "format_payload"]

REPORT_SCHEMA = "repro.check-report/1"


def report_payload(run, with_cache: bool = True) -> dict:
    """The JSON report payload of a :class:`~repro.store.cached.CachedRun`.

    ``with_cache=False`` nulls the ``cache`` block (used when no store
    was consulted, so hit/miss counts would be meaningless).
    """
    specs = []
    for i, result in enumerate(run.results):
        specs.append(
            {
                "spec": run.spec_texts[i],
                "holds": result.holds,
                "cached": run.cached_flags[i],
                "fingerprint": run.fingerprints[i],
                "num_failing": result.num_failing,
                "counterexample": run.counterexamples[i],
                "stats": result.stats.to_dict(),
            }
        )
    return {
        "schema": REPORT_SCHEMA,
        "module": run.module_name,
        "engine": run.engine,
        "reflexive": run.reflexive,
        "all_true": run.all_true,
        "user_time": run.user_time,
        "specs": specs,
        "resources": {
            "bdd_nodes_allocated": run.bdd_nodes_allocated,
            "transition_nodes": run.transition_nodes,
            "num_fairness": run.num_fairness,
        },
        "cache": {"hits": run.hits, "misses": run.misses}
        if with_cache
        else None,
    }


def format_payload(payload: dict, with_stats: bool = False) -> str:
    """Render a report payload back into the SMV-style console report.

    This is what ``repro submit`` prints: the payload is rebuilt into an
    :class:`~repro.smv.run.SmvReport` and rendered by its ``format``, so
    a round trip through the service reads exactly like a local
    ``repro check``, followed by the ``result store:`` line when the
    payload has a cache block.
    """
    from repro.checking.result import CheckResult, CheckStats
    from repro.logic.ctl import TRUE
    from repro.logic.restriction import UNRESTRICTED
    from repro.smv.run import SmvReport

    specs = payload.get("specs", [])
    resources = payload.get("resources", {})
    report = SmvReport(
        module_name=payload.get("module", ""),
        results=[
            CheckResult(
                formula=TRUE,  # the spec text below is what is printed
                restriction=UNRESTRICTED,
                holds=entry["holds"],
                num_failing=entry.get("num_failing", 0),
                stats=CheckStats.from_dict(entry.get("stats", {})),
            )
            for entry in specs
        ],
        spec_texts=[entry["spec"] for entry in specs],
        counterexamples=[entry.get("counterexample") for entry in specs],
        user_time=payload.get("user_time", 0.0),
        bdd_nodes_allocated=resources.get("bdd_nodes_allocated", 0),
        transition_nodes=resources.get("transition_nodes", 0),
        num_fairness=resources.get("num_fairness", 0),
        engine=payload.get("engine", "symbolic"),
    )
    lines = [report.format(with_stats=with_stats)]
    cache = payload.get("cache")
    if cache is not None:
        lines.append(
            f"result store: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es)"
        )
    return "\n".join(lines)
