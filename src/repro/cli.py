"""Command-line interface: check, simulate, and render SMV models.

Usage::

    python -m repro check model.smv            # SMV-style spec report
    python -m repro check model.smv --explicit # use the NumPy engine
    python -m repro check model.smv --trace out.json --profile
    python -m repro check model.smv --jobs 4    # parallel spec checking
    python -m repro check model.smv --cache .repro-cache  # result store
    python -m repro check model.smv --json     # machine-readable report
    python -m repro serve --port 8123 --jobs 4 --cache-dir .repro-cache
    python -m repro serve --log-file serve.jsonl --log-level debug
    python -m repro serve --port 8124 --cache-dir a.cache \\
        --ring 127.0.0.1:8124,127.0.0.1:8125   # one shard of a cluster
    python -m repro cluster router --ring 127.0.0.1:8124,127.0.0.1:8125
    python -m repro cluster status --ring 127.0.0.1:8124,127.0.0.1:8125
    python -m repro submit model.smv --url http://localhost:8123
    python -m repro obs tail serve.jsonl -n 50   # render the event log
    python -m repro obs summary serve.jsonl      # counts + latency stats
    python -m repro demo afs2-safety --jobs 2   # parallel proof obligations
    python -m repro demo afs2-safety --cache .repro-cache  # incremental proof
    python -m repro store stats .repro-cache   # store inventory + counters
    python -m repro store gc .repro-cache --max-bytes 1000000
    python -m repro store clear .repro-cache
    python -m repro simulate model.smv -n 12   # random run
    python -m repro graph model.smv            # DOT transition graph
    python -m repro reachable model.smv        # forward reachability stats

Exit status is 0 when every SPEC holds, 1 otherwise (like SMV).

``--trace FILE`` captures a span trace of the whole run and writes it in
Chrome trace-event format (load in ``chrome://tracing`` / Perfetto) or,
with ``--trace-format jsonl``, as one JSON span record per line.
``--profile`` prints the span tree and an inclusive/exclusive time table
after the report (see :mod:`repro.obs`).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.checking.reachability import check_invariant_symbolic
from repro.smv.compile_explicit import to_system
from repro.smv.compile_symbolic import to_symbolic
from repro.smv.run import load_model
from repro.smv.simulate import format_trace, simulate
from repro.systems.graph import decoded_graph, to_dot


def _run_observed(args: argparse.Namespace, run) -> int:
    """Run ``run()`` under the tracer when --trace/--profile ask for it."""
    trace_path = getattr(args, "trace", None)
    profile = getattr(args, "profile", False)
    if not trace_path and not profile:
        return run()
    from repro.obs import tracing
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.profile import format_profile

    with tracing() as tracer:
        code = run()
    if trace_path:
        if getattr(args, "trace_format", "chrome") == "jsonl":
            write_jsonl(trace_path, tracer)
        else:
            write_chrome_trace(trace_path, tracer)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if profile:
        print()
        print(format_profile(tracer))
    return code


def _add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="fan independent check obligations out over N worker "
        "processes (repro.parallel); N <= 1 keeps the sequential "
        "in-process path",
    )


def _add_observability_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a span trace of the run (chrome://tracing-loadable "
        "by default)",
    )
    parser.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="trace file format: Chrome trace events (default) or one "
        "JSON span record per line",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the span tree and per-span-name inclusive/exclusive "
        "time table after the report",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    source = Path(args.file).read_text()
    return _run_observed(args, lambda: _check(args, source))


def _check(args: argparse.Namespace, source: str) -> int:
    """Every ``repro check`` runs through :func:`~repro.store.cached.cached_check`.

    The store is consulted only with ``--cache`` and the worker pool
    only with ``--jobs N`` (N > 1).  The cache summary goes to stderr so
    cached and uncached stdout stay comparable, and ``--json`` emits
    the same report payload the serving layer returns
    (:mod:`repro.serve.schema`).
    """
    from repro.serve.schema import report_payload
    from repro.store import ResultStore
    from repro.store.cached import cached_check

    store = ResultStore(args.cache) if args.cache else None
    scheduler = None
    if args.jobs and args.jobs > 1:
        from repro.parallel import shared_scheduler

        scheduler = shared_scheduler(args.jobs)
    progress = None
    progress_key = ""
    if args.progress:
        import uuid

        from repro.obs.progress import ProgressConfig, ProgressPrinter

        printer = ProgressPrinter(sys.stderr)
        progress_key = uuid.uuid4().hex[:12]
        if scheduler is not None:
            scheduler.subscribe_progress(progress_key, printer)
        progress = ProgressConfig(publish=printer, key=progress_key)
    try:
        run = cached_check(
            source,
            engine="explicit" if args.explicit else "symbolic",
            reflexive=args.reflexive,
            store=store,
            scheduler=scheduler,
            progress=progress,
        )
    finally:
        if progress is not None and scheduler is not None:
            scheduler.unsubscribe_progress(progress_key)
    if args.json:
        print(
            json.dumps(
                report_payload(run, with_cache=store is not None), indent=2
            )
        )
    else:
        text = run.format(with_stats=args.stats)
        if text:
            print(text)
    if store is not None:
        print(
            f"result store: {run.hits} hit(s), {run.misses} miss(es)",
            file=sys.stderr,
        )
        try:
            store.flush_counters()  # keep `repro store stats` lifetime-true
        except OSError:
            pass
    return 0 if run.all_true else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    model = load_model(Path(args.file).read_text())
    trace = simulate(model, steps=args.steps, seed=args.seed)
    print(format_trace(trace))
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    model = load_model(Path(args.file).read_text())
    system = to_system(model, reflexive=False)
    if args.decoded:
        graph = decoded_graph(system, model.encoding)
        lines = ["digraph protocol {"]
        for a, b in graph.edges:
            fmt = lambda n: ",".join(f"{k}={v}" for k, v in n)
            lines.append(f'  "{fmt(a)}" -> "{fmt(b)}";')
        lines.append("}")
        print("\n".join(lines))
    else:
        print(to_dot(system))
    return 0


def _cmd_reachable(args: argparse.Namespace) -> int:
    model = load_model(Path(args.file).read_text())
    system = to_symbolic(model)
    report = check_invariant_symbolic(
        system, model.initial_formula(), model.valid_formula()
    )
    print(f"atoms:            {len(system.atoms)}")
    print(f"total states:     {report.num_total:.0f}")
    print(f"reachable states: {report.num_reachable:.0f} "
          f"({100 * report.fraction_reachable:.1f}%)")
    print(f"diameter (image iterations): {report.iterations}")
    return 0


_DEMOS = {
    "afs1-safety": "the paper's (Afs1): AG client-valid ⇒ server-valid",
    "afs1-liveness": "the paper's (Afs2): AF client-valid",
    "afs2-safety": "AFS-2 with callbacks/failures, 2 clients",
    "mutex": "token-ring mutual exclusion, 3 processes",
    "2pc-atomicity": "two-phase commit atomicity, 2 participants",
    "2pc-termination": "two-phase commit termination, 2 participants",
}


def _mutex_demo(jobs: int | None = None, store=None):
    from repro.casestudies.mutex import TokenRing
    from repro.systems.encode import Encoding, FiniteVar

    ring = TokenRing(3)
    pf, conclusion = ring.prove_safety(jobs=jobs, store=store)
    encoding = Encoding(
        list(ring.encoding.variables)
        + [FiniteVar(f"c{i}", (False, True)) for i in range(3)]
    )
    return pf, conclusion, encoding


def _cmd_demo(args: argparse.Namespace) -> int:
    return _run_observed(args, lambda: _demo_body(args))


def _demo_body(args: argparse.Namespace) -> int:
    from repro.casestudies.afs1 import Afs1
    from repro.casestudies.afs2 import Afs2
    from repro.casestudies.mutex import TokenRing
    from repro.casestudies.twophase import TwoPhaseCommit

    jobs = getattr(args, "jobs", None)
    store = None
    if getattr(args, "cache", None):
        from repro.store import ResultStore

        store = ResultStore(args.cache)

    def with_encoding(study, prove):
        pf, conclusion = prove(study)
        return pf, conclusion, study.combined_encoding()

    runners = {
        "afs1-safety": lambda: with_encoding(
            Afs1(jobs=jobs, store=store), lambda s: s.prove_safety()
        ),
        "afs1-liveness": lambda: with_encoding(
            Afs1(jobs=jobs, store=store), lambda s: s.prove_liveness()
        ),
        "afs2-safety": lambda: with_encoding(
            Afs2(2, jobs=jobs, store=store), lambda s: s.prove_safety()
        ),
        "mutex": lambda: _mutex_demo(jobs=jobs, store=store),
        "2pc-atomicity": lambda: with_encoding(
            TwoPhaseCommit(2, jobs=jobs, store=store),
            lambda s: s.prove_atomicity(),
        ),
        "2pc-termination": lambda: with_encoding(
            TwoPhaseCommit(2, jobs=jobs, store=store),
            lambda s: s.prove_termination(),
        ),
    }
    pf, conclusion, encoding = runners[args.name]()
    if store is not None:
        ledger = pf.cache_ledger()
        if ledger is not None:
            print(
                f"result store: {ledger['hits']} hit(s), "
                f"{ledger['misses']} miss(es)",
                file=sys.stderr,
            )
        pf.seal_cache({"demo": args.name})
    obligations = {
        id(o) for s in pf.log for leaf in s.leaves() for o in leaf.obligations
    }
    print(f"demo: {args.name} — {_DEMOS[args.name]}")
    print()
    print(f"components: {', '.join(sorted(pf.components))}")
    print(f"composite alphabet: {len(pf.sigma_star)} atomic propositions")
    print(f"proof steps: {len(pf.log)}; model-checking obligations: "
          f"{len(obligations)}")
    print()
    print("final conclusion (decoded):")
    restriction = conclusion.restriction
    if not restriction.is_trivial:
        print(f"  from initial states: {encoding.describe(restriction.init)}")
        fair = [f for f in restriction.fairness]
        from repro.logic.ctl import TRUE as F_TRUE

        real_fair = [f for f in fair if f != F_TRUE]
        if real_fair:
            print(f"  under {len(real_fair)} fairness constraint(s), e.g.:")
            print(f"    {encoding.describe(real_fair[0])}")
    print(f"{encoding.describe(conclusion.formula)}")
    if args.verify:
        failures = [p for p, c in pf.verify_monolithic() if not c]
        print(
            f"\nmonolithic cross-check: {len(pf.conclusions)} conclusions, "
            f"{len(failures)} failures"
        )
        return 1 if failures else 0
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.store import ResultStore

    store = ResultStore(args.dir)
    if args.action == "stats":
        info = store.stats()
        if args.json:
            print(json.dumps(info, indent=2, sort_keys=True))
            return 0
        print(f"result store: {info['root']}")
        print(f"records: {info['records']} ({info['total_bytes']} bytes, "
              f"cap {info['max_bytes']})")
        kinds = info["records_by_kind"]
        if kinds:
            listing = ", ".join(f"{k}: {v}" for k, v in sorted(kinds.items()))
            print(f"  by kind: {listing}")
        counters = info["counters"]
        if counters:
            print("lifetime counters:")
            for key in sorted(counters):
                print(f"  {key}: {counters[key]}")
        return 0
    if args.action == "gc":
        evicted = store.gc(args.max_bytes)
        print(f"evicted {evicted} record(s); {len(store)} remain "
              f"({store.total_bytes()} bytes)")
        return 0
    removed = store.clear()
    store.flush_counters()
    print(f"removed {removed} record(s)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.log import configure_log
    from repro.obs.metrics import MetricsRegistry
    from repro.serve.http import create_server, serve_forever
    from repro.serve.jobs import JobManager
    from repro.store import ResultStore

    if args.log_file:
        configure_log(
            args.log_file,
            level=args.log_level,
            max_bytes=args.log_max_bytes,
        )
    metrics = MetricsRegistry()
    ring_config = None
    if args.ring:
        from repro.cluster.ring import RingConfig

        if not args.cache_dir:
            print(
                "repro: --ring needs --cache-dir (peer store fetch "
                "requires a local store)",
                file=sys.stderr,
            )
            return 2
        advertise = args.advertise or f"http://{args.host}:{args.port}"
        ring_config = RingConfig.parse(args.ring, self_url=advertise)
    if ring_config is not None:
        from repro.cluster.peers import PeerAwareStore

        store = PeerAwareStore(
            args.cache_dir,
            ring_config,
            metrics=metrics,
            timeout=args.peer_timeout,
        )
    elif args.cache_dir:
        store = ResultStore(args.cache_dir, metrics=metrics)
    else:
        store = None
    manager = JobManager(
        jobs=args.jobs,
        queue_size=args.queue_size,
        store=store,
        default_timeout=args.timeout,
        metrics=metrics,
        progress_interval=args.progress_interval,
        stall_deadline=args.stall_deadline,
        shard_id=ring_config.self_id or "" if ring_config else "",
    )
    server = create_server(args.host, args.port, manager=manager)
    where = f"http://{args.host}:{server.port}"
    cache = f", cache {args.cache_dir}" if args.cache_dir else ""
    log = f", log {args.log_file}" if args.log_file else ""
    ring = (
        f", ring {len(ring_config.shard_ids)} shard(s) as "
        f"{ring_config.self_id}"
        if ring_config
        else ""
    )
    print(
        f"repro serve: listening on {where} "
        f"({args.jobs} worker(s), queue {args.queue_size}{cache}{log}{ring})",
        file=sys.stderr,
    )
    serve_forever(server)
    print("repro serve: drained and stopped", file=sys.stderr)
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """``repro cluster router|status``: the shard-aware serving tier.

    ``router`` runs the cluster front end: the existing ``/v1/check``
    API, with each check routed to its owner shard on the consistent-
    hash ring and the results fanned back into one job document.
    ``status`` probes every ring member (``/healthz`` + a federated
    ``/v1/metrics`` scrape) and renders a live per-shard table — health,
    queue depth, store hit rate, breaker state, stalled obligations,
    ring ownership share — once, repeatedly with ``--watch``, or as
    the full JSON document with ``--json``.
    """
    from repro.cluster.ring import RingConfig

    config = RingConfig.parse(args.ring)
    if args.action == "router":
        from repro.cluster.router import RouterManager, create_router
        from repro.serve.http import serve_forever

        manager = RouterManager(config, timeout=args.peer_timeout)
        server = create_router(
            args.host, args.port, config=config, manager=manager
        )
        print(
            f"repro cluster router: listening on "
            f"http://{args.host}:{server.port} over "
            f"{len(config.shard_ids)} shard(s): "
            f"{', '.join(config.shard_ids)}",
            file=sys.stderr,
        )
        serve_forever(server)
        print("repro cluster router: stopped", file=sys.stderr)
        return 0
    # status: health probes + a federated metrics scrape, rendered live
    from repro.cluster.router import RouterManager

    manager = RouterManager(config, timeout=args.peer_timeout)
    while True:
        doc = manager.cluster_status()
        healthy = sum(
            1 for member in doc["members"].values() if member["reachable"]
        )
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            if args.watch:
                print("\x1b[H\x1b[2J", end="")  # home + clear
            print(_render_cluster_status(doc, healthy))
        if not args.watch:
            return 0 if healthy == len(doc["members"]) else 1
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _render_cluster_status(doc: dict, healthy: int) -> str:
    """The ``repro cluster status`` table for one probe round."""

    def pct(value, digits: int = 1) -> str:
        return "-" if value is None else f"{100 * value:.{digits}f}%"

    lines = [
        f"cluster: {len(doc['ring']['members'])} member(s), "
        f"{doc['ring']['vnodes']} vnodes",
        f"  {'shard':<24} {'health':<8} {'breaker':<9} "
        f"{'queue':>5} {'run':>4} {'hit':>7} {'stall':>5} "
        f"{'peers':>5} {'share':>7}",
    ]
    for shard, member in doc["members"].items():
        if not member["reachable"]:
            lines.append(
                f"  {shard:<24} {'DOWN':<8} {member['breaker']:<9} "
                f"{'-':>5} {'-':>4} {'-':>7} {'-':>5} {'-':>5} "
                f"{pct(member['ring_share']):>7}  ({member['status']})"
            )
            continue
        peers = member.get("peer_breakers") or {}
        open_peers = member.get("open_breakers", 0)
        peer_mark = "-" if not peers else (
            "ok" if not open_peers else f"{open_peers}!"
        )
        lines.append(
            f"  {shard:<24} {member['status']:<8} {member['breaker']:<9} "
            f"{member.get('queued', 0):>5} {member.get('running', 0):>4} "
            f"{pct(member.get('hit_rate')):>7} "
            f"{member.get('stalled_obligations', 0):>5} "
            f"{peer_mark:>5} {pct(member['ring_share']):>7}"
        )
    totals = doc.get("totals") or {}
    if totals:
        hits = totals.get("store_hits", 0)
        lookups = hits + totals.get("store_misses", 0)
        lines.append(
            f"totals: jobs {totals.get('serve_jobs_submitted', 0):g} "
            f"({totals.get('serve_jobs_completed', 0):g} done)  "
            f"checks {totals.get('serve_checks_submitted', 0):g}  "
            f"store {pct(hits / lookups if lookups else None)} hit  "
            f"stalled {totals.get('stalled_obligations', 0):g}"
        )
    scrape_errors = doc.get("scrape_errors") or {}
    if scrape_errors:
        lines.append(
            "scrape errors: "
            + "; ".join(f"{s}: {e}" for s, e in scrape_errors.items())
        )
    lines.append(f"{healthy}/{len(doc['members'])} shard(s) healthy")
    return "\n".join(lines)


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.log import format_event, read_events

    events = read_events(args.log)
    if args.level:
        from repro.obs.log import LEVELS

        threshold = LEVELS[args.level]
        events = [
            e for e in events if LEVELS.get(e.get("level", "info"), 20) >= threshold
        ]
    if args.trace_id:
        events = [e for e in events if e.get("trace_id") == args.trace_id]
    if args.action == "tail":
        for record in events[-args.lines :]:
            print(format_event(record))
        return 0
    # summary: per-event counts plus latency aggregates from job.done
    counts: dict[str, int] = {}
    errors = 0
    totals: list[float] = []
    for record in events:
        name = record.get("event", "?")
        counts[name] = counts.get(name, 0) + 1
        if record.get("level") == "error":
            errors += 1
        if name == "job.done" and "total_seconds" in record:
            totals.append(float(record["total_seconds"]))
    print(f"events: {len(events)} ({errors} error(s))")
    for name in sorted(counts):
        print(f"  {name:<18} {counts[name]}")
    if totals:
        totals.sort()
        mean = sum(totals) / len(totals)
        p50 = totals[len(totals) // 2]
        p90 = totals[min(len(totals) - 1, int(len(totals) * 0.9))]
        print(
            f"job.done latency: n={len(totals)} mean={mean:.4f}s "
            f"p50={p50:.4f}s p90={p90:.4f}s max={totals[-1]:.4f}s"
        )
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.serve.client import ServeClient, ServeClientError
    from repro.serve.schema import format_payload

    checks = [
        {
            "source": Path(name).read_text(),
            "engine": "explicit" if args.explicit else "symbolic",
            "reflexive": args.reflexive,
            "label": name,
        }
        for name in args.files
    ]
    client = ServeClient(args.url)
    try:
        if args.progress:
            from repro.obs.progress import ProgressPrinter

            accepted = client.submit(checks, timeout=args.timeout)
            printer = ProgressPrinter(sys.stderr)
            try:
                for event in client.iter_events(accepted["id"]):
                    printer(event)
            except ServeClientError as exc:
                if exc.status != 404:  # progress disabled server-side
                    raise
            job = client.wait(accepted["id"], timeout=args.wait)
        else:
            job = client.check(
                checks, timeout=args.timeout, wait_timeout=args.wait
            )
    except ServeClientError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    if job["state"] != "done":
        print(
            f"repro: job {job['id']} {job['state']}: {job.get('error')}",
            file=sys.stderr,
        )
        return 2
    if args.json:
        print(json.dumps(job, indent=2))
    else:
        for i, report in enumerate(job["reports"]):
            if i:
                print()
            if len(job["reports"]) > 1:
                print(f"== {report.get('label') or f'check {i + 1}'} ==")
            print(format_payload(report, with_stats=args.stats))
    return 0 if all(r["all_true"] for r in job["reports"]) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compositional CTL model checking (Andrade & Sanders 2002)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="model-check every SPEC of a module")
    check.add_argument("file")
    check.add_argument(
        "--reflexive",
        action="store_true",
        help="stutter-close the relation (paper-style component semantics)",
    )
    check.add_argument(
        "--explicit",
        action="store_true",
        help="use the explicit-state engine instead of BDDs",
    )
    check.add_argument(
        "--stats",
        action="store_true",
        help="print the extended resources block (cache hit rates, "
        "peak unique-table size, fixpoint iterations)",
    )
    check.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="consult/populate a content-addressed result store; "
        "verdicts already recorded are replayed without re-checking",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable report payload (the same "
        "schema the serving layer returns) instead of the text report",
    )
    check.add_argument(
        "--progress",
        action="store_true",
        help="render live per-obligation progress (fixpoint heartbeats, "
        "cache hits, verdicts) to stderr while checking",
    )
    _add_jobs_flag(check)
    _add_observability_flags(check)
    check.set_defaults(func=_cmd_check)

    sim = sub.add_parser("simulate", help="print a random run of the model")
    sim.add_argument("file")
    sim.add_argument("-n", "--steps", type=int, default=10)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=_cmd_simulate)

    graph = sub.add_parser("graph", help="emit the transition graph as DOT")
    graph.add_argument("file")
    graph.add_argument(
        "--decoded",
        action="store_true",
        help="label nodes with variable assignments instead of raw atoms",
    )
    graph.set_defaults(func=_cmd_graph)

    reach = sub.add_parser(
        "reachable", help="forward-reachability statistics of the model"
    )
    reach.add_argument("file")
    reach.set_defaults(func=_cmd_reachable)

    demo = sub.add_parser(
        "demo", help="run one of the built-in compositional proofs"
    )
    demo.add_argument("name", choices=sorted(_DEMOS))
    demo.add_argument(
        "--verify",
        action="store_true",
        help="re-check every conclusion on the monolithic product system",
    )
    demo.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="consult/populate a content-addressed result store; proof "
        "obligations already recorded are replayed without re-checking",
    )
    _add_jobs_flag(demo)
    _add_observability_flags(demo)
    demo.set_defaults(func=_cmd_demo)

    store = sub.add_parser(
        "store", help="inspect or maintain a content-addressed result store"
    )
    store.add_argument("action", choices=("stats", "gc", "clear"))
    store.add_argument("dir", metavar="DIR", help="store root directory")
    store.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="for gc: evict oldest records until the store fits in N "
        "bytes (defaults to the store's built-in cap)",
    )
    store.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable JSON instead of the text summary",
    )
    store.set_defaults(func=_cmd_store)

    serve = sub.add_parser(
        "serve", help="run the batch model-checking HTTP service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=8123,
        help="TCP port to listen on (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=2,
        metavar="N",
        help="worker processes behind the job queue",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="back the service with a result store at DIR (repeat "
        "submissions are served from disk)",
    )
    serve.add_argument(
        "--queue-size",
        type=int,
        default=16,
        help="bounded job queue depth; beyond it POST /v1/check "
        "returns 429",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=300.0,
        help="default per-job deadline in seconds",
    )
    serve.add_argument(
        "--log-file",
        metavar="FILE",
        default=None,
        help="append structured JSONL events (submissions, lifecycle, "
        "timings) to FILE; read it back with 'repro obs tail'",
    )
    serve.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="minimum event level written to --log-file",
    )
    serve.add_argument(
        "--progress-interval",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="minimum seconds between heartbeat ticks from inside a "
        "fixpoint (throttles per-iteration progress events)",
    )
    serve.add_argument(
        "--stall-deadline",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="flag a running obligation as stalled after this long "
        "without a heartbeat (0 disables the watchdog)",
    )
    serve.add_argument(
        "--log-max-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="rotate --log-file to <file>.1 when it would exceed "
        "BYTES (keeps at most two generations on disk)",
    )
    serve.add_argument(
        "--ring",
        metavar="URLS",
        default=None,
        help="serve as one shard of a cluster: comma-separated base "
        "URLs of every member (this instance included); on a local "
        "store miss the fingerprint's owner shard is probed before "
        "checking (requires --cache-dir)",
    )
    serve.add_argument(
        "--advertise",
        metavar="URL",
        default=None,
        help="this instance's own URL within --ring (defaults to "
        "http://<host>:<port>)",
    )
    serve.add_argument(
        "--peer-timeout",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-peer socket timeout for cluster store fetches",
    )
    serve.set_defaults(func=_cmd_serve)

    cluster = sub.add_parser(
        "cluster",
        help="run or inspect the shard-aware serving tier "
        "(consistent-hash cluster of repro serve instances)",
    )
    cluster.add_argument("action", choices=("router", "status"))
    cluster.add_argument(
        "--ring",
        metavar="URLS",
        required=True,
        help="comma-separated base URLs of every cluster member",
    )
    cluster.add_argument("--host", default="127.0.0.1")
    cluster.add_argument(
        "--port",
        type=int,
        default=8200,
        help="router listen port (0 binds an ephemeral port)",
    )
    cluster.add_argument(
        "--peer-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="per-shard request timeout (submit, poll, health probe)",
    )
    cluster.add_argument(
        "--json",
        action="store_true",
        help="for status: print the full JSON status document",
    )
    cluster.add_argument(
        "--watch",
        action="store_true",
        help="for status: refresh the table until interrupted",
    )
    cluster.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period for --watch",
    )
    cluster.set_defaults(func=_cmd_cluster)

    obs = sub.add_parser(
        "obs", help="inspect a structured event log written by repro serve"
    )
    obs.add_argument("action", choices=("tail", "summary"))
    obs.add_argument("log", help="JSONL event log file (--log-file)")
    obs.add_argument(
        "-n",
        "--lines",
        type=int,
        default=20,
        help="events to show with 'tail' (from the end)",
    )
    obs.add_argument(
        "--level",
        choices=("debug", "info", "warning", "error"),
        default=None,
        help="only events at or above this level",
    )
    obs.add_argument(
        "--trace-id",
        default=None,
        help="only events of one request trace",
    )
    obs.set_defaults(func=_cmd_obs)

    submit = sub.add_parser(
        "submit", help="submit SMV files to a running repro serve"
    )
    submit.add_argument("files", nargs="+")
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8123",
        help="base URL of the service",
    )
    submit.add_argument(
        "--reflexive",
        action="store_true",
        help="stutter-close the relation (paper-style component semantics)",
    )
    submit.add_argument(
        "--explicit",
        action="store_true",
        help="use the explicit-state engine instead of BDDs",
    )
    submit.add_argument(
        "--stats",
        action="store_true",
        help="append the BDD cache line to each rendered report",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw job document instead of rendered reports",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="server-side deadline for this job in seconds",
    )
    submit.add_argument(
        "--wait",
        type=float,
        default=120.0,
        help="client-side seconds to wait for the job to finish",
    )
    submit.add_argument(
        "--progress",
        action="store_true",
        help="stream the job's live progress events "
        "(GET /v1/jobs/<id>/events) to stderr while waiting",
    )
    submit.set_defaults(func=_cmd_submit)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # output was piped into a consumer that closed early (e.g. head)
        return 0
    except OSError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # parse/elaboration/check errors
        from repro.errors import ReproError

        if isinstance(exc, ReproError):
            print(f"repro: {exc}", file=sys.stderr)
            return 2
        raise


if __name__ == "__main__":
    sys.exit(main())
