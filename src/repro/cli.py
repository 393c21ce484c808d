"""Command-line interface for the SITM reproduction.

Usage (after installation)::

    python -m repro.cli generate --scale 0.1 --out detections.csv
    python -m repro.cli stats --scale 1.0
    python -m repro.cli experiments --scale 1.0
    python -m repro.cli validate detections.csv
    python -m repro.cli zones
    python -m repro.cli pipeline run --scale 0.1 --store --mine
    python -m repro.cli pipeline stages
    python -m repro.cli query --visiting zone60853 --or \\
        --annotation goal=visit --limit 10 --explain
    python -m repro.cli serve --scale 0.05 --port 8731
    python -m repro.cli serve --empty --persist-dir ./data
    python -m repro.cli call '{"command": "ListSessions"}'
    python -m repro.cli snapshot --scale 0.05 --out ./data/louvre
    python -m repro.cli restore ./data/louvre
    python -m repro.cli stream replay --scale 0.02 --session live
    python -m repro.cli stream status --session live
    python -m repro.cli synth venue --archetype airport --seed 7
    python -m repro.cli synth crowd --agents 100000 --crowd-seed 42
    python -m repro.cli synth replay --mode stream --rate 5000

Every subcommand is a thin shell over the library API, so scripted
pipelines can do exactly what the CLI does.  ``serve`` and ``call``
are shells over :mod:`repro.service` — the same commands, over HTTP.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

#: Default TCP port of ``repro serve`` / ``repro call``.
DEFAULT_PORT = 8731

from repro.core import TrajectoryBuilder, validate_trajectory
from repro.core.validation import Severity
from repro.experiments import dataset_stats
from repro.experiments.runner import render_report, run_all
from repro.louvre import (
    DatasetParameters,
    LouvreDatasetGenerator,
    LouvreSpace,
)
from repro.louvre.zones import ZONES
from repro.pipeline import (
    Pipeline,
    PipelineError,
    PrefixSpanStage,
    StoreSinkStage,
    UnknownStageError,
    create_stage,
    csv_source,
    louvre_source,
    stage_catalog,
)
from repro.storage.csvio import (
    read_detrecords_csv,
    write_detections_csv,
)

#: Default stage chain of ``pipeline run`` — the builder decomposition.
DEFAULT_STAGES = "clean,segment,trace,annotate"


def _parameters(scale: float) -> DatasetParameters:
    if scale >= 1.0:
        return DatasetParameters()
    return DatasetParameters().scaled(scale)


def cmd_generate(args: argparse.Namespace) -> int:
    """Generate the synthetic corpus and write it as detection CSV."""
    space = LouvreSpace()
    generator = LouvreDatasetGenerator(space, _parameters(args.scale))
    records = generator.detection_records()
    count = write_detections_csv(records, args.out)
    print("wrote {} detection records to {}".format(count, args.out))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Recompute the Section 4.1 statistics and compare to the paper."""
    result = dataset_stats.run(scale=args.scale)
    print(dataset_stats.render(result))
    return 0 if result["all_match"] or args.scale < 1.0 else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run every table/figure reproduction and print the report."""
    results = run_all(scale=args.scale)
    print(render_report(results))
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Validate a detection CSV against the Louvre zone topology."""
    space = LouvreSpace()
    records = read_detrecords_csv(args.path)
    builder = TrajectoryBuilder(space.dataset_zone_nrg())
    trajectories, report = builder.build_all(records)
    nrg = space.dataset_zone_nrg()
    error_total = warning_total = 0
    for trajectory in trajectories:
        for issue in validate_trajectory(trajectory, nrg):
            if issue.severity is Severity.ERROR:
                error_total += 1
            elif issue.severity is Severity.WARNING:
                warning_total += 1
    print("records: {} | visits: {} | dropped zero-duration: {}".format(
        report.cleaning.total, report.trajectories,
        report.cleaning.dropped_zero_duration))
    print("validation: {} errors, {} warnings".format(error_total,
                                                      warning_total))
    return 1 if error_total else 0


def _pipeline_stage_kwargs(name: str, args: argparse.Namespace,
                           builder: TrajectoryBuilder) -> dict:
    """Constructor arguments for a named stage, from CLI options."""
    if name in ("clean", "trace", "annotate"):
        return {"builder": builder}
    if name == "segment":
        return {"builder": builder, "streaming": args.streaming}
    if name == "prefixspan":
        return {"min_support": args.min_support}
    if name == "jsonl-sink":
        return {"path": args.out}
    return {}


def cmd_pipeline_run(args: argparse.Namespace) -> int:
    """Assemble a pipeline from registry names and stream a corpus."""
    space = LouvreSpace()
    builder = TrajectoryBuilder(space.dataset_zone_nrg())
    names = [name.strip() for name in args.stages.split(",")
             if name.strip()]
    if "jsonl-sink" in names and not args.out:
        print("error: stage 'jsonl-sink' needs --out PATH",
              file=sys.stderr)
        return 2
    if args.out and "jsonl-sink" not in names:
        names.append("jsonl-sink")
    if args.store:
        names.append("store")
    if args.mine:
        names.extend(["state-sequences", "prefixspan"])
    try:
        stages = [create_stage(name,
                               **_pipeline_stage_kwargs(name, args,
                                                        builder))
                  for name in names]
    except UnknownStageError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    if args.csv:
        source = csv_source(args.csv)
    else:
        source = louvre_source(space, scale=args.scale)
    cache = None
    if args.cache_dir:
        from repro.persist import DiskStageCache

        cache = DiskStageCache(args.cache_dir)
    try:
        pipeline = Pipeline(stages, batch_size=args.batch_size,
                            workers=args.workers,
                            executor=args.executor,
                            timing=not args.no_timing,
                            cache=cache)
        pipeline.run(source, collect=False)
    except PipelineError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    except (OSError, ValueError) as error:
        # bad --csv path or malformed detection CSV
        print("error: {}".format(error), file=sys.stderr)
        return 1

    if args.json:
        # Machine output: metrics plus the miners' own to_dict forms.
        document = {"pipeline": names,
                    "metrics": pipeline.metrics.as_dict()}
        for stage in stages:
            if isinstance(stage, StoreSinkStage):
                document["stored"] = len(stage.store)
            if isinstance(stage, PrefixSpanStage):
                document["patterns"] = [p.to_dict()
                                        for p in stage.patterns]
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    print("pipeline: {}".format(" -> ".join(names)))
    print("batch size: {} | mode: {} | workers: {}".format(
        args.batch_size, "streaming" if args.streaming else "exact",
        "{} ({})".format(args.workers, args.executor)
        if args.workers > 1 else "serial"))
    print()
    print(pipeline.metrics.render())
    for stage in stages:
        if isinstance(stage, StoreSinkStage):
            print("\nstored trajectories: {}".format(len(stage.store)))
        if isinstance(stage, PrefixSpanStage) and stage.patterns:
            print("\ntop sequential patterns:")
            for pattern in stage.patterns[:8]:
                print("  " + pattern.describe())
    return 0


def cmd_pipeline_stages(args: argparse.Namespace) -> int:
    """List the registered pipeline stages."""
    catalog = stage_catalog()
    width = max(len(name) for name, _ in catalog)
    for name, description in catalog:
        print("{:{width}s}  {}".format(name, description, width=width))
    return 0


class _TermAction(argparse.Action):
    """Collect query predicates in *command-line order*.

    Boolean structure depends on where ``--or`` / ``--not`` appear
    relative to the predicates, so every query option appends an
    ``(option, value)`` pair to one shared ordered list instead of
    its own namespace slot.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        terms = getattr(namespace, "terms", None)
        if terms is None:
            terms = []
            namespace.terms = terms
        terms.append((self.dest, values))


def _parse_query_terms(terms):
    """Ordered (option, value) pairs → an expression tree.

    ``--or`` splits the predicates into disjunct groups; ``--not``
    negates the predicate that follows it.  Each group is an And, the
    groups are Or-ed.

    Raises:
        ValueError: for dangling ``--or``/``--not`` or malformed
            ``--annotation`` values.
    """
    from repro.core.annotations import AnnotationKind
    from repro.storage import expr as E

    groups = [[]]
    negate_next = False
    for option, value in terms:
        if option == "or_sep":
            if negate_next:
                raise ValueError("--not needs a predicate after it")
            if not groups[-1]:
                raise ValueError("--or needs a predicate before it")
            groups.append([])
            continue
        if option == "not_next":
            negate_next = not negate_next  # --not --not cancels
            continue
        if option == "visiting":
            node = E.state(value)
        elif option == "annotation":
            kind_name, sep, ann_value = value.partition("=")
            if not sep or not ann_value:
                raise ValueError(
                    "--annotation wants KIND=VALUE, e.g. goal=visit")
            try:
                kind = AnnotationKind(kind_name)
            except ValueError:
                raise ValueError(
                    "unknown annotation kind {!r}; one of: {}".format(
                        kind_name, ", ".join(
                            k.value for k in AnnotationKind)))
            node = E.annotation(kind, ann_value)
        elif option == "mo":
            node = E.moving_object(value)
        elif option == "between":
            node = E.time_window(float(value[0]), float(value[1]))
        elif option == "min_duration":
            node = E.min_duration(value)
        elif option == "min_entries":
            node = E.min_entries(value)
        elif option == "follows":
            node = E.follows(*[s.strip() for s in value.split(",")
                               if s.strip()])
        else:  # pragma: no cover - guarded by the parser definition
            raise ValueError("unknown query option {!r}".format(option))
        if negate_next:
            node = ~node
            negate_next = False
        groups[-1].append(node)
    if negate_next:
        raise ValueError("--not needs a predicate after it")
    if len(groups) > 1 and not groups[-1]:
        raise ValueError("--or needs a predicate after it")
    disjuncts = [E.And.of(*group) for group in groups if group]
    if not disjuncts:
        return None
    return E.Or.of(*disjuncts)


def _load_workbench(args: argparse.Namespace):
    """The ``--jsonl``, ``--csv`` or ``--scale`` corpus as a
    :class:`~repro.api.Workbench`, or ``None`` after printing why it
    could not be read."""
    from repro.api import Workbench
    from repro.storage.csvio import read_trajectories_jsonl

    try:
        if args.jsonl:
            return Workbench.from_trajectories(
                read_trajectories_jsonl(args.jsonl))
        if args.csv:
            return Workbench.from_csv(args.csv)
        return Workbench.louvre(scale=args.scale)
    except (OSError, ValueError) as error:
        print("error: {}".format(error), file=sys.stderr)
        return None


def cmd_query(args: argparse.Namespace) -> int:
    """Plan and run a declarative query over a corpus."""
    try:
        expression = _parse_query_terms(getattr(args, "terms", []))
    except ValueError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2

    workbench = _load_workbench(args)
    if workbench is None:
        return 1

    query = workbench.query(expression)
    if args.json:
        # Machine output through the service binding, so the CLI
        # emits exactly what the wire protocol serves (one code
        # path, one shape).
        from repro.api import LOCAL_SESSION
        from repro.service import protocol as P

        document = {"corpus": len(workbench.store)}
        if args.explain:
            document["plan"] = query.explain()
        if args.count:
            # Index-only when no residuals remain.
            document["matches"] = query.count()
            print(json.dumps(document, sort_keys=True, indent=2))
            return 0
        page = workbench.binding.call(P.RunQuery(
            session=LOCAL_SESSION,
            query=None if expression is None else query.to_dict(),
            limit=max(1, args.limit), offset=args.offset,
            order_by=args.order_by, descending=args.desc))
        document["matches"] = page.total
        document["hits"] = [] if args.limit < 1 \
            else [hit.to_dict() for hit in page.hits]
        print(json.dumps(document, sort_keys=True, indent=2))
        return 0
    print("corpus: {} trajectories".format(len(workbench.store)))
    if args.explain:
        print("plan:")
        for line in query.explain().splitlines():
            print("  " + line)
    if args.count:
        # Index-only when no residuals remain; never materializes.
        print("matches: {}".format(query.count()))
        return 0

    # Execute exactly once; count and shaping both read this list.
    from repro.storage.results import ORDER_KEYS

    hits = query.execute().to_list()
    print("matches: {}".format(len(hits)))
    if args.order_by:
        hits = sorted(hits, key=ORDER_KEYS[args.order_by],
                      reverse=args.desc)
    hits = hits[args.offset:args.offset + args.limit]
    for hit in hits:
        trajectory = hit.trajectory
        sequence = trajectory.distinct_state_sequence()
        print("#{:<5d} {:12s} {:>7.0f}s  {} states: {}".format(
            hit.doc_id, trajectory.mo_id, trajectory.duration,
            len(sequence), " → ".join(sequence[:6])
            + (" …" if len(sequence) > 6 else "")))
    return 0


def cmd_snapshot(args: argparse.Namespace) -> int:
    """Build a corpus and persist it as a durable session dir."""
    from repro.persist import PersistError

    workbench = _load_workbench(args)
    if workbench is None:
        return 1
    try:
        info = workbench.save(args.out, fsync=not args.no_fsync)
    except PersistError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "path": args.out, "snapshot": info.path,
            "trajectories": info.doc_count,
            "total_bytes": info.total_bytes, "space": info.space,
        }, sort_keys=True, indent=2))
        return 0
    print("snapshot: {} trajectories, {} segment bytes -> {}".format(
        info.doc_count, info.total_bytes, info.path))
    return 0


def cmd_restore(args: argparse.Namespace) -> int:
    """Recover a persisted session dir and summarize (or serve) it."""
    from repro.api import Workbench
    from repro.persist import CorruptSnapshotError, PersistError

    try:
        workbench = Workbench.open(args.path,
                                   verify=not args.no_verify)
    except CorruptSnapshotError as error:
        print("error: corrupt snapshot: {}".format(error),
              file=sys.stderr)
        return 1
    except PersistError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    stats = workbench.summary()
    if args.json:
        print(json.dumps({
            "path": args.path,
            "trajectories": len(workbench.store),
            "space": type(workbench.space).__name__
            if workbench.space is not None else None,
            "summary": stats,
        }, sort_keys=True, indent=2))
    else:
        print("restored: {} trajectories from {}".format(
            len(workbench.store), args.path))
        print("space: {}".format(
            type(workbench.space).__name__
            if workbench.space is not None else "(none)"))
        for key in sorted(stats):
            print("  {}: {}".format(key, stats[key]))
    if not args.serve:
        return 0
    server = workbench.serve(host=args.host, port=args.port)
    print("serving restored corpus as session 'local' on {}".format(
        server.url))
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nbye")
        server.stop()
    return 0


def _write_url_file(path: str, url: str) -> None:
    """Atomically announce a bound server (URL + pid) to watchers."""
    from repro.persist.format import write_atomic

    write_atomic(path, json.dumps({"url": url, "pid": os.getpid()})
                 .encode("utf-8"))


def _serve_engine(args: argparse.Namespace):
    """The command engine behind the server: a plain registry, or a
    shard coordinator when --shards is given.  Returns
    ``(engine, pool)`` — the worker pool (process backend only) must
    be stopped by the caller."""
    if not args.shards:
        from repro.service.registry import SessionRegistry

        # Restore is deferred so the listener binds (and answers
        # health probes, readiness 503) while the corpus loads;
        # cmd_serve calls finish_restore() before announcing.
        return SessionRegistry(persist_dir=args.persist_dir,
                               standby=args.standby,
                               defer_restore=True), None
    from repro.shard.coordinator import ShardCoordinator

    if args.shard_backend == "process":
        from repro.shard.workers import ShardWorkerPool

        pool = ShardWorkerPool(args.shards, root=args.persist_dir,
                               verbose=args.verbose,
                               replicas=args.replicas)
        pool.start()
        return pool.coordinator(), pool
    return ShardCoordinator.local(
        args.shards, persist_dir=args.persist_dir,
        replicas_per_shard=args.replicas), None


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the embedded trajectory server (repro.service)."""
    pool = None
    server = None
    supervisor = None
    try:
        try:
            engine, pool = _serve_engine(args)
        except Exception as error:
            print("error: cannot start shard backends: {}".format(
                error), file=sys.stderr)
            return 1
        # Bind first: a port conflict must fail fast, not after
        # minutes of corpus building.
        try:
            from repro.service.aserver import AsyncServiceServer

            server = AsyncServiceServer(
                engine, host=args.host, port=args.port,
                verbose=args.verbose,
                sync_workers=args.sync_workers,
                max_inflight=args.max_inflight,
                response_cache=not args.no_response_cache)
        except OSError as error:
            print("error: cannot bind {}:{}: {}".format(
                args.host, args.port, error), file=sys.stderr)
            server = None
            return 1
        # Serve from a background thread so liveness answers during
        # the restore and the startup build; GET /v1/ready stays 503
        # until both finish, so a probe gated on readiness never sees
        # a half-built session.  (A --lazy build is polled through
        # JobStatus instead.)
        if not args.empty and not args.lazy:
            server.starting = "preparing session {!r}".format(
                args.session)
        server.start()
        engine.finish_restore()
        for name, message in engine.restore_errors.items():
            print("warning: session {!r} failed to restore: "
                  "{}".format(name, message), file=sys.stderr)
        # Announce only after the corpus is restored: a watcher that
        # reads the url file may immediately query, and an
        # I-am-up-but-empty answer would be wrong, not just slow.
        if args.url_file:
            _write_url_file(args.url_file, server.url)
        from repro.service import protocol as P

        counts = {info.name: info.trajectories for info in
                  engine.execute_command(P.ListSessions()).sessions}
        preloaded = (args.persist_dir is not None
                     and counts.get(args.session, 0))
        if preloaded:
            print("session {!r}: {} trajectories (restored from "
                  "{})".format(args.session, preloaded,
                               args.persist_dir))
        if not args.empty and not preloaded:
            source = "csv" if args.csv else "louvre"
            job = engine.execute_command(P.BuildDataset(
                session=args.session, source=source,
                scale=args.scale, path=args.csv,
                workers=args.workers, executor=args.executor,
                wait=not args.lazy))
            if isinstance(job, P.ErrorInfo):
                print("error: build failed: {}".format(job.message),
                      file=sys.stderr)
                return 1
            if args.lazy:
                print("building session {!r} in the background "
                      "({})".format(args.session, job.job_id))
            elif job.state == "failed":
                print("error: build failed: {}".format(job.error),
                      file=sys.stderr)
                return 1
            else:
                built = {info.name: info.trajectories for info in
                         engine.execute_command(
                             P.ListSessions()).sessions}
                print("session {!r}: {} trajectories".format(
                    args.session, built.get(args.session, 0)))
        server.starting = None
        if pool is not None:
            supervisor = pool.supervisor(engine).start()
        if args.shards:
            print("sharding across {} {} shard(s), {} replica(s) "
                  "each".format(args.shards, args.shard_backend,
                                args.replicas))
        print("serving on {}  (POST /v1/call, GET /v1/health, "
              "GET /v1/ready)".format(server.url))
        print("try: repro call --url {} "
              "'{{\"command\": \"ListSessions\"}}'".format(server.url))
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            print("\nbye")
        return 0
    finally:
        if supervisor is not None:
            supervisor.stop()
        if server is not None:
            server.stop()
        if pool is not None:
            pool.stop()


def cmd_rebalance(args: argparse.Namespace) -> int:
    """Re-split a durable shard root onto a new shard count."""
    from repro.shard.rebalance import rebalance
    from repro.shard.ring import ShardStateError

    try:
        report = rebalance(args.dir, args.shards)
    except ShardStateError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
        return 0
    print("rebalanced {} -> {} shards at {}".format(
        report["old_shard_count"], report["new_shard_count"],
        report["root"]))
    for name, info in sorted(report["sessions"].items()):
        print("  session {!r}: {} documents, per-shard {}".format(
            name, info["documents"], info["per_shard"]))
    print("  moved {} document(s) across shards".format(
        report["moved"]))
    return 0


def _remote(args: argparse.Namespace, action):
    """``action(client)`` against the server at ``args.url``.

    Returns its (non-``None``) result, or ``None`` after printing the
    service error or the transport failure; the command then exits 1.
    """
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        return action(client)
    except ServiceError as error:
        print("error: {}: {}".format(error.code, error.message),
              file=sys.stderr)
    except OSError as error:
        print("error: cannot reach {}: {}".format(args.url, error),
              file=sys.stderr)
    finally:
        client.close()
    return None


def cmd_call(args: argparse.Namespace) -> int:
    """Issue one protocol command against a running server."""
    from repro.service.protocol import (
        PROTOCOL_VERSION,
        ProtocolError,
        command_from_dict,
    )

    payload = sys.stdin.read() if args.payload == "-" else args.payload
    try:
        data = json.loads(payload)
    except ValueError as error:
        print("error: payload is not JSON: {}".format(error),
              file=sys.stderr)
        return 2
    if isinstance(data, dict):
        data.setdefault("v", PROTOCOL_VERSION)  # convenience
    try:
        command = command_from_dict(data)
    except ProtocolError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
    response = _remote(args, lambda client: client.call(command))
    if response is None:
        return 1
    indent = 2 if args.pretty else None
    print(json.dumps(response.to_dict(), sort_keys=True,
                     indent=indent))
    return 0


def _stream_records(args: argparse.Namespace) -> list:
    """The corpus in deterministic event-time order.

    Sorting every detection globally by ``(t_start, t_end, mo_id)``
    interleaves the visitors exactly as a live gate feed would, and
    makes ``--offset``/``--limit`` slices of one corpus land on the
    same events in every invocation — which is what lets a replay
    resume where a crashed one stopped.
    """
    if args.csv:
        records = read_detrecords_csv(args.csv)
    else:
        space = LouvreSpace()
        generator = LouvreDatasetGenerator(space,
                                           _parameters(args.scale))
        records = generator.detection_records()
    return sorted(records, key=lambda r: (r.t_start, r.t_end,
                                          r.mo_id))


def cmd_stream_replay(args: argparse.Namespace) -> int:
    """Replay a corpus as a live event stream against a server."""
    from repro.stream.segmenter import event_to_dict
    from repro.synth.pacing import ArrivalSchedule

    if args.chunk < 1:
        print("error: --chunk must be >= 1", file=sys.stderr)
        return 2
    if args.offset < 0:
        print("error: --offset must be >= 0", file=sys.stderr)
        return 2
    records = _stream_records(args)
    total = len(records)
    end = total if args.limit is None else min(total, args.offset
                                               + args.limit)
    summary = {"url": args.url, "session": args.session,
               "stream": args.stream, "corpus_events": total,
               "offset": args.offset, "replayed": 0,
               "episodes_closed": 0, "watermark": None,
               "closed": False, "target_rate": args.rate,
               "behind_schedule": 0}
    # --rate is events/s; one schedule slot covers one chunk.
    schedule = ArrivalSchedule(
        None if args.rate is None else args.rate / args.chunk)
    position = args.offset

    def replay(client):
        nonlocal position
        batch_index = 0
        client.open_stream(args.session, args.stream,
                           gap_seconds=args.gap_seconds,
                           checkpoint_every=args.checkpoint_every)
        while position < end:
            schedule.wait(batch_index)
            batch_index += 1
            chunk = records[position:min(position + args.chunk, end)]
            position += len(chunk)
            # The next un-replayed event bounds the watermark: every
            # later event starts at or after it, so no episode the
            # segmenter closes now could be reopened by a later
            # chunk — even one sent by a future resumed replay.
            mark = (records[position].t_start if position < total
                    else None)
            ack = client.append_events(
                args.session, args.stream,
                [event_to_dict(record) for record in chunk],
                watermark=mark)
            summary["replayed"] += ack.appended
            summary["episodes_closed"] += ack.episodes_closed
            summary["watermark"] = ack.watermark
        if position >= total and not args.no_close:
            closed = client.close_stream(args.session, args.stream)
            summary["closed"] = True
            summary["events_acked"] = closed.events_acked
            summary["episodes_total"] = closed.episodes_total
        summary["behind_schedule"] = schedule.behind
        return summary

    if _remote(args, replay) is None:
        return 1
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0
    print("replayed events [{}:{}] of {} to {}/{} "
          "({} episode(s) closed in flight)".format(
              args.offset, position, total, args.session,
              args.stream, summary["episodes_closed"]))
    if summary["closed"]:
        print("closed: {} event(s) acked, {} episode(s) "
              "total".format(summary["events_acked"],
                             summary["episodes_total"]))
    else:
        print("stream left open at watermark {}".format(
            summary["watermark"]))
    return 0


def cmd_stream_status(args: argparse.Namespace) -> int:
    """Poll one stream's watermark and counters."""
    info = _remote(args, lambda client: client.stream_status(
        args.session, args.stream))
    if info is None:
        return 1
    if args.json:
        print(json.dumps(info.status, sort_keys=True))
        return 0
    status = info.status
    print("stream {}/{}: watermark={} acked={} open_events={} "
          "episodes={} late={} dropped={}".format(
              args.session, args.stream, status.get("watermark"),
              status.get("events_acked"), status.get("open_events"),
              status.get("episodes_stored"),
              status.get("late_events"),
              status.get("dropped_late")))
    return 0


def cmd_stream_close(args: argparse.Namespace) -> int:
    """Flush and retire one stream."""
    closed = _remote(args, lambda client: client.close_stream(
        args.session, args.stream))
    if closed is None:
        return 1
    if args.json:
        print(json.dumps(closed.to_dict(), sort_keys=True))
        return 0
    print("closed {}/{}: {} event(s) acked, {} episode(s) "
          "total".format(args.session, args.stream,
                         closed.events_acked, closed.episodes_total))
    return 0


def _synth_venue(args: argparse.Namespace):
    """Generate the venue the synth subcommands share."""
    from repro.synth import VenueSpec, generate_venue

    spec = VenueSpec(archetype=args.archetype, seed=args.seed,
                     floors=args.floors,
                     rooms_per_floor=args.rooms_per_floor)
    return generate_venue(spec)


def cmd_synth_venue(args: argparse.Namespace) -> int:
    """Generate one parametric venue, validate it, print its card."""
    venue = _synth_venue(args)
    problems = venue.validate()
    summary = venue.summary()
    summary["valid"] = not problems
    summary["problems"] = problems
    if not problems:
        summary["route_hops"] = venue.plan_all_rooms()
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0 if not problems else 1
    if problems:
        for problem in problems:
            print("invalid: {}".format(problem), file=sys.stderr)
        return 1
    print("{venue}: {floors} floor(s), {cells} cell(s), "
          "{edges} edge(s), {beacons} beacon(s)".format(**summary))
    print("entrances: {}  exits: {}  route hops: {}".format(
        ", ".join(summary["entrances"]),
        ", ".join(summary["exits"]), summary["route_hops"]))
    return 0


def cmd_synth_crowd(args: argparse.Namespace) -> int:
    """Stream a synthetic crowd; print its digest (and maybe CSV).

    The default mode only *streams* — it hashes and counts the events
    without materializing them, so ``--agents 1000000`` runs in
    bounded memory.  The printed sha256 digest is the determinism
    oracle: the same seeds must print the same digest on any machine.
    """
    import hashlib

    from repro.synth import CrowdSpec, CrowdSynthesizer
    from repro.synth.crowd import event_row

    venue = _synth_venue(args)
    spec = CrowdSpec(agents=args.agents, seed=args.crowd_seed,
                     agents_per_day=args.agents_per_day)
    crowd = CrowdSynthesizer(venue, spec)
    digest = hashlib.sha256()
    counted = {"events": 0}

    def tap(events):
        for record in events:
            digest.update(event_row(record))
            counted["events"] += 1
            yield record

    if args.out:
        write_detections_csv(tap(crowd.iter_events()), args.out)
    else:
        for _ in tap(crowd.iter_events()):
            pass
    summary = dict(crowd.provenance())
    summary.update({"events": counted["events"],
                    "digest": digest.hexdigest(),
                    "peak_buffered": crowd.peak_buffered,
                    "days": spec.days, "out": args.out})
    if args.json:
        print(json.dumps(summary, sort_keys=True))
        return 0
    print("{agents} agent(s) over {days} day(s) in {venue}: "
          "{events} event(s), peak buffer {peak_buffered}".format(
              **summary))
    print("digest: sha256:{}".format(summary["digest"]))
    if args.out:
        print("written: {}".format(args.out))
    return 0


def cmd_synth_replay(args: argparse.Namespace) -> int:
    """Synthesize a crowd and replay it against a server."""
    from repro.synth import CrowdSpec, CrowdSynthesizer, TrafficReplayer

    venue = _synth_venue(args)
    spec = CrowdSpec(agents=args.agents, seed=args.crowd_seed,
                     agents_per_day=args.agents_per_day)
    crowd = CrowdSynthesizer(venue, spec)

    def replay(client):
        replayer = TrafficReplayer(client, args.session, venue,
                                   rate=args.rate, chunk=args.chunk)
        if args.mode == "batch":
            report = replayer.replay_batch(crowd.iter_events())
        elif args.mode == "stream":
            report = replayer.replay_stream(crowd.iter_events(),
                                            stream=args.stream)
        else:
            report = replayer.replay_queries(args.queries)
        report.provenance = crowd.provenance()
        replayer.verify_delivery(report)
        return report

    report = _remote(args, replay)
    if report is None:
        return 1
    payload = report.as_dict()
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print("{mode} replay to {session}: {ok}/{requests} request(s) "
              "ok, {shed} shed, {errors} error(s)".format(**payload))
        print("{events} event(s), {episodes} episode(s) in "
              "{seconds:.2f}s ({events_per_s:.0f} ev/s)".format(
                  **payload))
        if payload["latency_ms"]:
            print("latency ms: p50={p50:.1f} p95={p95:.1f} "
                  "p99={p99:.1f} max={max:.1f}".format(
                      **payload["latency_ms"]))
        print("delivery ok: {}".format(
            payload["server"].get("delivery_ok")))
    failed = report.errors > 0 or (
        payload["server"].get("delivery_ok") is False)
    return 1 if failed else 0


def cmd_zones(args: argparse.Namespace) -> int:
    """Print the 52-zone table."""
    print("{:10s} {:10s} {:>5s} {:>8s}  {}".format(
        "zone", "wing", "floor", "dataset", "theme"))
    for zone in ZONES:
        print("{:10s} {:10s} {:>5d} {:>8s}  {}".format(
            zone.zone_id, zone.wing, zone.floor,
            "yes" if zone.in_dataset else "no", zone.theme))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic Indoor Trajectory Model reproduction")
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate",
                              help="generate the synthetic corpus")
    generate.add_argument("--scale", type=float, default=1.0,
                          help="corpus scale in (0, 1]")
    generate.add_argument("--out", default="detections.csv",
                          help="output CSV path")
    generate.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats",
                           help="Section 4.1 statistics, paper vs measured")
    stats.add_argument("--scale", type=float, default=1.0)
    stats.set_defaults(func=cmd_stats)

    experiments = sub.add_parser("experiments",
                                 help="reproduce every table and figure")
    experiments.add_argument("--scale", type=float, default=1.0)
    experiments.set_defaults(func=cmd_experiments)

    validate = sub.add_parser("validate",
                              help="validate a detection CSV")
    validate.add_argument("path", help="detection CSV path")
    validate.set_defaults(func=cmd_validate)

    zones = sub.add_parser("zones", help="print the 52-zone table")
    zones.set_defaults(func=cmd_zones)

    query = sub.add_parser(
        "query",
        help="run a declarative planned query over a corpus",
        description="Predicates are AND-ed; --or starts a new "
                    "disjunct group; --not negates the next "
                    "predicate.  Example: --visiting zone60853 --or "
                    "--annotation goal=visit --limit 10 --explain")
    corpus = query.add_argument_group("corpus")
    corpus.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale in (0, 1] "
                             "(default: %(default)s)")
    corpus.add_argument("--csv", metavar="PATH",
                        help="build the corpus from a detection CSV")
    corpus.add_argument("--jsonl", metavar="PATH",
                        help="load trajectories from a JSON-lines "
                             "archive")
    predicates = query.add_argument_group("predicates (order matters)")
    predicates.add_argument("--visiting", dest="visiting",
                            action=_TermAction, metavar="STATE",
                            help="trajectories visiting the state")
    predicates.add_argument("--annotation", dest="annotation",
                            action=_TermAction, metavar="KIND=VALUE",
                            help="trajectories annotated with "
                                 "KIND=VALUE, e.g. goal=visit")
    predicates.add_argument("--mo", dest="mo", action=_TermAction,
                            metavar="ID",
                            help="one moving object's trajectories")
    predicates.add_argument("--between", dest="between", nargs=2,
                            action=_TermAction, metavar=("T1", "T2"),
                            help="active in the time window [T1, T2]")
    predicates.add_argument("--min-duration", dest="min_duration",
                            type=float, action=_TermAction,
                            metavar="SECONDS",
                            help="lasting at least SECONDS")
    predicates.add_argument("--min-entries", dest="min_entries",
                            type=int, action=_TermAction, metavar="N",
                            help="with at least N presence intervals")
    predicates.add_argument("--follows", dest="follows",
                            action=_TermAction, metavar="A,B,...",
                            help="containing the contiguous state "
                                 "sequence")
    predicates.add_argument("--or", dest="or_sep", nargs=0,
                            action=_TermAction,
                            help="start a new OR group")
    predicates.add_argument("--not", dest="not_next", nargs=0,
                            action=_TermAction,
                            help="negate the next predicate")
    shaping = query.add_argument_group("results")
    shaping.add_argument("--limit", type=int, default=10,
                         help="print at most N hits "
                              "(default: %(default)s)")
    shaping.add_argument("--offset", type=int, default=0,
                         help="skip the first N hits")
    shaping.add_argument("--order-by", dest="order_by",
                         choices=("doc_id", "mo_id", "t_start",
                                  "t_end", "duration", "entries"),
                         help="sort hits by a field")
    shaping.add_argument("--desc", action="store_true",
                         help="sort descending")
    shaping.add_argument("--count", action="store_true",
                         help="print only the match count")
    shaping.add_argument("--explain", action="store_true",
                         help="print the chosen physical plan")
    shaping.add_argument("--json", action="store_true",
                         help="emit hits as JSON (service wire "
                              "format)")
    # No terms=[] default here: a parser-level list would be shared
    # across parses; _TermAction lazily creates one per namespace.
    query.set_defaults(func=cmd_query)

    pipeline = sub.add_parser(
        "pipeline",
        help="the streaming pipeline engine (repro.pipeline)")
    pipe_sub = pipeline.add_subparsers(dest="pipeline_command",
                                       required=True)
    run = pipe_sub.add_parser(
        "run", help="assemble a pipeline from registered stages and "
                    "stream a corpus through it")
    run.add_argument("--scale", type=float, default=0.1,
                     help="synthetic corpus scale in (0, 1]")
    run.add_argument("--csv", metavar="PATH",
                     help="stream detections from a CSV file instead "
                          "of generating the corpus")
    run.add_argument("--batch-size", type=int, default=512,
                     help="records per engine batch")
    run.add_argument("--streaming", action="store_true",
                     help="streaming segmentation: O(batch) memory, "
                          "requires visit-contiguous input")
    run.add_argument("--stages", default=DEFAULT_STAGES,
                     help="comma-separated registry stage names "
                          "(default: %(default)s)")
    run.add_argument("--store", action="store_true",
                     help="append a trajectory-store sink")
    run.add_argument("--mine", action="store_true",
                     help="append state-sequences + prefixspan stages")
    run.add_argument("--min-support", type=float, default=0.05,
                     help="prefixspan support (fraction < 1, else "
                          "absolute count)")
    run.add_argument("--out", metavar="PATH",
                     help="write trajectories to a JSON-lines archive")
    run.add_argument("--workers", type=int, default=0,
                     help="run parallel-safe stages on a pool of this "
                          "size (0 = serial)")
    run.add_argument("--executor", choices=["thread", "process"],
                     default="thread",
                     help="pool kind for --workers (default: thread)")
    run.add_argument("--no-timing", action="store_true",
                     help="skip per-batch wall-time accounting "
                          "(hot-path fast mode)")
    run.add_argument("--cache-dir", metavar="DIR",
                     help="disk-backed stage cache: memoized "
                          "clean→…→annotate prefixes survive "
                          "restarts (repro.persist.DiskStageCache)")
    run.add_argument("--json", action="store_true",
                     help="emit metrics and mined patterns as JSON")
    run.set_defaults(func=cmd_pipeline_run)
    stages = pipe_sub.add_parser("stages",
                                 help="list registered pipeline stages")
    stages.set_defaults(func=cmd_pipeline_stages)

    snapshot = sub.add_parser(
        "snapshot",
        help="build a corpus and persist it to disk (repro.persist)",
        description="Builds the corpus (synthetic, CSV, or JSONL) "
                    "and writes a durable session directory: a "
                    "checksummed snapshot plus an append log for "
                    "later ingestion.  Recover with 'repro restore'.")
    snapshot.add_argument("--out", required=True, metavar="DIR",
                          help="durable session directory to write")
    snapshot.add_argument("--scale", type=float, default=0.05,
                          help="synthetic corpus scale in (0, 1] "
                               "(default: %(default)s)")
    snapshot.add_argument("--csv", metavar="PATH",
                          help="build from a detection CSV instead")
    snapshot.add_argument("--jsonl", metavar="PATH",
                          help="load trajectories from a JSON-lines "
                               "archive instead")
    snapshot.add_argument("--no-fsync", action="store_true",
                          help="skip fsync on log writes (faster, "
                               "weaker durability)")
    snapshot.add_argument("--json", action="store_true",
                          help="emit the snapshot info as JSON")
    snapshot.set_defaults(func=cmd_snapshot)

    restore = sub.add_parser(
        "restore",
        help="recover a persisted session directory",
        description="Loads the directory's current snapshot, replays "
                    "its append log, verifies checksums, and prints "
                    "the corpus summary (or serves it with --serve).")
    restore.add_argument("path", metavar="DIR",
                         help="durable session directory")
    restore.add_argument("--no-verify", action="store_true",
                         help="skip checksum verification (faster)")
    restore.add_argument("--serve", action="store_true",
                         help="serve the restored corpus over HTTP")
    restore.add_argument("--host", default="127.0.0.1",
                         help="bind address for --serve")
    restore.add_argument("--port", type=int, default=DEFAULT_PORT,
                         help="TCP port for --serve")
    restore.add_argument("--json", action="store_true",
                         help="emit the summary as JSON")
    restore.set_defaults(func=cmd_restore)

    serve = sub.add_parser(
        "serve",
        help="run the embedded trajectory server (repro.service)",
        description="Starts the HTTP/JSON service and, unless "
                    "--empty, builds one session first.  See "
                    "docs/service.md for the protocol.")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="TCP port, 0 for ephemeral "
                            "(default: %(default)s)")
    serve.add_argument("--session", default="louvre",
                       help="name of the preloaded session "
                            "(default: %(default)s)")
    serve.add_argument("--scale", type=float, default=0.05,
                       help="synthetic corpus scale for the preload "
                            "(default: %(default)s)")
    serve.add_argument("--csv", metavar="PATH",
                       help="preload from a detection CSV instead of "
                            "the synthetic corpus")
    serve.add_argument("--workers", type=int, default=0,
                       help="parallel build workers (default: serial)")
    serve.add_argument("--executor", choices=["thread", "process"],
                       default="thread",
                       help="pool kind for --workers")
    serve.add_argument("--lazy", action="store_true",
                       help="serve immediately and build the preload "
                            "session in the background")
    serve.add_argument("--empty", action="store_true",
                       help="start with no sessions (clients build "
                            "their own)")
    serve.add_argument("--persist-dir", metavar="DIR",
                       help="durable session root: restore sessions "
                            "found there on start, journal builds, "
                            "auto-checkpoint (repro.persist)")
    serve.add_argument("--verbose", action="store_true",
                       help="log each request line")
    serve.add_argument("--sync-workers", type=int, default=4,
                       metavar="N",
                       help="executor threads bridging the asyncio "
                            "front-end into the command path "
                            "(default: %(default)s)")
    serve.add_argument("--max-inflight", type=int, default=64,
                       metavar="N",
                       help="commands in flight before the asyncio "
                            "front-end sheds load with 503 "
                            "(default: %(default)s)")
    serve.add_argument("--no-response-cache", action="store_true",
                       help="recompute every read command instead of "
                            "serving repeats from the versioned "
                            "response cache")
    serve.add_argument("--shards", type=int, default=0, metavar="N",
                       help="shard sessions across N executors and "
                            "serve through the scatter-gather "
                            "coordinator (repro.shard)")
    serve.add_argument("--shard-backend",
                       choices=["local", "process"], default="local",
                       help="shard executors: in-process registries "
                            "or one spawned server per shard "
                            "(default: %(default)s)")
    serve.add_argument("--replicas", type=int, default=1,
                       metavar="R",
                       help="replicas per shard: reads load-balance "
                            "and fail over across R executors; "
                            "replicas past the first are standbys "
                            "fed by write fan-out (default: "
                            "%(default)s)")
    serve.add_argument("--standby", action="store_true",
                       help="open --persist-dir read-only: restore "
                            "the primary's snapshots + journal but "
                            "never write them (read-replica mode; "
                            "used by --replicas worker processes)")
    serve.add_argument("--url-file", metavar="PATH",
                       help="announce the bound URL and pid as JSON "
                            "to PATH (written atomically after bind)")
    serve.set_defaults(func=cmd_serve)

    rebalance = sub.add_parser(
        "rebalance",
        help="re-split a durable shard root onto a new shard count",
        description="Offline resharding: reopens every shard's "
                    "snapshot under DIR, reroutes each document "
                    "through the new consistent-hash ring and swaps "
                    "in the re-split stores atomically.  No server "
                    "may hold DIR open while this runs.")
    rebalance.add_argument("--dir", required=True, metavar="DIR",
                           help="shard persist root (contains "
                                "shard.json and shard-K/)")
    rebalance.add_argument("--shards", type=int, required=True,
                           metavar="N", help="new shard count")
    rebalance.add_argument("--json", action="store_true",
                           help="print the rebalance report as JSON")
    rebalance.set_defaults(func=cmd_rebalance)

    call = sub.add_parser(
        "call",
        help="issue one service-protocol command over HTTP",
        description="PAYLOAD is a protocol command as JSON ('-' reads "
                    "stdin); the \"v\" field is filled in when "
                    "omitted.  Example: repro call '{\"command\": "
                    "\"RunQuery\", \"session\": \"louvre\", "
                    "\"limit\": 5}'")
    call.add_argument("payload",
                      help="command JSON, or '-' to read stdin")
    call.add_argument("--url",
                      default="http://127.0.0.1:{}".format(
                          DEFAULT_PORT),
                      help="server base URL (default: %(default)s)")
    call.add_argument("--timeout", type=float, default=30.0,
                      help="request timeout in seconds")
    call.add_argument("--pretty", action="store_true",
                      help="indent the response JSON")
    call.set_defaults(func=cmd_call)

    stream = sub.add_parser(
        "stream",
        help="live trajectory ingestion over HTTP (repro.stream)",
        description="Drives a server's durable ingestion streams: "
                    "'replay' feeds a corpus as an interleaved "
                    "event-time stream (resumable with --offset/"
                    "--limit after a crash), 'status' polls the "
                    "watermark and counters, 'close' flushes and "
                    "retires the stream.  See docs/streaming.md.")
    stream_sub = stream.add_subparsers(dest="stream_command",
                                       required=True)

    def stream_common(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--url",
                            default="http://127.0.0.1:{}".format(
                                DEFAULT_PORT),
                            help="server base URL "
                                 "(default: %(default)s)")
        parser.add_argument("--session", default="live",
                            help="target session, created on first "
                                 "open (default: %(default)s)")
        parser.add_argument("--stream", default="replay",
                            help="stream name within the session "
                                 "(default: %(default)s)")
        parser.add_argument("--timeout", type=float, default=30.0,
                            help="request timeout in seconds")
        parser.add_argument("--json", action="store_true",
                            help="emit the summary as JSON")

    replay = stream_sub.add_parser(
        "replay",
        help="replay a corpus as a live event stream",
        description="Opens (or re-attaches to) the stream and feeds "
                    "the corpus in deterministic event-time order, "
                    "one durability-acked batch at a time, with an "
                    "honest watermark after every batch.  A partial "
                    "replay (--limit, or a crash) resumes with "
                    "--offset at the first unacked event.")
    stream_common(replay)
    replay.add_argument("--scale", type=float, default=0.05,
                        help="synthetic corpus scale in (0, 1] "
                             "(default: %(default)s)")
    replay.add_argument("--csv", metavar="PATH",
                        help="replay a detection CSV instead of the "
                             "synthetic corpus")
    replay.add_argument("--chunk", type=int, default=200,
                        metavar="N",
                        help="events per append batch "
                             "(default: %(default)s)")
    replay.add_argument("--offset", type=int, default=0,
                        metavar="N",
                        help="skip the first N events of the "
                             "ordering (resume point)")
    replay.add_argument("--limit", type=int, default=None,
                        metavar="N",
                        help="replay at most N events, then stop "
                             "without closing")
    replay.add_argument("--gap-seconds", type=float, default=None,
                        help="episode gap threshold in seconds "
                             "(default: the server's)")
    replay.add_argument("--checkpoint-every", type=int, default=64,
                        metavar="N",
                        help="journal entries between state "
                             "checkpoints (default: %(default)s)")
    replay.add_argument("--no-close", action="store_true",
                        help="leave the stream open after the last "
                             "event")
    replay.add_argument("--rate", type=float, default=None,
                        metavar="EV_PER_S",
                        help="open-loop pacing in events/second "
                             "(default: as fast as acked)")
    replay.set_defaults(func=cmd_stream_replay)

    stream_status = stream_sub.add_parser(
        "status", help="poll a stream's watermark and counters")
    stream_common(stream_status)
    stream_status.set_defaults(func=cmd_stream_status)

    stream_close = stream_sub.add_parser(
        "close", help="flush and retire a stream")
    stream_common(stream_close)
    stream_close.set_defaults(func=cmd_stream_close)

    synth = sub.add_parser(
        "synth",
        help="parametric venues, crowds and load replay "
             "(repro.synth)",
        description="Seeded synthesis: 'venue' generates and "
                    "validates one parametric venue, 'crowd' streams "
                    "a deterministic crowd over it (printing the "
                    "sha256 determinism digest), 'replay' drives a "
                    "server with the crowd at a target rate.  See "
                    "docs/synthetic.md.")
    synth_sub = synth.add_subparsers(dest="synth_command",
                                     required=True)

    def synth_venue_args(parser: argparse.ArgumentParser) -> None:
        from repro.synth import ARCHETYPES

        parser.add_argument("--archetype", default="museum",
                            choices=sorted(ARCHETYPES),
                            help="venue grammar "
                                 "(default: %(default)s)")
        parser.add_argument("--seed", type=int, default=0,
                            help="venue seed (default: %(default)s)")
        parser.add_argument("--floors", type=int, default=None,
                            metavar="N",
                            help="override the grammar's floor draw")
        parser.add_argument("--rooms-per-floor", type=int,
                            default=None, metavar="N",
                            help="override the grammar's room draw")
        parser.add_argument("--json", action="store_true",
                            help="emit the summary as JSON")

    def synth_crowd_args(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--agents", type=int, default=1000,
                            metavar="N",
                            help="crowd size (default: %(default)s)")
        parser.add_argument("--crowd-seed", type=int, default=0,
                            metavar="SEED",
                            help="crowd seed, independent of the "
                                 "venue seed (default: %(default)s)")
        parser.add_argument("--agents-per-day", type=int,
                            default=5000, metavar="N",
                            help="day-bucket size — the memory bound "
                                 "(default: %(default)s)")

    synth_venue = synth_sub.add_parser(
        "venue",
        help="generate and validate one parametric venue")
    synth_venue_args(synth_venue)
    synth_venue.set_defaults(func=cmd_synth_venue)

    synth_crowd = synth_sub.add_parser(
        "crowd",
        help="stream a deterministic crowd; print its digest",
        description="Streams the crowd in O(agents-per-day) memory; "
                    "the sha256 digest over canonical event rows is "
                    "byte-stable across processes and machines for "
                    "one (venue seed, crowd seed) pair.")
    synth_venue_args(synth_crowd)
    synth_crowd_args(synth_crowd)
    synth_crowd.add_argument("--out", metavar="PATH",
                             help="also write the events as a "
                                  "detection CSV")
    synth_crowd.set_defaults(func=cmd_synth_crowd)

    synth_replay = synth_sub.add_parser(
        "replay",
        help="replay a synthetic crowd against a server",
        description="Open-loop load driver: batch mode segments "
                    "locally and ships episodes as IngestDocuments; "
                    "stream mode appends raw events with honest "
                    "watermarks; queries mode runs a read mix.  "
                    "Latency is measured from each request's "
                    "intended time.")
    synth_venue_args(synth_replay)
    synth_crowd_args(synth_replay)
    synth_replay.add_argument("--url",
                              default="http://127.0.0.1:{}".format(
                                  DEFAULT_PORT),
                              help="server base URL "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--session", default="synth",
                              help="target session "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--stream", default="replay",
                              help="stream name for --mode stream "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--mode", default="batch",
                              choices=["batch", "stream", "queries"],
                              help="replay mode "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--rate", type=float, default=None,
                              metavar="PER_S",
                              help="events/s (batch, stream) or "
                                   "requests/s (queries); default: "
                                   "as fast as acked")
    synth_replay.add_argument("--chunk", type=int, default=256,
                              metavar="N",
                              help="events per request "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--queries", type=int, default=100,
                              metavar="N",
                              help="request count for --mode queries "
                                   "(default: %(default)s)")
    synth_replay.add_argument("--timeout", type=float, default=30.0,
                              help="request timeout in seconds")
    synth_replay.set_defaults(func=cmd_synth_replay)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
