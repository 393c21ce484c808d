"""The benchmark's server process: one asyncio front-end over a
prepared on-disk state.

    python benchmarks/suite/serve.py --persist-dir DIR [--shards N]
                                     [--spans PATH]

It restores every session under ``DIR`` (a plain durable registry, or
``N`` in-process shards behind :class:`ShardCoordinator`), binds an
ephemeral loopback port and prints one JSON line, ``{"port": P,
"pid": N}``, once it is ready to serve.  It then serves until its
standard input closes, so it never outlives the process that started
it.  With ``--spans`` every traced boundary (see ``tracing.py``) is
wrapped before the engine is built, and the spans are written to
``PATH`` as JSON lines at shutdown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--persist-dir", required=True)
    parser.add_argument("--shards", type=int, default=0)
    parser.add_argument("--spans", metavar="PATH")
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        sys.path.insert(0, HERE)
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)

    from repro.service.aserver import AsyncServiceServer

    if args.shards:
        from repro.shard.coordinator import ShardCoordinator

        engine = ShardCoordinator.local(args.shards,
                                        persist_dir=args.persist_dir)
    else:
        from repro.service.registry import SessionRegistry

        engine = SessionRegistry(persist_dir=args.persist_dir)
    if engine.restore_errors:
        print("restore failed: {}".format(engine.restore_errors),
              file=sys.stderr)
        return 1
    server = AsyncServiceServer(engine, port=0).start()
    try:
        print(json.dumps({"port": server.address[1],
                          "pid": os.getpid()}), flush=True)
        sys.stdin.buffer.read()  # serve until the launcher lets go
    finally:
        server.stop()
        if args.shards:
            engine.close()
    if recorder is not None:
        recorder.dump(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
