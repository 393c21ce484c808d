"""Process-backed shard workers: one ``repro serve`` per shard.

:class:`ShardWorkerPool` spawns N empty servers (``repro serve
--empty --port 0``), waits for each to announce its bound URL through
an atomically written announce file, and hands the coordinator one
:class:`~repro.service.client.ServiceClient` per worker.  Each worker
owns its slice of the corpus end to end — store, WAL, snapshots — in
``<root>/shard-k``, so a ``kill -9``'d worker restarts from its own
journal with nothing but its announce file to find it again.

Restarts re-bind the worker's *recorded* port (the first boot uses an
ephemeral one): the coordinator's clients hold the URL, so the
replacement process must come back at the same address.

With ``replicas > 1`` each shard additionally gets standby worker
processes (``repro serve --standby``) reading the primary's
``shard-k`` directory: they restore the same snapshot + journal at
boot but never write it, staying current through the coordinator's
write fan-out.  A :class:`~repro.resilience.supervisor
.WorkerSupervisor` built via :meth:`ShardWorkerPool.supervisor`
respawns dead workers and re-admits them to the read rotation.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.service.client import ServiceClient

#: Seconds to wait for a worker's announce file on spawn/restart.
SPAWN_TIMEOUT = 30.0


class ShardWorkerError(RuntimeError):
    """A shard worker failed to start or announce itself."""


def _write_announce_path(root: str, shard: int,
                         replica: int = 0) -> str:
    if replica:
        return os.path.join(root,
                            "shard-{}.r{}.url".format(shard, replica))
    return os.path.join(root, "shard-{}.url".format(shard))


class ShardWorker:
    """One shard's server process and its announce bookkeeping."""

    def __init__(self, shard: int, root: str, host: str = "127.0.0.1",
                 fsync: bool = True, verbose: bool = False,
                 replica: int = 0) -> None:
        self.shard = shard
        self.replica = replica
        self.standby = replica > 0
        self.root = root
        self.host = host
        self.fsync = fsync
        self.verbose = verbose
        self.url: Optional[str] = None
        self.port = 0  # pinned to the announced port after first boot
        self.process: Optional[subprocess.Popen] = None
        self.announce_path = _write_announce_path(root, shard,
                                                  replica)
        self.persist_dir = os.path.join(root,
                                        "shard-{}".format(shard))

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Start (or restart) the worker and wait for its URL."""
        if os.path.exists(self.announce_path):
            os.unlink(self.announce_path)
        argv = [sys.executable, "-m", "repro.cli", "serve",
                "--empty", "--host", self.host,
                "--port", str(self.port),
                "--persist-dir", self.persist_dir,
                "--url-file", self.announce_path]
        if self.standby:
            argv.append("--standby")
        if self.verbose:
            argv.append("--verbose")
        environment = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        existing = environment.get("PYTHONPATH")
        environment["PYTHONPATH"] = package_root if not existing \
            else package_root + os.pathsep + existing
        self.process = subprocess.Popen(
            argv, env=environment,
            stdout=subprocess.DEVNULL if not self.verbose else None,
            stderr=subprocess.DEVNULL if not self.verbose else None)
        self._await_announce()

    def _read_announce(self) -> Optional[Dict]:
        """The live child's announce record, or None to keep waiting.

        The server writes the file atomically, but the *waiter* must
        still not trust whatever it finds: a ``kill -9`` during a
        previous run can leave a stale file carrying the dead
        incarnation's address, and a crash mid-replace on some
        filesystems surfaces as a truncated or empty file.  A record
        only counts when it parses AND names the pid of the child this
        spawn started — anything else is treated as not-yet-announced
        and re-polled.
        """
        try:
            with open(self.announce_path, "r",
                      encoding="utf-8") as handle:
                announce = json.load(handle)
        except (OSError, ValueError):
            return None  # absent, torn, or half-written
        if not isinstance(announce, dict) \
                or not announce.get("url"):
            return None
        if self.process is not None \
                and announce.get("pid") != self.process.pid:
            return None  # a previous incarnation's stale file
        return announce

    def _await_announce(self) -> None:
        deadline = time.monotonic() + SPAWN_TIMEOUT
        while time.monotonic() < deadline:
            if self.process is not None \
                    and self.process.poll() is not None:
                raise ShardWorkerError(
                    "shard {} worker exited with status {} before "
                    "announcing".format(self.shard,
                                        self.process.returncode))
            announce = self._read_announce()
            if announce is not None:
                self.url = announce["url"]
                self.port = int(self.url.rsplit(":", 1)[1])
                return
            time.sleep(0.05)
        raise ShardWorkerError(
            "shard {} worker did not announce within {}s".format(
                self.shard, SPAWN_TIMEOUT))

    # ------------------------------------------------------------------
    def kill(self, sig: int = signal.SIGKILL) -> None:
        """Deliver a signal to the worker process (SIGKILL by
        default — the crash-recovery drill)."""
        if self.process is not None:
            self.process.send_signal(sig)
            self.process.wait()

    def restart(self) -> None:
        """Respawn a (dead) worker on its recorded port."""
        self.spawn()

    def stop(self) -> None:
        """Terminate the worker gracefully."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()

    @property
    def pid(self) -> Optional[int]:
        return None if self.process is None else self.process.pid

    def alive(self) -> bool:
        return self.process is not None \
            and self.process.poll() is None


class ShardWorkerPool:
    """N shard worker processes plus their protocol clients.

    Usable as a context manager; :meth:`backends` plugs straight into
    :class:`~repro.shard.coordinator.ShardCoordinator`.
    """

    def __init__(self, shard_count: int,
                 root: Optional[str] = None,
                 host: str = "127.0.0.1", fsync: bool = True,
                 verbose: bool = False,
                 timeout: float = 60.0,
                 replicas: int = 1) -> None:
        from repro.shard.rebalance import check_manifest

        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.shard_count = shard_count
        self.replicas = replicas
        self.fsync = fsync
        self._own_root = root is None
        self.root = root if root is not None \
            else tempfile.mkdtemp(prefix="repro-shards-")
        check_manifest(self.root, shard_count)
        self.timeout = timeout
        #: ``replica_sets[shard][replica]`` — index 0 is the primary.
        self.replica_sets = [
            [ShardWorker(shard, self.root, host=host, fsync=fsync,
                         verbose=verbose, replica=replica)
             for replica in range(replicas)]
            for shard in range(shard_count)]
        #: Flat worker list (identical to the replica-free layout
        #: when ``replicas == 1``).
        self.workers = [worker for group in self.replica_sets
                        for worker in group]

    def start(self) -> "ShardWorkerPool":
        started: List[ShardWorker] = []
        try:
            for worker in self.workers:
                worker.spawn()
                started.append(worker)
        except BaseException:
            for worker in started:
                worker.stop()
            raise
        return self

    def backends(self):
        """Coordinator-ready keep-alive clients: one per shard, or
        one replica-set list per shard when ``replicas > 1``."""
        if self.replicas == 1:
            return [ServiceClient(worker.url, timeout=self.timeout)
                    for worker in self.workers]
        return [[ServiceClient(worker.url, timeout=self.timeout)
                 for worker in group]
                for group in self.replica_sets]

    def coordinator(self, **kwargs):
        """A :class:`ShardCoordinator` over this pool's workers; its
        streams keep their sidecars under the pool's root."""
        from repro.shard.coordinator import ShardCoordinator

        kwargs.setdefault("autosave", True)
        kwargs.setdefault("stream_dir", self.root)
        coordinator = ShardCoordinator(self.backends(), **kwargs)
        coordinator.fsync = self.fsync
        return coordinator

    def supervisor(self, coordinator=None, **kwargs):
        """A :class:`~repro.resilience.supervisor.WorkerSupervisor`
        respawning this pool's dead workers (not started).

        With a ``coordinator``, each successful respawn also heals
        the worker's slot in the read rotation — the restarted
        process replayed the shard's journal, so it is current again.
        """
        from repro.resilience.supervisor import WorkerSupervisor

        def heal(worker: ShardWorker) -> None:
            if coordinator is not None:
                coordinator.heal_replica(worker.shard, worker.replica)

        kwargs.setdefault("on_restart", heal)
        return WorkerSupervisor(self.workers, **kwargs)

    def report(self) -> List[Dict]:
        return [{"shard": worker.shard, "replica": worker.replica,
                 "url": worker.url, "pid": worker.pid,
                 "alive": worker.alive()}
                for worker in self.workers]

    def stop(self, remove_root: bool = False) -> None:
        for worker in self.workers:
            worker.stop()
        if remove_root and self._own_root:
            import shutil

            shutil.rmtree(self.root, ignore_errors=True)

    def __enter__(self) -> "ShardWorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop(remove_root=True)
