"""A test-side reference for the paged and mining reads.

Both engines answer ``RunQuery`` and ``MinePatterns`` through one
handler each (:data:`repro.service.executor.READ_HANDLERS`), so tests
that hold the engines equal to each other would pass together if a
shared rule broke.  They also compare against this module: the two
reads over one store written out as whole-list passes — every hit of
the planned query, sorted in full on the composite ``(order key, doc
id)`` key, cut past the cursor, then past the offset, then to the
page, the total a plain length; the patterns those hits hold, mined
from fresh state sequences by the reference PrefixSpan — sharing no
code with the handlers, the read handles or the planner's count.

Only valid commands are modelled: the error replies are pinned by
``tests/shard/read_digests.json``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.trajectory import SemanticTrajectory
from repro.mining.prefixspan import SequentialPattern
from repro.service import protocol as P
from repro.service.executor import MAX_PAGE_SIZE
from repro.storage.query import Query
from repro.storage.results import ORDER_KEYS
from repro.storage.store import StoredTrajectory, TrajectoryStore
from tests.mining.reference_mining import prefixspan


def store_of(docs: Sequence[Dict]) -> TrajectoryStore:
    """A store holding the wire documents ``docs`` in order."""
    store = TrajectoryStore()
    extend(store, docs)
    return store


def extend(store: TrajectoryStore, docs: Sequence[Dict]) -> None:
    """Append the wire documents ``docs`` to ``store``."""
    if docs:
        store.extend([SemanticTrajectory.from_dict(doc) for doc in docs])


def hits(store: TrajectoryStore,
         query: Optional[Dict]) -> List[StoredTrajectory]:
    """Every hit of the query payload, in document-id order."""
    planned = Query(store) if query is None \
        else Query.from_dict(store, query)
    return planned.execute().to_list()


def _ordered(matches: List[StoredTrajectory], order_by: Optional[str],
             descending: bool, token: Optional[Dict]
             ) -> List[StoredTrajectory]:
    """The matches in page order, strictly past the cursor ``token``."""
    if order_by is None:
        start = -1 if token is None else token["k"]
        return [hit for hit in matches if hit.doc_id > start]
    key = ORDER_KEYS[order_by]
    keyed = sorted((((key(hit), hit.doc_id), hit) for hit in matches),
                   key=itemgetter(0), reverse=descending)
    if token is not None:
        boundary: Tuple = (token["okv"], token["k"])
        keyed = [pair for pair in keyed
                 if (pair[0] < boundary if descending
                     else pair[0] > boundary)]
    return [hit for _, hit in keyed]


def run_query(store: TrajectoryStore, command: P.RunQuery) -> P.QueryPage:
    """The page a valid ``RunQuery`` reads from ``store``.

    ``descending`` without an ``order_by`` sorts on ``doc_id``.  The
    offset skips hits on every page but a natural-order resume, whose
    cursor already holds its position; the total is reported on the
    cursor-less first page only.
    """
    order_by = command.order_by
    if order_by is None and command.descending:
        order_by = "doc_id"
    token = None if command.cursor is None \
        else P.decode_cursor(command.cursor)
    matches = hits(store, command.query)
    ordered = _ordered(matches, order_by, command.descending, token)
    if order_by is not None or token is None:
        ordered = ordered[command.offset:]
    limit = min(command.limit, MAX_PAGE_SIZE)
    page = ordered[:limit]
    next_cursor = None
    if len(ordered) > limit:
        last = page[-1]
        issued = {"f": P.page_fingerprint(command.query, command.order_by,
                                          command.descending),
                  "k": last.doc_id}
        if order_by is not None:
            issued["okv"] = ORDER_KEYS[order_by](last)
        next_cursor = P.encode_cursor(issued)
    total = len(matches) if command.include_total \
        and command.cursor is None else None
    return P.QueryPage(
        hits=[P.Hit(doc_id=hit.doc_id, trajectory=hit.trajectory)
              for hit in page],
        total=total, next_cursor=next_cursor)


def walk(store: TrajectoryStore, command: P.RunQuery) -> List[bytes]:
    """The wire bodies of ``command``'s page and every page after it."""
    pages = []
    while True:
        page = run_query(store, command)
        pages.append(page.to_json())
        if page.next_cursor is None:
            return pages
        command = replace(command, cursor=page.next_cursor)


def support_of(min_support: float, sequence_count: int) -> int:
    """The absolute support a ``min_support`` asks of a corpus: the
    number itself from 1 up, else that share of the corpus rounded up,
    and never below 2."""
    if min_support >= 1:
        return int(min_support)
    return max(2, math.ceil(min_support * sequence_count))


def patterns_over(sequences: Sequence[Sequence[str]],
                  min_support: float,
                  max_length: int) -> List[SequentialPattern]:
    """The service's ``MinePatterns`` over explicit sequences: an
    empty corpus mines nothing."""
    if not sequences:
        return []
    return prefixspan(sequences, support_of(min_support, len(sequences)),
                      max_length)


def mine_patterns(store: TrajectoryStore,
                  command: P.MinePatterns) -> P.PatternList:
    """The patterns a valid ``MinePatterns`` reads from ``store``."""
    sequences = [hit.trajectory.distinct_state_sequence()
                 for hit in hits(store, command.query)]
    return P.PatternList(patterns=patterns_over(
        sequences, command.min_support, command.max_length))


def wire(store: TrajectoryStore, command: P.Command) -> Tuple[int, bytes]:
    """``(status, body)`` as :func:`~repro.service.wire.execute_json`
    answers a valid ``RunQuery`` or ``MinePatterns``."""
    read = run_query if isinstance(command, P.RunQuery) else mine_patterns
    return 200, read(store, command).to_json()
