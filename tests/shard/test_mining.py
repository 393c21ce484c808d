"""Sharded ``MinePatterns``: the pruned recount stays exact.

The coordinator mines every shard at the pigeonhole threshold
``L = ceil(S / N)``, keeps the supports the shards return, drops each
candidate whose ceiling (known supports plus ``L - 1`` per shard that
did not mine it) falls short of ``S``, and recounts the rest only on
the shards that did not mine them.  A Hypothesis property holds the
wire bytes to the unsharded executor's, and both to the test-side
reference's (:mod:`tests.service.reference_reads`), over random
windows, lengths and supports; spies on the shard calls check who
gets recounted.
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import protocol as P
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry
from repro.service.wire import execute_json
from tests.service import reference_reads
from tests.shard.conftest import SESSION, ingested_coordinator

DAY = 86400.0


@pytest.fixture(scope="module")
def engines(corpus_docs):
    """(unsharded registry, {N: coordinator}, corpus time span,
    reference store)."""
    binding = LocalBinding(SessionRegistry())
    binding.call(P.IngestDocuments(session=SESSION, docs=corpus_docs))
    store = binding.registry.get(SESSION).workbench.store
    return (binding.registry,
            {count: ingested_coordinator(count, corpus_docs)
             for count in (1, 2, 3)},
            store.time_span(), reference_reads.store_of(corpus_docs))


#: ``2`` is the floor case: local support 1 on two or three shards,
#: where every candidate's support is known and nothing is recounted.
supports = st.one_of(st.just(2), st.integers(min_value=1, max_value=40),
                     st.floats(min_value=0.01, max_value=0.3))


@settings(max_examples=100, deadline=None)
@given(start=st.floats(min_value=0.0, max_value=1.0),
       days=st.one_of(st.none(), st.integers(min_value=1, max_value=60)),
       max_length=st.integers(min_value=1, max_value=5),
       min_support=supports, shard_count=st.sampled_from([1, 2, 3]))
def test_sharded_mining_bytes_match(engines, start, days, max_length,
                                    min_support, shard_count):
    reference, coordinators, (first, last), oracle = engines
    query = None
    if days is not None:
        begin = first + start * max(0.0, last - first - days * DAY)
        query = {"expr": {"op": "window", "start": begin,
                          "end": begin + days * DAY}}
    command = P.MinePatterns(session=SESSION, query=query,
                             min_support=min_support,
                             max_length=max_length)
    expected = reference_reads.wire(oracle, command)
    assert execute_json(reference, command.to_json()) == expected
    assert execute_json(coordinators[shard_count], command.to_json()) \
        == expected


def spy(coordinator, monkeypatch):
    """Record every ``(shard, command, reply)`` the coordinator sends."""
    calls = []
    lock = threading.Lock()
    call = coordinator._call

    def recording(shard, command, deadline=None):
        reply = call(shard, command, deadline)
        with lock:
            calls.append((shard, command, reply))
        return reply

    monkeypatch.setattr(coordinator, "_call", recording)
    return calls


def recounts(calls):
    """Shard → the candidates its recount asked for."""
    return {shard: [tuple(pattern) for pattern in command.patterns]
            for shard, command, _ in calls
            if isinstance(command, P.CountPatterns) and command.patterns}


def mined(calls):
    """Shard → the candidates its mine round returned."""
    return {shard: {tuple(pattern.sequence)
                    for pattern in reply.patterns}
            for shard, command, reply in calls
            if isinstance(command, P.MinePatterns)}


def test_shard_holding_every_candidate_is_not_recounted(corpus_docs,
                                                        monkeypatch):
    # Every document on shard 0: it mines every candidate, so only
    # the empty shard 1 is asked for the counts it cannot have mined.
    # S = 10 gives L = 5: a candidate survives when its shard-0
    # support plus shard 1's ceiling of 4 reaches 10.
    coordinator = ingested_coordinator(2, corpus_docs,
                                       router=lambda doc_id: 0)
    calls = spy(coordinator, monkeypatch)
    reply = coordinator.execute_command(P.MinePatterns(
        session=SESSION, min_support=10, max_length=3))
    assert isinstance(reply, P.PatternList) and reply.patterns
    supports = {tuple(pattern.sequence): pattern.support
                for shard, command, answer in calls
                if isinstance(command, P.MinePatterns) and shard == 0
                for pattern in answer.patterns}
    asked = recounts(calls)
    assert list(asked) == [1]
    assert asked[1] == sorted(candidate
                              for candidate, found in supports.items()
                              if found + 4 >= 10)
    assert [(tuple(p.sequence), p.support) for p in reply.patterns] \
        == sorted(((candidate, found)
                   for candidate, found in supports.items()
                   if found >= 10),
                  key=lambda item: (-item[1], item[0]))


@pytest.mark.parametrize("shard_count", [2, 3])
@pytest.mark.parametrize("min_support", [2, 6, 0.05, 0.2])
def test_recounts_skip_what_each_shard_mined(corpus_docs, monkeypatch,
                                             shard_count, min_support):
    coordinator = ingested_coordinator(shard_count, corpus_docs)
    calls = spy(coordinator, monkeypatch)
    reply = coordinator.execute_command(P.MinePatterns(
        session=SESSION, min_support=min_support, max_length=4))
    assert isinstance(reply, P.PatternList)
    found, asked = mined(calls), recounts(calls)
    for shard, candidates in asked.items():
        assert not found[shard] & set(candidates)
    if min_support == 2:
        # Local support 1: every shard mines each pattern it holds.
        assert asked == {}
