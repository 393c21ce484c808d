"""Each read command plans its query once per store it reads.

``Query.plan`` is counted around every read command on the unsharded
engine and on a 2-shard coordinator.  A registry answers from one plan
whatever the command: the page and its total share it, and so do a
mine's corpus size and its patterns.  A coordinator costs exactly one
plan per query-carrying partial a shard answers (cursor follow-ups and
recounts included), plus its own plan of ``Explain`` over the merged
statistics.
"""

import threading

import pytest

from repro.service import protocol as P
from repro.storage.query import Query
from tests.shard.conftest import SESSION, ingested_coordinator

WINDOW = {"expr": {"op": "window", "start": 1488000000.0,
                   "end": 1492000000.0}}
RESIDUAL = {"expr": {"op": "min-entries", "count": 2}}


def reads(query):
    """Every read command over ``query``, each with a label."""
    return [
        ("RunQuery", P.RunQuery(session=SESSION, query=query, limit=5)),
        ("RunQuery-no-total",
         P.RunQuery(session=SESSION, query=query, limit=5,
                    include_total=False)),
        ("RunQuery-ordered",
         P.RunQuery(session=SESSION, query=query, limit=5, offset=2,
                    order_by="duration", descending=True)),
        ("Summary", P.Summary(session=SESSION, query=query)),
        ("SummaryParts", P.SummaryParts(session=SESSION, query=query)),
        ("Flow", P.Flow(session=SESSION, query=query)),
        ("Sequences", P.Sequences(session=SESSION, query=query)),
        ("Similarity", P.Similarity(session=SESSION, query=query)),
        ("CountPatterns",
         P.CountPatterns(session=SESSION, query=query,
                         patterns=[["zone60886"]])),
        ("MinePatterns",
         P.MinePatterns(session=SESSION, query=query, min_support=0.1,
                        max_length=3)),
        ("Explain", P.Explain(session=SESSION, query=query)),
    ]


COMMANDS = [pytest.param(command, id="{}-{}".format(label, name))
            for name, query in (("window", WINDOW),
                                ("residual", RESIDUAL))
            for label, command in reads(query)]

#: Shard commands that plan the query they carry.
PLANNED = (P.RunQuery, P.SummaryParts, P.Flow, P.Sequences,
           P.CountPatterns, P.MinePatterns)


@pytest.fixture()
def plans(monkeypatch):
    """The running count of ``Query.plan`` calls."""
    calls = []
    lock = threading.Lock()
    plan = Query.plan

    def counting(self):
        with lock:
            calls.append(1)
        return plan(self)

    monkeypatch.setattr(Query, "plan", counting)
    return calls


@pytest.fixture(scope="module")
def coordinator(corpus_docs):
    return ingested_coordinator(2, corpus_docs)


@pytest.mark.parametrize("command", COMMANDS)
def test_unsharded_read_plans_once(single, plans, command):
    reply = single.registry.execute_command(command)
    assert not isinstance(reply, P.ErrorInfo), reply
    assert len(plans) == 1


@pytest.mark.parametrize("command", COMMANDS)
def test_sharded_read_plans_once_per_partial(coordinator, plans,
                                             monkeypatch, command):
    partials = []
    call = coordinator._call

    def recording(shard, sent, deadline=None):
        if isinstance(sent, PLANNED):
            partials.append(sent)
        return call(shard, sent, deadline)

    monkeypatch.setattr(coordinator, "_call", recording)
    reply = coordinator.execute_command(command)
    assert not isinstance(reply, P.ErrorInfo), reply
    own = 1 if isinstance(command, P.Explain) else 0
    assert partials or own
    assert len(plans) == len(partials) + own


def test_resumed_page_plans_once(single, plans):
    first = single.call(P.RunQuery(session=SESSION, query=RESIDUAL,
                                   limit=4, order_by="t_start"))
    del plans[:]
    single.call(P.RunQuery(session=SESSION, query=RESIDUAL, limit=4,
                           order_by="t_start",
                           cursor=first.next_cursor))
    assert len(plans) == 1
