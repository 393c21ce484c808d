"""The sequence column against the per-call reference.

Every sequence miner reads its input from the store's sequence column
(:mod:`repro.storage.column`), caught up lazily after each ``extend``.
The property drives random interleavings of ingested batches and
mining reads through the executor and holds every reply to the bytes
of :mod:`tests.mining.reference_mining`, which derives each input per
call from the documents.
"""

from typing import Dict, List, Optional

from hypothesis import given, settings, strategies as st

from repro.core.annotations import AnnotationSet
from repro.core.trajectory import SemanticTrajectory, Trace, TraceEntry
from repro.mining.corpus import SequenceCorpus
from repro.service import protocol as P
from repro.service.executor import LocalBinding
from repro.service.registry import SessionRegistry
from repro.storage.column import SequenceColumn
from repro.storage.expr import expr_from_dict
from repro.storage.store import TrajectoryStore
from tests.mining import reference_mining as reference
from tests.service import reference_reads

SESSION = "s"
#: Not in sorted order, so states arriving later sort before or
#: between the ones already coded.
STATES = ["m", "k", "x", "c", "a", "q", "z"]
SPAN = 10_000.0


def visit(mo_id: str, states: List[str], start: float) -> SemanticTrajectory:
    """A visit through ``states``; a repeated state is an event-style
    split (no transition), which the distinct sequence collapses."""
    entries = []
    for index, state in enumerate(states):
        previous = states[index - 1] if index else None
        transition = None if previous in (None, state) \
            else "door-{}-{}".format(previous, state)
        t_start = start + 100.0 * index
        entries.append(TraceEntry(transition, state, t_start,
                                  t_start + 90.0))
    return SemanticTrajectory(mo_id, Trace(entries),
                              AnnotationSet.goals("visit"))


@st.composite
def batches(draw):
    size = draw(st.integers(0, 5))
    # A small pool per batch, so sequences repeat within and across
    # batches; one-state visits are common.
    pool = draw(st.lists(st.sampled_from(STATES), min_size=1,
                         max_size=3, unique=True))
    return [visit("mo{}".format(draw(st.integers(0, 3))),
                  draw(st.lists(st.sampled_from(pool), min_size=1,
                                max_size=5)),
                  float(draw(st.integers(0, int(SPAN)))))
            for _ in range(size)]


@st.composite
def queries(draw) -> Optional[Dict]:
    shape = draw(st.sampled_from(
        ["all", "window", "empty-window", "residual", "follows", "not"]))
    if shape == "all":
        return None
    start = float(draw(st.integers(0, int(SPAN))))
    window = {"op": "window", "start": start,
              "end": start + draw(st.sampled_from([0.0, 150.0, 3000.0]))}
    expr = {
        "window": window,
        "empty-window": {"op": "window", "start": 2 * SPAN,
                         "end": 3 * SPAN},
        "residual": {"op": "and", "children": [
            window if draw(st.booleans()) else
            {"op": "state", "state": draw(st.sampled_from(STATES))},
            {"op": "min-entries", "count": draw(st.integers(1, 3))}]},
        "follows": {"op": "follows", "pattern": draw(st.lists(
            st.sampled_from(STATES), min_size=1, max_size=2))},
        "not": {"op": "not", "child": {
            "op": "state", "state": draw(st.sampled_from(STATES))}},
    }[shape]
    return {"expr": expr}


reads = st.tuples(queries(), st.lists(
    st.lists(st.sampled_from(STATES + ["unseen"]), max_size=3),
    max_size=4), st.sampled_from([1, 2, 0.3, 0.05]), st.integers(1, 4))
steps = st.lists(st.one_of(st.tuples(st.just("extend"), batches()),
                           st.tuples(st.just("read"), reads)),
                 min_size=1, max_size=10)


def expected_replies(docs: List[SemanticTrajectory], query, patterns,
                     min_support, max_length) -> List[bytes]:
    if query is not None:
        expr = expr_from_dict(query["expr"])
        docs = [doc for doc in docs if expr.matches(doc)]
    sequences = reference.state_sequences(docs)
    return [P.PatternList(patterns=reference_reads.patterns_over(
                sequences, min_support, max_length)).to_json(),
            P.PatternSupports(supports=reference.pattern_supports(
                sequences, patterns),
                sequences=len(sequences)).to_json(),
            P.SimilarityMatrix(matrix=reference.similarity_matrix(
                sequences)).to_json(),
            P.SequenceList(sequences=sequences).to_json(),
            P.FlowList(balances=reference.flow_balances(docs)).to_json()]


@settings(max_examples=150, deadline=None)
@given(steps)
def test_replies_match_the_reference(steps):
    binding = LocalBinding(SessionRegistry())
    binding.call(P.IngestDocuments(session=SESSION, docs=[]))
    docs: List[SemanticTrajectory] = []
    for kind, step in steps:
        if kind == "extend":
            reply = binding.call(P.IngestDocuments(
                session=SESSION, docs=[doc.to_dict() for doc in step]))
            assert reply.total == len(docs) + len(step)
            docs.extend(step)
            continue
        query, patterns, min_support, max_length = step
        commands = [
            P.MinePatterns(session=SESSION, query=query,
                           min_support=min_support,
                           max_length=max_length),
            P.CountPatterns(session=SESSION, query=query,
                            patterns=patterns + [[]]),
            P.Similarity(session=SESSION, query=query),
            P.Sequences(session=SESSION, query=query),
            P.Flow(session=SESSION, query=query)]
        got = [binding.call(command).to_json() for command in commands]
        assert got == expected_replies(docs, query, patterns + [[]],
                                       min_support, max_length)


def test_states_sorting_first_or_between_recode_the_column():
    column = SequenceColumn.of([("m", "x"), ("x",)])
    assert column.alphabet == ["m", "x"]
    grown = column.extended([("c", "m"), ("q", "m", "q"), ("m", "x")])
    assert grown.alphabet == ["c", "m", "q", "x"]
    # The old snapshot is untouched; the new one is re-coded.
    assert column.codes.tolist() == [0, 1, 1]
    assert grown.codes.tolist() == [1, 3, 3, 0, 1, 2, 1, 2]
    assert grown.ids.tolist() == [0, 1, 2, 3, 0]
    # ``previous`` stays inside each sequence.
    assert grown.previous.tolist() == [-1, -1, -1, -1, -1, -1, -1, 5]
    assert grown.end.tolist() == [2, 2, 3, 5, 5, 8, 8, 8]


def test_store_column_catches_up_lazily():
    store = TrajectoryStore()
    store.extend([visit("a", ["x", "y"], 0.0)])
    assert len(store._sequence_column) == 0  # nothing on the write path
    first = store.sequence_column()
    assert store.sequence_column() is first
    store.extend([visit("b", ["a", "x", "y"], 0.0),
                  visit("c", ["x", "y"], 0.0)])
    assert len(store._sequence_column) == 1
    column = store.sequence_column()
    assert len(first) == 1  # an earlier snapshot stays as it was
    assert column.ids.tolist() == [0, 1, 0]
    assert column.alphabet == ["a", "x", "y"]
    assert SequenceCorpus.of(store).lists() == [
        ["x", "y"], ["a", "x", "y"], ["x", "y"]]
