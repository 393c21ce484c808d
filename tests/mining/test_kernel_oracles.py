"""Oracle properties for the fast mining kernels.

The level-wise PrefixSpan kernel is held against the classic
recursive miner over the raw sequences (kept here as the reference)
and its candidate recount against :func:`pattern_support`, and the
batched similarity kernel against the per-pair DP of
:func:`hierarchy_similarity` / :func:`normalized_edit_similarity`,
bit for bit.
"""

import math
import random
import tracemalloc
from typing import Dict, List, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.mining import similarity
from repro.mining.prefixspan import (
    SequentialPattern,
    pattern_support,
    pattern_supports,
    prefixspan,
)
from repro.mining.similarity import (
    hierarchy_similarity,
    normalized_edit_similarity,
    similarity_block,
    similarity_matrix,
)


# ----------------------------------------------------------------------
# PrefixSpan
# ----------------------------------------------------------------------
def reference_prefixspan(sequences: Sequence[Sequence[str]],
                         min_support: int,
                         max_length: int) -> List[Tuple[Tuple[str, ...],
                                                        int]]:
    """The classic PrefixSpan: one projection entry per raw sequence,
    a per-item first-position map and a second pass per extension."""
    out: List[Tuple[Tuple[str, ...], int]] = []

    def grow(prefix, projected):
        if len(prefix) >= max_length:
            return
        support: Dict[str, int] = {}
        first_position: Dict[Tuple[str, int], int] = {}
        for seq_index, offset in projected:
            seen = set()
            sequence = sequences[seq_index]
            for position in range(offset, len(sequence)):
                item = sequence[position]
                if item in seen:
                    continue
                seen.add(item)
                support[item] = support.get(item, 0) + 1
                first_position[(item, seq_index)] = position
        for item in sorted(support):
            if support[item] < min_support:
                continue
            new_prefix = prefix + (item,)
            out.append((new_prefix, support[item]))
            grow(new_prefix,
                 [(seq_index, first_position[(item, seq_index)] + 1)
                  for seq_index, _ in projected
                  if (item, seq_index) in first_position])

    grow((), [(index, 0) for index in range(len(sequences))])
    out.sort(key=lambda pattern: (-pattern[1], pattern[0]))
    return out


#: Short sequences over a small alphabet: duplicates, empty sequences
#: and repeated items (consecutive or not) all occur often.
corpora = st.lists(st.lists(st.sampled_from("abcde"), max_size=7),
                   max_size=30).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=40)
    .map(lambda extra: base + extra) if base else st.just(base))


@settings(max_examples=150, deadline=None)
@given(corpora, st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=6))
def test_prefixspan_matches_reference(sequences, min_support,
                                      max_length):
    mined = prefixspan(sequences, min_support, max_length)
    assert [(p.sequence, p.support) for p in mined] \
        == reference_prefixspan(sequences, min_support, max_length)


#: Candidate lists for the trie recount: the empty pattern, duplicates,
#: patterns longer than any drawn sequence (which hold at most 7
#: items), and sets whose prefixes are absent.
candidate_lists = st.lists(
    st.lists(st.sampled_from("abcdef"), max_size=9),
    max_size=12).flatmap(
    lambda base: st.lists(st.sampled_from(base), max_size=12)
    .map(lambda extra: base + extra) if base else st.just(base))


@settings(max_examples=200, deadline=None)
@given(corpora, candidate_lists)
@example([list("abcab"), list("ba"), list("abcab"), []],
         [list("abc"), [], list("abc"), list("ababababa"), list("c"),
          list("bca"), list("ab"), [], list("f")])
def test_pattern_supports_match_per_pattern_recount(sequences,
                                                    patterns):
    assert pattern_supports(sequences, patterns) == [
        pattern_support(sequences, pattern) for pattern in patterns]


def test_pattern_supports_edge_patterns():
    sequences = [list("abcab"), list("abcab"), list("ba"), []]
    assert pattern_supports(sequences, []) == []
    assert pattern_supports([], [[], ["a"]]) == [0, 0]
    # The empty pattern counts every sequence, the empty one too; a
    # pattern with no stored prefix still counts; duplicates agree.
    assert pattern_supports(
        sequences, [[], list("bab"), list("cab"), list("bab"),
                    list("abcabc")]) == [4, 2, 2, 2, 0]


#: Alphabets of multi-character state names; the two larger ones pass
#: 64 states, so a kernel that kept item sets in bitmasks would fail.
ALPHABETS = [["zone60886", "zone60861", "floor-2"],
             ["room-{:03d}".format(i) for i in range(65)],
             ["wing/{}/zone{}".format(i % 3, i) for i in range(130)]]


@st.composite
def rich_corpora(draw):
    """Distinct sequences with multiplicities, as the raw list: short
    ones over the whole alphabet (up to 400 copies each), long ones
    (21-30 items) over a few states, so repeats are far apart, and
    often a tour of every state cut into short sequences, so the
    corpus codes the whole alphabet."""
    states = draw(st.sampled_from(ALPHABETS))
    tour = draw(st.permutations(states))
    step = draw(st.integers(min_value=1, max_value=3))
    sequences = [list(tour[start:start + step])
                 for start in range(0, len(tour), step)] \
        if draw(st.booleans()) else []
    short = st.tuples(
        st.lists(st.sampled_from(states), max_size=6),
        st.sampled_from([1, 2, 3, 40, 400]))
    long = st.lists(st.sampled_from(states), min_size=2,
                    max_size=5, unique=True).flatmap(
        lambda few: st.tuples(
            st.lists(st.sampled_from(few), min_size=21, max_size=30),
            st.integers(min_value=1, max_value=3)))
    distinct = draw(st.lists(st.one_of(short, long), min_size=1,
                             max_size=6))
    sequences += [list(sequence) for sequence, copies in distinct
                  for _ in range(copies)]
    draw(st.randoms(use_true_random=False)).shuffle(sequences)
    return sequences


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_prefixspan_matches_reference_on_rich_corpora(data):
    """Large alphabets, long sequences, heavy multiplicities, and
    ``max_length`` 1 up to past the longest sequence; every mined
    support is also the recount's."""
    sequences = data.draw(rich_corpora())
    longest = max(map(len, sequences))
    # Exploring past the longest sequence is only affordable for the
    # reference when every sequence is short.
    max_length = data.draw(st.sampled_from(
        [1, 2, 3] + ([longest + 1] if longest <= 6 else [])))
    min_support = data.draw(st.integers(min_value=1,
                                        max_value=len(sequences) + 1))
    mined = prefixspan(sequences, min_support, max_length)
    assert [(p.sequence, p.support) for p in mined] \
        == reference_prefixspan(sequences, min_support, max_length)
    assert pattern_supports(sequences, [p.sequence for p in mined]) \
        == [p.support for p in mined]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_pattern_supports_on_rich_corpora(data):
    """Candidates cut from the corpus's own sequences (deep, shared
    prefixes), with unseen states, the empty pattern and duplicates
    mixed in."""
    sequences = data.draw(rich_corpora())
    pieces = st.lists(st.sampled_from(sequences), min_size=1,
                      max_size=4).map(
        lambda picked: [item for sequence in picked
                        for item in sequence[::2]][:8])
    unseen = st.lists(st.sampled_from(
        [item for alphabet in ALPHABETS for item in alphabet]
        + ["ghost"]), max_size=4)
    patterns = data.draw(st.lists(st.one_of(pieces, unseen),
                                  max_size=12))
    patterns += data.draw(st.lists(
        st.sampled_from(patterns + [[]]), max_size=6))
    assert pattern_supports(sequences, patterns) == [
        pattern_support(sequences, pattern) for pattern in patterns]


#: Traced peak allocation of the recursive bucket miner this kernel
#: replaced, measured with the setup of
#: :func:`test_whole_corpus_mine_allocates_little` (CPython 3.11,
#: numpy 2.4, x86-64).
BUCKET_MINER_PEAK_BYTES = 1_654_000


def test_whole_corpus_mine_allocates_little(louvre_space):
    """A whole-Louvre mine at the service's default shape (support
    0.02, ``max_length`` 4) allocates at most 10% more than the
    recursive bucket miner did: a level is held at once, so its
    arrays must stay small."""
    from repro.core import TrajectoryBuilder
    from repro.louvre.dataset import (
        DatasetParameters,
        LouvreDatasetGenerator,
    )
    from repro.mining.sequences import state_sequences

    generator = LouvreDatasetGenerator(louvre_space, DatasetParameters())
    trajectories, _ = TrajectoryBuilder(
        louvre_space.dataset_zone_nrg()).build_all(
        generator.detection_records())
    sequences = state_sequences(trajectories)
    del trajectories
    assert len(sequences) == 4819
    prefixspan(sequences[:50], 2, 4)  # warm numpy's first-call paths
    tracemalloc.start()
    try:
        patterns = prefixspan(sequences,
                              math.ceil(0.02 * len(sequences)), 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(patterns) > 100
    assert peak <= 1.1 * BUCKET_MINER_PEAK_BYTES


def test_min_support_above_every_support_mines_nothing():
    sequences = [["zone60886", "zone60861"]] * 3 + [["floor-2"]]
    assert prefixspan(sequences, 4, 6) == []
    assert prefixspan(sequences, 3, 6) == [
        SequentialPattern(sequence, 3)
        for sequence in [("zone60861",), ("zone60886",),
                         ("zone60886", "zone60861")]]


def test_prefixspan_keeps_its_errors():
    with pytest.raises(ValueError):
        prefixspan([["a"]], min_support=0)
    with pytest.raises(ValueError):
        prefixspan([["a"]], min_support=1, max_length=0)


# ----------------------------------------------------------------------
# similarity
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def zone_states(small_trajectories):
    return sorted({state for trajectory in small_trajectories
                   for state in trajectory.states()})


def hexed(rows: List[List[float]]) -> List[List[str]]:
    return [[value.hex() for value in row] for row in rows]


def state_corpora(states: List[str]):
    """Corpora with repeats, empty sequences and sequences up to 40
    long, so short and long sides meet in both orders and the pairs'
    side sums spread over chunks."""
    sequence = st.one_of(
        st.lists(st.sampled_from(states[:6]), max_size=5),
        st.lists(st.sampled_from(states), max_size=40))
    return st.lists(sequence, min_size=2, max_size=24).flatmap(
        lambda base: st.lists(st.sampled_from(base), max_size=12)
        .map(lambda extra: base + extra))


#: Chunk budgets small enough that one matrix spans many chunks (down
#: to one pair each), besides the real one.
chunk_budgets = st.one_of(st.integers(min_value=1, max_value=2000),
                          st.just(similarity.CHUNK_CELLS))
#: Per-step cell floors: batch every pair, the real rule, and score
#: every pair with the scalar DP.
step_floors = st.sampled_from([0, similarity.MIN_STEP_CELLS, 10 ** 9])


def kernel_settings(data):
    """Patch the kernel's chunk budget and batching floor to drawn
    values."""
    patched = mock.patch.multiple(
        similarity, CHUNK_CELLS=data.draw(chunk_budgets),
        MIN_STEP_CELLS=data.draw(step_floors))
    return patched


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_is_per_pair_hierarchy_similarity_bit_for_bit(
        louvre_space, zone_states, data):
    hierarchy = louvre_space.zone_hierarchy
    sequences = data.draw(state_corpora(zone_states))
    with kernel_settings(data):
        matrix = similarity_matrix(hierarchy, sequences)
    expected = [[1.0 if i == j else hierarchy_similarity(hierarchy, a, b)
                 for j, b in enumerate(sequences)]
                for i, a in enumerate(sequences)]
    assert hexed(matrix) == hexed(expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_matrix_without_hierarchy_is_normalized_edit_similarity(
        zone_states, data):
    sequences = data.draw(state_corpora(zone_states))
    with kernel_settings(data):
        matrix = similarity_matrix(None, sequences)
    expected = [[1.0 if i == j else normalized_edit_similarity(a, b)
                 for j, b in enumerate(sequences)]
                for i, a in enumerate(sequences)]
    assert hexed(matrix) == hexed(expected)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_rows_equal_matrix_rows(louvre_space, zone_states, data):
    hierarchy = data.draw(st.sampled_from(
        [louvre_space.zone_hierarchy, None]))
    sequences = data.draw(state_corpora(zone_states))
    start = data.draw(st.integers(0, len(sequences)))
    end = data.draw(st.integers(start, len(sequences)))
    matrix = similarity_matrix(hierarchy, sequences)
    assert hexed(similarity_block(hierarchy, sequences, start, end)) \
        == hexed(matrix[start:end])


def test_more_pairs_than_one_chunk_holds(louvre_space,
                                         small_trajectories):
    """The real chunk budget and more unique pairs than one chunk of
    the shortest pairs holds: still the per-pair values."""
    hierarchy = louvre_space.zone_hierarchy
    sequences = sorted({tuple(t.distinct_state_sequence())
                        for t in small_trajectories})
    sequences = [list(sequence) for sequence in sequences]
    shortest_pair_cells = 7 * 1 + 1 + 11  # diagonals, codes, scratch
    assert len(sequences) * (len(sequences) - 1) // 2 \
        > similarity.CHUNK_CELLS // shortest_pair_cells
    matrix = similarity_matrix(hierarchy, sequences)
    for i in range(0, len(sequences), 7):
        for j in range(len(sequences)):
            if i != j:
                assert matrix[i][j].hex() == hierarchy_similarity(
                    hierarchy, sequences[i], sequences[j]).hex()


def test_long_sequence_among_short_ones(louvre_space, zone_states):
    """A 2,000-state sequence beside short ones: the values are still
    the per-pair DP's, and memory stays within 1 MB (a grid padded to
    the longest length would take ~64 MB here)."""
    hierarchy = louvre_space.zone_hierarchy
    rng = random.Random(7)
    sequences = [[rng.choice(zone_states) for _ in range(length)]
                 for length in [2000, 0, 1, 3, 9, 17, 25, 40] * 2]
    tracemalloc.start()
    try:
        matrix = similarity_matrix(hierarchy, sequences)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_048_576
    for i, a in enumerate(sequences):
        for j, b in enumerate(sequences):
            if i != j:
                assert matrix[i][j].hex() \
                    == hierarchy_similarity(hierarchy, a, b).hex()


def test_long_short_pair_goes_to_the_scalar_dp(louvre_space,
                                               zone_states):
    """One long sequence beside one state updates one cell per
    anti-diagonal step: the scalar DP scores it, in either order."""
    hierarchy = louvre_space.zone_hierarchy
    rng = random.Random(11)
    long = [rng.choice(zone_states) for _ in range(2000)]
    with mock.patch.object(similarity, "_rolling_chunk",
                           side_effect=AssertionError("batched")):
        for sequences in ([long, zone_states[:1]],
                          [zone_states[:1], long]):
            matrix = similarity_matrix(hierarchy, sequences)
            assert matrix[0][1].hex() == matrix[1][0].hex() \
                == hierarchy_similarity(hierarchy, *sequences).hex()


def test_tiny_inputs():
    assert similarity_matrix(None, []) == []
    assert similarity_matrix(None, [["a"]]) == [[1.0]]
    assert similarity_block(None, [["a"]], 1, 1) == []
    assert similarity_matrix(None, [[], []]) == [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(ValueError):
        similarity_block(None, [["a"]], 0, 2)
