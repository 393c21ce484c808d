"""Trajectory similarity metrics, including a hierarchy-aware one.

Section 5: "We will next focus on ... proposing semantic similarity
metrics for trajectories (e.g. for visitor profiling)."  Three metrics
are provided:

* **edit distance** over symbolic state sequences (Levenshtein);
* **longest common subsequence** length;
* **hierarchy similarity** — a Wu–Palmer-style measure where the cost
  of substituting two states shrinks with the depth of their lowest
  common ancestor in the layer hierarchy: two exhibits in the same
  room are nearly interchangeable, two zones in different wings are
  not.  This is only expressible because the SITM carries the static
  layer hierarchy of Section 3.2.

:func:`similarity_matrix` and :func:`similarity_block` score each
distinct sequence pair once, bit-identical to the per-pair DPs above.
The substitution costs come from the hierarchy's memoized pair table
(:meth:`LayerHierarchy.similarity_table`).  The pairs, each with its
shorter side as the rows and sorted by side sum, run in chunks of at
most :data:`CHUNK_CELLS` cells through one rolling anti-diagonal pass
in numpy (:func:`_rolling_chunk`); pairs that would leave the pass
few cells per step (a long side beside a short one) take the scalar
DP instead.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.indoor.hierarchy import LayerHierarchy
from repro.mining.corpus import SequenceCorpus


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Levenshtein distance between two state sequences."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, item_a in enumerate(a, start=1):
        current = [i] + [0] * len(b)
        for j, item_b in enumerate(b, start=1):
            substitution = previous[j - 1] + (0 if item_a == item_b else 1)
            current[j] = min(previous[j] + 1,      # deletion
                             current[j - 1] + 1,   # insertion
                             substitution)
        previous = current
    return previous[-1]


def normalized_edit_similarity(a: Sequence[str],
                               b: Sequence[str]) -> float:
    """``1 - distance / max_length`` in [0, 1]; 1 means identical."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest


def longest_common_subsequence(a: Sequence[str],
                               b: Sequence[str]) -> int:
    """Length of the longest (gap-allowed) common subsequence."""
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for item_a in a:
        current = [0] * (len(b) + 1)
        for j, item_b in enumerate(b, start=1):
            if item_a == item_b:
                current[j] = previous[j - 1] + 1
            else:
                current[j] = max(previous[j], current[j - 1])
        previous = current
    return previous[-1]


def state_similarity(hierarchy: LayerHierarchy, state_a: str,
                     state_b: str) -> float:
    """Wu–Palmer-style similarity of two states in [0, 1].

    ``2·depth(lca) / (depth(a) + depth(b))`` with layer levels as
    depths (+1 so the root level is non-zero).  States with no common
    ancestor score 0 (:meth:`LayerHierarchy.node_similarity`).
    """
    return hierarchy.node_similarity(state_a, state_b)


def state_similarity_table(hierarchy: LayerHierarchy,
                           states: Sequence[str]
                           ) -> Dict[Tuple[str, str], float]:
    """Precomputed :func:`state_similarity` over a state alphabet:
    a corpus draws its states from a small alphabet (the detection
    layer's ~70 zones), so each unordered pair is walked once instead
    of once per DP cell."""
    alphabet = sorted(set(states))
    table: Dict[Tuple[str, str], float] = {}
    for index, state_a in enumerate(alphabet):
        table[(state_a, state_a)] = 1.0
        for state_b in alphabet[index + 1:]:
            value = state_similarity(hierarchy, state_a, state_b)
            table[(state_a, state_b)] = value
            table[(state_b, state_a)] = value
    return table


def hierarchy_similarity(hierarchy: LayerHierarchy,
                         a: Sequence[str], b: Sequence[str],
                         table: Optional[Dict[Tuple[str, str], float]]
                         = None) -> float:
    """Hierarchy-aware sequence similarity in [0, 1].

    A soft edit distance: substitution cost is
    ``1 − state_similarity``, insert/delete cost 1, normalised by the
    longer sequence's length.  Sequences through sibling cells score
    higher than through unrelated ones even with zero exact matches.

    Args:
        table: optional precomputed pair-similarity table
            (:func:`state_similarity_table`) covering every state of
            both sequences; built on the fly when omitted.
    """
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if table is None:
        table = state_similarity_table(hierarchy, list(a) + list(b))
    previous: List[float] = [float(j) for j in range(len(b) + 1)]
    for i, item_a in enumerate(a, start=1):
        current = [float(i)] + [0.0] * len(b)
        for j, item_b in enumerate(b, start=1):
            cost = 1.0 - table[(item_a, item_b)]
            current[j] = min(previous[j] + 1.0,
                             current[j - 1] + 1.0,
                             previous[j - 1] + cost)
        previous = current
    distance = previous[-1]
    return 1.0 - distance / max(len(a), len(b))


def _unique_codes(hierarchy: Optional[LayerHierarchy],
                  corpus: SequenceCorpus
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                             np.ndarray]:
    """The corpus's distinct sequences in order of first appearance
    among its rows, coded over the states they hold, sorted, with the
    dense substitution-cost matrix over those states, from the
    hierarchy's memoized similarity table (without a hierarchy every
    substitution costs 1: the soft edit distance is then the exact,
    small-integer edit distance).

    Returns ``(member_of, flat, lengths, costs)``: per row its unique
    index, the unique sequences' codes back to back, and their
    lengths.
    """
    column, members = corpus.column, corpus.members
    order = np.argsort(members, kind="stable")
    head = np.ones(len(order), bool)
    np.not_equal(members[order[1:]], members[order[:-1]], out=head[1:])
    firsts = order[head]  # each distinct id's first row, by id
    unique = members[np.sort(firsts)]
    rank = np.empty(len(column.sequences), np.intp)
    rank[unique] = np.arange(len(unique))
    lengths = column.length[unique].astype(np.intp)
    offsets = np.cumsum(lengths) - lengths
    codes = column.codes[np.arange(int(lengths.sum())) + np.repeat(
        column.start[unique] - offsets, lengths)]
    present = np.zeros(len(column.alphabet), bool)
    present[codes] = True
    alphabet = [column.alphabet[code]
                for code in np.flatnonzero(present).tolist()]
    costs = 1.0 - (np.eye(len(alphabet)) if hierarchy is None
                   else hierarchy.similarity_table(alphabet))
    flat = (np.cumsum(present) - 1)[codes]
    return rank[members], flat, lengths, costs


def _soft_edit_similarity(a: Sequence[int], b: Sequence[int],
                          costs: List[List[float]]) -> float:
    """The scalar DP of :func:`hierarchy_similarity`, coded."""
    previous = [float(j) for j in range(len(b) + 1)]
    for i, code_a in enumerate(a, start=1):
        row, current = costs[code_a], [float(i)] + [0.0] * len(b)
        for j, code_b in enumerate(b, start=1):
            best = previous[j - 1] + row[code_b]  # comparisons beat min()
            if previous[j] + 1.0 < best:
                best = previous[j] + 1.0
            current[j] = best if best <= current[j - 1] + 1.0 \
                else current[j - 1] + 1.0
        previous = current
    return 1.0 - previous[-1] / max(len(a), len(b))


#: Cells (8 bytes each) that one chunk of pairs may hold at once: its
#: three rolling diagonals, both sides' codes and a step's scratch.
CHUNK_CELLS = 1 << 15
#: The leading (longest) pairs of a chunk go to the scalar DP while
#: they alone would keep the batch stepping with fewer cells updated
#: per anti-diagonal step than this (numpy calls grow with the steps,
#: cells with the sides' product).
MIN_STEP_CELLS = 32


def _scalar_lead(sums: np.ndarray, cells: np.ndarray) -> int:
    """How many leading pairs (sorted by side sum, descending) the
    scalar DP should score: the longest run whose cells number fewer
    than ``MIN_STEP_CELLS`` per anti-diagonal step that only it needs
    (steps past the next pair's sum; all of them for the whole run)."""
    only_theirs = sums[0] - np.append(sums[1:], 0)
    cheap = np.flatnonzero(np.cumsum(cells) < MIN_STEP_CELLS * only_theirs)
    return int(cheap[-1]) + 1 if len(cheap) else 0


def _chunk_size(rows: np.ndarray, cols: np.ndarray) -> int:
    """How many leading pairs fit :data:`CHUNK_CELLS` (at least one):
    a pair takes ``7 · rows + cols + 11`` cells at the chunk's widest
    rows and columns (:func:`_rolling_chunk`)."""
    window = slice(0, CHUNK_CELLS // (7 + 1 + 11))  # 1 × 1 pairs
    need = np.arange(1, len(rows[window]) + 1) * (
        7 * np.maximum.accumulate(rows[window])
        + np.maximum.accumulate(cols[window]) + 11)
    return max(1, int(np.searchsorted(need, CHUNK_CELLS, "right")))


def _pair_similarities(flat: np.ndarray, lengths: np.ndarray,
                       costs: np.ndarray,
                       lower: np.ndarray, upper: np.ndarray
                       ) -> np.ndarray:
    """Soft edit similarity of each pair ``(lower[p], upper[p])`` of
    distinct coded sequences, held back to back in ``flat`` with the
    given ``lengths``.

    Each pair is oriented with its shorter side as the rows (the DP of
    the transposed grid is bit-identical: the costs are symmetric and
    ``min`` is exact), and the pairs are sorted by their sides' sum,
    descending, so the pairs still running at any anti-diagonal are a
    prefix.  Chunks of consecutive pairs, each within
    :data:`CHUNK_CELLS`, run by :func:`_rolling_chunk`; the leading
    pairs that would make a chunk step with few cells (a long side
    beside a short one) run by the scalar DP instead.
    """
    swap = lengths[lower] > lengths[upper]
    short = np.where(swap, upper, lower)
    long = np.where(swap, lower, upper)
    # An empty side scores 1 − n / n = 0.
    values = np.zeros(len(lower))
    live = np.flatnonzero(lengths[short])
    order = live[np.argsort(-(lengths[short] + lengths[long])[live],
                            kind="stable")]
    short, long = short[order], long[order]
    rows, cols = lengths[short], lengths[long]
    sums, cells = rows + cols, rows * cols
    offsets = np.cumsum(lengths) - lengths
    # Every sequence's codes back to back, then one padding code.
    flat = np.append(flat.astype(np.intp), 0)
    table = costs.ravel()
    scalar_costs: List[List[float]] = []
    start = 0
    while start < len(order):
        size = _chunk_size(rows[start:], cols[start:])
        stop = start + size
        lead = start + _scalar_lead(sums[start:stop], cells[start:stop])
        if lead > start:
            scalar_costs = scalar_costs or costs.tolist()
            values[order[start:lead]] = [_soft_edit_similarity(
                flat[offsets[a]:offsets[a] + lengths[a]].tolist(),
                flat[offsets[b]:offsets[b] + lengths[b]].tolist(),
                scalar_costs)
                for a, b in zip(lower[order[start:lead]],
                                upper[order[start:lead]])]
        if lead < stop:
            distance = _rolling_chunk(
                flat, offsets[short[lead:stop]], offsets[long[lead:stop]],
                rows[lead:stop], cols[lead:stop], table, len(costs))
            values[order[lead:stop]] = 1.0 - distance / cols[lead:stop]
        start = stop
    return values


def _rolling_chunk(flat: np.ndarray, short_at: np.ndarray,
                   long_at: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray, table: np.ndarray,
                   alphabet: int) -> np.ndarray:
    """The soft edit distances of one chunk of pairs, sorted by side
    sum (descending), each with ``rows[p] <= cols[p]``, whose codes
    start at ``short_at[p]`` / ``long_at[p]`` in ``flat``.

    The DP runs in anti-diagonal order: diagonal ``d`` holds cells
    ``(i, d − i)`` at index ``i + 1``, one pair per column, and
    depends only on diagonals ``d − 1`` and ``d − 2``, so three
    rolling arrays hold the whole state.  Index 0 (row −1) and every
    cell below a diagonal's last row stay ``inf``, so the border cells
    ``(0, j) = j`` and ``(i, 0) = i`` come out of the same recurrence
    as the rest.  A step gathers its substitution costs with one
    ``add`` of the code views (the long side stored reversed, so its
    codes along a diagonal are contiguous) and one ``take``, and then
    does, per cell, the IEEE operations of
    :func:`hierarchy_similarity`'s DP.  Cells outside a pair's grid
    hold garbage that no cell inside it reads.  A pair's distance is
    read when its last diagonal passes.
    """
    pairs, height, width = len(rows), int(rows.max()), int(cols.max())
    pad = len(flat) - 1
    # Row r + 1 holds the short side's code r (times the alphabet
    # size), row 0 the padding code; row k of the long side holds its
    # code width − 1 − k, row width the padding code.
    row = np.arange(-1, height)[:, None]
    short_codes = flat[np.where((row >= 0) & (row < rows),
                                short_at + row, pad)] * alphabet
    back = width - 1 - np.arange(width + 1)[:, None]
    long_codes = flat[np.where((back >= 0) & (back < cols),
                               long_at + back, pad)]
    # Diagonals −1 (all inf) and 0 (D[0][0] = 0).
    earlier, previous, current = np.full((3, height + 2, pairs), np.inf)
    previous[1] = 0.0
    index = np.empty((height + 1) * pairs, dtype=np.intp)
    scratch = np.empty((2, (height + 1) * pairs))
    # running[d]: pairs whose last diagonal is d or later.
    running = np.cumsum(np.bincount(rows + cols)[::-1])[::-1].tolist()
    running.append(0)
    answer_at = (rows + 1) * pairs + np.arange(pairs)
    distance = np.empty(pairs)
    for diagonal in range(1, len(running) - 1):
        live = running[diagonal]
        first, last = max(0, diagonal - width), min(height, diagonal)
        count = last - first + 1
        at = width - diagonal
        cost_index = index[:count * live].reshape(count, live)
        costs = scratch[0, :count * live].reshape(count, live)
        step = scratch[1, :count * live].reshape(count, live)
        cell = current[first + 1:last + 2, :live]
        np.add(short_codes[first:last + 1, :live],
               long_codes[at + first:at + last + 1, :live],
               out=cost_index)
        table.take(cost_index, out=costs, mode="clip")
        np.add(earlier[first:last + 1, :live], costs, out=cell)
        np.add(previous[first:last + 1, :live], 1.0, out=step)
        np.minimum(cell, step, out=cell)
        np.add(previous[first + 1:last + 2, :live], 1.0, out=step)
        np.minimum(cell, step, out=cell)
        done = running[diagonal + 1]
        if done < live:
            distance[done:live] = current.take(answer_at[done:live])
        earlier, previous, current = previous, current, earlier
    return distance


def similarity_matrix(hierarchy: Optional[LayerHierarchy],
                      sequences: Union[Sequence[Sequence[str]],
                                       SequenceCorpus]
                      ) -> List[List[float]]:
    """Pairwise similarity matrix (hierarchy-aware when given one),
    identical to :func:`hierarchy_similarity` (without a hierarchy,
    :func:`normalized_edit_similarity`) per pair.  ``sequences`` may
    be a :class:`~repro.mining.corpus.SequenceCorpus`: a row per
    document."""
    corpus = SequenceCorpus.of_sequences(sequences)
    return _similarity_rows(hierarchy, corpus, 0, len(corpus))


def similarity_block(hierarchy: Optional[LayerHierarchy],
                     sequences: Sequence[Sequence[str]],
                     row_start: int, row_end: int
                     ) -> List[List[float]]:
    """Rows ``[row_start, row_end)`` of :func:`similarity_matrix`,
    bit-identical to them: the shard-partition unit for distributed
    similarity."""
    size = len(sequences)
    if not 0 <= row_start <= row_end <= size:
        raise ValueError("row block [{}, {}) out of range for {} "
                         "sequences".format(row_start, row_end, size))
    return _similarity_rows(hierarchy,
                            SequenceCorpus.of_sequences(sequences),
                            row_start, row_end)


def _similarity_rows(hierarchy: Optional[LayerHierarchy],
                     corpus: SequenceCorpus,
                     row_start: int, row_end: int
                     ) -> List[List[float]]:
    """Matrix rows from one DP per unique sequence pair (corpora
    repeat sequences heavily; the column holds each once), lower
    unique index first; each row shares its unique sequence's float
    objects."""
    if len(corpus) < 2:  # no pairs: at most the diagonal
        return [[1.0] for _ in range(row_start, row_end)]
    member_of, flat, lengths, costs = _unique_codes(hierarchy, corpus)
    rows = np.flatnonzero(np.bincount(member_of[row_start:row_end],
                                      minlength=len(lengths)))
    needed = np.zeros((len(lengths),) * 2, dtype=bool)
    needed[rows, :] = needed[:, rows] = True
    lower, upper = np.nonzero(np.triu(needed, 1))
    scores = np.ones(needed.shape)
    scores[lower, upper] = scores[upper, lower] = _pair_similarities(
        flat, lengths, costs, lower, upper)
    member_of = member_of.tolist()
    pick = itemgetter(*member_of)
    shared = {row: scores[row].tolist() for row in rows.tolist()}
    return [list(pick(shared[member_of[i]]))
            for i in range(row_start, row_end)]
