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
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.indoor.hierarchy import LayerHierarchy


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
    ancestor score 0.
    """
    if state_a == state_b:
        return 1.0
    lca = hierarchy.lowest_common_ancestor(state_a, state_b)
    if lca is None:
        return 0.0
    depth_a = hierarchy.depth_of_node(state_a) + 1
    depth_b = hierarchy.depth_of_node(state_b) + 1
    depth_lca = hierarchy.depth_of_node(lca) + 1
    return 2.0 * depth_lca / (depth_a + depth_b)


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


def _encoded_costs(hierarchy: Optional[LayerHierarchy],
                   sequences: Sequence[Sequence[str]]
                   ) -> Tuple[List[List[int]], List[List[float]]]:
    """Sequences as state codes plus a dense substitution-cost matrix
    (without a hierarchy every substitution costs 1: the soft edit
    distance is then the exact, small-integer edit distance)."""
    alphabet = sorted({state for sequence in sequences
                       for state in sequence})
    code_of = {state: code for code, state in enumerate(alphabet)}
    costs = [[0.0] * len(alphabet) for _ in alphabet]
    for code_a, state_a in enumerate(alphabet):
        for code_b in range(code_a + 1, len(alphabet)):
            cost = 1.0 if hierarchy is None else 1.0 - state_similarity(
                hierarchy, state_a, alphabet[code_b])
            costs[code_a][code_b] = cost
            costs[code_b][code_a] = cost
    encoded = [[code_of[state] for state in sequence]
               for sequence in sequences]
    return encoded, costs


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


#: Cells of the one workspace every batch of the kernel reuses.
WORKSPACE_CELLS = 32768
#: Buckets whose batches update fewer cells per anti-diagonal step go
#: to the scalar DP (numpy calls grow with sides' sum, cells with product).
MIN_STEP_CELLS = 32


def _pair_similarities(unique: Sequence[Tuple[int, ...]],
                       costs: List[List[float]],
                       lower: np.ndarray, upper: np.ndarray
                       ) -> np.ndarray:
    """Soft edit similarity of each pair ``(unique[lower[p]],
    unique[upper[p]])`` of distinct coded sequences, batched: sides are
    padded to the next power of two (at least 4), pairs bucketed by
    both, and a batch's DP runs in anti-diagonal order (whose cells are
    independent) on strided views of the fixed workspace, one pair per
    column, through ``out=``.  Every cell does the IEEE operations of
    :func:`hierarchy_similarity`'s DP: the values are bit-identical.
    """
    lengths = np.array([len(codes) for codes in unique], dtype=np.intp)
    power = np.array([max(2, (len(codes) - 1).bit_length())
                      for codes in unique], dtype=np.intp)
    slot, padded = np.empty_like(power), {}  # sequences by padded length
    for exponent in map(int, np.flatnonzero(np.bincount(power))):
        members = np.flatnonzero(power == exponent)
        slot[members] = np.arange(len(members))
        padded[1 << exponent] = np.zeros((len(members), 1 << exponent),
                                         np.intp)
        for row, member in zip(padded[1 << exponent], members):
            row[:lengths[member]] = unique[member]
    len_a, len_b = lengths[lower], lengths[upper]
    longer, powers = np.maximum(len_a, len_b), int(power.max()) + 1
    bucket = power[lower] * powers + power[upper]
    values = np.empty(len(lower))  # an empty side scores 1 − n / n = 0
    table = np.array(costs, dtype=float).ravel()
    work = np.empty(WORKSPACE_CELLS)
    for key in map(int, np.flatnonzero(np.bincount(bucket))):
        chosen = np.flatnonzero(bucket == key)
        rows, cols = (1 << exponent for exponent in divmod(key, powers))
        width = cols + 1
        # Per pair: its DP grid, its substitution costs, a DP step.
        grid, costs_at = (rows + 1) * width, (rows + 1) * width + rows * cols
        size = WORKSPACE_CELLS // (costs_at + rows)
        if size * rows * cols < MIN_STEP_CELLS * (rows + cols):
            values[chosen] = [_soft_edit_similarity(
                unique[lower[p]], unique[upper[p]], costs) for p in chosen]
            continue
        for pairs in np.split(chosen, range(size, len(chosen), size)):
            batch = len(pairs)
            dp = work[:grid * batch].reshape(-1, batch)
            sub = work[grid * batch:costs_at * batch].reshape(-1, batch)
            spare = work[costs_at * batch:(costs_at + rows) * batch]
            # The cost lookup borrows the grid's cells before the DP.
            index = dp.view(np.intp)[:rows * cols].reshape(rows, cols, -1)
            np.multiply(padded[rows][slot[lower[pairs]]].T[:, None],
                        len(costs), out=index)
            np.add(index, padded[cols][slot[upper[pairs]]].T[None],
                   out=index)
            np.take(table, index.reshape(-1, batch), out=sub, mode="clip")
            dp[:width] = np.arange(width, dtype=float)[:, None]
            dp[::width] = np.arange(rows + 1, dtype=float)[:, None]
            for diagonal in range(2, rows + cols + 1):
                first = max(1, diagonal - cols)
                count = min(rows, diagonal - 1) - first + 1
                at = first * width + diagonal - first
                stop = at + (count - 1) * cols + 1
                at_sub = (first - 1) * cols + diagonal - first - 1
                cell = dp[at:stop:cols]
                step = spare[:count * batch].reshape(count, batch)
                np.add(dp[at - width - 1:stop - width - 1:cols],
                       sub[at_sub:at_sub + (count - 1) * (cols - 1) + 1:
                           cols - 1], out=cell)
                np.add(dp[at - width:stop - width:cols], 1.0, out=step)
                np.minimum(cell, step, out=cell)
                np.add(dp[at - 1:stop - 1:cols], 1.0, out=step)
                np.minimum(cell, step, out=cell)
            distance = dp[len_a[pairs] * width + len_b[pairs],
                          np.arange(batch)]
            values[pairs] = 1.0 - distance / longer[pairs]
    return values


def similarity_matrix(hierarchy: Optional[LayerHierarchy],
                      sequences: Sequence[Sequence[str]]
                      ) -> List[List[float]]:
    """Pairwise similarity matrix (hierarchy-aware when given one),
    identical to :func:`hierarchy_similarity` (without a hierarchy,
    :func:`normalized_edit_similarity`) per pair."""
    return _similarity_rows(hierarchy, sequences, 0, len(sequences))


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
    return _similarity_rows(hierarchy, sequences, row_start, row_end)


def _similarity_rows(hierarchy: Optional[LayerHierarchy],
                     sequences: Sequence[Sequence[str]],
                     row_start: int, row_end: int
                     ) -> List[List[float]]:
    """Matrix rows from one DP per unique sequence pair (corpora
    repeat sequences heavily), lower unique index first; each row
    shares its unique sequence's float objects."""
    if len(sequences) < 2:  # no pairs: at most the diagonal
        return [[1.0] for _ in range(row_start, row_end)]
    encoded, costs = _encoded_costs(hierarchy, sequences)
    unique_index: Dict[Tuple[int, ...], int] = {}
    member_of = [unique_index.setdefault(tuple(codes), len(unique_index))
                 for codes in encoded]
    rows = sorted(set(member_of[row_start:row_end]))
    needed = np.zeros((len(unique_index),) * 2, dtype=bool)
    needed[rows, :] = needed[:, rows] = True
    lower, upper = np.nonzero(np.triu(needed, 1))
    scores = np.ones(needed.shape)
    scores[lower, upper] = scores[upper, lower] = _pair_similarities(
        list(unique_index), costs, lower, upper)
    pick = itemgetter(*member_of)
    shared = {row: scores[row].tolist() for row in rows}
    return [list(pick(shared[member_of[i]]))
            for i in range(row_start, row_end)]
