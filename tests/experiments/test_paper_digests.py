"""Byte-for-byte pins on the paper-facing surface.

The model's episodes and annotations, the Louvre corpus, the IndoorGML
exchange of the Louvre space and every experiment's structured result
are the fixed point that refactors must keep.  Each artefact is
reduced to one sha256 digest and compared with the committed
``paper_digests.json``; a failure names every artefact that moved.

After an intended change to one of them, regenerate the manifest::

    python tests/experiments/test_paper_digests.py --write

and say in the change log which artefact moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, Iterable, List, Tuple

import pytest

if __name__ == "__main__":  # run as a script from the repo root
    sys.path.insert(0, os.path.join(os.path.dirname(__file__),
                                    os.pardir, os.pardir, "src"))

from repro.core.builder import TrajectoryBuilder  # noqa: E402
from repro.experiments.runner import run_all  # noqa: E402
from repro.indoor import indoorgml_io  # noqa: E402
from repro.louvre.dataset import LouvreDatasetGenerator  # noqa: E402
from repro.louvre.space import LouvreSpace  # noqa: E402
from repro.service.protocol import canonical_json  # noqa: E402
from repro.stream.segmenter import WatermarkSegmenter  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "paper_digests.json")
#: Events per segmenter chunk; the watermark advances after each.
CHUNK = 256


def _digest(chunks: Iterable[bytes]) -> str:
    """sha256 over newline-terminated byte chunks."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(chunk)
        hasher.update(b"\n")
    return hasher.hexdigest()


def _untimed(value: object) -> object:
    """``value`` without any mapping key ending in ``seconds``: wall
    clock times are the only run-to-run variation in the results."""
    if isinstance(value, dict):
        return {key: _untimed(item) for key, item in value.items()
                if not str(key).endswith("seconds")}
    if isinstance(value, (list, tuple)):
        return [_untimed(item) for item in value]
    return value


def batch_corpus(space: LouvreSpace, records) -> List[bytes]:
    """Canonical trajectories of the batch builder, in its order."""
    builder = TrajectoryBuilder(space.dataset_zone_nrg())
    trajectories, _ = builder.build_all(records)
    return [canonical_json(t.to_dict()) for t in trajectories]


def streamed_corpus(space: LouvreSpace, records) -> List[bytes]:
    """Canonical trajectories of the watermark segmenter fed the
    corpus in event-time order, sorted (closure order is free)."""
    ordered = sorted(records, key=lambda r: (r.t_start, r.t_end,
                                             r.mo_id))
    segmenter = WatermarkSegmenter(
        TrajectoryBuilder(space.dataset_zone_nrg()))
    episodes = []
    for start in range(0, len(ordered), CHUNK):
        for record in ordered[start:start + CHUNK]:
            episodes.extend(segmenter.feed(record))
        if start + CHUNK < len(ordered):
            # Honest: no later event starts before the next one.
            episodes.extend(
                segmenter.advance(ordered[start + CHUNK].t_start))
    episodes.extend(segmenter.close())
    return sorted(canonical_json(t.to_dict()) for t in episodes)


def compute() -> Tuple[Dict[str, str], Dict[str, object]]:
    """``(digests, facts)``: every pinned artefact's digest, and the
    corpus facts the tests check beside the manifest."""
    space = LouvreSpace()
    digests = {"indoorgml.louvre": _digest(
        [indoorgml_io.dumps(space.graph).encode("utf-8")])}
    records = LouvreDatasetGenerator(space).detection_records()
    batch = batch_corpus(space, records)
    streamed = streamed_corpus(space, records)
    digests["corpus.batch"] = _digest(batch)
    digests["corpus.stream"] = _digest(streamed)
    for exp_id, result in run_all(scale=1.0).items():
        digests["experiments." + exp_id] = _digest(
            [canonical_json(_untimed(result))])
    facts = {"records": len(records), "trajectories": len(batch),
             "stream_matches_batch": streamed == sorted(batch)}
    return digests, facts


@pytest.fixture(scope="module")
def surface() -> Tuple[Dict[str, str], Dict[str, object]]:
    return compute()


def test_digests_match_manifest(surface):
    digests, _ = surface
    with open(MANIFEST, encoding="utf-8") as handle:
        manifest = json.load(handle)
    moved = sorted(key for key in set(manifest) | set(digests)
                   if manifest.get(key) != digests.get(key))
    assert not moved, (
        "paper-facing artefacts changed: {}; if intended, regenerate "
        "with `python tests/experiments/test_paper_digests.py --write`"
        .format(", ".join(moved)))


def test_full_scale_corpus_shape(surface):
    _, facts = surface
    assert facts["records"] == 20245
    assert facts["trajectories"] == 4819


def test_streamed_corpus_equals_batch(surface):
    _, facts = surface
    assert facts["stream_matches_batch"]


def test_louvre_indoorgml_round_trips():
    text = indoorgml_io.dumps(LouvreSpace().graph)
    assert indoorgml_io.dumps(indoorgml_io.loads(text)) == text


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python {} --write".format(sys.argv[0]))
    digests, facts = compute()
    if not facts["stream_matches_batch"]:
        sys.exit("streamed corpus differs from the batch build; "
                 "manifest not written")
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("wrote {} digests to {}".format(len(digests), MANIFEST))
