"""Byte pins on the unsharded read surface.

Every command of the byte-identity gate's ``COMMANDS`` and
``MALFORMED`` lists is answered by a fresh unsharded registry over the
seeded 0.03 corpus; each ``(status, body)`` reduces to one sha256 and
is compared with the committed ``read_digests.json``.  The gate
itself compares the engines with each other, so it would pass if both
moved together; these pins would not.  A failure names every command
whose bytes moved.

After an intended change to a reply, regenerate the manifest::

    python tests/shard/test_read_digests.py --write

and say in the change log which replies moved and why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Dict, List

if __name__ == "__main__":  # run as a script from the repo root
    root = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, os.pardir)
    sys.path[:0] = [os.path.join(root, "src"), root]

from repro.service import protocol as P  # noqa: E402
from repro.service.executor import LocalBinding  # noqa: E402
from repro.service.registry import SessionRegistry  # noqa: E402
from repro.service.wire import execute_json  # noqa: E402
from tests.shard.conftest import SESSION  # noqa: E402
from tests.shard.test_byte_identity import COMMANDS, MALFORMED  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "read_digests.json")


def _value(item):
    """A list entry without its ``pytest.param`` wrapper."""
    return item.values[0] if hasattr(item, "values") else item


def bodies() -> List[bytes]:
    """The wire bodies of both lists, in order."""
    return ([_value(item).to_json() for item in COMMANDS]
            + [_value(item) for item in MALFORMED])


def digests(docs: List[Dict]) -> Dict[str, str]:
    """Request body → sha256 of ``"<status>\\n<reply>"`` from one
    unsharded registry holding ``docs``."""
    binding = LocalBinding(SessionRegistry())
    binding.call(P.IngestDocuments(session=SESSION, docs=docs))
    found = {}
    for body in bodies():
        status, reply = execute_json(binding.registry, body)
        found[body.decode("utf-8")] = hashlib.sha256(
            b"%d\n" % status + reply).hexdigest()
    return found


def build_docs() -> List[Dict]:
    """The seeded corpus of ``tests/shard/conftest.py``."""
    registry = SessionRegistry()
    registry.build(SESSION, source="louvre", scale=0.03, wait=True)
    return [t.to_dict() for t in registry.get(SESSION).workbench.store]


def test_unsharded_read_bytes_are_pinned(corpus_docs):
    with open(MANIFEST, encoding="utf-8") as handle:
        pinned = json.load(handle)
    found = digests(corpus_docs)
    assert sorted(found) == sorted(pinned), "the command lists changed"
    moved = [body for body, digest in found.items()
             if pinned[body] != digest]
    assert not moved, "replies moved:\n" + "\n".join(moved)


def test_both_engines_share_the_read_handlers():
    from repro.service import executor
    from repro.shard import coordinator

    for kind in (P.RunQuery, P.MinePatterns, P.Explain):
        assert coordinator._HANDLERS[kind] is executor._HANDLERS[kind]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/shard/test_read_digests.py --write")
    with open(MANIFEST, "w", encoding="utf-8") as handle:
        json.dump(digests(build_docs()), handle, indent=1,
                  sort_keys=True)
        handle.write("\n")
    print("wrote", MANIFEST)
