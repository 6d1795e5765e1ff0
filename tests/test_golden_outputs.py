"""Byte-identity gate: three reference CLI outputs pinned by sha256.

The verify suites and both bench tables print every counted quantity the
scanners and searches produce (scores, counter ops, queries), so a change
that keeps these bytes keeps the scores and ledgers they report. The hashes
were recorded before the counter backends became ledger policies.
"""

import contextlib
import hashlib
import io

import pytest

from qdtree.cli import main

GOLDEN = [
    (
        ["verify", "--instances", "5", "--trials", "5", "--builds", "5", "--d", "8"],
        "482ff722c48b6e1ac3e29edddb9f0980d0b9d34ca293ebf9b64a8b7b11b37752",
    ),
    (
        ["bench"],
        "a8dcb9cedf58769843f909ccfa2655c45ac39275886404920bac33d9fd735d06",
    ),
    (
        ["bench", "--backends", "baseline,treemap,quantum", "--d", "4,8", "--m", "4,16",
         "--seeds", "0,1,2", "--max-height", "6"],
        "11dde42d1a264e98a8c04bd5b395ddc3d450063e38bafadb9da3b34802a1ffb7",
    ),
]


@pytest.mark.parametrize("args, digest", GOLDEN, ids=["verify", "bench", "bench-quantum"])
def test_cli_output_is_byte_identical(args, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest
