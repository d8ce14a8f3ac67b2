"""Byte identity of the record-carrying commands against stored digests.

``golden_digests.json`` holds the sha256 of the stdout of ``report``,
``kostant`` and ``lambdaw`` at n in {5, 6, 9, 10, 17}, in every format, with
symbolic and numeric λ, as produced before the records engine was rewritten.
"""

import hashlib
import json
from pathlib import Path

import pytest

from orthoweyl.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_digests.json").read_text("utf-8"))


@pytest.mark.parametrize("argv", sorted(GOLDEN["outputs"]))
def test_output_matches_golden_digest(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN["outputs"][argv]
