"""Byte identity of the CLI commands against stored digests.

``golden_digests.json`` holds the sha256 of the stdout of ``report``,
``kostant`` and ``lambdaw`` at n in {5, 6, 9, 10, 17}, in every format, with
symbolic and numeric λ, as produced before the records engine was rewritten;
and of ``hasse`` (dot and json, with and without ``--covers``) and ``cosets``
(text, csv and json) at n in {5, 6, 9, 10, 17, 21}, both parabolics, as
produced before the walk and the cover completion were rewritten; and of
``verify --n-max 9`` (text and json), which runs back-or-forth on B5 and D5,
as produced before the action matrices became folds of column updates; and
of ``verify --n-max 10`` (text and json), the only run with the rank-6
``oracle`` and ``group-order`` rows, as produced before those rows moved to a
signed-permutation closure; and of ``verify --n-max 11`` and ``--n-max 12``
(text and json), the only runs reaching n = 11 and 12, where
``recombination`` runs on B6 and D7 and the ``sign-rule`` rows draw from the
random stream after it, as produced before ``recombination`` moved to integer
rows and the closure to a precomputed right action; and of ``verify --n-max
21`` (text), which checks ``recombination`` and ``reduced-words`` up to n = 21
without the oracle, as produced before the oracle group moved to a
byte-encoded signed-permutation model and ``recombination`` to one B·R
product per parabolic; and of ``report --n 41``
(text and json), as produced before every record came from one integer
action-matrix reader; and of ``report --n 61`` (text and json), as produced
before every JSON document was streamed to its destination in bounded
batches; and of ``report --n 101`` (text and json) and ``kostant`` and
``lambdaw --n 41 --parabolic P2`` (json and csv), as produced before every
record became integer rows rendered as the walk yields them and text
``report`` stopped building records; and of ``kostant --n 42`` (P2 symbolic,
P1 numeric) and numeric ``lambdaw --n 41 --parabolic P2`` (json), the first to
cover D_k records above n = 10 and numeric λ above n = 17, as produced before
every record was read from w⁻¹ as a signed permutation; and of ``hasse --n 41`` and
``--n 42`` with ``--covers`` (P2 json at both, P1 dot at 42), the first covers above
n = 21, as produced before the covers moved from ϖ-coordinate coroots to signed
transpositions of ε-coordinates; and of ``cosets --n 101 --parabolic P2`` (text), the
largest walk here, as produced before the walk stopped sorting each frontier by word.
Its ``demos`` entry is checked in ``test_demos.py``.
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
