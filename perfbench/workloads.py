"""The benchmark's workloads and the correctness gate every output must pass.

Each workload is one fixed ``orthoweyl`` command line.  The reasons for each
choice, and which layer each one isolates, are in ``README.md`` next to this
file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHEMA = Path("src/orthoweyl/data/cli_output.schema.json")

#: sha256 and size of each command line's stdout, recorded at the seed commit.
DIGESTS: dict[str, dict] = json.loads((HERE / "digests.json").read_text())["outputs"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    #: Spans that should carry most of the traced wall time on this workload.
    focus: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "report-sym",
            ("report", "--n", "17", "--format", "json"),
            ("eisenstein.kostant_record",),
        ),
        Workload(
            "hasse-covers",
            ("hasse", "--n", "17", "--parabolic", "P2", "--covers", "--format", "json"),
            ("hasse.with_bruhat_covers",),
        ),
        Workload(
            "cosets-walk",
            ("cosets", "--n", "101", "--parabolic", "P2"),
            ("hasse.build_hasse",),
        ),
        Workload(
            "verify-oracle",
            ("verify", "--n-max", "10", "--format", "json"),
            ("verification.run_verification",),
        ),
    )
}


class Gate:
    """Decides whether one invocation of a workload produced the right output."""

    def __init__(self, root: Path, workload: Workload):
        self.expected = DIGESTS[workload.key]["sha256"]
        self.is_json = "json" in workload.argv
        self.is_verify = workload.argv[0] == "verify"
        self._schema = json.loads((root / SCHEMA).read_text()) if self.is_json else None
        # Schema validity is a function of the bytes alone, so each distinct
        # output is validated once rather than once per invocation.
        self._validated: set[str] = set()

    def check(self, returncode: int, out: bytes) -> str | None:
        """Why the invocation failed, or None when it passed every check."""
        if returncode != 0:
            return f"exit code {returncode}"
        digest = hashlib.sha256(out).hexdigest()
        if digest != self.expected:
            return f"stdout sha256 {digest[:12]}… differs from the recorded {self.expected[:12]}…"
        if self._schema is None or digest in self._validated:
            return None
        try:
            payload = json.loads(out)
            jsonschema.validate(payload, self._schema)
        except (ValueError, jsonschema.ValidationError) as exc:
            return f"output fails the schema: {str(exc).splitlines()[0]}"
        if self.is_verify and payload.get("ok") is not True:
            return 'verify output does not say "ok": true'
        self._validated.add(digest)
        return None
