"""Command-line front end.

Commands: cosets, hasse, kostant, lambdaw, report, verify.  Every command is
deterministic (identical argv produce identical bytes) and JSON output
validates against the schema shipped at ``orthoweyl/data/cli_output.schema.json``.

Exit codes: 0 success, 1 verification failure, 2 bad input or out of memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Callable, Iterable, Iterator, Sequence

from .eisenstein import KostantRecord, Report, iter_records, regular_weight, report_summary
from .errors import OrthoweylError
from .hasse import build_hasse, length_histogram, to_dot, to_json_dict, with_bruhat_covers
from .linform import parse_rational, render_form
from .orthogroup import GroupSpec, MaximalParabolic, group_spec, parabolic_choice
from .verification import format_results, run_verification
from .weylgroup import render_word

__all__ = ["main", "output_schema"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_IO = 3


class _CliError(Exception):
    """Bad input; converted to exit code 2."""


def output_schema() -> dict:
    """The JSON schema shipped with the package, covering all CLI JSON output."""
    text = resources.files("orthoweyl").joinpath("data/cli_output.schema.json").read_text()
    return json.loads(text)


def _parse_parabolic(text: str) -> MaximalParabolic:
    try:
        return MaximalParabolic[text.upper()]
    except KeyError:
        raise _CliError(f"parabolic must be P1 or P2, got {text!r}") from None


def _parse_lambda(text: str, k: int) -> tuple[Fraction, ...]:
    try:
        values = tuple(parse_rational(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    if len(values) != k:
        raise _CliError(f"--lambda needs exactly {k} comma-separated values, got {len(values)}")
    return values


def _group(args) -> GroupSpec:
    try:
        return group_spec(args.n)
    except OrthoweylError as exc:
        raise _CliError(str(exc)) from None


#: Characters gathered from a stream of chunks before each write.  A JSON
#: document arrives as many short chunks: one write per batch keeps the system
#: calls few when stdout is unbuffered, and the batch bounds what is held.
_BATCH_CHARS = 8192

_JSON = json.JSONEncoder(ensure_ascii=False, indent=2)


def _batches(chunks: str | Iterable[str]) -> Iterator[str]:
    if isinstance(chunks, str):
        yield chunks
        return
    batch: list[str] = []
    size = 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH_CHARS:
            yield "".join(batch)
            batch, size = [], 0
    if batch:
        yield "".join(batch)


def _stdout_writer() -> Callable[[str], object]:
    stream = sys.stdout
    raw = getattr(stream, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        return stream.write  # a buffered layer finishes a short write itself
    # Unbuffered stdout (``python -u``): the text layer hands each write to
    # the file once and drops whatever a short write left over, so a reader
    # that closes early would truncate the output without an error.  Write
    # the rest until it is taken or the write raises.

    def write(text: str) -> None:
        data = memoryview(text.encode(stream.encoding, stream.errors))
        while data:
            written = raw.write(data)
            if not written:
                raise BlockingIOError(errno.EAGAIN, "stdout took no bytes")
            data = data[written:]

    return write


def _emit(chunks: str | Iterable[str], out: str | None) -> int:
    """Write ``chunks`` (one ``str``, or an iterable of them) to ``out`` or stdout.

    The chunks are written in batches of about ``_BATCH_CHARS`` characters as
    they arrive, so a streamed document is never held whole.
    """
    if out is None:
        if sys.stdout is None:  # fd 1 was already closed when the interpreter started
            print("error: cannot write to stdout: stdout is closed", file=sys.stderr)
            return EXIT_IO
        write = _stdout_writer()
        try:
            for batch in _batches(chunks):
                write(batch)
            sys.stdout.flush()
        except OSError as exc:
            print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
            # The unwritten bytes stay buffered and the interpreter flushes
            # them again at exit, which would fail too and exit 120.  Point
            # fd 1 at the null device so that last flush succeeds.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return EXIT_IO
        return EXIT_OK
    try:
        with open(out, "w", encoding="utf-8") as fh:
            for batch in _batches(chunks):
                fh.write(batch)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _json_chunks(payload: dict) -> Iterator[str]:
    """``json.dumps(payload, ensure_ascii=False, indent=2) + "\n"``, chunk by chunk."""
    yield from _JSON.iterencode(payload)
    yield "\n"


#: A JSON value that stands for an array whose items are streamed; see _json_streamed.
_HOLE = "\0streamed array"


def _json_streamed(
    payload: dict, arrays: Iterable[Callable[[str], Iterable[str]]]
) -> Iterator[str]:
    """``json.dumps(payload, ensure_ascii=False, indent=2) + "\n"``, chunk by chunk, where
    the i-th ``_HOLE`` value of ``payload`` is an array streamed from ``arrays[i]``.

    ``arrays[i](indent)`` yields the JSON text of each item as json.dumps writes
    it at that indent, so only one item is held at a time.
    """
    text, hole = _JSON.encode(payload), _JSON.encode(_HOLE)
    start = 0
    for items in arrays:
        at = text.index(hole, start)
        yield text[start:at]
        line = text[text.rfind("\n", 0, at) + 1 : at]
        outer = line[: len(line) - len(line.lstrip(" "))]
        inner = outer + "  "
        separator = "[\n" + inner
        for item in items(inner):
            yield separator + item
            separator = ",\n" + inner
        yield "[]" if separator[0] == "[" else "\n" + outer + "]"
        start = at + len(hole)
    yield text[start:]
    yield "\n"


class _Echo:
    """A file whose ``write`` returns the line, so ``csv.writer(_Echo()).writerow`` does."""

    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_chunks(header: list[str], rows: Iterable[list[str]]) -> Iterator[str]:
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow(row)


def _text_table(header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


# --- cosets ------------------------------------------------------------------


def cmd_cosets(args) -> int:
    g = _group(args)
    p = _parse_parabolic(args.parabolic)
    diagram = build_hasse(parabolic_choice(g, p))
    hist = length_histogram(diagram)
    rows = [
        {
            "length": node.length,
            "word": list(node.word),
            "word_repr": render_word(node.word),
            "count_at_length": hist[node.length],
        }
        for node in diagram.nodes
    ]
    if args.format == "json":
        payload = {
            "command": "cosets",
            "n": g.n,
            "parabolic": p.name,
            "total": len(diagram.nodes),
            "rows": rows,
        }
        return _emit(_json_chunks(payload), args.out)
    table = [[str(r["length"]), r["word_repr"], str(r["count_at_length"])] for r in rows]
    header = ["length", "word", "N(l)"]
    if args.format == "csv":
        return _emit(_csv_chunks(header, table), args.out)
    return _emit(_text_table(header, table), args.out)


# --- hasse -------------------------------------------------------------------


def cmd_hasse(args) -> int:
    g = _group(args)
    p = _parse_parabolic(args.parabolic)
    diagram = build_hasse(parabolic_choice(g, p))
    if args.covers:
        diagram = with_bruhat_covers(diagram)
    if args.format == "json":
        payload = {"command": "hasse", "n": g.n, "parabolic": p.name}
        payload.update(to_json_dict(diagram))
        return _emit(_json_chunks(payload), args.out)
    return _emit(to_dot(diagram), args.out)


# --- kostant / lambdaw -------------------------------------------------------


# Each record is rendered from its integer rows as the walk yields it; no record
# and no row is held (the text tables, which need every column width first, hold
# their rendered cells).

_JSON_STR = json.encoder.encode_basestring  # json's own string encoder, ensure_ascii=False
_JSON_BOOL = {True: "true", False: "false"}


def _mu_cells(rec: KostantRecord) -> list[str]:
    return [render_form(constant, terms, rec.mu_den) for constant, terms in rec.mu_rows]


def _a_cell(rec: KostantRecord) -> str:
    return render_form(*rec.a_row, rec.a_den)


def _json_array(items: list[str], newline_indent: str) -> str:
    """The items, already JSON, as json.dumps writes a list that closes at ``newline_indent``."""
    if not items:
        return "[]"
    inner = newline_indent + "  "
    return "[" + inner + ("," + inner).join(items) + newline_indent + "]"


def _record_json(indent: str) -> Callable[[KostantRecord], str]:
    """The JSON object of a record row, as json.dumps writes it with its ``{`` at ``indent``."""
    i1 = "\n" + indent + "  "

    def encode(rec: KostantRecord) -> str:
        word = _json_array(list(map(str, rec.word)), i1)
        mu = _json_array(list(map(_JSON_STR, _mu_cells(rec))), i1)
        a_raw = render_form(*rec.a_row, rec.a_raw_den)
        return (
            f'{{{i1}"length": {rec.length},{i1}"word": {word},'
            f'{i1}"word_repr": {_JSON_STR(render_word(rec.word))},{i1}"mu": {mu},'
            f'{i1}"a": {_JSON_STR(_a_cell(rec))},{i1}"a_raw": {_JSON_STR(a_raw)},'
            f'{i1}"holomorphy_guaranteed": {_JSON_BOOL[rec.holomorphy_guaranteed]},'
            f'{i1}"needs_weight_constraint": {_JSON_BOOL[rec.needs_weight_constraint]},'
            f'{i1}"excluded_from_generation": {_JSON_BOOL[rec.excluded_from_generation]}'
            f"{i1[:-2]}}}"
        )

    return encode


def _record_array(records: Iterable[KostantRecord]) -> Callable[[str], Iterator[str]]:
    return lambda indent: map(_record_json(indent), records)


def _kostant_like(args, which: str) -> int:
    g = _group(args)
    p = _parse_parabolic(args.parabolic)
    lam = None if args.lam is None else _parse_lambda(args.lam, g.k)
    try:
        records = iter_records(g, p, None if lam is None else regular_weight(g, lam))
    except OrthoweylError as exc:
        raise _CliError(str(exc)) from None
    if args.format == "json":
        payload = {
            "command": which,
            "n": g.n,
            "k": g.k,
            "parabolic": p.name,
            "lambda": None if lam is None else [str(v) for v in lam],
            "rows": _HOLE,
        }
        return _emit(_json_streamed(payload, [_record_array(records)]), args.out)
    if which == "kostant":
        header = ["length", "word"] + [f"mu_{i}" for i in range(1, g.k)]
        table = ([str(r.length), render_word(r.word), *_mu_cells(r)] for r in records)
    else:
        header = ["length", "word", "a", "holomorphic"]
        table = (
            [str(r.length), render_word(r.word), _a_cell(r), _JSON_BOOL[r.holomorphy_guaranteed]]
            for r in records
        )
    if args.format == "csv":
        return _emit(_csv_chunks(header, table), args.out)
    return _emit(_text_table(header, list(table)), args.out)


def cmd_kostant(args) -> int:
    return _kostant_like(args, "kostant")


def cmd_lambdaw(args) -> int:
    return _kostant_like(args, "lambdaw")


# --- report ------------------------------------------------------------------


def _report_payload(report: Report) -> dict:
    return {
        "command": "report",
        "n": report.n,
        "k": report.k,
        "parity": report.parity,
        "bounds": {
            "l0": report.bounds.l0,
            "q0": report.bounds.q0,
            "vcd": report.bounds.vcd,
        },
        "lambda": None
        if report.lambda_assignment is None
        else [str(v) for v in report.lambda_assignment],
        "parabolics": [
            {
                "parabolic": pr.parabolic.name,
                "coset_count": pr.coset_count,
                "class_label": pr.class_label,
                "cuspidal_degrees": list(pr.cuspidal_degrees),
                "weight_constraint": pr.weight_constraint,
                "histogram": [list(item) for item in pr.histogram],
                "levi_subgroups": [
                    {
                        "index": levi.index,
                        "factors": [f.render() for f in levi.factors],
                        "repr": levi.render(),
                    }
                    for levi in pr.levi_subgroups
                ],
                "support": {
                    "q_min": pr.support.q_min,
                    "q_max": pr.support.q_max,
                    "weight_constraint_needed": pr.support.weight_constraint_needed,
                    "generation": [
                        [e.cuspidal_degree, e.length, e.degree]
                        for e in pr.support.generation
                    ],
                },
                "records": _HOLE,
            }
            for pr in report.parabolics
        ],
    }


def _report_text(report: Report) -> str:
    lines = [
        f"SO({report.n},2): rank k={report.k}, {report.parity} case",
        f"bounds: l0={report.bounds.l0}  q0={report.bounds.q0}  vcd={report.bounds.vcd}",
    ]
    if report.lambda_assignment is not None:
        lines.append("lambda: (" + ",".join(str(v) for v in report.lambda_assignment) + ")")
    for pr in report.parabolics:
        lines.append("")
        lines.append(
            f"{pr.parabolic.name}: |W^P| = {pr.coset_count}, "
            f"cuspidal degrees {set(pr.cuspidal_degrees)}, classes of type ({pr.class_label}, w)"
        )
        if pr.weight_constraint:
            lines.append(f"  requires weight constraint {pr.weight_constraint}")
        lines.append(
            "  degree support ["
            + f"{pr.support.q_min},{pr.support.q_max}"
            + "] from q = d + l(w) over "
            + ", ".join(
                f"d={d}"
                for d in sorted({e.cuspidal_degree for e in pr.support.generation})
            )
            + f", l in [{min(e.length for e in pr.support.generation)},"
            + f"{max(e.length for e in pr.support.generation)}]"
        )
        lines.append(
            "  N(l): " + " ".join(f"{l}:{c}" for l, c in pr.histogram)
        )
        lines.append("  Levi subgroups: " + "; ".join(s.render() for s in pr.levi_subgroups))
    return "\n".join(lines) + "\n"


def cmd_report(args) -> int:
    g = _group(args)
    lam = None if args.lam is None else _parse_lambda(args.lam, g.k)
    try:
        weight = None if lam is None else regular_weight(g, lam)
    except OrthoweylError as exc:
        raise _CliError(str(exc)) from None
    if args.format == "text":
        return _emit(_report_text(report_summary(g, lam)), args.out)
    diagrams = {p: build_hasse(parabolic_choice(g, p)) for p in MaximalParabolic}
    payload = _report_payload(report_summary(g, lam, diagrams))
    arrays = [_record_array(iter_records(g, p, weight, h)) for p, h in diagrams.items()]
    return _emit(_json_streamed(payload, arrays), args.out)


# --- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    if args.n_max < 5:
        raise _CliError(f"--n-max must be at least 5, got {args.n_max}")
    results = run_verification(args.n_max)
    ok = all(r.status != "FAIL" for r in results)
    if args.format == "json":
        payload = {
            "command": "verify",
            "n_max": args.n_max,
            "ok": ok,
            "results": [
                {"check": r.check, "n": r.n, "status": r.status, "detail": r.detail}
                for r in results
            ],
        }
        code = _emit(_json_chunks(payload), args.out)
    else:
        code = _emit(format_results(results), args.out)
    if code != EXIT_OK:
        return code
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# --- entry point -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orthoweyl",
        description="Exact coset, weight and degree tables for the rank-two forms of SO(n,2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, parabolic=True, lam=False, formats=("text", "csv", "json")):
        sp.add_argument("--n", type=int, required=True, help="signature parameter, n >= 5")
        if parabolic:
            sp.add_argument("--parabolic", required=True, help="P1 or P2")
        if lam:
            sp.add_argument(
                "--lambda",
                dest="lam",
                default=None,
                help="comma-separated rationals (p or p/q), length k",
            )
        sp.add_argument("--format", choices=formats, default=formats[0])
        sp.add_argument("--out", default=None, help="write output to this path")

    sp = sub.add_parser("cosets", help="minimal coset representatives with counts N(l)")
    add_common(sp)
    sp.set_defaults(func=cmd_cosets)

    sp = sub.add_parser("hasse", help="orbit diagram as DOT (or JSON)")
    add_common(sp, formats=("dot", "json"))
    sp.add_argument("--covers", action="store_true", help="add cover-only edges (dashed)")
    sp.set_defaults(func=cmd_hasse)

    sp = sub.add_parser("kostant", help="restricted Levi highest weights per representative")
    add_common(sp, lam=True)
    sp.set_defaults(func=cmd_kostant)

    sp = sub.add_parser("lambdaw", help="normalized evaluation coefficients per representative")
    add_common(sp, lam=True)
    sp.set_defaults(func=cmd_lambdaw)

    sp = sub.add_parser("report", help="bounds, supports, Levi lists and all records")
    add_common(sp, parabolic=False, lam=True, formats=("text", "json"))
    sp.set_defaults(func=cmd_report)

    sp = sub.add_parser("verify", help="run the self-verification harness")
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_CliError, OrthoweylError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
