"""Command-line front end.

Commands: cosets, hasse, kostant, lambdaw, report, verify.  Every command is
deterministic (identical argv produce identical bytes) and JSON output
validates against the schema shipped at ``orthoweyl/data/cli_output.schema.json``.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from typing import Sequence

from .eisenstein import ParabolicReport, Report, full_report, parabolic_report, regular_weight
from .errors import OrthoweylError
from .hasse import build_hasse, length_histogram, to_dot, to_json_dict, with_bruhat_covers
from .linform import parse_rational
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


def _emit(text: str, out: str | None) -> int:
    if out is None:
        if sys.stdout is None:  # fd 1 was already closed when the interpreter started
            print("error: cannot write to stdout: stdout is closed", file=sys.stderr)
            return EXIT_IO
        try:
            sys.stdout.write(text)
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
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _json_text(payload: dict) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


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
        return _emit(_json_text(payload), args.out)
    table = [[str(r["length"]), r["word_repr"], str(r["count_at_length"])] for r in rows]
    header = ["length", "word", "N(l)"]
    if args.format == "csv":
        return _emit(_csv_text(header, table), args.out)
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
        return _emit(_json_text(payload), args.out)
    return _emit(to_dot(diagram), args.out)


# --- kostant / lambdaw -------------------------------------------------------


def _record_rows(report: ParabolicReport) -> list[dict]:
    return [
        {
            "length": rec.length,
            "word": list(rec.word),
            "word_repr": render_word(rec.word),
            "mu": [f.render() for f in rec.mu_restricted],
            "a": rec.a_normalized.render(),
            "a_raw": rec.a_raw.render(),
            "holomorphy_guaranteed": rec.holomorphy_guaranteed,
            "needs_weight_constraint": rec.needs_weight_constraint,
            "excluded_from_generation": rec.excluded_from_generation,
        }
        for rec in report.records
    ]


def _kostant_like(args, which: str) -> int:
    g = _group(args)
    p = _parse_parabolic(args.parabolic)
    lam = None if args.lam is None else _parse_lambda(args.lam, g.k)
    try:
        report = parabolic_report(g, p, None if lam is None else regular_weight(g, lam))
    except OrthoweylError as exc:
        raise _CliError(str(exc)) from None
    rows = _record_rows(report)
    if args.format == "json":
        payload = {
            "command": which,
            "n": g.n,
            "k": g.k,
            "parabolic": p.name,
            "lambda": None if lam is None else [str(v) for v in lam],
            "rows": rows,
        }
        return _emit(_json_text(payload), args.out)
    if which == "kostant":
        header = ["length", "word"] + [f"mu_{i}" for i in range(1, g.k)]
        table = [[str(r["length"]), r["word_repr"], *r["mu"]] for r in rows]
    else:
        header = ["length", "word", "a", "holomorphic"]
        table = [
            [str(r["length"]), r["word_repr"], r["a"], str(r["holomorphy_guaranteed"]).lower()]
            for r in rows
        ]
    if args.format == "csv":
        return _emit(_csv_text(header, table), args.out)
    return _emit(_text_table(header, table), args.out)


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
                "records": _record_rows(pr),
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
        report = full_report(g, lam)
    except OrthoweylError as exc:
        raise _CliError(str(exc)) from None
    if args.format == "json":
        return _emit(_json_text(_report_payload(report)), args.out)
    return _emit(_report_text(report), args.out)


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
        code = _emit(_json_text(payload), args.out)
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
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OrthoweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
