import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc

import jsonschema
import pytest

from orthoweyl import cli
from orthoweyl.cli import main, output_schema

SCHEMA = output_schema()


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def test_cosets_text_rows(capsys):
    code, out, _ = run_cli(capsys, "cosets", "--n", "7", "--parabolic", "P1")
    assert code == 0
    body = [line for line in out.splitlines() if line and not line.startswith(("length", "-"))]
    assert len(body) == 8
    assert all(line.rstrip().endswith("1") for line in body)


def test_cosets_json_counts(capsys):
    payload = run_json(capsys, "cosets", "--n", "6", "--parabolic", "P2", "--format", "json")
    assert payload["total"] == 24
    assert len(payload["rows"]) == 24
    assert payload["rows"][0] == {
        "length": 0,
        "word": [],
        "word_repr": "1",
        "count_at_length": 1,
    }


def test_cosets_rejects_small_n(capsys):
    code, _, err = run_cli(capsys, "cosets", "--n", "4", "--parabolic", "P1")
    assert code == 2
    assert "at least 5" in err


def test_bad_parabolic_and_format(capsys):
    code, _, _ = run_cli(capsys, "cosets", "--n", "5", "--parabolic", "P3")
    assert code == 2
    # dot is only a hasse format
    code, _, _ = run_cli(capsys, "cosets", "--n", "5", "--parabolic", "P1", "--format", "dot")
    assert code == 2


def test_hasse_dot_edge_count(capsys):
    code, out, _ = run_cli(capsys, "hasse", "--n", "5", "--parabolic", "P2")
    assert code == 0
    assert out.startswith("digraph WP {")
    assert out.count("->") == 14
    assert out.count("label=") == 26


def test_hasse_covers_add_dashed(capsys):
    code, plain, _ = run_cli(capsys, "hasse", "--n", "6", "--parabolic", "P2")
    assert code == 0
    code, covered, _ = run_cli(capsys, "hasse", "--n", "6", "--parabolic", "P2", "--covers")
    assert code == 0
    assert 'style="dashed"' not in plain
    assert 'style="dashed"' in covered


def test_hasse_json(capsys):
    payload = run_json(capsys, "hasse", "--n", "5", "--parabolic", "P2", "--format", "json")
    assert len(payload["nodes"]) == 12
    assert payload["cover_edges"] is None
    payload = run_json(
        capsys, "hasse", "--n", "5", "--parabolic", "P2", "--format", "json", "--covers"
    )
    assert isinstance(payload["cover_edges"], list)


def test_hasse_unwritable_out(capsys, tmp_path):
    target = tmp_path / "missing-dir" / "x.dot"
    code, _, err = run_cli(
        capsys, "hasse", "--n", "5", "--parabolic", "P2", "--out", str(target)
    )
    assert code == 3
    assert "cannot write" in err


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "graph.dot"
    code, out, _ = run_cli(
        capsys, "hasse", "--n", "5", "--parabolic", "P2", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph WP {")


@pytest.mark.parametrize(
    "argv",
    [
        ("report", "--n", "9", "--format", "json"),
        ("hasse", "--n", "9", "--parabolic", "P2", "--covers", "--format", "json"),
        ("verify", "--n-max", "6", "--format", "json"),
    ],
    ids=lambda argv: argv[0],
)
def test_out_file_equals_stdout(capsys, tmp_path, argv):
    target = tmp_path / "out.json"
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_bytes() == printed.encode("utf-8")


def test_kostant_symbolic_table(capsys):
    payload = run_json(capsys, "kostant", "--n", "7", "--parabolic", "P1", "--format", "json")
    assert payload["rows"][0]["mu"] == ["λ2", "λ3", "λ4"]
    assert payload["rows"][1]["mu"] == ["λ1+λ2+1", "λ3", "λ4"]
    assert payload["rows"][-1]["length"] == 7


def test_lambdaw_numeric(capsys):
    payload = run_json(
        capsys,
        "lambdaw",
        "--n",
        "5",
        "--parabolic",
        "P1",
        "--lambda",
        "1,1,1",
        "--format",
        "json",
    )
    assert payload["rows"][0]["a"] == "-2"
    assert payload["rows"][0]["holomorphy_guaranteed"] is False
    assert payload["rows"][-1]["a"] == "2"
    code, out, _ = run_cli(capsys, "lambdaw", "--n", "5", "--parabolic", "P2")
    assert code == 0
    assert "λ" in out  # symbolic by default


def test_lambda_validation(capsys):
    code, _, err = run_cli(
        capsys, "lambdaw", "--n", "5", "--parabolic", "P1", "--lambda", "1,1"
    )
    assert code == 2 and "exactly 3" in err
    code, _, err = run_cli(
        capsys, "kostant", "--n", "5", "--parabolic", "P1", "--lambda", "1,0,1"
    )
    assert code == 2 and "regular" in err
    code, _, err = run_cli(
        capsys, "kostant", "--n", "5", "--parabolic", "P1", "--lambda", "1,x,1"
    )
    assert code == 2


def test_report_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "report", "--n", "5")
    assert code == 0
    assert "q0=5" in out and "vcd=8" in out
    assert "[5,7]" in out and "[5,8]" in out

    payload = run_json(capsys, "report", "--n", "9", "--format", "json")
    assert payload["parabolics"][1]["coset_count"] == 40
    assert payload["bounds"] == {"l0": 0, "q0": 9, "vcd": 16}

    payload6 = run_json(capsys, "report", "--n", "6", "--format", "json")
    assert payload6["parabolics"][0]["weight_constraint"] == "λ3 = λ4"
    assert payload6["parabolics"][0]["support"]["weight_constraint_needed"] is True


def test_report_rejects_nonregular(capsys):
    code, _, err = run_cli(capsys, "report", "--n", "5", "--lambda", "1,0,1")
    assert code == 2 and "regular" in err


def test_verify_ok_and_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "6")
    assert code == 0
    assert "summary:" in out and "failed" in out

    payload = run_json(capsys, "verify", "--n-max", "5", "--format", "json")
    assert payload["ok"] is True
    assert all(r["status"] in ("PASS", "SKIP") for r in payload["results"])


def test_verify_skips_oracle_above_guard(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n-max", "12")
    assert code == 0
    skip_lines = [line for line in out.splitlines() if "SKIP" in line]
    assert any("oracle" in line and "n=12" in line for line in skip_lines)


def test_verify_detects_injected_fault(capsys, monkeypatch):
    import orthoweyl.verification as verification

    monkeypatch.setattr(verification, "expected_coset_count", lambda g, p: 999)
    code, out, _ = run_cli(capsys, "verify", "--n-max", "5")
    assert code == 1
    assert "first failure: counts" in out


def test_commands_are_byte_deterministic(capsys):
    for argv in (
        ("cosets", "--n", "9", "--parabolic", "P2", "--format", "csv"),
        ("hasse", "--n", "6", "--parabolic", "P2", "--covers"),
        ("report", "--n", "8", "--format", "json"),
        ("kostant", "--n", "8", "--parabolic", "P2", "--format", "csv"),
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second and first


def test_module_invocation_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "orthoweyl", "cosets", "--n", "5", "--parabolic", "P2",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    again = subprocess.run(
        [sys.executable, "-m", "orthoweyl", "cosets", "--n", "5", "--parabolic", "P2",
         "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert result.stdout == again.stdout
    assert json.loads(result.stdout)["total"] == 12


def test_csv_cells_follow_rendering_contract(capsys):
    code, out, _ = run_cli(
        capsys, "kostant", "--n", "5", "--parabolic", "P1", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "length,word,mu_1,mu_2"
    assert lines[1] == "0,1,λ2,λ3"
    assert lines[2] == "1,s1,λ1+λ2+1,λ3"


def test_lambda_zero_denominator_is_bad_input(capsys):
    code, _, err = run_cli(
        capsys, "kostant", "--n", "5", "--parabolic", "P1", "--lambda", "1/0,1,1"
    )
    assert code == 2
    assert err.startswith("error:") and "Traceback" not in err
    code, _, _ = run_cli(capsys, "report", "--n", "5", "--lambda", "1,1,2/0")
    assert code == 2


def test_irregular_lambda_error_writes_values_plainly():
    result = subprocess.run(
        [sys.executable, "-m", "orthoweyl", "lambdaw", "--n", "5", "--parabolic", "P1",
         "--lambda", "0,1,1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == (
        "error: highest weight must be regular (all coordinates > 0): 0, 1, 1\n"
    )
    assert "Fraction(" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("kostant", "--n", "5", "--parabolic", "P1"),
        ("lambdaw", "--n", "5", "--parabolic", "P2"),
        ("report", "--n", "5"),
    ],
    ids=lambda argv: argv[0],
)
def test_empty_lambda_is_bad_input(capsys, argv):
    # an empty --lambda is a weight with no coordinates, not the symbolic λ
    code, out, err = run_cli(capsys, *argv, "--lambda", "")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [("hasse", "--n", "5", "--parabolic", "P1"), ("report", "--n", "5")]
)
def test_csv_refused_where_not_offered(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "csv")
    assert code == 2
    assert out == "" and "invalid choice: 'csv'" in err


def test_lambda_echoed_in_normal_form(capsys):
    for which in ("kostant", "lambdaw"):
        payload = run_json(
            capsys, which, "--n", "5", "--parabolic", "P2", "--lambda", " 2/4 ,3, 6/3",
            "--format", "json",
        )
        assert payload["lambda"] == ["1/2", "3", "2"]
    report = run_json(capsys, "report", "--n", "5", "--lambda", " 2/4 ,3, 6/3", "--format", "json")
    assert report["lambda"] == payload["lambda"]
    assert report["parabolics"][1]["records"] == payload["rows"]


def _environment(buffered: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
def test_failed_stdout_write_exits_io_error(buffered):
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "orthoweyl", "cosets", "--n", "5", "--parabolic", "P1"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=_environment(buffered),
        )
    assert result.returncode == 3
    assert result.stderr.startswith("error: cannot write to stdout")
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


@pytest.mark.parametrize(
    "argv",
    [["cosets", "--n", "5", "--parabolic", "P1"], ["verify", "--n-max", "5"]],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_io_error(argv):
    # fd 1 closed before the interpreter starts, as by `>&-`: sys.stdout is None
    result = subprocess.run(
        [sys.executable, "-m", "orthoweyl", *argv],
        stderr=subprocess.PIPE,
        text=True,
        preexec_fn=lambda: os.close(1),
    )
    assert result.returncode == 3
    assert result.stderr == "error: cannot write to stdout: stdout is closed\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("report", "--n", "17", "--format", "json"), ("cosets", "--n", "41", "--parabolic", "P2")],
    ids=lambda argv: argv[0],
)
def test_reader_that_closes_early_exits_io_error(argv, buffered):
    # Both outputs exceed a pipe's capacity, so the writer is still writing
    # when the reader leaves; unbuffered, that write comes back short.
    with subprocess.Popen(
        [sys.executable, "-m", "orthoweyl", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_environment(buffered),
    ) as proc:
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read().decode("utf-8")
        code = proc.wait(timeout=120)
    assert code == 3
    assert err.startswith("error: cannot write to stdout") and err.count("\n") == 1
    assert "Traceback" not in err


class _CountingFile(io.RawIOBase):
    """A raw file that takes at most ``limit`` bytes per write and keeps only their digest."""

    def __init__(self, limit: int):
        self.limit = limit
        self.digest = hashlib.sha256()

    def writable(self) -> bool:
        return True

    def write(self, data) -> int:
        taken = data[: self.limit]
        self.digest.update(taken)
        return len(taken)


#: The generated stream: 100 000 chunks of 100 characters, 10 MB in all.
_CHUNKS = 100_000


def _generated_stream():
    return (f"{i:>98}λ\n" for i in range(_CHUNKS))


def _emit_peak(out) -> tuple[int, int]:
    tracemalloc.start()
    try:
        code = cli._emit(_generated_stream(), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak


def _expected_digest() -> str:
    digest = hashlib.sha256()
    for chunk in _generated_stream():
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def test_emit_to_out_holds_a_bounded_batch(tmp_path):
    target = tmp_path / "stream.txt"
    code, peak = _emit_peak(str(target))
    assert code == 0
    assert peak < 256 * 1024
    assert target.stat().st_size >= 8_000_000
    assert hashlib.sha256(target.read_bytes()).hexdigest() == _expected_digest()


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_emit_to_stdout_holds_a_bounded_batch(monkeypatch, buffered):
    # The file takes at most 1000 bytes per write, so unbuffered every batch
    # needs several writes, as on a pipe that a reader drains slowly.
    raw = _CountingFile(1000)
    if buffered:
        stdout = io.TextIOWrapper(io.BufferedWriter(raw), encoding="utf-8")
    else:
        stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    monkeypatch.setattr(sys, "stdout", stdout)
    code, peak = _emit_peak(None)
    assert code == 0
    assert peak < 256 * 1024
    assert raw.digest.hexdigest() == _expected_digest()
