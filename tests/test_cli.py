"""End-to-end CLI checks: subcommands, exit codes, output determinism."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsejl import DomainError, SparseJLMatrix, read_matrix
from sparsejl import _csvtext, oracle, transform
from sparsejl._csvtext import csv_text
from sparsejl.cli import _build_parser, read_vectors, run, write_vectors
from sparsejl.transform import _CHUNK_ENTRIES, write_matrix


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPlan:
    def test_valid_request_json(self, capsys):
        code, out, _ = invoke(capsys, "plan", "--eps", "0.05", "--delta", "0.01", "--p", str(1 / 30))
        assert code == 0
        doc = json.loads(out)
        assert doc["m_min"] == 57842
        assert doc["s_implied"] == 1928

    def test_sparsity_violation_exit_code(self, capsys):
        code, _, err = invoke(capsys, "plan", "--eps", "0.05", "--delta", "0.01", "--p", "0.05")
        assert code == 1
        assert "p ⩽ 1/30" in err

    def test_validity_violation_message(self, capsys):
        code, _, err = invoke(capsys, "plan", "--eps", "0.0903", "--delta", "0.01", "--p", str(1 / 30))
        assert code == 1
        assert "ε ⩽ p log(1/2p)" in err

    def test_underflowing_eps_is_validation_error(self, capsys):
        code, _, err = invoke(capsys, "plan", "--eps", "1e-300", "--delta", "0.01", "--p", str(1 / 30))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bound_beyond_float_range_is_validation_error(self, capsys):
        """4 log(2/delta)/(eps^2 h) overflowed here, and math.ceil(inf) raised OverflowError."""
        code, out, err = invoke(capsys, "plan", "--eps", "1.07e-153", "--delta", "0.5", "--p", "3e-156")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "leaves the float range" in err

    def test_csv_format(self, capsys):
        code, out, _ = invoke(
            capsys, "plan", "--eps", "0.05", "--delta", "0.01", "--p", str(1 / 30), "--format", "csv"
        )
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.split(",")[0] == "m_min"
        assert row.split(",")[0] == "57842"


class TestBuildTransform:
    def test_pipeline_unit_norm(self, capsys, tmp_path):
        matrix_path = tmp_path / "A.bin"
        code, out, _ = invoke(
            capsys, "build", "--n", "3", "--m", "8", "--s", "2",
            "--seed", "7", "--out", str(matrix_path),
        )
        assert code == 0
        assert "seed: 7" in out

        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1.0,0.0,0.0\n")
        vec_out = tmp_path / "out.csv"
        code, _, _ = invoke(
            capsys, "transform", "--matrix", str(matrix_path),
            "--in", str(vec_in), "--out", str(vec_out),
        )
        assert code == 0
        y = np.array([float(tok) for tok in vec_out.read_text().strip().split(",")])
        assert len(y) == 8
        assert float(y @ y) == pytest.approx(1.0, abs=1e-12)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.bin", tmp_path / "b.bin"
        code_a, stdout_a, _ = invoke(
            capsys, "build", "--n", "5", "--m", "16", "--s", "3", "--seed", "42", "--out", str(out_a)
        )
        code_b, stdout_b, _ = invoke(
            capsys, "build", "--n", "5", "--m", "16", "--s", "3", "--seed", "42", "--out", str(out_b)
        )
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert stdout_a.replace("a.bin", "X") == stdout_b.replace("b.bin", "X")

    def test_missing_seed_is_generated_and_printed(self, capsys, tmp_path):
        code, out, _ = invoke(
            capsys, "build", "--n", "2", "--m", "4", "--s", "1", "--out", str(tmp_path / "c.bin")
        )
        assert code == 0
        assert out.startswith("seed: ")

    def test_json_matrix_format(self, capsys, tmp_path):
        path = tmp_path / "A.json"
        code, _, _ = invoke(
            capsys, "build", "--n", "2", "--m", "4", "--s", "2",
            "--seed", "9", "--out", str(path), "--format", "json",
        )
        assert code == 0
        assert path.read_text().startswith("{")
        assert read_matrix(path).seed == 9

    def test_json_matrix_with_leading_whitespace(self, capsys, tmp_path):
        """A JSON matrix file starting with a newline goes to the JSON decoder (it was once sent to the
        binary one), which reads back only the canonical text: exit 1, one error line, no output."""
        matrix_path, padded = tmp_path / "A.json", tmp_path / "padded.json"
        invoke(capsys, "build", "--n", "3", "--m", "8", "--s", "2", "--seed", "7",
               "--out", str(matrix_path), "--format", "json")
        padded.write_text("\n \t\r" + matrix_path.read_text())
        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1.0,-2.0,0.5\n")
        code, _, err = invoke(capsys, "transform", "--matrix", str(matrix_path),
                              "--in", str(vec_in), "--out", str(tmp_path / "A.csv"))
        assert code == 0, err
        code, _, err = invoke(capsys, "transform", "--matrix", str(padded),
                              "--in", str(vec_in), "--out", str(tmp_path / "padded.csv"))
        assert code == 1
        assert err == "error: not the canonical JSON text that serialize_json writes: it departs from it at byte 0\n"
        assert not (tmp_path / "padded.csv").exists()

    def test_missing_matrix_file_is_runtime_error(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "transform", "--matrix", str(tmp_path / "missing.bin"),
            "--in", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert err.startswith("error:")

    def test_non_numeric_vector_is_validation_error(self, capsys, tmp_path):
        invoke(capsys, "build", "--n", "2", "--m", "4", "--s", "1", "--seed", "1",
               "--out", str(tmp_path / "A.bin"))
        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1.0,0.0\n0.5,abc\n")
        code, _, err = invoke(
            capsys, "transform", "--matrix", str(tmp_path / "A.bin"),
            "--in", str(vec_in), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "in.csv:2" in err and err.count("\n") == 1

    def test_loose_or_non_finite_vector_is_validation_error(self, capsys, tmp_path):
        """float() reads "1_0" as 10 and passes nan and inf; the vector reader does not."""
        invoke(capsys, "build", "--n", "2", "--m", "4", "--s", "1", "--seed", "1",
               "--out", str(tmp_path / "A.bin"))
        vec_in = tmp_path / "in.csv"
        for bad in ("1_0, 2", "nan, 1", "1, inf", "-infinity, 0", "1e999, 0"):
            vec_in.write_text(f"1.0,0.0\n{bad}\n")
            code, _, err = invoke(
                capsys, "transform", "--matrix", str(tmp_path / "A.bin"),
                "--in", str(vec_in), "--out", str(tmp_path / "o.csv"),
            )
            assert code == 1, bad
            assert err.startswith("error:") and "in.csv:2" in err and err.count("\n") == 1

    def test_seed_outside_64_bits_is_validation_error(self, capsys, tmp_path):
        out = tmp_path / "A.bin"
        for seed in (str(1 << 64), "-1"):
            code, _, err = invoke(capsys, "build", "--n", "2", "--m", "4", "--s", "1",
                                  "--seed", seed, "--out", str(out))
            assert code == 1
            assert "seed must be an integer in [0, 2^64)" in err
        assert not out.exists()

    def test_malformed_json_matrix_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "A.json"
        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1.0\n")
        for content in (b'{"format_version": 1, "n": ', b'{"n": "\xff"}'):
            bad.write_bytes(content)
            code, _, err = invoke(
                capsys, "transform", "--matrix", str(bad),
                "--in", str(vec_in), "--out", str(tmp_path / "o.csv"),
            )
            assert code == 1
            assert err.startswith("error: not the canonical JSON text") and err.count("\n") == 1

    def test_strict_json_matrix_is_validation_error(self, capsys, tmp_path):
        bad = tmp_path / "A.json"
        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1.0\n")
        header = '"format_version": 1, "n": 1, "m": 4, "s": 1'
        for content in (
            '{%s, "seed": 0, "columns": [[[1]]]}' % header,
            '{%s, "seed": 0, "columns": [5]}' % header,
            '{%s, "seed": 0, "columns": [[[3.5, 1]]]}' % header,
            '{%s, "seed": 0, "columns": [[[1, true]]]}' % header,
            '{%s, "seed": 18446744073709551616, "columns": [[[1, 1]]]}' % header,
            '{"columns": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ):
            bad.write_text(content)
            code, _, err = invoke(
                capsys, "transform", "--matrix", str(bad),
                "--in", str(vec_in), "--out", str(tmp_path / "o.csv"),
            )
            assert code == 1
            assert err.startswith("error:") and err.count("\n") == 1

    def test_non_utf8_vector_file_is_validation_error(self, capsys, tmp_path):
        invoke(capsys, "build", "--n", "2", "--m", "4", "--s", "1", "--seed", "1",
               "--out", str(tmp_path / "A.bin"))
        vec_in = tmp_path / "in.csv"
        vec_in.write_bytes(b"\xff\xfe1,0\n")
        code, _, err = invoke(
            capsys, "transform", "--matrix", str(tmp_path / "A.bin"),
            "--in", str(vec_in), "--out", str(tmp_path / "o.csv"),
        )
        assert code == 1
        assert err.startswith("error:") and "in.csv" in err and "UTF-8" in err and err.count("\n") == 1

    def test_vector_file_with_byte_order_mark_names_it(self, capsys, tmp_path):
        """A spreadsheet "CSV UTF-8" export starts with a BOM: rejected, with the BOM named as the cause."""
        invoke(capsys, "build", "--n", "3", "--m", "4", "--s", "1", "--seed", "1",
               "--out", str(tmp_path / "A.bin"))
        vec_in = tmp_path / "bom.csv"
        vec_in.write_bytes("\ufeff1,2,3\n".encode("utf-8"))
        with pytest.raises(DomainError, match=rf"^{re.escape(str(vec_in))}:1: starts with a UTF-8 byte-order mark$"):
            read_vectors(vec_in)
        out = tmp_path / "o.csv"
        code, stdout, err = invoke(capsys, "transform", "--matrix", str(tmp_path / "A.bin"),
                                   "--in", str(vec_in), "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == f"error: {vec_in}:1: starts with a UTF-8 byte-order mark\n"
        assert not out.exists()

    def test_non_finite_projection_is_validation_error(self, capsys, tmp_path):
        """Entries of 1e308 overflow the sums; nothing is written."""
        write_matrix(tmp_path / "A.bin", SparseJLMatrix(
            n=3, m=1, s=1, seed=0, rows=np.zeros((3, 1), dtype=np.uint32),
            signs=np.array([[1], [1], [-1]], dtype=np.int8)))
        vec_in = tmp_path / "in.csv"
        vec_in.write_text("1,2,3\n1e308,1e308,1e308\n")
        out = tmp_path / "o.csv"
        code, stdout, err = invoke(capsys, "transform", "--matrix", str(tmp_path / "A.bin"),
                                   "--in", str(vec_in), "--out", str(out))
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: batch element 1:") and "not finite" in err and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_is_runtime_error(self, capsys, tmp_path):
        """n = 10^14 columns need 728 TiB, beyond a 47-bit address space, so the allocator refuses at once."""
        code, _, err = invoke(capsys, "build", "--n", "100000000000000", "--m", "10", "--s", "10",
                              "--seed", "1", "--out", str(tmp_path / "A.bin"))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "A.bin").exists()

    def test_invalid_sparsity_exit_code(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "build", "--n", "2", "--m", "4", "--s", "5",
            "--seed", "1", "--out", str(tmp_path / "x.bin"),
        )
        assert code == 1
        assert "invalid sparsity" in err


class TestVerify:
    def test_report_fields_and_determinism(self, capsys):
        args = ("verify", "--n", "4", "--m", "8", "--s", "2",
                "--eps", "0.5", "--trials", "200", "--seed", "11")
        code_a, out_a, _ = invoke(capsys, *args)
        code_b, out_b, _ = invoke(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        doc = json.loads(out_a.splitlines()[-1])
        assert doc["trials"] == 200
        assert 0.0 <= doc["ci_low"] <= doc["p_hat"] <= doc["ci_high"] <= 1.0

    def test_non_finite_eps_is_rejected(self, capsys):
        for eps in ("nan", "inf"):
            code, _, err = invoke(capsys, "verify", "--n", "4", "--m", "8", "--s", "2",
                                  "--eps", eps, "--trials", "20", "--seed", "1")
            assert code == 1
            assert "eps must be positive and finite" in err

    def test_explicit_vector_file(self, capsys, tmp_path):
        vec = tmp_path / "x.csv"
        vec.write_text("1.0,0.0,0.0,0.0\n")
        code, out, _ = invoke(
            capsys, "verify", "--n", "4", "--m", "8", "--s", "2", "--eps", "0.5",
            "--trials", "50", "--seed", "11", "--x-file", str(vec),
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1])["n"] == 4

    def test_seed_outside_64_bits_is_rejected(self, capsys):
        for seed in ("-1", str(1 << 64)):
            code, _, err = invoke(capsys, "verify", "--n", "4", "--m", "8", "--s", "2",
                                  "--eps", "0.5", "--trials", "20", "--seed", seed)
            assert code == 1
            assert "seed must be an integer in [0, 2^64)" in err

    def test_nan_vector_file_is_rejected(self, capsys, tmp_path):
        """A NaN x once certified p_hat = 0 at a shape where a unit x fails 56% of trials."""
        vec = tmp_path / "x.csv"
        vec.write_text("nan, nan\n")
        code, out, err = invoke(
            capsys, "verify", "--n", "2", "--m", "64", "--s", "8", "--eps", "0.01",
            "--trials", "100", "--seed", "3", "--x-file", str(vec),
        )
        assert code == 1
        assert "p_hat" not in out and err.startswith("error:")

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_non_positive_n_is_validation_error(self, capsys, n):
        """The default x = 1/sqrt(n) once ended in a ZeroDivisionError or ValueError traceback."""
        code, out, err = invoke(capsys, "verify", "--n", n, "--m", "8", "--s", "2",
                                "--eps", "0.5", "--trials", "5", "--seed", "1")
        assert code == 1
        assert "p_hat" not in out
        assert err == f"error: n must be an integer >= 1, got {n}\n"

    def test_x_file_must_hold_one_vector(self, capsys, tmp_path):
        vec = tmp_path / "x.csv"
        vec.write_text("1.0,0.0\n0.0,1.0\n")
        code, _, err = invoke(
            capsys, "verify", "--n", "2", "--m", "4", "--s", "1", "--eps", "0.5",
            "--trials", "10", "--seed", "1", "--x-file", str(vec),
        )
        assert code == 1
        assert "exactly one vector" in err


    def test_out_of_memory_is_runtime_error(self, capsys):
        """10^14 trials need 728 TiB of samples, beyond a 47-bit address space, so the allocator refuses at once."""
        code, _, err = invoke(capsys, "verify", "--n", "2", "--m", "4", "--s", "2", "--eps", "0.5",
                              "--trials", "100000000000000", "--seed", "1")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1


class TestBounds:
    ROWS = ["gaussian_reference", "decoupling_explicit", "bennet"]

    def test_csv_table(self, capsys):
        """The CSV header is the keys the JSON rows carry; it once said formula_value where JSON said value."""
        flags = ("bounds", "--eps", "0.05", "--delta", "0.01", "--p", "0.0333333")
        code, out, _ = invoke(capsys, *flags)
        assert code == 0
        header, *lines = out.strip().split("\n")
        assert header == "source,value,valid"
        assert [line.split(",")[0] for line in lines] == self.ROWS
        code, out, _ = invoke(capsys, *flags, "--format", "json")
        assert code == 0
        assert all(sorted(row) == sorted(header.split(",")) for row in json.loads(out))

    def test_underflowing_eps_marks_rows_invalid(self, capsys):
        code, out, _ = invoke(capsys, "bounds", "--eps", "1e-300", "--delta", "0.01",
                              "--p", str(1 / 30), "--format", "json")
        assert code == 0
        assert not any(row["valid"] for row in json.loads(out))

    @pytest.mark.parametrize("flags,message", [
        (["--p", "nan"], "p must be finite and in (0, 1]"),
        (["--p", "inf"], "p must be finite and in (0, 1]"),
        (["--p", "0.01", "--B", "nan"], "unrecognized arguments: --B nan"),
        (["--p", "0.01", "--B", "inf"], "unrecognized arguments: --B inf"),
    ], ids=["nan", "inf", "B-nan", "B-inf"])
    def test_non_finite_p_is_validation_error(self, capsys, flags, message):
        """With --p nan, max(a, nan) returned a and five rows were marked valid; --B nan and inf exited 0,
        and --B is no longer a flag."""
        code, out, err = invoke(capsys, "bounds", "--eps", "0.1", "--delta", "0.1", *flags)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("flags,message", [
        (["--p", "5"], "p must be finite and in (0, 1], got 5.0"),
        (["--p", "0.01", "--B", "4"], "unrecognized arguments: --B 4"),
        (["--p", "0.01", "--constant", "2"], "unrecognized arguments: --constant 2"),
    ], ids=["p-above-1", "B-4", "constant-2"])
    def test_rejected_input_is_validation_error(self, capsys, flags, message):
        """--p 5 exited 0 with the decoupling_explicit row valid; --B and --constant are no longer flags."""
        code, out, err = invoke(capsys, "bounds", "--eps", "0.05", "--delta", "0.01", *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("eps,p", [("0.05", "0.05"), ("1e-300", str(1 / 30)), ("1.07e-153", "3e-156")],
                             ids=["p-above-sparsity-limit", "eps-underflow", "bound-overflow"])
    def test_json_is_strict(self, capsys, eps, p):
        """Invalid rows were written with NaN or Infinity, which RFC 8259 JSON does not allow."""
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        code, out, _ = invoke(capsys, "bounds", "--eps", eps, "--delta", "0.5", "--p", p, "--format", "json")
        assert code == 0
        rows = json.loads(out, parse_constant=reject)
        assert [row["source"] for row in rows] == self.ROWS
        assert any(row["value"] is None for row in rows)
        assert all(row["valid"] == (row["value"] is not None) for row in rows)

    def test_consistent_with_plan(self, capsys):
        """The bennet row is plan's m_min and the gaussian_reference row its gaussian_reference, bit for bit."""
        flags = ("--eps", "0.05", "--delta", "0.01", "--p", str(1 / 30), "--format", "json")
        code, out, _ = invoke(capsys, "bounds", *flags)
        assert code == 0
        rows = {row["source"]: row["value"] for row in json.loads(out)}
        code, out, _ = invoke(capsys, "plan", *flags)
        assert code == 0
        plan = json.loads(out)
        assert rows["bennet"] == plan["m_min"]
        assert rows["gaussian_reference"] == plan["gaussian_reference"]


def test_readme_cli_examples_parse():
    """Every `sparsejl ...` line of the README's CLI code block parses, so a renamed or removed flag fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [line for line in block.splitlines() if line.startswith("sparsejl ")]
    assert len(examples) >= 6
    for line in examples:
        args = _build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def _three_product_shortest(bits):
    """Schubfach's (f, k) with the rounding interval's middle and both ends each from its own
    full 128-bit products: the writer's kernel before it took the ends from the middle's limbs.
    A test-only reference for ``_csvtext._shortest``; returns (f, k, (vbl, vb, vbr))."""
    u = np.uint64
    mask32, mask63 = u(0xFFFF_FFFF), u(0x7FFF_FFFF_FFFF_FFFF)

    def halves(a):
        return a & mask32, a >> u(32)

    def mul_hi(a, b):
        (a_lo, a_hi), (b_lo, b_hi) = a, b
        lh = a_lo * b_hi
        hl = a_hi * b_lo
        mid = ((a_lo * b_lo) >> u(32)) + (lh & mask32) + (hl & mask32)
        return a_hi * b_hi + (lh >> u(32)) + (hl >> u(32)) + (mid >> u(32))

    def round_to_odd(g1, g, cp):
        cp_halves = halves(cp)
        z = ((g1 * cp) >> u(1)) + mul_hi(g[1], cp_halves)
        return (mul_hi(g[0], cp_halves) + (z >> u(63))) | (((z & mask63) + mask63) >> u(63))

    biased = bits >> u(52)
    c = (bits & u((1 << 52) - 1)) | u(1 << 52)
    q = biased.astype(np.int64) - 1075
    irregular = (c == u(1 << 52)) & (biased > u(1))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1 = _csvtext._G1[_csvtext._K_MAX - k]
    g = halves(g1), halves(_csvtext._G0[_csvtext._K_MAX - k])
    cb = c << u(2)
    vb = round_to_odd(g1, g, cb << h)
    vbl = round_to_odd(g1, g, (cb - u(2) + irregular.astype(np.uint64)) << h)
    vbr = round_to_odd(g1, g, (cb + u(2)) << h)
    out = c & u(1)
    s = vb >> u(2)
    sp10 = s // u(10) * u(10)
    tp10 = sp10 + u(10)
    upin = vbl + out <= sp10 << u(2)
    wpin = (tp10 << u(2)) + out <= vbr
    t = s + u(1)
    uin = vbl + out <= s << u(2)
    win = (t << u(2)) + out <= vbr
    mid = (s + t) << u(1)
    lower = (vb < mid) | ((vb == mid) & ((s & u(1)) == u(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t), np.where(lower, s, t)))
    return f, k, (vbl, vb, vbr)


class TestWriteVectors:
    def test_bytes_match_per_value_repr(self, tmp_path):
        rows = [np.array([-0.0, 5e-324, 1e16, 1e-5, 1e22, -1.5, 0.1, 2.0**-1074 * 3]),
                np.array([0.1, 1e-7, 3.4e38], dtype=np.float32),
                np.array([-3, 0, 7, 2**53 + 1]),
                [1, 2.5]]
        write_vectors(tmp_path / "y.csv", rows)
        expect = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        assert (tmp_path / "y.csv").read_text() == expect
        assert expect.startswith("-0.0,5e-324,1e+16,1e-05,1e+22,")

    @staticmethod
    def assert_per_value_repr(rows):
        """write_vectors writes exactly the per-value repr join of ``rows``."""
        expect = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "y.csv"
            write_vectors(path, rows)
            assert path.read_bytes() == expect.encode("ascii")

    @staticmethod
    def assert_rejected(rows, message):
        with tempfile.TemporaryDirectory() as tmp:
            with pytest.raises(DomainError, match=message):
                write_vectors(Path(tmp) / "y.csv", rows)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=40), max_size=4))
    def test_raw_bit_patterns(self, patterns):
        """Any 64-bit pattern, so nan, inf, ±0 and subnormals appear among the normals."""
        rows = [np.array(row, dtype=np.uint64).view(np.float64) for row in patterns]
        empty = [i for i, row in enumerate(rows) if row.size == 0]
        if empty:
            self.assert_rejected(rows, f"row {empty[0]} must be a non-empty vector")
        else:
            self.assert_per_value_repr(rows)

    @pytest.mark.parametrize("value", [
        9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16, 2.0**-1022, 2.0**53 - 1, 2.0**53 + 2,
        5e-324, 1.7976931348623157e308, 0.1, 0.5, 123456.0, 1e15,
    ], ids=repr)
    def test_layout_boundaries(self, value):
        """Each side of the switches between 0.000ddd, dd.ddd, ddd00.0 and exponent form, the
        narrower interval below a power of two (0.5, 2^53), the smallest normal and the largest double."""
        near = [math.nextafter(value, 0.0), value, math.nextafter(value, math.inf)]
        self.assert_per_value_repr([near, [-v for v in near]])

    def test_every_power_of_two_and_its_neighbours(self):
        """2^k for every k in [-1074, 1023], 1 ulp below and above, in both signs: the narrower
        lower end of the interval below a power of two, and the subnormal and exponent-form rows."""
        powers = [2.0**k for k in range(-1074, 1024)]
        near = [v for p in powers for v in (math.nextafter(p, 0.0), p, math.nextafter(p, math.inf))]
        self.assert_per_value_repr([near, [-v for v in near]])

    def test_interval_ends_match_three_products(self):
        """About 10^6 positive normal doubles: ``_shortest`` gives the same (f, k), and
        ``_interval`` the same ends and middle, bit for bit, as full products at each of the three."""
        rng = np.random.default_rng(2025)
        raw = rng.integers(0, 2**64, 700_000, dtype=np.uint64, endpoint=False) >> np.uint64(1)
        scaled = np.abs(rng.standard_normal(300_000) * 10.0 ** rng.uniform(-300, 300, 300_000))
        powers = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
        bits = np.concatenate([raw, scaled.view(np.uint64), powers, powers + np.uint64(1), powers - np.uint64(1),
                               powers + np.uint64(2), powers - np.uint64(2)])
        biased = bits >> np.uint64(52)
        bits = bits[(biased > 0) & (biased < 2047)]
        assert bits.size > 1_000_000
        for lo in range(0, bits.size, 1 << 16):
            block = bits[lo:lo + (1 << 16)]
            f_ref, k_ref, interval_ref = _three_product_shortest(block)
            f, k = _csvtext._shortest(block)
            assert np.array_equal(f, f_ref) and np.array_equal(k, k_ref)
            vbl, vb, vbr, k = _csvtext._interval(block)
            for got, ref in zip((vbl, vb, vbr), interval_ref):
                assert np.array_equal(got, ref)

    def test_end_limbs_equal_full_products(self):
        """``_limbs`` takes full products, checked against Python integers; ``_ends`` moves the limbs
        of g cp to those of g (cp ± 2^e) by carries, and must give what ``_limbs`` gives there.
        Random limbs, so about half the low limbs carry or borrow, and the extremes of the ranges."""
        rng = np.random.default_rng(2026)
        def with_extremes(draws, *extremes):
            return np.concatenate([draws, np.array(extremes, dtype=np.uint64)])

        g = tuple(with_extremes(rng.integers(0, 2**63, 100_000, dtype=np.uint64), 2**63 - 1, 2**63 - 1, 0)
                  for _ in range(2))
        cp = with_extremes(rng.integers(2**6, 2**60, 100_000, dtype=np.uint64), 2**60 - 2**6, 2**6, 2**6)
        e = with_extremes(rng.integers(2, 7, 100_000, dtype=np.uint64), 6, 6, 2)
        limbs = _csvtext._limbs(g, cp)
        for i in [*range(0, cp.size, 499), cp.size - 1]:
            for (hi, lo), gi in zip(((limbs[2], limbs[3]), (limbs[0], limbs[1])), g):
                product = int(gi[i]) * int(cp[i])
                assert (int(hi[i]), int(lo[i])) == (product >> 64, product & (2**64 - 1))
        step = np.uint64(1) << e
        for moved, at in zip(_csvtext._ends(limbs, g, e), (cp - step, cp + step)):
            x1, _, y1, y0 = _csvtext._limbs(g, at)
            assert all(np.array_equal(a, b) for a, b in zip(moved, (x1, y0, y1)))

    def test_one_block_memory(self):
        """The traced peak of writing one row of 2^16 values stays below 17.4 MB, the peak
        when each end of the rounding interval took its own full products (about 13 MB now)."""
        row = np.random.default_rng(15).standard_normal(1 << 16)
        tracemalloc.start()
        try:
            write_vectors(os.devnull, [row])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17_400_000

    def test_rows_across_blocks(self):
        """A row longer than one block, one of exactly one block, and short rows that straddle a block end."""
        rng = np.random.default_rng(11)
        rows = [rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 16, n)
                for n in (2 * _CHUNK_ENTRIES + 17, _CHUNK_ENTRIES, 3, _CHUNK_ENTRIES - 2, 5)]
        self.assert_per_value_repr(rows)

    def test_ragged_rows_around_a_long_row(self):
        """Short rows grouped whole into blocks, and one row longer than a block cut across blocks."""
        rng = np.random.default_rng(13)
        rows = [rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 16, n) for n in rng.integers(1, 40, 3000)]
        rows.insert(1700, rng.standard_normal(_CHUNK_ENTRIES + 3))
        self.assert_per_value_repr(rows)

    def test_block_size_is_read_when_called(self, monkeypatch):
        """Blocks hold whole rows; a row longer than a block is cut across blocks of its own."""
        monkeypatch.setattr(transform, "_CHUNK_ENTRIES", 5)
        long_row = np.arange(12.0) / 7
        pieces = list(csv_text([long_row]))
        assert [piece.count(b",") + piece.count(b"\n") for piece in pieces] == [5, 5, 2]
        assert [piece[-1:] for piece in pieces] == [b",", b",", b"\n"]
        short = [[0.5, -2.0], [1.0], [3.0, 4.0], [5.0], [6.0]]
        assert list(csv_text(short)) == [b"0.5,-2.0\n1.0\n", b"3.0,4.0\n5.0\n", b"6.0\n"]
        self.assert_per_value_repr([long_row, *short])

    def test_ragged_and_empty_rows(self):
        """Ragged rows are written; an empty row could not be read back, so it is rejected."""
        rng = np.random.default_rng(12)
        short = [rng.standard_normal(n) for n in rng.integers(0, 40, 4000)]
        rows = [[], [1.5], [], [], [2.0, -3.25, 1e-7], *short, [], np.array([0.25], dtype=np.float32), []]
        self.assert_rejected(rows, "row 0 must be a non-empty vector")
        self.assert_rejected([[1.5], [2.0, 3.0], []], "row 2 must be a non-empty vector")
        self.assert_rejected([[], []], "row 0 must be a non-empty vector")
        self.assert_per_value_repr([row for row in rows if len(row)])

    @pytest.mark.parametrize("row", [["1.5", True], [True, False], [None], [1.0, None], [1 + 2j],
                                     np.array([1.0, 2.0], dtype=complex), np.array(["1.5"]),
                                     np.array([1.5], dtype=object)],
                             ids=["str", "bool", "None", "float-None", "complex", "complex-array", "str-array",
                                  "object-array"])
    def test_non_real_rows_are_rejected(self, row):
        """Strings, bools, None and complex values are rejected, not coerced to floats."""
        self.assert_rejected([[0.5], row], "row 1 must be a 1-D sequence of real numbers")

    @pytest.mark.parametrize("row", [[], ["1.5"], [1 + 2j]], ids=["empty", "str", "complex"])
    def test_rejected_rows_leave_an_existing_file_as_it_was(self, tmp_path, row):
        """Every row is checked when ``csv_text`` is called, before ``write_vectors`` opens the file."""
        with pytest.raises(DomainError, match="row 1"):
            csv_text([[1.0], row])
        path = tmp_path / "y.csv"
        path.write_bytes(b"1.0,2.0\n")
        with pytest.raises(DomainError, match="row 1"):
            write_vectors(path, [[1.0], row])
        assert path.read_bytes() == b"1.0,2.0\n"

    def test_long_row_memory_stays_in_blocks(self):
        """One row of 8 * 2^20 values takes no more traced memory than one block of values:
        neither a copy of the row (8 bytes a value) nor a row-sized mask (1 byte a value)."""
        def peak(size):
            row = np.random.default_rng(14).standard_normal(size)
            tracemalloc.start()
            try:
                write_vectors(os.devnull, [row])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        size = 8 << 20
        assert peak(size) < peak(_CHUNK_ENTRIES) + size // 8

    def test_seeded_sweep(self):
        """About 10^6 values: scaled normals over every fixed-layout decade, and raw bit patterns."""
        rng = np.random.default_rng(2024)
        scaled = rng.standard_normal(800_000) * 10.0 ** rng.uniform(-6, 18, 800_000)
        patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64, endpoint=False).view(np.float64)
        self.assert_per_value_repr([scaled, patterns])

    def test_row_of_another_dimension_is_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="1-D"):
            write_vectors(tmp_path / "y.csv", [np.zeros((2, 2))])


class TestCheck:
    SMALL = ("check", "--qmax", "6", "--grid-points", "800", "--moment-qmax", "4")
    LABELS = ("multinomial inequality", "psi envelope p=0.01 K=50", "psi envelope p=0.0333333 K=50",
              "Chernoff optimizer identity", "moment bound domination")

    def test_suite_passes(self, capsys):
        code, out, _ = invoke(capsys, *self.SMALL)
        assert code == 0
        assert "SUMMARY: 5/5 checks passed" in out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_one_line_per_check_in_order_then_the_summary(self, capsys):
        """The numbers are not pinned: the Chernoff residual is a few ulps of O(10) values and
        differs across libm and SIMD builds."""
        _, out, _ = invoke(capsys, *self.SMALL)
        lines = out.splitlines()
        assert len(lines) == len(self.LABELS) + 1
        for line, label in zip(lines, self.LABELS):
            assert re.match(f"(PASS|FAIL)  {re.escape(label)}: ", line), line
        assert lines[-1].startswith("SUMMARY: ")

    def test_a_failed_check_is_counted_and_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "chernoff_residual_grid", lambda: (100, 1e-9))
        code, out, _ = invoke(capsys, *self.SMALL)
        assert code == 1
        lines = out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL  Chernoff optimizer identity: max residual 1.000e-09 over 100 points"]
        assert sum(line.startswith("PASS  ") for line in lines) == 4
        assert lines[-1] == "SUMMARY: 4/5 checks passed"

    @pytest.mark.parametrize("flag, value", [("--qmax", "0"), ("--grid-points", "0"), ("--grid-points", "-5"),
                                             ("--moment-qmax", "1"), ("--moment-qmax", "101")])
    def test_bad_flag_stops_before_any_check(self, capsys, flag, value):
        code, out, err = invoke(capsys, "check", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: " + flag) and err.count("\n") == 1

    def test_budget_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "check", "--qmax", "25")
        assert code == 2
        assert "budget" in err

    def test_grid_beyond_the_budget_stops_before_any_check(self, capsys):
        """At about 1 us a point, --grid-points 10000000000 ran for hours."""
        code, out, err = invoke(capsys, "check", "--grid-points", "10000000000")
        assert code == 2
        assert out == ""
        assert err == "error: enumeration budget exceeded: --grid-points = 10000000000 > 10000000\n"


class TestParsing:
    def test_unknown_flag_is_validation_error(self, capsys):
        code, _, err = invoke(capsys, "plan", "--eps", "0.05", "--delta", "0.01",
                              "--p", "0.01", "--bogus", "1")
        assert code == 1
        assert "bogus" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = invoke(capsys, "plan", "--eps", "0.05", "--delta", "0.01")
        assert code == 1
        assert "--p" in err


def test_import_loads_no_scipy_stats_or_optimize():
    """Every CLI command starts by importing the package, so its import time is part of each command's
    set-up time: a fresh ``import sparsejl`` loads only the scipy subpackages it uses (sparse, special)."""
    src = os.path.dirname(os.path.dirname(transform.__file__))
    code = ("import sys, sparsejl; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.stats', 'scipy.optimize'))))")
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"
