"""Structural, determinism, serialization, and statistical transform checks."""

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sparsejl import (
    ConstraintViolation,
    DimensionMismatch,
    DomainError,
    FormatVersionError,
    MatrixInvariantError,
    SparseJLMatrix,
    TruncatedStreamError,
    apply,
    apply_batch,
    build_matrix,
    deserialize,
    deserialize_json,
    serialize,
    serialize_json,
)
from sparsejl.transform import read_matrix, sample_column_scalar, write_matrix
from sparsejl import streams
from sparsejl import transform as tr


def not_canonical(offset=r"\d+"):
    """The pattern of the one error of a text that is not the canonical JSON text, at ``offset``."""
    return rf"^not the canonical JSON text that serialize_json writes: it departs from it at byte {offset}$"


def assert_structure(matrix):
    assert matrix.rows.shape == (matrix.n, matrix.s)
    for i in range(matrix.n):
        col_rows = matrix.rows[i]
        assert len(set(int(r) for r in col_rows)) == matrix.s
        assert all(0 <= int(r) < matrix.m for r in col_rows)
        assert set(int(g) for g in matrix.signs[i]) <= {-1, 1}
    # Every column has unit norm: s squared signs over s.
    assert np.array_equal((matrix.signs.astype(np.int64) ** 2).sum(axis=1), np.full(matrix.n, matrix.s))


def digit_matrix(sign: int) -> SparseJLMatrix:
    """Rows of every decimal width from 1 to 10 at m = 2^32; sign 0 alternates -1, +1."""
    rows = np.array([[10**k for k in range(10)],
                     [0] + [10**k - 1 for k in range(2, 10)] + [2**32 - 1]], dtype=np.uint32)
    signs = np.resize(np.array([-1, 1] if sign == 0 else [sign], dtype=np.int8), rows.shape)
    return SparseJLMatrix(n=2, m=2**32, s=10, seed=3, rows=rows, signs=signs)


def bincount_apply(matrix, x):
    """The per-vector scatter that ``apply`` ran before the CSC kernel."""
    x = np.asarray(x, dtype=np.float64)
    weights = matrix.signs * x[:, None]
    y = np.bincount(matrix.rows.ravel(), weights=weights.ravel(), minlength=matrix.m)
    y *= matrix.scale
    return y


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype == np.float64 and a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# The sampler's sort keys t << kbits | k take (s - 1).bit_length() +
# (m - 1).bit_length() bits: 32 bits keep them uint32, 33 bits need uint64.
KEY_WIDTH_EDGE = [(1 << 21, 1 << 11), (1 << 31, 2), ((1 << 21) + 1, 1 << 11), (1 << 32, 2)]


class TestBuild:
    def test_full_column_when_s_equals_m(self):
        """s = m forces the column to occupy every row, entries +-1/2."""
        matrix = build_matrix(1, 4, 4, seed=123)
        assert sorted(matrix.rows[0].tolist()) == [0, 1, 2, 3]
        assert matrix.scale == 0.5
        y = apply(matrix, [1.0])
        assert sorted(abs(v) for v in y) == [0.5, 0.5, 0.5, 0.5]
        assert float(y @ y) == 1.0

    def test_exactly_s_distinct_rows(self):
        matrix = build_matrix(3, 8, 2, seed=99)
        assert_structure(matrix)

    def test_invalid_sparsity(self):
        with pytest.raises(ConstraintViolation, match="invalid sparsity"):
            build_matrix(2, 4, 5, seed=1)

    def test_domain_errors(self):
        for n, m, s in [(0, 4, 1), (2, 0, 1), (2, 4, 0)]:
            with pytest.raises(DomainError):
                build_matrix(n, m, s, seed=1)

    def test_deterministic_across_calls(self):
        a = build_matrix(16, 64, 5, seed=2024)
        b = build_matrix(16, 64, 5, seed=2024)
        assert a == b
        c = build_matrix(16, 64, 5, seed=2025)
        assert a != c

    def test_vectorized_engine_matches_scalar_reference(self):
        """The numpy column sampler replays the documented scalar algorithm,
        including full columns (s = m), s = 1, m = 1, heavy swap chains
        (s close to m), row ranges far beyond any dense table and both
        sides of the sort keys' 32-bit limit."""
        for n, m, s, seed in [
            (7, 13, 4, 0), (5, 6, 6, 11), (9, 300, 17, 12345),
            (4, 40, 40, 1), (6, 50, 1, 2), (3, 1, 1, 3), (5, 300, 297, 4),
            (3, 1 << 26, 6, 5), (3, 1 << 32, 4, 6),
        ] + [(6 if s > 2 else 3000, m, s, 7) for m, s in KEY_WIDTH_EDGE]:
            matrix = build_matrix(n, m, s, seed)
            for c in range(n):
                root = streams.substream(seed, c)
                rows, signs = sample_column_scalar(m, s, root)
                assert list(matrix.rows[c]) == rows
                assert list(matrix.signs[c]) == signs

    @pytest.mark.parametrize("m, s", KEY_WIDTH_EDGE, ids=["32bit-s2048", "32bit-s2", "33bit-s2048", "33bit-s2"])
    def test_fisher_yates_targets_at_key_width_edge(self, m, s):
        """Targets that repeat, chain, and differ in the top bit only: the
        rows are those of the scalar twin's swap map."""
        rng = np.random.default_rng(s)
        k = np.arange(s)
        top = 1 << ((m - 1).bit_length() - 1)  # the bit a 32-bit key would drop at 33 bits
        targets = np.stack([
            m - 1 - k,  # every step at the top of the range
            np.minimum(k + rng.integers(0, 3, s), m - 1),  # chains through low positions
            np.maximum(k, rng.integers(m - 2 * s, m, s)),  # repeats near the top
            np.where(k % 2, k + top, k + 1),  # pairs of targets that differ in the top bit only
        ]).astype(np.uint32)
        expected = []
        for lane in targets.tolist():
            swap, picked = {}, []
            for step, t in enumerate(lane):
                picked.append(swap.get(t, t))
                swap[t] = swap.get(step, step)
            expected.append(picked)
        rows = targets.copy()
        tr._fisher_yates_rows(rows, m)
        assert rows.tolist() == expected
        assert all(len(set(r)) == s for r in expected)

    def test_readme_matrix_bytes_pinned(self):
        """The README matrix's binary file is the one the benchmark pins."""
        data = serialize(build_matrix(1000, 57842, 1928, 1))
        assert hashlib.sha256(data).hexdigest() == (
            "21cc2836cda337970b06de1a025ccccf6a94cc12bb9779e37e0b09eb0c1f19e2")

    def test_block_size_does_not_change_results(self, monkeypatch):
        full = build_matrix(37, 50, 9, seed=8)
        for entries in (1, 20, 100):
            monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
            assert build_matrix(37, 50, 9, seed=8) == full

    def test_sampler_memory_independent_of_m(self):
        """m = 2^32 builds without a row table: the traced peak stays small."""
        tracemalloc.start()
        try:
            matrix = build_matrix(3, 1 << 32, 4, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert_structure(matrix)
        assert peak < 1 << 20

    def test_structure_sweep(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(1, 80))
            s = int(rng.integers(1, m + 1))
            assert_structure(build_matrix(n, m, s, int(rng.integers(0, 2**63))))

    def test_seed_outside_64_bits_rejected(self):
        """Seeds were masked to 64 bits: 2^64 built seed 0 and -1 built 2^64 - 1."""
        assert build_matrix(2, 5, 2, seed=(1 << 64) - 1).seed == (1 << 64) - 1
        for seed in (-1, 1 << 64, 1.0, True, None):
            with pytest.raises(DomainError, match="seed"):
                build_matrix(2, 5, 2, seed=seed)

    def test_row_index_range_limit(self):
        with pytest.raises(DomainError, match="uint32"):
            build_matrix(1, (1 << 32) + 1, 1, seed=0)


def probe_parts(**changes):
    """The fields of a valid n = 1, m = 4, s = 2 matrix, with ``changes`` applied."""
    parts = dict(n=1, m=4, s=2, seed=0, rows=np.array([[0, 3]], dtype=np.uint32),
                 signs=np.array([[1, -1]], dtype=np.int8))
    parts.update(changes)
    return parts


class TestMatrixRule:
    """The constructor runs the one matrix rule: no invalid matrix exists to apply or write."""

    @pytest.mark.parametrize("row", [9, 100_000, 2 * 10**9])
    def test_row_outside_range(self, row):
        with pytest.raises(MatrixInvariantError, match=rf"row index {row} outside \[0, m=4\)"):
            SparseJLMatrix(**probe_parts(rows=np.array([[0, row]], dtype=np.uint32)))

    def test_row_outside_range_in_subprocess(self):
        """The row that once crashed the sparse kernel: a regression fails here, not the whole run."""
        code = (
            "import sys, numpy as np\n"
            "from sparsejl import MatrixInvariantError, SparseJLMatrix, apply\n"
            "try:\n"
            "    A = SparseJLMatrix(n=1, m=4, s=2, seed=0, rows=np.array([[0, 2 * 10**9]], dtype=np.uint32),\n"
            "                       signs=np.ones((1, 2), dtype=np.int8))\n"
            "except MatrixInvariantError:\n"
            "    sys.exit(0)\n"
            "apply(A, [1.0])\n"
            "sys.exit(3)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(tr.__file__))}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr

    def test_repeated_row(self):
        with pytest.raises(MatrixInvariantError, match="duplicate row index within a column"):
            SparseJLMatrix(**probe_parts(rows=np.array([[2, 2]], dtype=np.uint32)))

    @pytest.mark.parametrize("sign", [2, 0, -3])
    def test_sign_outside_domain(self, sign):
        with pytest.raises(MatrixInvariantError, match="sign domain violated: signs must be -1 or \\+1"):
            SparseJLMatrix(**probe_parts(signs=np.array([[1, sign]], dtype=np.int8)))

    @pytest.mark.parametrize("rows,got", [
        ([[0, 3]], "list"),
        (np.array([[0, 3]], dtype=np.int64), "dtype int64"),
        (np.array([[0.0, 3.0]]), "dtype float64"),
    ], ids=["list", "int64", "float"])
    def test_rows_not_uint32_array(self, rows, got):
        with pytest.raises(DomainError, match=f"rows must be a numpy array of dtype uint32, got {got}"):
            SparseJLMatrix(**probe_parts(rows=rows))

    def test_signs_not_int8_array(self):
        with pytest.raises(DomainError, match="signs must be a numpy array of dtype int8, got dtype int64"):
            SparseJLMatrix(**probe_parts(signs=np.array([[1, -1]])))

    def test_shape_mismatch(self):
        with pytest.raises(MatrixInvariantError, match="entry count mismatch"):
            SparseJLMatrix(**probe_parts(rows=np.array([[0, 3, 1]], dtype=np.uint32)))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(MatrixInvariantError, match=re.escape(
                "expected 2 entries in each of 2 columns, got rows of shape (2, 2) and signs of shape (3, 2)")):
            SparseJLMatrix(**probe_parts(n=2, rows=np.array([[0, 3], [1, 2]], dtype=np.uint32),
                                         signs=np.ones((3, 2), dtype=np.int8)))

    def test_view_is_copied(self):
        """A view's writable base cannot change the matrix after the rule ran."""
        base = np.array([[0, 3]], dtype=np.uint32)
        sign_base = np.array([[1, -1, 1]], dtype=np.int8)
        matrix = SparseJLMatrix(**probe_parts(rows=base[:], signs=sign_base[:, :2]))
        y = apply(matrix, [1.0])
        base[0, 1] = 0
        sign_base[0, 0] = 0
        assert_bitwise(apply(matrix, [1.0]), y)
        assert matrix.rows.tolist() == [[0, 3]] and matrix.signs.tolist() == [[1, -1]]
        matrix.validate()

    def test_owning_arrays_are_copied(self):
        """A view made of an owning array before construction cannot change the matrix, and the caller's arrays stay writable."""
        own = np.array([[0, 3]], dtype=np.uint32)
        own_signs = np.array([[1, -1]], dtype=np.int8)
        v, v_signs = own[:], own_signs[:]
        matrix = SparseJLMatrix(**probe_parts(rows=own, signs=own_signs))
        y = apply(matrix, [1.0])
        v[0, 1] = 0
        v_signs[0, 0] = 0
        assert_bitwise(apply(matrix, [1.0]), y)
        assert matrix.rows.tolist() == [[0, 3]] and matrix.signs.tolist() == [[1, -1]]
        matrix.validate()
        assert own.flags.writeable and own_signs.flags.writeable
        assert own.tolist() == [[0, 0]] and own_signs.tolist() == [[0, -1]]

    @pytest.mark.parametrize("layout", ["owning", "view", "slice", "fortran"])
    def test_held_arrays_are_read_only_contiguous_copies(self, layout):
        """Whatever the caller passes, the matrix holds C-contiguous read-only arrays that own their data."""
        rows = np.array([[0, 3, 1], [2, 1, 0]], dtype=np.uint32)
        signs = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        rows, signs = {
            "owning": (rows[:, :2].copy(), signs[:, :2].copy()),
            "view": (rows[:, :2], signs[:, :2]),
            "slice": (rows[:, ::2], signs[:, ::2]),
            "fortran": (np.asfortranarray(rows[:, :2]), np.asfortranarray(signs[:, :2])),
        }[layout]
        matrix = SparseJLMatrix(**probe_parts(n=2, rows=rows, signs=signs))
        held = matrix.rows, matrix.signs
        for mine, given in zip(held, (rows, signs)):
            assert mine is not given and np.array_equal(mine, given)
            assert mine.flags.c_contiguous and mine.flags.owndata and not mine.flags.writeable
            assert given.flags.writeable
        matrix.validate()
        assert matrix.rows is held[0] and matrix.signs is held[1]

    def test_negative_seed(self):
        with pytest.raises(MatrixInvariantError, match=r"header field seed must be an integer in \[0, 2\^64\), got -1"):
            SparseJLMatrix(**probe_parts(seed=-1))

    def test_numpy_header_fields_stored_as_int(self):
        matrix = SparseJLMatrix(**probe_parts(n=np.uint8(1), m=np.int64(4), s=np.int32(2), seed=np.uint64(5)))
        assert [type(v) for v in (matrix.n, matrix.m, matrix.s, matrix.seed)] == [int] * 4
        assert deserialize_json(serialize_json(matrix)) == matrix
        assert deserialize(serialize(matrix)) == matrix

    def test_frozen(self):
        matrix = SparseJLMatrix(**probe_parts())
        for name, value in (("m", 1), ("rows", np.zeros((1, 2), dtype=np.uint32)), ("seed", 2)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(matrix, name, value)
        assert matrix.m == 4 and matrix.seed == 0
        with pytest.raises(ValueError, match="read-only"):
            matrix.rows[0, 0] = 3
        matrix.validate()

    def test_duplicate_check_in_blocks(self, monkeypatch):
        """A repeat is found in whichever block holds it, and the check's memory is one block."""
        matrix = build_matrix(1000, 57842, 1928, seed=7)
        tracemalloc.start()
        try:
            tr._check_distinct(matrix.rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the whole (n, s) sort took 9.7 MB
        monkeypatch.setattr(tr, "_CHUNK_ENTRIES", 4)
        rows = np.arange(40, dtype=np.uint32).reshape(10, 4)
        signs = np.ones((10, 4), dtype=np.int8)
        SparseJLMatrix(n=10, m=40, s=4, seed=0, rows=rows, signs=signs)
        for c in (0, 5, 9):
            bad = rows.copy()
            bad[c, 3] = bad[c, 0]
            with pytest.raises(MatrixInvariantError, match="duplicate row"):
                SparseJLMatrix(n=10, m=40, s=4, seed=0, rows=bad, signs=signs)


class TestApply:
    def test_basis_vector_reads_column(self):
        matrix = build_matrix(3, 8, 2, seed=7)
        e1 = np.zeros(3)
        e1[0] = 1.0
        y = apply(matrix, e1)
        expected = np.zeros(8)
        expected[matrix.rows[0]] = matrix.signs[0] * matrix.scale
        assert np.array_equal(y, expected)
        assert float(y @ y) == pytest.approx(1.0, abs=1e-15)

    def test_zero_maps_to_zero(self):
        matrix = build_matrix(5, 16, 3, seed=3)
        assert np.array_equal(apply(matrix, np.zeros(5)), np.zeros(16))

    def test_dimension_mismatch_names_n(self):
        matrix = build_matrix(5, 16, 3, seed=3)
        with pytest.raises(DimensionMismatch, match="n = 5"):
            apply(matrix, np.zeros(4))

    def test_sign_antisymmetry_exact(self):
        matrix = build_matrix(20, 50, 7, seed=8)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(20)
        assert np.array_equal(apply(matrix, -x), -apply(matrix, x))

    def test_row_permutation_permutes_output(self):
        matrix = build_matrix(6, 10, 3, seed=21)
        perm = np.random.default_rng(1).permutation(10).astype(np.uint32)
        permuted = SparseJLMatrix(
            n=matrix.n, m=matrix.m, s=matrix.s, seed=matrix.seed,
            rows=perm[matrix.rows], signs=matrix.signs.copy(),
        )
        x = np.random.default_rng(2).standard_normal(6)
        y = apply(matrix, x)
        y_perm = apply(permuted, x)
        assert np.allclose(y_perm[perm.astype(int)], y, rtol=0, atol=0)


class TestApplyBatch:
    def test_empty_batch(self):
        matrix = build_matrix(3, 8, 2, seed=7)
        assert apply_batch(matrix, []) == []

    def test_basis_and_zero(self):
        matrix = build_matrix(3, 8, 2, seed=7)
        e1 = np.array([1.0, 0.0, 0.0])
        out = apply_batch(matrix, [e1, np.zeros(3)])
        assert np.array_equal(out[0], apply(matrix, e1))
        assert np.array_equal(out[1], np.zeros(8))

    def test_matches_single_applies_bitwise(self):
        matrix = build_matrix(12, 30, 4, seed=17)
        rng = np.random.default_rng(3)
        vectors = [rng.standard_normal(12) for _ in range(5)]
        batch = apply_batch(matrix, vectors)
        for x, y in zip(vectors, batch):
            assert np.array_equal(y, apply(matrix, x))

    def test_mismatch_reports_offending_index(self):
        matrix = build_matrix(3, 8, 2, seed=7)
        with pytest.raises(DimensionMismatch, match="batch element 1"):
            apply_batch(matrix, [np.zeros(3), np.zeros(2)])

    def test_rows_of_one_array(self):
        matrix = build_matrix(5, 12, 3, seed=4)
        out = apply_batch(matrix, np.eye(5)[:3])
        assert len(out) == 3
        base = out[0].base
        assert base is not None and base.shape == (3, 12) and base.flags.c_contiguous
        assert all(y.base is base for y in out)


# Shapes (n, m, s): n = 1, s = 1, s = m, and mid-size ones whose scale
# 1/sqrt(s) is not a power of two, so folding it into the sums would show.
KERNEL_SHAPES = [(1, 9, 3), (40, 17, 1), (6, 5, 5), (200, 301, 7), (64, 1000, 27)]


class TestKernel:
    @pytest.mark.parametrize("n, m, s", KERNEL_SHAPES)
    @pytest.mark.parametrize("k", [0, 1, 16])
    def test_matches_bincount_bitwise(self, n, m, s, k):
        matrix = build_matrix(n, m, s, seed=n * m + s)
        # Magnitudes spread over six decades, so the order of the sums shows.
        xs = np.random.default_rng(k).standard_normal((k, n)) * np.logspace(-3, 3, n)
        batch = apply_batch(matrix, xs)
        assert len(batch) == k
        for x, y in zip(xs, batch):
            expect = bincount_apply(matrix, x)
            assert_bitwise(y, expect)
            assert_bitwise(apply(matrix, x), expect)

    @pytest.mark.parametrize("n, m, s", KERNEL_SHAPES)
    def test_input_types(self, n, m, s):
        """int, float32 and non-contiguous inputs are read as float64."""
        matrix = build_matrix(n, m, s, seed=3)
        rng = np.random.default_rng(n)
        ints = rng.integers(-1000, 1000, size=n)
        f32 = rng.standard_normal(n).astype(np.float32)
        strided = rng.standard_normal((n, 3))[:, 1]
        assert not strided.flags.c_contiguous or n == 1
        for x in (ints, f32, strided, ints.tolist()):
            expect = bincount_apply(matrix, x)
            assert_bitwise(apply(matrix, x), expect)
            assert_bitwise(apply_batch(matrix, [x])[0], expect)
        stacked = np.stack([ints.astype(np.float64), f32.astype(np.float64), strided], axis=1)
        for y, x in zip(apply_batch(matrix, stacked.T), (ints, f32, strided)):
            assert_bitwise(y, bincount_apply(matrix, x))

    def test_matches_dense_product(self):
        matrix = build_matrix(30, 20, 4, seed=9)
        dense = np.zeros((20, 30))
        dense[matrix.rows, np.arange(30)[:, None]] = matrix.signs
        assert np.array_equal(tr._sign_csc(matrix.rows, matrix.signs, 20).toarray(), dense)
        x = np.random.default_rng(0).standard_normal(30)
        assert np.allclose(apply(matrix, x), dense @ x * matrix.scale, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m, index", [(2**31 - 1, np.int32), (2**31, np.int64), (2**32, np.int64)])
    def test_index_dtype(self, m, index):
        """The view is checked, not multiplied: an output at m = 2^32 takes 32 GB."""
        rows = np.array([[m - 1, 0, m // 2], [5, m - 2, 1]], dtype=np.uint32)
        signs = np.array([[1, -1, 1], [-1, -1, 1]], dtype=np.int8)
        csc = tr._sign_csc(rows, signs, m)
        assert csc.shape == (m, 2)
        assert csc.indices.dtype == csc.indptr.dtype == index
        assert csc.indices.tolist() == rows.ravel().tolist()
        assert csc.indptr.tolist() == [0, 3, 6]
        assert csc.data.tolist() == [1.0, -1.0, 1.0, -1.0, -1.0, 1.0]

    def test_non_finite_projection_is_rejected(self):
        matrix = SparseJLMatrix(n=2, m=1, s=1, seed=0, rows=np.zeros((2, 1), dtype=np.uint32),
                                signs=np.ones((2, 1), dtype=np.int8))
        with pytest.raises(DomainError, match="not finite"):
            apply(matrix, [1e308, 1e308])
        with pytest.raises(DomainError, match="not finite"):
            apply(matrix, [math.nan, 0.0])
        with pytest.raises(DomainError, match="batch element 2: projected vector is not finite"):
            apply_batch(matrix, [[1.0, 2.0], [1e308, -1e308], [1e308, 1e308], [math.inf, 0.0]])
        assert apply(matrix, [1e308, -1e308]).tolist() == [0.0]


class TestSerialization:
    def test_binary_round_trip(self):
        matrix = build_matrix(9, 40, 6, seed=555)
        assert deserialize(serialize(matrix)) == matrix

    def test_json_round_trip(self):
        matrix = build_matrix(4, 12, 3, seed=556)
        assert deserialize_json(serialize_json(matrix)) == matrix

    def test_version_mismatch(self):
        data = bytearray(serialize(build_matrix(2, 4, 1, seed=1)))
        data[0] = 9
        with pytest.raises(FormatVersionError, match="version 9"):
            deserialize(bytes(data))

    def test_truncated_stream(self):
        data = serialize(build_matrix(2, 4, 2, seed=1))
        with pytest.raises(TruncatedStreamError, match="entry count"):
            deserialize(data[:-5])  # drops one (row, sign) record
        with pytest.raises(TruncatedStreamError):
            deserialize(data[:10])
        with pytest.raises(TruncatedStreamError):
            deserialize(data + b"\x00")  # trailing byte

    def test_binary_sign_domain(self):
        data = bytearray(serialize(build_matrix(2, 4, 2, seed=1)))
        data[-1] = 2
        with pytest.raises(MatrixInvariantError, match="sign domain"):
            deserialize(bytes(data))

    def test_binary_duplicate_row(self):
        matrix = build_matrix(1, 4, 2, seed=1)
        data = bytearray(serialize(matrix))
        data[36:40] = data[41:45]  # copy first entry's row over the second
        with pytest.raises(MatrixInvariantError, match="duplicate row"):
            deserialize(bytes(data))

    def test_json_duplicate_row(self, tmp_path):
        """The JSON decoder, from text and from a file, rejects a canonical column that repeats a row."""
        matrix = SparseJLMatrix(n=2, m=4, s=2, seed=1, rows=np.array([[0, 3], [2, 1]], dtype=np.uint32),
                                signs=np.ones((2, 2), dtype=np.int8))
        canonical = serialize_json(matrix).replace("[[2, 1], [1, 1]]", "[[2, 1], [2, 1]]")
        assert canonical.count("[[2, 1], [2, 1]]") == 1
        with pytest.raises(MatrixInvariantError, match="duplicate row"):
            deserialize_json(canonical)
        (tmp_path / "A.json").write_text(canonical)
        with pytest.raises(MatrixInvariantError, match="duplicate row"):
            read_matrix(tmp_path / "A.json")

    def test_json_entry_count(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"][1] = doc["columns"][1][:-1]
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    def test_json_column_count(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"].append(doc["columns"][0])
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value,message", [
        ("rows", np.zeros((2, 1), dtype=np.uint32), "entry count mismatch"),
        ("signs", np.ones((3, 2), dtype=np.int8), "entry count mismatch"),
        ("m", 1, "sparsity s=2 outside"),
        ("rows", np.array([[0, 4], [1, 2]], dtype=np.uint32), "row index 4 outside"),
        ("signs", np.array([[1, 0], [-1, 1]], dtype=np.int8), "sign domain"),
    ], ids=["rows-shape", "signs-shape", "s-above-m", "row-range", "sign-zero"])
    def test_validate_hand_built(self, field, value, message):
        """Matrices built by hand, not decoded, go through every check of validate()."""
        parts = dict(n=2, m=4, s=2, seed=1, rows=np.array([[0, 1], [2, 3]], dtype=np.uint32),
                     signs=np.array([[1, -1], [-1, 1]], dtype=np.int8))
        SparseJLMatrix(**parts).validate()
        parts[field] = value
        with pytest.raises(MatrixInvariantError, match=message):
            SparseJLMatrix(**parts).validate()

    def test_validate_s_outside_range(self):
        with pytest.raises(MatrixInvariantError, match=r"sparsity s=0 outside \[1, m=4\]"):
            SparseJLMatrix(n=1, m=4, s=0, seed=1, rows=np.zeros((1, 0), dtype=np.uint32),
                           signs=np.zeros((1, 0), dtype=np.int8))

    def test_write_matrix_unknown_format(self, tmp_path):
        with pytest.raises(DomainError, match="unknown matrix format 'csv'"):
            write_matrix(tmp_path / "A.csv", build_matrix(2, 4, 2, seed=1), fmt="csv")
        assert not (tmp_path / "A.csv").exists()

    @pytest.mark.parametrize("fmt", ["binary", "json"])
    @pytest.mark.parametrize("bad", [None, "A", b"\x01"], ids=["None", "str", "bytes"])
    def test_write_matrix_bad_matrix_leaves_file(self, tmp_path, fmt, bad):
        """The file was truncated to 0 bytes, then a bare AttributeError was raised."""
        path = tmp_path / "A"
        write_matrix(path, build_matrix(2, 4, 3, seed=1), fmt=fmt)
        before = path.read_bytes()
        with pytest.raises(DomainError, match=rf"^matrix must be a SparseJLMatrix, got {type(bad).__name__}$"):
            write_matrix(path, bad, fmt=fmt)
        assert path.read_bytes() == before

    def test_equality_with_another_type(self):
        matrix = build_matrix(2, 4, 2, 1)
        assert matrix.__eq__(1) is NotImplemented
        assert (matrix == 1) is False and matrix != 1

    def test_json_sign_domain(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"][0][0][1] = 2
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    def test_json_row_range(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"][0][0][0] = 4
        with pytest.raises(MatrixInvariantError, match=r"^row index 4 outside \[0, m=4\)$"):
            deserialize_json(json.dumps(doc))

    def test_binary_header_range(self):
        """No column can hold a row >= 2^32, and s must fit [1, m] before arrays are sized."""
        for n, m, s in ((0, 2**40, 2**40), (0, 4, 2**63), (0, 4, 0)):
            with pytest.raises(MatrixInvariantError):
                deserialize(tr._HEADER.pack(1, n, m, s, 0))

    @pytest.mark.parametrize("matrix", [
        *(pytest.param(build_matrix(*shape), id="-".join(map(str, shape))) for shape in (
            (1, 1, 1, 0), (1, 7, 7, 3), (5, 9, 1, 4), (4, 12, 3, 556), (9, 40, 6, 2**64 - 1))),
        pytest.param(digit_matrix(-1), id="digits-negative"),
        pytest.param(digit_matrix(1), id="digits-positive"),
        pytest.param(digit_matrix(0), id="digits-mixed"),
        pytest.param(deserialize(tr._HEADER.pack(1, 0, 4, 2, 7)), id="no-columns"),
    ])
    def test_json_bytes_match_reference_dump(self, matrix):
        reference = json.dumps({
            "format_version": 1,
            "n": matrix.n,
            "m": matrix.m,
            "s": matrix.s,
            "seed": matrix.seed,
            "columns": [[[int(r), int(g)] for r, g in zip(rs, gs)]
                        for rs, gs in zip(matrix.rows, matrix.signs)],
        }, sort_keys=True)
        assert serialize_json(matrix) == reference
        assert deserialize_json(reference) == matrix

    def test_json_header_read_in_small_memory(self):
        """Only the first five runs of digits after the last header key are read: 4 MB of "1 " after a
        canonical text is rejected where it starts, without a list of two million runs."""
        text = serialize_json(build_matrix(2, 4, 2, seed=1)).encode()
        data = text + b"1 " * 2_000_000
        tracemalloc.start()
        try:
            with pytest.raises(MatrixInvariantError, match=not_canonical(len(text))):
                deserialize_json(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_json_zero_columns_round_trip(self):
        matrix = deserialize(tr._HEADER.pack(1, 0, 4, 2, 7))
        text = serialize_json(matrix)
        assert text == '{"columns": [], "format_version": 1, "m": 4, "n": 0, "s": 2, "seed": 7}'
        assert deserialize_json(text) == matrix

    @pytest.mark.parametrize("field", ["n", "m", "s", "seed"])
    @pytest.mark.parametrize("value", [2.0, True, "2", None])
    def test_json_header_must_be_exact_int(self, field, value):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=2)))
        doc[field] = value
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("seed", [2**64, -1])
    def test_json_seed_range(self, seed):
        """A canonical seed of 2^64 gets the header rule's message; "-1" is not canonical."""
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["seed"] = seed
        with pytest.raises(MatrixInvariantError, match=r"seed .* \[0, 2\^64\)" if seed > 0 else not_canonical()):
            deserialize_json(json.dumps(doc))

    def test_json_row_range_beyond_uint32(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["m"] = 2**32 + 1
        with pytest.raises(MatrixInvariantError, match="uint32"):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("mutate", [
        lambda cols: cols[1].__setitem__(0, [1]),
        lambda cols: cols[1].__setitem__(0, [1, 1, 1]),
        lambda cols: cols[1].__setitem__(0, 3),
        lambda cols: cols[1].__setitem__(0, "ab"),
        lambda cols: cols.__setitem__(1, 7),
        lambda cols: cols.__setitem__(1, {"0": [0, 1]}),
    ], ids=["short-pair", "long-pair", "int-entry", "str-entry", "int-column", "dict-column"])
    def test_json_malformed_entries(self, mutate):
        """Column 1 edited: the text departs from the canonical one inside that column."""
        text = serialize_json(build_matrix(2, 4, 2, seed=1))
        doc = json.loads(text)
        mutate(doc["columns"])
        with pytest.raises(MatrixInvariantError, match=not_canonical()) as info:
            deserialize_json(json.dumps(doc))
        assert int(str(info.value).rsplit(" ", 1)[1]) >= text.index("], [") + 3

    def test_json_columns_must_be_a_list(self):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"] = {"a": 1, "b": 2}
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("slot,value", [(0, 1.0), (0, 3.5), (0, True), (1, True), (1, 1.0)])
    def test_json_values_are_not_coerced(self, slot, value):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"][1][1][slot] = value
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("slot,value", [(0, 2**70), (1, -(2**63) - 1)])
    def test_json_values_beyond_int64(self, slot, value):
        doc = json.loads(serialize_json(build_matrix(2, 4, 2, seed=1)))
        doc["columns"][0][0][slot] = value
        with pytest.raises(MatrixInvariantError, match=not_canonical()):
            deserialize_json(json.dumps(doc))

    @pytest.mark.parametrize("text", [
        "[" * 100_000 + "]" * 100_000,
        '{"format_version": 1, "columns": ' + "[" * 100_000 + "]" * 100_000 + "}",
        "[1, 2]",
        "7",
    ], ids=["deep-array", "deep-in-object", "array", "number"])
    def test_json_document_shape(self, text):
        """Deep nesting is never parsed: each text departs where it leaves the canonical head."""
        offset = len(os.path.commonprefix([text, '{"columns": [']))
        with pytest.raises(MatrixInvariantError, match=not_canonical(offset)):
            deserialize_json(text)

    def test_json_blocks_do_not_change_results(self, monkeypatch):
        """The same text and matrix whatever the block size, and an edited text rejected inside the edited
        entry.  The byte named can differ by block (311 or 312 here): an entry whose end is not found is
        read from the next entry in a wide block and from the header in a narrow one."""
        matrix = build_matrix(40, 1000, 4, seed=9)
        text = serialize_json(matrix)
        doc = json.loads(text)
        doc["columns"][6][3][1] = 0
        edited = json.dumps(doc)
        entry = f"[{matrix.rows[6, 3]}, 0]"
        start = edited.index(entry)
        assert edited.count(entry) == 1 and start == text.index(f"[{matrix.rows[6, 3]}, {matrix.signs[6, 3]}]")
        for entries in (1, 5, 7, 8, 100, 1 << 16):
            monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
            assert serialize_json(matrix) == text
            assert deserialize_json(text) == matrix
            with pytest.raises(MatrixInvariantError, match=not_canonical()) as info:
                deserialize_json(edited)
            assert start < int(str(info.value).rsplit(" ", 1)[1]) < start + len(entry)

    @pytest.mark.parametrize("entries", [1, 5, 7, 1 << 16])
    def test_json_file_bytes_match_serialize_json(self, tmp_path, monkeypatch, entries):
        """``write_matrix`` writes the canonical text block by block, and ``read_matrix`` reads it back."""
        matrices = [deserialize(tr._HEADER.pack(1, 0, 4, 2, 7)), digit_matrix(-1), digit_matrix(1),
                    digit_matrix(0), build_matrix(3, 7, 7, seed=2), build_matrix(40, 1000, 4, seed=9)]
        texts = [serialize_json(matrix).encode() for matrix in matrices]
        monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
        path = tmp_path / "a.json"
        for matrix, text in zip(matrices, texts):
            write_matrix(path, matrix, fmt="json")
            assert path.read_bytes() == text
            assert read_matrix(path) == matrix

    def test_file_round_trip_both_formats(self, tmp_path):
        matrix = build_matrix(5, 9, 2, seed=77)
        bin_path = tmp_path / "a.bin"
        json_path = tmp_path / "a.json"
        write_matrix(bin_path, matrix, fmt="binary")
        write_matrix(json_path, matrix, fmt="json")
        assert read_matrix(bin_path) == matrix
        assert read_matrix(json_path) == matrix

    @pytest.mark.parametrize("padding", [" ", "\t", "\r\n", "\n  \n", "\x0b"])
    def test_json_file_with_leading_whitespace(self, tmp_path, padding):
        """A file led by whitespace, or by a vertical tab (0x0b), goes to the JSON rule, which reads back
        only the canonical text: the padded text, canonical or indented, departs from it at byte 0."""
        matrix = build_matrix(5, 9, 2, seed=77)
        path = tmp_path / "a.json"
        for text in (serialize_json(matrix), json.dumps(json.loads(serialize_json(matrix)), indent=1)):
            path.write_text(padding + text)
            with pytest.raises(MatrixInvariantError, match=not_canonical(0)):
                read_matrix(path)


class TestStatisticalProperties:
    def test_row_uniformity_smoke(self):
        """With n=1 each row is hit with frequency s/m, within 4 SE."""
        from sparsejl.transform import sample_columns

        m, s, trials = 8, 2, 6000
        roots = np.array([streams.substream(seed, 0) for seed in range(trials)], dtype=np.uint64)
        rows, _ = sample_columns(m, s, roots)
        counts = np.bincount(rows.ravel(), minlength=m)
        expected = trials * s / m
        se = math.sqrt(trials * (s / m) * (1 - s / m))
        assert np.all(np.abs(counts - expected) <= 4.0 * se)

    def test_unbiasedness_smoke(self):
        """Mean of |Ax|^2 over independent matrices approaches |x|^2."""
        from sparsejl import squared_norm_samples

        rng = np.random.default_rng(10)
        x = rng.standard_normal(8)
        x /= math.sqrt(float(x @ x))
        samples = squared_norm_samples(8, 16, 3, x, trials=20000, seed=314)
        se = samples.std(ddof=1) / math.sqrt(len(samples))
        assert abs(samples.mean() - 1.0) <= 4.0 * se
