"""Construction, application and serialization of sparse sign projections.

A projection is an m x n matrix whose n columns each carry exactly ``s``
nonzero entries at distinct rows, with values +-1/sqrt(s).  Columns are
sampled independently: column ``c`` of a matrix with seed ``seed`` draws
from the counter-based substream (seed, c), taking ``s`` partial
Fisher-Yates steps over the row range (unbiased, without replacement)
followed by ``s`` sign draws.  Construction is therefore bit-reproducible
across platforms and independent of evaluation order, and only the +-1
signs are stored; the 1/sqrt(s) scale is applied once per output entry.

``apply``, ``apply_batch`` and the Monte Carlo oracle share one sparse
kernel, ``_project``: the stored arrays, taken as they are, form a CSC
matrix (``data = signs``, ``indices = rows.ravel()``, ``indptr`` stepping
by s), and one CSC product computes A X for a whole stack of vectors.  The
product adds the terms of each output entry in increasing column order,
then the result is scaled, so outputs are bitwise equal to the per-vector
``np.bincount`` scatter.  ``apply_batch`` returns the rows of one (k, m)
array.  A projection with a non-finite entry is rejected.

The vectorized sampler never materializes the row range: it resolves the
swaps of a block of lanes with one sort, so its working memory is
O(block * s) whatever m is, and every m up to 2^32 can be built.  The
rare lane whose draws hit modulo rejection is replayed by the pure-Python
twin :func:`sample_column_scalar`, which is also the reference that the
vectorized path is tested against bit for bit.

Every :class:`SparseJLMatrix` is valid by construction: its constructor
runs the one matrix rule (the header rule, uint32 rows and int8 signs of
shape (n, s), rows in [0, m), signs -1/+1, distinct rows per column), and
``validate()`` re-runs that rule.  ``build_matrix`` and the decoders build
through it, and the instance is frozen with read-only arrays.

Matrices are stored in a binary format or a canonical JSON text, which is
exactly ``json.dumps(..., sort_keys=True)`` of the document.  Both decoders
check the header (integers, m at most 2^32, 1 <= s <= m, seed in
[0, 2^64)) before sizing any array, and cast nothing they have not
checked; the constructor checks the rest.  The JSON text is encoded with array
operations, block by block, and a file is written and read as bytes.  The
JSON decoder first tries the canonical path on the bytes, one block at a
time: it finds each entry by the ``]`` that follows its sign's ``1``,
reads the row's digits leftwards from the comma, and accepts the block
only if encoding it reproduces the text byte for byte.  Any other text,
such as a pretty-printed document or one with its keys reordered, is
decoded as UTF-8 and goes to the general decoder, which parses with
:func:`json.loads` and converts the columns in blocks, accepting only lists
of ``[row, sign]`` pairs of exact ``int`` values with signs -1/+1 and rows
in [0, m); floats and bools are rejected rather than coerced.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import re
import struct
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from . import streams
from .errors import (
    ConstraintViolation,
    DimensionMismatch,
    DomainError,
    FormatVersionError,
    MatrixInvariantError,
    TruncatedStreamError,
    check_int,
    check_real_vector,
)

FORMAT_VERSION = 1
_HEADER = struct.Struct("<IQQQQ")  # version, n, m, s, seed
_ENTRY_DTYPE = np.dtype([("row", "<u4"), ("sign", "u1")])

# The one block size, read when called.  ``_blocks(count, per_item)`` cuts
# items of ``per_item`` entries into blocks of at most this many entries (or
# one item) for column sampling (s Fisher-Yates steps a lane: 64-bit work
# arrays near 512 KB whatever m is; 2^14 to 2^16 steps measured fastest), the
# JSON encoder, both JSON decoders and the duplicate-row check (s entries a column),
# ``oracle.squared_norm_samples`` (max(n s, m) a trial),
# ``oracle._row_class_values`` (16 a value) and the CSV writer (whole rows of
# the longest row's length, and a longer row in blocks of single values).
# No code but ``_blocks`` reads the constant.
_CHUNK_ENTRIES = 1 << 16

# What may precede a JSON matrix's "{": whitespace, after one optional UTF-8
# byte-order mark, so that such a file reaches the JSON decoder, which
# rejects the mark, rather than the binary one.
_JSON_WHITESPACE = re.compile(rb"(?:\xef\xbb\xbf)?[ \t\r\n]*")
# The header that ends a canonical text; the decoder compares it with the
# re-encoded header, which also fixes the version.
_JSON_TAIL = re.compile(
    rb'\], "format_version": \d{1,20}, "m": (\d{1,20}), "n": (\d{1,20}), '
    rb'"s": (\d{1,20}), "seed": (\d{1,20})\}')


@dataclass(eq=False, frozen=True)
class SparseJLMatrix:
    """Sparse sign projection: per-column nonzero rows and signs.

    ``rows`` has shape (n, s) with distinct entries in [0, m) per column,
    ``signs`` holds -1/+1; the implied entries are signs/sqrt(s), so every
    column has unit norm by construction.

    The constructor enforces this, so every instance is valid: the header
    fields follow the stored header's rule and are kept as ``int``, ``rows``
    must be a uint32 and ``signs`` an int8 ``np.ndarray`` (anything else is
    a DomainError, nothing is coerced), and a broken invariant raises
    MatrixInvariantError.  The instance is frozen and its arrays are made
    read-only.
    """

    n: int
    m: int
    s: int
    seed: int
    rows: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def __post_init__(self):
        """The one matrix rule: header, array types, shapes, row range, signs, distinct rows."""
        for name, value in zip(("n", "m", "s", "seed"), _check_header(self.n, self.m, self.s, self.seed)):
            object.__setattr__(self, name, value)
        for name, dtype in (("rows", np.uint32), ("signs", np.int8)):
            value = getattr(self, name)
            if type(value) is not np.ndarray or value.dtype != dtype:
                got = f"dtype {value.dtype}" if type(value) is np.ndarray else type(value).__name__
                raise DomainError(f"{name} must be a numpy array of dtype {np.dtype(dtype)}, got {got}")
        if self.rows.shape != (self.n, self.s) or self.signs.shape != (self.n, self.s):
            raise MatrixInvariantError(
                f"entry count mismatch: expected {self.s} entries in each of "
                f"{self.n} columns, got arrays of shape {self.rows.shape}"
            )
        if self.rows.size and int(self.rows.max()) >= self.m:
            raise MatrixInvariantError(f"row index {int(self.rows.max())} outside [0, m={self.m})")
        if np.count_nonzero(self.signs == 1) + np.count_nonzero(self.signs == -1) != self.signs.size:
            raise MatrixInvariantError("sign domain violated: signs must be -1 or +1")
        _check_distinct(self.rows)
        self.rows.setflags(write=False)
        self.signs.setflags(write=False)

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.s)

    def validate(self) -> None:
        """Re-run the constructor's matrix rule, raising as it does."""
        self.__post_init__()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseJLMatrix):
            return NotImplemented
        return (
            (self.n, self.m, self.s, self.seed) == (other.n, other.m, other.s, other.seed)
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.signs, other.signs)
        )


def _check_distinct(rows: np.ndarray) -> None:
    """Raise MatrixInvariantError when a column (row of ``rows``) repeats an index; sorts one block at a time."""
    for lo, hi in _blocks(*rows.shape):
        block = np.sort(rows[lo:hi], axis=1)
        if (block[:, 1:] == block[:, :-1]).any():
            raise MatrixInvariantError("duplicate row index within a column")


def _blocks(count: int, per_item: int):
    """(lo, hi) bounds of the blocks of ``count`` items: ``_CHUNK_ENTRIES // per_item`` items each, at least one."""
    step = max(1, _CHUNK_ENTRIES // per_item)
    for lo in range(0, count, step):
        yield lo, min(lo + step, count)


def sample_columns(m: int, s: int, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample one column per stream root: s distinct rows of [0, m) plus signs.

    Each lane runs ``s`` partial Fisher-Yates steps (bounded draws with
    modulo rejection) over its own virtual copy of the row range, then
    draws ``s`` sign words.  Returns (rows, signs) of shape (lanes, s).

    Lanes are processed in ``_blocks`` of s steps per lane.  A block
    draws every step's word at once (counters 1..s, signs at s+1..2s) and
    resolves the swaps with one sort, so memory is O(block) whatever m is.
    A lane in which any bounded draw hits the rejection zone (probability
    below s*m/2^64) is replayed by :func:`sample_column_scalar`.
    """
    lanes = roots.shape[0]
    rows = np.empty((lanes, s), dtype=np.uint32)
    signs = np.empty((lanes, s), dtype=np.int8)
    steps = np.arange(s, dtype=np.uint64)
    bounds = np.uint64(m) - steps
    # 2^64 mod bound: a draw z is rejected when z >= 2^64 - rem, i.e. ~z < rem.
    rem = (np.uint64(streams.MASK64) % bounds + np.uint64(1)) % bounds
    for lo, hi in _blocks(lanes, s):
        blk = roots[lo:hi]
        ctrs = np.zeros(blk.shape[0], dtype=np.uint64)
        z = streams.next_u64_block_vec(blk, ctrs, s)
        rejected = np.nonzero((~z < rem).any(axis=1))[0]
        rows[lo:hi] = _fisher_yates_rows(z % bounds + steps, m, s)
        z = streams.next_u64_block_vec(blk, ctrs, s)
        signs[lo:hi] = (z & np.uint64(1)).astype(np.int8) * 2 - 1
        for lane in rejected:
            rows[lo + lane], signs[lo + lane] = sample_column_scalar(m, s, int(blk[lane]))
    return rows, signs


def _fisher_yates_rows(targets: np.ndarray, m: int, s: int) -> np.ndarray:
    """Rows picked by partial Fisher-Yates steps k -> targets[:, k] >= k.

    Step k takes the value at position t_k and moves the value of position
    k there.  With the steps sorted by (lane, t, k):

    - step k picks t_k unless an earlier step j targeted t_k; then it picks
      h(j), the value position j held when step j ran, for the latest such
      j (the previous entry of the sorted run);
    - h(j) = j unless an earlier step i < j targeted position j; then
      h(j) = h(i) for the latest such i, found by binary search.  These
      chains decrease strictly, so they end; each pass follows one link.
    """
    lanes = targets.shape[0]
    kbits = (s - 1).bit_length()
    k_shift, lane_shift = np.uint64(kbits), np.uint64(kbits + (m - 1).bit_length())
    k_mask = np.uint64((1 << kbits) - 1)
    lane_ids = np.arange(lanes, dtype=np.uint64)[:, None]
    keys = (lane_ids << lane_shift) | (targets << k_shift) | np.arange(s, dtype=np.uint64)
    keys = np.sort(keys, axis=None)
    group = keys >> k_shift
    rows = targets.astype(np.uint32)
    dup = np.nonzero(group[1:] == group[:-1])[0] + 1
    if not dup.size:
        return rows
    lane = keys[dup] >> lane_shift
    pos = keys[dup - 1] & k_mask
    pending = np.arange(dup.size)
    while pending.size:
        query = (lane[pending] << lane_shift) | (pos[pending] << k_shift) | pos[pending]
        prev = np.searchsorted(keys, query) - 1
        hit = (prev >= 0) & (group[prev] == query >> k_shift)
        pending, prev = pending[hit], prev[hit]
        pos[pending] = keys[prev] & k_mask
    rows.reshape(-1)[(lane * np.uint64(s) + (keys[dup] & k_mask)).astype(np.intp)] = pos
    return rows


def sample_column_scalar(m: int, s: int, root: int) -> tuple[list[int], list[int]]:
    """Pure-Python twin of :func:`sample_columns` for one lane.

    Replays the same draws by the same rules, one step at a time with a
    sparse swap map; it replays rejected lanes and pins down the
    construction bit-for-bit.
    """
    st = streams.Stream(root)
    swap: dict[int, int] = {}
    rows = []
    for k in range(s):
        t = k + st.next_below(m - k)
        rows.append(swap.get(t, t))
        swap[t] = swap.get(k, k)
    signs = [st.next_sign() for _ in range(s)]
    return rows, signs


def _validate_build_args(n: int, m: int, s: int, seed: int) -> tuple[int, int, int, int]:
    n, m, s = (check_int(name, value, 1) for name, value in (("n", n), ("m", m), ("s", s)))
    seed = check_int("seed", seed, 0, streams.MASK64)
    if s > m:
        raise ConstraintViolation(f"invalid sparsity: s = {s} exceeds m = {m}")
    if m > 1 << 32:
        raise DomainError(f"m = {m} exceeds the uint32 row-index range")
    return n, m, s, seed


def build_matrix(n: int, m: int, s: int, seed: int) -> SparseJLMatrix:
    """Construct the m x n projection determined by (n, m, s, seed).

    Each of the n columns independently selects s distinct rows uniformly
    without replacement and assigns each an independent uniform sign.
    n, m, s and ``seed`` must be integers (``int`` or numpy) with n >= 1,
    1 <= s <= m <= 2^32 and seed in [0, 2^64), as in the stored header.
    """
    n, m, s, seed = _validate_build_args(n, m, s, seed)
    roots = streams.substream_vec(seed, np.arange(n))
    rows, signs = sample_columns(m, s, roots)
    return SparseJLMatrix(n=n, m=m, s=s, seed=seed, rows=rows, signs=signs)


def _sign_csc(rows: np.ndarray, signs: np.ndarray, m: int) -> sparse.csc_array:
    """The m x cols sign pattern of (rows, signs) as a CSC matrix, unsorted.

    Column j holds ``signs[j]`` at rows ``rows[j]``, so the stored arrays
    are the CSC arrays as they stand: ``indptr`` steps by s and no sort is
    needed.  Indices are int32, or int64 when m or the entry count exceeds
    the int32 range.  scipy's CSC kernels add the terms of each output entry
    of a product in increasing column order, the order in which
    ``np.bincount`` over ``rows.ravel()`` adds them, so every sum is bitwise
    that of the per-vector scatter.
    """
    cols, s = rows.shape
    index = np.int64 if max(m, cols * s) > np.iinfo(np.int32).max else np.int32
    return sparse.csc_array(
        (signs.astype(np.float64).ravel(), rows.astype(index).ravel(),
         np.arange(0, cols * s + 1, s, dtype=index)),
        shape=(m, cols),
    )


def _project(rows: np.ndarray, signs: np.ndarray, m: int, x: np.ndarray) -> np.ndarray:
    """A x for the pattern (rows, signs) and a vector, or a vector per column, x: the CSC product times 1/sqrt(s)."""
    y = _sign_csc(rows, signs, m) @ x
    y *= 1.0 / math.sqrt(rows.shape[1])
    return y


def _vector(matrix: SparseJLMatrix, x) -> np.ndarray:
    x = check_real_vector("x", x)
    if x.shape != (matrix.n,):
        raise DimensionMismatch(
            f"expected a vector of length n = {matrix.n}, got shape {x.shape}"
        )
    return x


def apply(matrix: SparseJLMatrix, x) -> np.ndarray:
    """Apply the projection: y = A x, in O(s n) plus output allocation.

    ``x`` is a 1-D sequence of n real numbers (``errors.check_real_vector``,
    else DomainError; a wrong length raises DimensionMismatch).  Raises
    DomainError when an entry of y is not finite.
    """
    y = _project(matrix.rows, matrix.signs, matrix.m, _vector(matrix, x))
    if not np.isfinite(y).all():
        raise DomainError("projected vector is not finite")
    return y


def apply_batch(matrix: SparseJLMatrix, vectors) -> list[np.ndarray]:
    """Apply the projection to every vector of a batch with one sparse product.

    Returns the rows of one (k, m) array; row i is bitwise equal to
    ``apply(matrix, vectors[i])``, and each vector is checked as ``apply``
    checks it.  Errors name the batch element: the first that is not a
    vector of n real numbers, or whose projection is not finite.
    """
    xs = []
    for i, x in enumerate(vectors):
        try:
            xs.append(_vector(matrix, x))
        except (DimensionMismatch, DomainError) as exc:
            raise type(exc)(f"batch element {i}: {exc}") from None
    x = np.array(xs).reshape(len(xs), matrix.n)
    y = np.ascontiguousarray(_project(matrix.rows, matrix.signs, matrix.m, x.T).T)
    finite = np.isfinite(y).all(axis=1)
    if not finite.all():
        raise DomainError(f"batch element {int(np.argmin(finite))}: projected vector is not finite")
    return list(y)


def _check_header(n, m, s, seed) -> tuple[int, int, int, int]:
    """Reject header fields before any array is sized from them; return them as ints."""
    n, m, s, seed = (check_int(f"header field {name}", value, 0, streams.MASK64, MatrixInvariantError)
                     for name, value in (("n", n), ("m", m), ("s", s), ("seed", seed)))
    if m > 1 << 32:
        raise MatrixInvariantError(f"m = {m} exceeds the uint32 row-index range")
    if not 1 <= s <= m:
        raise MatrixInvariantError(f"sparsity s={s} outside [1, m={m}]")
    return n, m, s, seed


def serialize(matrix: SparseJLMatrix) -> bytes:
    """Binary encoding: header (version, n, m, s, seed) then column records.

    Each column record is s little-endian pairs of (uint32 row, sign byte)
    with 0x00 = -1 and 0x01 = +1.
    """
    header = _HEADER.pack(FORMAT_VERSION, matrix.n, matrix.m, matrix.s, matrix.seed)
    entries = np.empty(matrix.n * matrix.s, dtype=_ENTRY_DTYPE)
    entries["row"] = matrix.rows.ravel()
    entries["sign"] = (matrix.signs.ravel() > 0).astype(np.uint8)
    return b"".join((header, entries))  # one copy of the entries


def deserialize(data: bytes) -> SparseJLMatrix:
    """Decode :func:`serialize` output, checking all structural invariants."""
    if len(data) < _HEADER.size:
        raise TruncatedStreamError(
            f"stream of {len(data)} bytes is shorter than the {_HEADER.size}-byte header"
        )
    version, n, m, s, seed = _HEADER.unpack_from(data)
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    n, m, s, seed = _check_header(n, m, s, seed)
    expected = _HEADER.size + n * s * _ENTRY_DTYPE.itemsize
    if len(data) != expected:
        raise TruncatedStreamError(
            f"entry count mismatch: {n} columns of {s} entries need {expected} bytes, "
            f"stream has {len(data)}"
        )
    entries = np.frombuffer(data, dtype=_ENTRY_DTYPE, offset=_HEADER.size).reshape(n, s)
    sign_bytes = entries["sign"]
    wrong = sign_bytes > 1
    if wrong.any():
        bad = int(sign_bytes[wrong][0])
        raise MatrixInvariantError(f"sign domain violated: byte {bad:#x} is not 0x00/0x01")
    signs = sign_bytes.astype(np.int8)
    signs += signs
    signs -= 1
    rows = entries["row"].astype(np.uint32)
    return SparseJLMatrix(n=n, m=m, s=s, seed=seed, rows=rows, signs=signs)


def serialize_json(matrix: SparseJLMatrix) -> str:
    """Textual interchange variant of the binary format.

    The text is canonical: it equals ``json.dumps`` with ``sort_keys=True``
    of the document ``{"columns": [[[row, sign], ...], ...], "format_version",
    "m", "n", "s", "seed"}``, written directly from the arrays.
    """
    return b"".join(_json_parts(matrix)).decode("ascii")


def _json_parts(matrix: SparseJLMatrix):
    """The canonical text as bytes: the head, each block of ``_json_columns``, the tail."""
    yield _json_head(matrix.n)
    n, s = matrix.rows.shape
    for lo, hi in _blocks(n, s):
        yield _json_columns(matrix.rows[lo:hi], matrix.signs[lo:hi], matrix.m, hi == n)
    yield _json_tail(matrix.n, matrix.m, matrix.s, matrix.seed)


def _json_head(n: int) -> bytes:
    return b'{"columns": [' + b"[" * (n > 0)


def _json_tail(n: int, m: int, s: int, seed: int) -> bytes:
    header = {"format_version": FORMAT_VERSION, "n": n, "m": m, "s": s, "seed": seed}
    return b"], " + json.dumps(header, sort_keys=True)[1:].encode()


def _json_columns(rows: np.ndarray, signs: np.ndarray, m: int, final: bool) -> np.ndarray:
    """The canonical text of a block of columns as a uint8 array.

    Each entry ``[row, sign]`` is followed by ``, `` inside a column, by
    ``], [`` at a column end (closing the column and opening the next) and,
    when the block is ``final``, by ``]`` after its last entry.  Each row's
    digits are counted, the entries are laid out with one cumsum, and the
    digits and then every byte other than a space are scattered into the
    buffer.
    """
    s = rows.shape[1]
    tens = [10**j for j in range(len(str(m - 1)))]
    r = rows.ravel()
    neg = signs.ravel() < 0
    width = np.ones(r.size, dtype=np.int8)
    for ten in tens[1:]:
        width += r >= ten
    length = width + neg + 7  # "[", digits, ", ", "-"?, "1", "]", ", "
    length[s - 1::s] += 2  # "], [" in place of ", "
    if final:
        length[-1] -= 3  # "]" in place of "], ["
    end = np.cumsum(length, dtype=np.intp)
    first = end - length + 1  # first digit of each row
    buf = np.full(int(end[-1]), ord(" "), dtype=np.uint8)
    # Digit j (counted from the right) lands at last - j; a row with fewer
    # digits writes a 0 to its first digit, which its leading digit,
    # written in a later pass, overwrites.
    for j in range(len(tens) - 1, -1, -1):
        q = r // tens[j]
        digit = (q - q // 10 * 10).astype(np.uint8)  # q % 10, measured faster
        digit += ord("0")
        buf[first + np.maximum(width - 1 - j, 0)] = digit
    buf[first - 1] = ord("[")
    comma = first + width
    buf[comma] = ord(",")
    buf[comma + 2] = ord("-")  # a positive sign's "1" overwrites it
    close = comma + 3 + neg
    buf[close - 1] = ord("1")
    buf[close] = ord("]")
    follow = close[:-1] + 1 if final else close + 1
    buf[follow] = ord(",")
    col_end = follow[s - 1::s]  # ", " becomes "], ["
    buf[col_end] = ord("]")
    buf[col_end + 1] = ord(",")
    buf[col_end + 3] = ord("[")
    if final:
        buf[-1] = ord("]")
    return buf


def _first_failure(items, ok, per_column: int, lo: int) -> int:
    """Column index of the first item in a block that fails ``ok``."""
    return lo + next(i for i, item in enumerate(items) if not ok(item)) // per_column


def _decode_columns(columns: list, n: int, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Convert parsed ``[[row, sign], ...]`` columns to (rows, signs) arrays.

    Works in ``_blocks`` of s entries per column, so the int64 staging copy
    stays small.  Every value must be an exact ``int``: floats and bools are
    rejected, not coerced.
    """
    if set(map(type, columns)) - {list} or set(map(len, columns)) - {s}:
        i = _first_failure(columns, lambda c: type(c) is list and len(c) == s, 1, 0)
        raise MatrixInvariantError(f"entry count mismatch: column {i} is not a list of {s} entries")
    rows = np.empty((n, s), dtype=np.uint32)
    signs = np.empty((n, s), dtype=np.int8)
    for lo, hi in _blocks(n, s):
        entries = list(itertools.chain.from_iterable(columns[lo:hi]))
        if set(map(type, entries)) - {list} or set(map(len, entries)) - {2}:
            i = _first_failure(entries, lambda e: type(e) is list and len(e) == 2, s, lo)
            raise MatrixInvariantError(f"column {i} has an entry that is not a [row, sign] pair")
        values = list(itertools.chain.from_iterable(entries))
        if set(map(type, values)) - {int}:
            i = _first_failure(values, lambda v: type(v) is int, 2 * s, lo)
            raise MatrixInvariantError(f"column {i} has a row or sign that is not an integer")
        try:
            pairs = np.array(values, dtype=np.int64).reshape(-1, s, 2)
        except OverflowError:
            raise MatrixInvariantError(
                f"row index or sign outside the int64 range in columns {lo}..{hi - 1}"
            ) from None
        blk_rows, blk_signs = pairs[..., 0], pairs[..., 1]
        bad = np.nonzero((blk_signs != 1) & (blk_signs != -1))
        if bad[0].size:
            raise MatrixInvariantError(
                f"sign domain violated: column {lo + bad[0][0]} has sign {blk_signs[bad][0]}"
            )
        bad = np.nonzero((blk_rows < 0) | (blk_rows >= m))
        if bad[0].size:
            raise MatrixInvariantError(
                f"row index {blk_rows[bad][0]} outside [0, m={m}) in column {lo + bad[0][0]}"
            )
        rows[lo:hi] = blk_rows
        signs[lo:hi] = blk_signs
    return rows, signs


def deserialize_json(text: str) -> SparseJLMatrix:
    """Decode :func:`serialize_json` output, checking all structural invariants.

    Canonical text takes the array path; any other JSON document is decoded
    by :func:`json.loads` with the same checks and error messages.
    """
    canonical = type(text) is str and text.isascii()
    matrix = _decode_canonical(text.encode("ascii")) if canonical else None
    return _decode_document(text) if matrix is None else matrix


def _decode_canonical(data: bytes) -> SparseJLMatrix | None:
    """The matrix whose canonical text is exactly ``data``, or None.

    The canonical text of M is ``json.dumps`` of M's document, so
    :func:`json.loads` gives that document back and the general decoder
    returns M too: when encoding M reproduces ``data``, both paths agree.
    Every other text, valid or not, returns None and is left to the general
    decoder, which keeps its behaviour and its error messages.  A column
    that repeats a row raises here what the general decoder raises.

    The body is read in ``_blocks`` of s entries per column.  In a canonical
    block each entry ends at a ``]`` that follows its sign's ``1``; the sign
    is -1 when a ``-`` precedes that ``1``, and the row's digits run
    leftwards from the comma before the sign.  The block is then re-encoded
    and compared with the text, so whatever a malformed text makes of these
    steps, it is never accepted.
    """
    i = data.rfind(b'], "format_version": ')
    header = _JSON_TAIL.fullmatch(data, i) if i >= 0 else None
    if header is None:
        return None
    m, n, s, seed = map(int, header.groups())
    try:
        n, m, s, seed = _check_header(n, m, s, seed)
    except MatrixInvariantError:
        return None
    head = _json_head(n)
    pos = len(head)  # 14 when n > 0, so the reads below, at most 14 bytes back, stay in view
    # Every entry takes at least the 6 bytes of "[0, 1]", so a header that
    # claims more entries than the body can hold sizes no array.
    if not data.startswith(head) or data[i:] != _json_tail(n, m, s, seed) or 6 * n * s > i - pos:
        return None
    view = np.frombuffer(data, dtype=np.uint8)
    tens = np.uint64(10) ** np.arange(len(str(m - 1)), dtype=np.uint64)
    rows = np.empty((n, s), dtype=np.uint32)
    signs = np.empty((n, s), dtype=np.int8)
    for lo, hi in _blocks(n, s):
        count = (hi - lo) * s
        # At most digits + 8 bytes an entry and 2 more a column.
        window = view[pos:min(i, pos + count * (tens.size + 8) + 2 * (hi - lo))]
        close = np.flatnonzero(window == ord("]"))
        ends = close[window[close - 1] == ord("1")][:count] + pos
        if ends.size != count:
            return None
        neg = view[ends - 2] == ord("-")
        comma = ends - 3 - neg
        row = np.zeros(count, dtype=np.uint64)
        digits = np.ones(count, dtype=bool)
        for j, ten in enumerate(tens):
            digit = view[comma - 1 - j].astype(np.uint64) - np.uint64(ord("0"))
            digits &= digit < 10
            digit *= digits
            digit *= ten
            row += digit
        if row.max() >= m:
            return None
        rows[lo:hi] = row.reshape(-1, s)
        signs[lo:hi] = (1 - 2 * neg.view(np.int8)).reshape(-1, s)
        block = _json_columns(rows[lo:hi], signs[lo:hi], m, hi == n)
        if not np.array_equal(view[pos:pos + block.size], block):
            return None
        pos += block.size
    if pos != i:
        return None
    return SparseJLMatrix(n=n, m=m, s=s, seed=seed, rows=rows, signs=signs)


def _decode_document(text: str) -> SparseJLMatrix:
    """General decoder: any JSON text, parsed with :func:`json.loads`."""
    gc_enabled = gc.isenabled()
    gc.disable()  # parsing millions of small lists would set off repeated full collections
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise MatrixInvariantError(f"malformed matrix document: {exc}") from None
    finally:
        if gc_enabled:
            gc.enable()
    if type(doc) is not dict:
        raise MatrixInvariantError("malformed matrix document: not a JSON object")
    try:
        version = doc["format_version"]
        n, m, s, seed = doc["n"], doc["m"], doc["s"], doc["seed"]
        columns = doc["columns"]
    except KeyError as exc:
        raise MatrixInvariantError(f"malformed matrix document: missing {exc}") from None
    if type(version) is not int or version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported format version {version!r}, expected {FORMAT_VERSION}")
    n, m, s, seed = _check_header(n, m, s, seed)
    if type(columns) is not list:
        raise MatrixInvariantError("malformed matrix document: columns is not a list")
    if len(columns) != n:
        raise MatrixInvariantError(f"entry count mismatch: {len(columns)} columns, header says {n}")
    rows, signs = _decode_columns(columns, n, m, s)
    return SparseJLMatrix(n=n, m=m, s=s, seed=seed, rows=rows, signs=signs)


def write_matrix(path, matrix: SparseJLMatrix, fmt: str = "binary") -> None:
    if fmt == "binary":
        with open(path, "wb") as fh:
            fh.write(serialize(matrix))
    elif fmt == "json":
        with open(path, "wb") as fh:
            fh.writelines(_json_parts(matrix))
    else:
        raise DomainError(f"unknown matrix format {fmt!r}, expected 'binary' or 'json'")


def read_matrix(path) -> SparseJLMatrix:
    """Load a matrix file, accepting either the binary or the JSON encoding.

    A file whose first byte after JSON whitespace is ``{`` is JSON, also
    after a UTF-8 byte-order mark, which the JSON decoder then rejects; a
    binary file starts with its version byte 0x01.  A canonical JSON file is
    decoded from its bytes; any other is decoded as UTF-8 and parsed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    start = _JSON_WHITESPACE.match(data).end()
    if data[start:start + 1] != b"{":
        return deserialize(data)
    matrix = _decode_canonical(data)
    if matrix is None:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MatrixInvariantError(f"malformed matrix document: {exc}") from None
        matrix = _decode_document(text)
    return matrix
