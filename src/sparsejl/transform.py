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
swaps of a block of lanes with one sort per lane, on keys (target, step)
that are 32-bit wherever they fit, so its working memory is O(block * s)
whatever m is, and every m up to 2^32 can be built.  A block's words are
drawn with one broadcast add and mixed in place, tested for rejection
with one comparison, and reduced to targets in place in the block's
slice of the output.  The rare lane whose draws hit modulo rejection is
replayed by the pure-Python twin :func:`sample_column_scalar`, which is
also the reference that the vectorized path is tested against bit for
bit.

Every :class:`SparseJLMatrix` is valid by construction: its constructor
copies the ``rows`` and ``signs`` arrays it is given and runs the one
matrix rule, ``validate()`` (the header rule, uint32 rows and int8 signs of
shape (n, s), rows in [0, m), signs -1/+1, distinct rows per column), on
the copies.  ``build_matrix`` and the decoders make fresh arrays that
nothing else holds, and hand them over without that copy, through the same
rule.  The instance is frozen with read-only arrays that it alone owns, and
the caller's arrays are left as they were.

Matrices are stored in a binary format or a canonical JSON text, which is
exactly ``json.dumps(..., sort_keys=True)`` of the document.  Both decoders
check the header (integers, m at most 2^32, 1 <= s <= m, seed in
[0, 2^64)) before sizing any array, and the constructor checks the
rest.  The JSON text is encoded with array operations, block by block,
and a file is written and read as bytes.  The JSON encoder and the CSV
writer take their blocks from ``_map_blocks`` (two at once, in order, the
bytes one thread writes); the decoders and the sampler run on the calling
thread.
:func:`read_matrix` routes a file by its first byte: an empty file or one
starting below 0x09 is binary (the format opens with its version, 1), and
any other file is JSON.  Both decoders read bytes.  :func:`deserialize`
reads a ``bytes``, ``bytearray`` or C-contiguous ``memoryview`` through
one flat byte view.  :func:`deserialize_json`, the one JSON rule, decodes
a ``str`` as its UTF-8 bytes and reads back only the canonical text, one
block at a time: it finds each entry by the ``]`` that follows its sign's
``1``, reads the row's digits leftwards from the comma, and accepts the
block only if encoding it reproduces the text byte for byte.  Any other
text, such as a pretty-printed document or one with its keys reordered,
is one MatrixInvariantError naming the byte offset at which it leaves the
canonical form.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
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
# ``count`` items of ``per_item`` entries into the fewest blocks of at most
# this many entries (or one item), balanced to within one item; each caller
# gives its own weight.  Column sampling sets the size: s Fisher-Yates steps a
# lane take 64-bit work arrays near 512 KB whatever m is, and 2^14 to 2^16
# steps measured fastest.  ``_map_blocks`` runs two blocks at once and halves
# them, so the two in flight hold what one block would.
# No code but ``_blocks`` reads the constant.
_CHUNK_ENTRIES = 1 << 16
# The most entries of a matrix or of a trial count: numpy indexes at most
# np.iinfo(np.intp).max bytes, and an entry may take 8.  Larger sizes are
# rejected before any array is sized.
_MAX_ENTRIES = int(np.iinfo(np.intp).max) // 8

_DIGITS = re.compile(rb"\d{1,20}")  # a header field, or the first 20 digits of a longer run
# The error of every text that is not canonical, at the byte where its comparison failed.
_NOT_CANONICAL = "not the canonical JSON text that serialize_json writes: it departs from it at byte {}"


@dataclass(eq=False, frozen=True)
class SparseJLMatrix:
    """Sparse sign projection: per-column nonzero rows and signs.

    ``rows`` has shape (n, s) with distinct entries in [0, m) per column,
    ``signs`` holds -1/+1; the implied entries are signs/sqrt(s), so every
    column has unit norm by construction.

    The constructor enforces this, so every instance is valid: it keeps
    the header fields as ``int`` and C-contiguous copies of ``rows`` and
    ``signs``, then runs :meth:`validate` on them.  The caller's arrays are
    left as they were, writable or not, and nothing the caller holds, a
    view included, can change the matrix.  The instance is frozen and its
    arrays are read-only.  ``build_matrix`` and the decoders, whose arrays
    are their own, skip the copy (``_adopt``).
    """

    n: int
    m: int
    s: int
    seed: int
    rows: np.ndarray = field(repr=False)
    signs: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("rows", "signs"):
            value = getattr(self, name)
            if type(value) is np.ndarray:
                object.__setattr__(self, name, value.copy())
        self._seal()

    @classmethod
    def _adopt(cls, n, m, s, seed, rows: np.ndarray, signs: np.ndarray) -> SparseJLMatrix:
        """The matrix that holds ``rows`` and ``signs`` themselves: fresh, C-contiguous arrays that own
        their data and that nothing else refers to, as ``build_matrix`` and the decoders make them.  It
        runs the constructor's rule and sets its read-only flags, without the constructor's copy."""
        matrix = object.__new__(cls)
        for name, value in zip(("n", "m", "s", "seed", "rows", "signs"), (n, m, s, seed, rows, signs)):
            object.__setattr__(matrix, name, value)
        matrix._seal()
        return matrix

    def _seal(self) -> None:
        """Keep the header fields as ints, run :meth:`validate` on the held arrays, then make them read-only."""
        for name, value in zip(("n", "m", "s", "seed"), _check_header(self.n, self.m, self.s, self.seed)):
            object.__setattr__(self, name, value)
        self.validate()
        self.rows.setflags(write=False)
        self.signs.setflags(write=False)

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(self.s)

    def validate(self) -> None:
        """The one matrix rule: header, array types, shapes, row range, signs, distinct rows.

        The header fields follow the stored header's rule, ``rows`` must be
        a uint32 and ``signs`` an int8 ``np.ndarray`` (anything else is a
        DomainError, nothing is coerced), and a broken invariant raises
        MatrixInvariantError.  It checks the arrays the matrix holds and
        copies nothing.
        """
        _check_header(self.n, self.m, self.s, self.seed)
        for name, dtype in (("rows", np.uint32), ("signs", np.int8)):
            value = getattr(self, name)
            if type(value) is not np.ndarray or value.dtype != dtype:
                got = f"dtype {value.dtype}" if type(value) is np.ndarray else type(value).__name__
                raise DomainError(f"{name} must be a numpy array of dtype {np.dtype(dtype)}, got {got}")
        if self.rows.shape != (self.n, self.s) or self.signs.shape != (self.n, self.s):
            raise MatrixInvariantError(
                f"entry count mismatch: expected {self.s} entries in each of {self.n} columns, "
                f"got rows of shape {self.rows.shape} and signs of shape {self.signs.shape}"
            )
        if self.rows.size and int(self.rows.max()) >= self.m:
            raise MatrixInvariantError(f"row index {int(self.rows.max())} outside [0, m={self.m})")
        if np.count_nonzero(self.signs == 1) + np.count_nonzero(self.signs == -1) != self.signs.size:
            raise MatrixInvariantError("sign domain violated: signs must be -1 or +1")
        _check_distinct(self.rows)

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
    """(lo, hi) bounds of the blocks of ``count`` items of ``per_item`` entries, in order.

    They are the fewest blocks of at most ``_CHUNK_ENTRIES // per_item`` items
    (at least one item), and their sizes differ by at most one item.  A
    count that fits in one block is one block.
    """
    blocks = -(-count // max(1, _CHUNK_ENTRIES // per_item))
    for k in range(blocks):
        yield k * count // blocks, (k + 1) * count // blocks


def _map_blocks(fn, count: int, per_item: int):
    """Yield ``fn(lo, hi)`` for each block of ``count`` items of ``per_item`` entries, in order.

    The calling thread runs block k while one helper thread runs block k + 1,
    so a kernel of numpy passes, which release the GIL, uses a second core;
    the blocks must be independent, and their results are what one thread
    gives.  Two blocks are in flight, so the blocks are ``_blocks(count,
    2 * per_item)``: an item weighs twice its entries, and the two blocks
    together hold what one block would.  No other code doubles a weight.
    An exception is raised when its block's turn comes.  The helper runs
    only when there are at least two blocks and the process may run on at
    least two CPUs, counted when the map starts.  Its executor is shut down
    when the generator finishes, raises or is closed, so no thread outlives
    the map.
    """
    bounds = list(_blocks(count, 2 * per_item))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if len(bounds) < 2 or cpus < 2:
        for lo, hi in bounds:
            yield fn(lo, hi)
        return
    with concurrent.futures.ThreadPoolExecutor(1) as helper:
        for k in range(0, len(bounds), 2):
            ahead = helper.submit(fn, *bounds[k + 1]) if k + 1 < len(bounds) else None
            yield fn(*bounds[k])
            if ahead is not None:
                yield ahead.result()


def sample_columns(m: int, s: int, roots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample one column per stream root: s distinct rows of [0, m) plus signs.

    Each lane runs ``s`` partial Fisher-Yates steps (bounded draws with
    modulo rejection) over its own virtual copy of the row range, then
    draws ``s`` sign words.  Returns (rows, signs) of shape (lanes, s).

    Lanes are processed in ``_blocks`` of s steps per lane.  A block
    draws every step's word at once (counters 1..s, signs at s+1..2s),
    reduces the words to targets in place, writes them into its slice of
    ``rows`` and resolves the swaps there with one sort per lane, so
    memory is O(block) whatever m is.  A lane in which any bounded draw
    hits the rejection zone (probability below s*m/2^64) is replayed by
    :func:`sample_column_scalar`.
    """
    lanes = roots.shape[0]
    rows = np.empty((lanes, s), dtype=np.uint32)
    signs = np.empty((lanes, s), dtype=np.int8)
    steps = np.arange(s, dtype=np.uint64)
    bounds = np.uint64(m) - steps
    # rem = 2^64 mod bound: a draw z is rejected when z >= 2^64 - rem, that is
    # z > ~rem (rem = 0 rejects nothing, as ~0 is the largest word).
    accept_max = ~((np.uint64(streams.MASK64) % bounds + np.uint64(1)) % bounds)
    for lo, hi in _blocks(lanes, s):
        blk = roots[lo:hi]
        ctrs = np.zeros(blk.shape[0], dtype=np.uint64)
        z = streams.next_u64_block_vec(blk, ctrs, s)
        rejected = np.flatnonzero((z > accept_max).any(axis=1))
        z %= bounds
        z += steps
        blk_rows = rows[lo:hi]
        blk_rows[...] = z
        _fisher_yates_rows(blk_rows, m)
        z = streams.next_u64_block_vec(blk, ctrs, s)
        z &= np.uint64(1)
        blk_signs = signs[lo:hi]
        blk_signs[...] = z
        blk_signs += blk_signs
        blk_signs -= 1
        for lane in rejected:
            rows[lo + lane], signs[lo + lane] = sample_column_scalar(m, s, int(blk[lane]))
    return rows, signs


def _fisher_yates_rows(rows: np.ndarray, m: int) -> None:
    """Replace the targets ``rows[:, k] >= k`` of partial Fisher-Yates steps by the rows they pick, in place.

    Step k takes the value at position t_k and moves the value of position
    k there.  With each lane's steps sorted by key (t, k):

    - step k picks t_k unless an earlier step j targeted t_k; then it picks
      h(j), the value position j held when step j ran, for the latest such
      j (the previous entry of the sorted run);
    - h(j) = j unless an earlier step i < j targeted position j; then
      h(j) = h(i) for the latest such i, found by binary search.  These
      chains decrease strictly, so they end; each pass follows one link.

    The key ``t << kbits | k`` is a uint32 when it fits in 32 bits and a
    uint64 otherwise, and each lane is sorted on its own.  Only the binary
    search needs one sorted array for the block: it is built, with the lane
    in the bits above the key, when some lane repeats a target.
    """
    lanes, s = rows.shape
    kbits = (s - 1).bit_length()
    key_bits = kbits + (m - 1).bit_length()
    key = np.uint32 if key_bits <= 32 else np.uint64
    keys = rows.astype(key)
    keys <<= key(kbits)
    keys |= np.arange(s, dtype=key)
    keys.sort(axis=1)
    keys = keys.ravel()
    group = keys >> key(kbits)
    repeat = group[1:] == group[:-1]
    repeat[s - 1::s] = False  # a lane's last step and the next lane's first
    dup = np.flatnonzero(repeat) + 1
    if not dup.size:
        return
    k_shift, lane_shift = np.uint64(kbits), np.uint64(key_bits)
    k_mask = np.uint64((1 << kbits) - 1)
    sorted_keys = np.arange(lanes, dtype=np.uint64).repeat(s)
    sorted_keys <<= lane_shift
    sorted_keys |= keys
    prefix = sorted_keys[dup] >> lane_shift << lane_shift
    pos = sorted_keys[dup - 1] & k_mask
    pending = np.arange(dup.size)
    while pending.size:
        query = prefix[pending] | (pos[pending] << k_shift) | pos[pending]
        prev = np.searchsorted(sorted_keys, query) - 1
        hit = (prev >= 0) & (sorted_keys[prev] >> k_shift == query >> k_shift)
        pending, prev = pending[hit], prev[hit]
        pos[pending] = sorted_keys[prev] & k_mask
    rows.reshape(-1)[dup - dup % s + (sorted_keys[dup] & k_mask).astype(np.intp)] = pos


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
    if n * s > _MAX_ENTRIES:
        raise DomainError(f"n = {n} with s = {s} gives {n * s} entries, above {_MAX_ENTRIES}, the most an array holds")
    return n, m, s, seed


def build_matrix(n: int, m: int, s: int, seed: int) -> SparseJLMatrix:
    """Construct the m x n projection determined by (n, m, s, seed).

    Each of the n columns independently selects s distinct rows uniformly
    without replacement and assigns each an independent uniform sign.
    n, m, s and ``seed`` must be integers (``int`` or numpy) with n >= 1,
    1 <= s <= m <= 2^32 and seed in [0, 2^64), as in the stored header,
    and n s at most ``np.iinfo(np.intp).max // 8``.
    """
    n, m, s, seed = _validate_build_args(n, m, s, seed)
    roots = streams.substream_vec(seed, np.arange(n))
    rows, signs = sample_columns(m, s, roots)
    return SparseJLMatrix._adopt(n, m, s, seed, rows, signs)


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


def _check_matrix(matrix) -> None:
    """Raise DomainError unless ``matrix`` is a :class:`SparseJLMatrix`."""
    if not isinstance(matrix, SparseJLMatrix):
        raise DomainError(f"matrix must be a SparseJLMatrix, got {type(matrix).__name__}")


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
    DomainError when an entry of y is not finite, or when ``matrix`` is
    not a :class:`SparseJLMatrix`.
    """
    _check_matrix(matrix)
    y = _project(matrix.rows, matrix.signs, matrix.m, _vector(matrix, x))
    if not np.isfinite(y).all():
        raise DomainError("projected vector is not finite")
    return y


def apply_batch(matrix: SparseJLMatrix, vectors) -> list[np.ndarray]:
    """Apply the projection to every vector of a batch with one sparse product.

    Returns the rows of one (k, m) array; row i is bitwise equal to
    ``apply(matrix, vectors[i])``, and each vector is checked as ``apply``
    checks it.  Errors name the batch element: the first that is not a
    vector of n real numbers, or whose projection is not finite.  A
    ``matrix`` that is not a :class:`SparseJLMatrix`, or ``vectors`` that
    cannot be iterated, raise DomainError.
    """
    _check_matrix(matrix)
    try:
        vectors = iter(vectors)
    except TypeError:
        raise DomainError(f"vectors must be an iterable of vectors, got {type(vectors).__name__}") from None
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
    _check_matrix(matrix)
    header = _HEADER.pack(FORMAT_VERSION, matrix.n, matrix.m, matrix.s, matrix.seed)
    entries = np.empty(matrix.n * matrix.s, dtype=_ENTRY_DTYPE)
    entries["row"] = matrix.rows.ravel()
    entries["sign"] = (matrix.signs.ravel() > 0).astype(np.uint8)
    return b"".join((header, entries))  # one copy of the entries


def deserialize(data: bytes | bytearray | memoryview) -> SparseJLMatrix:
    """Decode :func:`serialize` output, checking all structural invariants.

    ``data`` is ``bytes``, ``bytearray`` or a ``memoryview``, read through
    one flat byte view, so its length is counted in bytes whatever the
    view's item type or shape.  Anything else, and a view that is not
    C-contiguous, raises DomainError.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise DomainError(f"binary matrix data must be bytes, bytearray or memoryview, got {type(data).__name__}")
    try:
        data = memoryview(data).cast("B")
    except (TypeError, ValueError) as exc:  # a strided or released view
        raise DomainError(f"binary matrix data must be a readable C-contiguous buffer ({exc})") from None
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
    rows = entries["row"].astype(np.uint32)  # a copy: the field is a strided view of ``data``
    return SparseJLMatrix._adopt(n, m, s, seed, rows, signs)


def serialize_json(matrix: SparseJLMatrix) -> str:
    """Textual interchange variant of the binary format.

    The text is canonical: it equals ``json.dumps`` with ``sort_keys=True``
    of the document ``{"columns": [[[row, sign], ...], ...], "format_version",
    "m", "n", "s", "seed"}``, written directly from the arrays in the blocks
    of columns of ``_map_blocks``.
    """
    _check_matrix(matrix)
    return b"".join(_json_parts(matrix)).decode("ascii")


def _json_parts(matrix: SparseJLMatrix):
    """The canonical text as bytes: the head, each block of ``_json_columns``, the tail."""
    yield _json_head(matrix.n)
    n, s = matrix.rows.shape
    rows, signs = matrix.rows, matrix.signs
    yield from _map_blocks(lambda lo, hi: _json_columns(rows[lo:hi], signs[lo:hi], matrix.m, hi == n), n, s)
    yield _json_tail(matrix.n, matrix.m, matrix.s, matrix.seed)


def _json_head(n: int) -> bytes:
    return b'{"columns": [' + b"[" * (n > 0)


def _json_tail(n: int, m: int, s: int, seed: int, version: int = FORMAT_VERSION) -> bytes:
    return f'], "format_version": {version}, "m": {m}, "n": {n}, "s": {s}, "seed": {seed}}}'.encode()


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


def deserialize_json(text: str | bytes | bytearray) -> SparseJLMatrix:
    """Decode :func:`serialize_json` output, text or bytes, checking all structural invariants.

    This is the one JSON decoding rule, and :func:`read_matrix` hands it the
    bytes of every file that does not start below 0x09.  It reads back only
    the canonical text: a ``str`` is decoded as its UTF-8 bytes (lone
    surrogates included), and anything but ``str``, ``bytes`` or
    ``bytearray`` raises DomainError.

    The header fields are the first five runs of digits after the last
    ``], "format_version": ``.  The head and the header are compared with
    their canonical text, then the body one block at a time
    (:func:`_json_body`).  A canonical header with a version other than 1
    raises FormatVersionError, and one that breaks the header rule the error
    of :func:`_check_header`; a canonical body with a row at least m (and
    below 2^32) or a repeated row raises the constructor's error.  Any other
    text, such as a pretty-printed one, one with its keys reordered or one
    led by whitespace or a byte-order mark, raises one MatrixInvariantError
    naming the first byte at which it and the canonical text of what was
    read from it differ.
    """
    if not isinstance(text, (str, bytes, bytearray)):
        raise DomainError(f"JSON matrix text must be str, bytes or bytearray, got {type(text).__name__}")
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    view = np.frombuffer(data, dtype=np.uint8)
    i = data.rfind(b'], "format_version": ')
    i = len(data) if i < 0 else i
    fields = [int(run[0]) for _, run in zip(range(5), _DIGITS.finditer(data, i))]
    version, m, n, s, seed = fields + [0] * (5 - len(fields))
    head = _json_head(n)
    _expect(view[:len(head)], head, 0)
    _expect(view[i:], _json_tail(n, m, s, seed, version), i)
    if version != FORMAT_VERSION:
        raise FormatVersionError(f"unsupported format version {version}, expected {FORMAT_VERSION}")
    n, m, s, seed = _check_header(n, m, s, seed)
    pos = len(head)  # 14 when n > 0, so the reads below, at most 14 bytes back, stay in view
    # Every entry takes at least the 6 bytes of "[0, 1]", so a header that
    # claims more entries than the body can hold sizes no array.
    if 6 * n * s > i - pos:
        raise MatrixInvariantError(_NOT_CANONICAL.format(i))
    rows, signs = _json_body(view, pos, i, n, m, s)
    return SparseJLMatrix._adopt(n, m, s, seed, rows, signs)


def _json_body(view: np.ndarray, pos: int, i: int, n: int, m: int, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows and signs of a canonical body, ``view[pos:i]``, read and compared one block at a time.

    In a canonical block each entry ends at a ``]`` that follows its sign's
    ``1``; the sign is -1 when a ``-`` precedes that ``1``, and the row's
    digits run leftwards from the comma before the sign.  The block is then
    re-encoded and compared with the text, so whatever a malformed text
    makes of these steps, it is never accepted.
    """
    tens = np.uint64(10) ** np.arange(len(str(m - 1)), dtype=np.uint64)
    rows = np.empty((n, s), dtype=np.uint32)
    signs = np.empty((n, s), dtype=np.int8)
    for lo, hi in _blocks(n, s):
        count = (hi - lo) * s
        # At most digits + 8 bytes an entry and 2 more a column.
        window = view[pos:min(i, pos + count * (tens.size + 8) + 2 * (hi - lo))]
        close = np.flatnonzero(window == ord("]"))
        found = close[window[close - 1] == ord("1")][:count]
        ends = np.full(count, i)  # entries not found are read at the header, and fail the comparison
        ends[:found.size] = found + pos
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
        rows[lo:hi] = row.reshape(-1, s)  # a row beyond uint32 wraps, and fails the comparison
        signs[lo:hi] = (1 - 2 * neg.view(np.int8)).reshape(-1, s)
        block = _json_columns(rows[lo:hi], signs[lo:hi], m, hi == n)
        _expect(view[pos:pos + block.size], block, pos)
        pos += block.size
    _expect(view[pos:], view[i:], pos)  # the body ends where the header begins
    return rows, signs


def _expect(got: np.ndarray, expected, at: int) -> None:
    """Raise the non-canonical error at the first byte where ``got``, the text from byte ``at``, leaves ``expected``."""
    expected = np.frombuffer(expected, dtype=np.uint8)
    if not np.array_equal(got, expected):
        size = min(got.size, expected.size)
        differ = np.flatnonzero(got[:size] != expected[:size])
        raise MatrixInvariantError(_NOT_CANONICAL.format(at + (int(differ[0]) if differ.size else size)))


def write_matrix(path, matrix: SparseJLMatrix, fmt: str = "binary") -> None:
    """Write ``matrix`` to ``path`` in the binary format or as canonical JSON (``fmt`` "binary" or "json").

    A ``matrix`` that is not a :class:`SparseJLMatrix` or an unknown ``fmt``
    raises DomainError before the file is opened, so an existing file is
    left as it was.  The JSON text is written block by block as
    :func:`serialize_json` forms it (``_map_blocks``).
    """
    _check_matrix(matrix)
    if fmt not in ("binary", "json"):
        raise DomainError(f"unknown matrix format {fmt!r}, expected 'binary' or 'json'")
    with open(path, "wb") as fh:
        fh.writelines([serialize(matrix)] if fmt == "binary" else _json_parts(matrix))


def read_matrix(path) -> SparseJLMatrix:
    """Load a matrix file, accepting either the binary or the JSON encoding.

    One byte routes the file: an empty file, or one whose first byte is
    below 0x09, goes to :func:`deserialize` (the binary format opens with
    its version, 1), and every other file to :func:`deserialize_json`.  So
    JSON whitespace, ``{`` and every byte-order mark but UTF-32 big-endian's
    (which opens with a zero byte) reach the JSON rule, which reads back
    only the canonical text and names the byte offset at which any other
    file leaves it.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return deserialize(data) if data[:1] < b"\x09" else deserialize_json(data)
