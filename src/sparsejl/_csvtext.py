"""CSV text of float rows, byte for byte what ``repr`` of each value gives.

A value's text is CPython's ``repr`` of it as a float64: the shortest
decimal that reads back to the same double, the closest such one to it,
laid out as ``0.000ddd``, ``dd.ddd`` or ``ddd00.0`` (``repr`` picks the
exponent form for decimal exponents below -4 and above 16).  Values are
formatted with array operations, a ``transform._blocks`` block at a time:

- The digits come from Schubfach (R. Giulietti, "The Schubfach way to
  render doubles", 2020), the algorithm behind ``Double.toString`` in JDK
  19.  It scales the value's rounding interval by a 126-bit power of ten
  from a table of 617 entries, built once from Python integers, using a
  few 64 x 64 -> 128-bit products.  Those are built from 32-bit halves in
  uint64 arithmetic; every constant that meets a uint64 array is an
  ``np.uint64``, so the kernel runs the same without NEP 50 (numpy 1.24).
- The digits are laid out right-aligned in one fixed-width byte row per
  value, and the rows are compacted into one buffer by a mask.

±0.0, subnormals, non-finite values and the values that ``repr`` writes in
exponent form (|v| < 1e-4 or |v| >= 1e16) take the per-value ``repr``, each
written into its own row.
"""

from __future__ import annotations

import numpy as np

from . import transform
from .errors import DomainError, check_real_vector

_U = np.uint64
_MASK32 = _U(0xFFFF_FFFF)
_MASK63 = _U(0x7FFF_FFFF_FFFF_FFFF)
_SIGNIFICAND = _U((1 << 52) - 1)
_HIDDEN_BIT = _U(1 << 52)
_ONE_BITS = _U(0x3FF0_0000_0000_0000)

# Decimal exponents k of the values' digits s * 10^k run over [-324, 292];
# entry 292 - k of the table holds g = floor(10^-k * 2^(125 - floor(-k log2 10))) + 1,
# a 126-bit integer, split as g = g1 * 2^63 + g0.
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e: int) -> int:
    """floor(e log2 10), exact over the table's range (checked against exact powers)."""
    return (e * 913_124_641_741) >> 38


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    g1, g0 = [], []
    for e in range(-_K_MAX, -_K_MIN + 1):
        shift = 125 - _flog2pow10(e)
        g = (10**e << shift if shift >= 0 else 10**e >> -shift) if e >= 0 else (1 << shift) // 10**-e
        g += 1
        g1.append(g >> 63)
        g0.append(g & ((1 << 63) - 1))
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _pow10_table()
_POW10 = np.array([10**j for j in range(20)], dtype=np.uint64)
# Text in groups of four bytes, as uint32 words: entries 0..9999 are the four
# digits of the entry, and 10000 + 1000 e + j the three digits of j followed
# by "," (e = 0) or by the line end (e = 1).
_GROUPS = np.frombuffer(
    "".join(f"{j:04d}" for j in range(10_000)).encode()
    + "".join(f"{j:03d}{sep}" for sep in ",\n" for j in range(1_000)).encode(),
    dtype=np.uint32,
)
_ROW = 28  # seven groups: the longest repr, "-2.2250738585072014e-308", and a separator fit


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return a & _MASK32, a >> _U(32)


def _mul_hi(a: tuple, b: tuple) -> np.ndarray:
    """High 64 bits of the 128-bit products a * b of uint64 arrays given as halves."""
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    mid = ((a_lo * b_lo) >> _U(32)) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))


def _round_to_odd(g1: np.ndarray, g: tuple, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127) with its lowest bit set when inexact (Giulietti, figure 8).

    ``g`` holds the halves of g1 and g0, g = g1 2^63 + g0.
    """
    cp_halves = _halves(cp)
    z = ((g1 * cp) >> _U(1)) + _mul_hi(g[1], cp_halves)  # g1 * cp wraps to its low 64 bits
    return (_mul_hi(g[0], cp_halves) + (z >> _U(63))) | (((z & _MASK63) + _MASK63) >> _U(63))


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits f and exponent k, v = f 10^k, of positive normal doubles.

    f has 16 or 17 digits, trailing zeros included.  Among the shortest
    decimals in the rounding interval it is the closest to v, and on a tie
    the even one.
    """
    biased = bits >> _U(52)
    c = (bits & _SIGNIFICAND) | _HIDDEN_BIT
    q = biased.astype(np.int64) - 1075  # v = c 2^q
    # Below a power of two the rounding interval is half as wide, except
    # at the smallest normal exponent, whose neighbours below are subnormal.
    irregular = (c == _HIDDEN_BIT) & (biased > _U(1))
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g1 = _G1[_K_MAX - k]
    g = _halves(g1), _halves(_G0[_K_MAX - k])
    cb = c << _U(2)
    vb = _round_to_odd(g1, g, cb << h)
    vbl = _round_to_odd(g1, g, (cb - _U(2) + irregular.astype(np.uint64)) << h)
    vbr = _round_to_odd(g1, g, (cb + _U(2)) << h)
    out = c & _U(1)  # an odd significand's interval excludes its ends

    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)  # one digit shorter, below and above
    tp10 = sp10 + _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = (tp10 << _U(2)) + out <= vbr
    t = s + _U(1)
    uin = vbl + out <= s << _U(2)
    win = (t << _U(2)) + out <= vbr
    mid = (s + t) << _U(1)
    lower = (vb < mid) | ((vb == mid) & ((s & _U(1)) == _U(0)))
    f = np.where(upin != wpin, np.where(upin, sp10, tp10),
                 np.where(uin != win, np.where(uin, s, t), np.where(lower, s, t)))
    return f, k


def _format_block(values: np.ndarray, ends: np.ndarray) -> str:
    """Text of ``values`` (float64), each followed by "," or, where ``ends`` is set, "\\n"."""
    bits = values.view(np.uint64)
    neg = (bits >> _U(63)).astype(bool)
    biased = (bits >> _U(52)) & _U(0x7FF)
    special = (biased == _U(0)) | (biased == _U(0x7FF))  # ±0, subnormal, inf, nan
    f, k = _shortest(np.where(special, _ONE_BITS, bits & _MASK63))

    ndig = 16 + (f >= _POW10[16])
    decpt = ndig + k  # v = 0.ddd 10^decpt
    fallback = special | (decpt <= -4) | (decpt > 16)
    decpt[fallback] = 1  # any layout that fits: the row is overwritten
    tz = np.zeros(f.size, dtype=np.int64)  # strip f's trailing zeros
    for j in (16, 8, 4, 2, 1):
        q = f // _POW10[j]
        exact = q * _POW10[j] == f
        f = np.where(exact, q, f)
        tz += j * exact
    nsig = ndig - tz
    intlen = np.maximum(decpt, 1)
    fraclen = np.maximum(nsig - decpt, 1)
    # The digits of the text as one integer below 10^18, a 0 standing for the point.
    number = f * _POW10[np.maximum(decpt - nsig + 1, 0)]
    unit = _POW10[np.minimum(fraclen, 19)]
    number += number // unit * _U(9) * unit

    # One right-aligned row of seven groups per value, from the last group
    # (three digits and the separator) to two groups that are all zeros.
    words = np.zeros((f.size, _ROW // 4), dtype=np.intp)
    rest = number // _U(1_000)
    words[:, -1] = number - rest * _U(1_000)
    words[:, -1] += np.where(ends, 11_000, 10_000)
    for j in range(5, 1, -1):
        high = rest // _U(10_000)
        words[:, j] = rest - high * _U(10_000)
        rest = high
    rows = _GROUPS[words].view(np.uint8)
    point = _ROW - 2 - fraclen
    index = np.arange(f.size)
    rows[index, point] = ord(".")
    rows[index, point - intlen - 1] = np.where(neg, ord("-"), ord("0"))  # "0" is left of the text
    start = point - intlen - neg

    spots = np.flatnonzero(fallback)
    if spots.size:
        texts = [repr(v) + ("\n" if end else ",") for v, end in zip(values[spots].tolist(), ends[spots].tolist())]
        rows[spots] = np.frombuffer("".join(t.rjust(_ROW) for t in texts).encode("ascii"),
                                    dtype=np.uint8).reshape(-1, _ROW)
        start[spots] = [_ROW - len(t) for t in texts]
    return rows[np.arange(_ROW) >= start[:, None]].tobytes().decode("ascii")


def csv_text(rows):
    """Yield the CSV text of ``rows``, one line per row, in blocks.

    Each row must be a non-empty 1-D sequence of real numbers (see
    ``errors.check_real_vector``) and is printed as its float64 values;
    rows may differ in length.  Any other row raises ``DomainError`` naming
    its index, before any text is yielded.  Values are comma-separated and
    each line ends with ``"\\n"``.  Rows are formatted in
    ``transform._blocks`` of whole rows, and a row longer than a block is
    cut by ``transform._blocks`` of single values; no float64 row is
    copied, so memory stays bounded by the block size whatever the shape.
    """
    vecs = [check_real_vector(f"row {i}", row) for i, row in enumerate(rows)]
    for i, vec in enumerate(vecs):
        if vec.size == 0:
            raise DomainError(f"row {i} must be a non-empty vector")
    for lo, hi in transform._blocks(len(vecs), max((vec.size for vec in vecs), default=1)):
        values = vecs[lo] if hi - lo == 1 else np.concatenate(vecs[lo:hi])
        stops = np.cumsum([vec.size for vec in vecs[lo:hi]]) - 1  # each row's last value
        for a, b in transform._blocks(values.size, 1):
            ends = np.zeros(b - a, dtype=bool)
            ends[stops[(a <= stops) & (stops < b)] - a] = True
            yield _format_block(values[a:b], ends)
