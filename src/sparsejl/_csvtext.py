"""CSV text of float rows, byte for byte what ``repr`` of each value gives.

A value's text is CPython's ``repr`` of it as a float64: the shortest
decimal that reads back to the same double, the closest such one to it,
laid out as ``0.000ddd``, ``dd.ddd`` or ``ddd00.0`` (``repr`` picks the
exponent form for decimal exponents below -4 and above 16).  Values are
formatted with array operations, a ``transform._blocks`` block at a time,
into ASCII bytes:

- The digits come from Schubfach (R. Giulietti, "The Schubfach way to
  render doubles", 2020), the algorithm behind ``Double.toString`` in JDK
  19.  It scales the value's rounding interval by a 126-bit power of ten
  g = g1 2^63 + g0 from a table of 617 entries, built once from Python
  integers.  Only the middle of the interval, g cp, takes 64 x 64 -> 128-bit
  products, two high halves and two wrapping low ones, built from 32-bit
  halves in uint64 arithmetic.  The ends, g (cp ± 2^e), follow from its
  limbs by carries: g_i 2^e = (g_i >> (64 - e)) 2^64 + (g_i << e mod 2^64),
  so the high limb of g_i (cp ± 2^e) is that of g_i cp, plus or minus
  g_i >> (64 - e) and the carry or borrow of adding g_i << e to the low
  limb.  That is an exact integer identity: the ends are the integers the
  full products would give.  Every constant that meets a uint64 array is an
  ``np.uint64``, so the kernel runs the same without NEP 50 (numpy 1.24).
- The digits are laid out right-aligned in one fixed-width byte row per
  value, with positions held as int8, and the rows are compacted into one
  buffer by a mask.

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
    """High 64 bits of the 128-bit products a * b of uint64 arrays given as halves.

    Hacker's Delight's ``mulhu``: no partial sum passes 2^64 - 2^32.
    """
    (a_lo, a_hi), (b_lo, b_hi) = a, b
    t = ((a_lo * b_lo) >> _U(32)) + a_hi * b_lo
    u = (t & _MASK32) + a_lo * b_hi
    return a_hi * b_hi + (t >> _U(32)) + (u >> _U(32))


def _round_to_odd(x1: np.ndarray, y0: np.ndarray, y1: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127) with its lowest bit set when inexact (Giulietti, figure 8).

    Takes the limbs of the product of g = g1 2^63 + g0 and cp:
    x1 = floor(g0 cp / 2^64), y0 = g1 cp mod 2^64 and y1 = floor(g1 cp / 2^64).
    """
    z = (y0 >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (z << _U(1) != _U(0))


def _limbs(g: tuple, cp: np.ndarray) -> tuple:
    """The limbs (x1, x0, y1, y0) of g cp, g = g1 2^63 + g0: x = g0 cp and y = g1 cp as x1 2^64 + x0."""
    cp_halves = _halves(cp)
    g1, g0 = g
    return _mul_hi(_halves(g0), cp_halves), g0 * cp, _mul_hi(_halves(g1), cp_halves), g1 * cp


def _ends(limbs: tuple, g: tuple, e: np.ndarray) -> tuple[tuple, tuple]:
    """The limbs (x1, y0, y1) of g (cp - 2^e) and of g (cp + 2^e), from the limbs (x1, x0, y1, y0) of g cp.

    g_i 2^e is (g_i >> (64 - e)) 2^64 + (g_i << e mod 2^64), so each limb of
    g_i (cp ± 2^e) is the limb of g_i cp plus or minus that high part and the
    carry or borrow out of the limb below: the same integers as ``_limbs``
    at cp ± 2^e.  2 <= e <= 6, so no shift is by 64.
    """
    x1, x0, y1, y0 = limbs
    g1, g0 = g
    r = _U(64) - e
    hi, lo = g0 >> r, g0 << e
    x1_lower = x1 - hi - (x0 < lo)
    x1_upper = x1 + hi + (x0 + lo < lo)
    hi, lo = g1 >> r, g1 << e
    y0_upper = y0 + lo
    return (x1_lower, y0 - lo, y1 - hi - (y0 < lo)), (x1_upper, y0_upper, y1 + hi + (y0_upper < lo))


def _interval(bits: np.ndarray) -> tuple:
    """The rounding intervals of positive normal doubles, scaled: (vbl, vb, vbr) and the exponent k.

    Schubfach's vb = g cp / 2^127 rounded to odd, where v = c 2^q, cp = 4 c 2^h
    and g is 10^-k scaled to 126 bits; vbl and vbr are the same at the
    interval's ends, cp - 2^(h+1) (cp - 2^h below a power of two) and
    cp + 2^(h+1).  Only g cp takes full 64 x 64-bit products: the ends come
    from its limbs by ``_ends``, an exact integer identity.
    """
    c = (bits & _SIGNIFICAND) | _HIDDEN_BIT
    q = (bits >> _U(52)).astype(np.int64) - 1075  # v = c 2^q
    # Below a power of two the rounding interval is half as wide, except
    # at the smallest normal exponent, whose neighbours below are subnormal.
    irregular = (c == _HIDDEN_BIT) & (q > -1074)
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41  # floor(log10(2^q)), or of (3/4) 2^q
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = _G1[_K_MAX - k], _G0[_K_MAX - k]
    limbs = _limbs(g, c << (h + _U(2)))
    vb = _round_to_odd(limbs[0], limbs[3], limbs[2])
    h += _U(1)
    lower, upper = _ends(limbs, g, h)
    vbl, vbr = _round_to_odd(*lower), _round_to_odd(*upper)
    narrow = np.flatnonzero(irregular)
    if narrow.size:
        lower, _ = _ends(tuple(limb[narrow] for limb in limbs), tuple(gi[narrow] for gi in g), h[narrow] - _U(1))
        vbl[narrow] = _round_to_odd(*lower)
    return vbl, vb, vbr, k


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits f and exponent k, v = f 10^k, of positive normal doubles.

    f has 16 or 17 digits, trailing zeros included.  Among the shortest
    decimals in the rounding interval it is the closest to v, and on a tie
    the even one.  The interval is ``_interval``'s: one full product g cp
    for its middle, and its ends g (cp ± 2^e) from that product's limbs,
    each moved by g_i >> (64 - e) and the carry or borrow of g_i << e.
    """
    vbl, vb, vbr, k = _interval(bits)
    out = bits & _U(1)  # an odd significand's interval excludes its ends

    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)  # one digit shorter, below and above
    tp10 = sp10 + _U(10)
    vbl += out  # the ends of the interval of decimals that read back to v
    vbr -= out
    upin = vbl <= sp10 << _U(2)
    wpin = tp10 << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    above = (vb & _U(3)) + (s & _U(1)) > _U(2)  # nearer to s + 1 than to s, or as near and s odd
    f = np.where(upin != wpin, np.where(wpin, tp10, sp10), s + np.where(uin != win, win, above))
    return f, k


def _format_block(values: np.ndarray, ends: np.ndarray) -> bytes:
    """ASCII text of ``values`` (float64), each followed by "," or, where ``ends`` is set, "\\n"."""
    bits = values.view(np.uint64)
    neg = np.signbit(values)
    biased = (bits >> _U(52)) & _U(0x7FF)
    special = (biased == _U(0)) | (biased == _U(0x7FF))  # ±0, subnormal, inf, nan
    f, k = _shortest(np.where(special, _ONE_BITS, bits & _MASK63))

    # Positions within a row are below _ROW, so they are held as int8.
    nsig = (f >= _POW10[16]).view(np.int8) + np.int8(16)  # f's digits, then its significant ones
    decpt = k.astype(np.int16) + nsig  # v = 0.ddd 10^decpt
    fallback = special | (decpt <= -4) | (decpt > 16)
    decpt[fallback] = 1  # any layout that fits: the row is overwritten
    decpt = decpt.astype(np.int8)
    for j in (16, 8, 4, 2, 1):  # strip f's trailing zeros
        q = f // _POW10[j]
        exact = q * _POW10[j] == f
        f = np.where(exact, q, f)
        nsig -= exact * np.int8(j)
    intlen = np.maximum(decpt, 1)
    fraclen = np.maximum(nsig - decpt, 1)
    # The digits of the text as one integer below 10^18, a 0 standing for the point.
    number = f * _POW10[np.maximum(decpt - nsig + 1, 0)]
    unit = _POW10[np.minimum(fraclen, 19)]
    number += number // unit * _U(9) * unit
    number = number.view(np.int64)

    # One right-aligned row of seven groups per value, from the last group
    # (three digits and the separator) back to a group of zeros.  The text
    # starts at byte 4 or later, so the first group is never filled.
    rows = np.empty((f.size, _ROW // 4), dtype=np.uint32)
    rows[:, 1] = _GROUPS[0]
    rest = number // 1_000
    number -= rest * 1_000
    number += np.where(ends, 11_000, 10_000)
    rows[:, -1] = _GROUPS[number]
    for j in range(5, 1, -1):
        high = rest // 10_000
        rest -= high * 10_000
        rows[:, j] = _GROUPS[rest]
        rest = high
    text = rows.view(np.uint8)
    point = (_ROW - 2) - fraclen
    at = np.arange(0, text.size, _ROW) + point  # flat positions of the points
    text.ravel()[at] = ord(".")
    at -= intlen + 1
    text.ravel()[at] = ord("-")  # left of the text unless the value is negative
    start = point - intlen - neg

    spots = np.flatnonzero(fallback)
    if spots.size:
        texts = [repr(v) + ("\n" if end else ",") for v, end in zip(values[spots].tolist(), ends[spots].tolist())]
        text[spots] = np.frombuffer("".join(t.rjust(_ROW) for t in texts).encode("ascii"),
                                    dtype=np.uint8).reshape(-1, _ROW)
        start[spots] = [_ROW - len(t) for t in texts]
    keep = np.arange(_ROW) >= np.arange(_ROW + 1)[:, None]  # keep[i]: the row's bytes from i on
    return text[keep.take(start, axis=0)].tobytes()


def csv_text(rows):
    """Check ``rows`` and return an iterator over their CSV text as ASCII bytes, one line per row, in blocks.

    Each row must be a non-empty 1-D sequence of real numbers (see
    ``errors.check_real_vector``) and is printed as its float64 values;
    rows may differ in length.  Any other row raises ``DomainError`` naming
    its index when ``csv_text`` is called, before any text is formed, and
    ``rows`` that cannot be iterated raise ``DomainError`` naming its type.
    Values are comma-separated and each line ends with ``"\\n"``.  Rows are
    formatted in ``transform._blocks`` of whole rows, and a row longer than
    a block is cut by ``transform._blocks`` of single values; no float64
    row is copied, so memory stays bounded by the block size whatever the
    shape.
    """
    try:
        rows = iter(rows)
    except TypeError:
        raise DomainError(f"rows must be an iterable of vectors, got {type(rows).__name__}") from None
    vecs = [check_real_vector(f"row {i}", row) for i, row in enumerate(rows)]
    for i, vec in enumerate(vecs):
        if vec.size == 0:
            raise DomainError(f"row {i} must be a non-empty vector")
    return _text_blocks(vecs)


def _text_blocks(vecs):
    """Yield the CSV text of the checked float64 rows ``vecs`` as bytes, a block at a time."""
    for lo, hi in transform._blocks(len(vecs), max((vec.size for vec in vecs), default=1)):
        values = vecs[lo] if hi - lo == 1 else np.concatenate(vecs[lo:hi])
        stops = np.cumsum([vec.size for vec in vecs[lo:hi]]) - 1  # each row's last value
        for a, b in transform._blocks(values.size, 1):
            ends = np.zeros(b - a, dtype=bool)
            ends[stops[(a <= stops) & (stops < b)] - a] = True
            yield _format_block(values[a:b], ends)
