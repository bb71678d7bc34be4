"""Exact small-instance and Monte Carlo verification oracles.

The projection analysis reduces to the random quadratic form
``Z = sum_{i != j} x_i x_j eta_i eta_j r_i r_j`` with Bernoulli selectors
``eta`` and Rademacher signs ``r``.  This module computes its moments
exactly by exhaustive enumeration, checks the combinatorial and envelope
inequalities the tail bound rests on, and estimates end-to-end failure
probabilities with exact binomial confidence intervals.  Enumeration
budgets are hard errors: an oracle that silently subsamples is not an
oracle.

The exact oracles form z = (sum_i S_i^2 - T)/s from its definition for
every configuration they enumerate, apply their statistic to it and sum
exactly, rounding each sum once as ``math.fsum`` does.  They are exact in
their sums only: z is formed in float64 before it is summed, so where z^q
cancels a value can sit away from the rational one.  At
x = (0.5330430457189982, 0.8270880925865896, -0.17829862173357147),
p = 1/30 and q = 3, ``exact_moment_Z`` returns 1.0985037546599438e-05
where the rational value is 1.0985037546598869e-05, 336 ulps away.  E[Z^q]
(``exact_moment_Z``) is the one-row case of the majorization right side,
a sum over iid Bernoulli selections of the cells of an m x n grid.  The
rows are independent and a value does not change when every sign of one
row flips, so each row runs over its (3^n+1)/2 classes (first selected
sign +, a nonempty class counted twice) and the rows combine by outer
sums, ((3^n+1)/2)^m raw values, each with its multiplicity, its number w
of selected cells and its count of them per column.  Only a single row
of more than seven cells, the longest row a grid of two or more rows can
have under the budget, is split: it takes every sign pattern of its
first n - 7 cells and the classes of its last seven, (3^n + 3^(n-7))/2
values.  One private engine, ``_exact_sums``, makes the pass and returns
two exact sums of a statistic f: the iid sum of f(z) * mult * p^w
(1-p)^(N-w) / 2^w over the N = m n cells, and, for a caller that asks
for it, the kept sum of f(z) * mult over the values whose count of
selected cells is s in every column.  Each sum is an ``_ExactSum``, an
exponent-bucket accumulator (Neal's small superaccumulator):
``np.frexp`` splits every term into halves of its integer significand,
``np.bincount`` adds them per exponent, and the budget keeps every
bucket total an exact float64 below 2^51, so the one rounding,
``math.fsum`` over the buckets, gives ``math.fsum`` of the terms bit for
bit with no Python float per term.  A NaN or infinite term, or a sum
that leaves the float range, raises ``DomainError``.  A moment and a
majorization right side are iid sums of z^q, taken as |z|^q (with the
sign of z for odd q) so that numpy's vector ``pow`` takes every value;
the left side, where each column picks exactly s rows, is iid selection
conditioned on every column holding s cells, the kept sum over its
2^(ns) C(m,s)^n selections and sign patterns.  One budget,
``ENUMERATION_BUDGET`` = 10^7, is the one rule on the size of a spec:
3^n <= 10^7 for a moment (n <= 14) and 3^(mn) <= 10^7 for a majorization
spec (mn <= 14), whose order q is even and at most 100.  Working arrays
stay within blocks of about ``transform._CHUNK_ENTRIES`` / 16 values,
and no value depends on the block size; the Monte Carlo blocks its
trials by the same rule, ``transform._blocks``.  Every oracle vector
``x`` goes through one rule: a flat sequence of real numbers, of the
length n where the caller fixes it, non-empty (else ``DomainError``) and
a unit vector (else ``ConstraintViolation``); the specs keep it as a
tuple of floats.

Callers ask about one vector many times in a row (``sparsejl check`` runs
x, then p, then q), so the engine gets its blocks from ``_class_blocks``,
which keeps the last pass that fit in one block, keyed by the bytes of
the float64 x with m and s, and yields it again while the key repeats.
One block holds at most ``transform._CHUNK_ENTRIES`` / 16 values, so the
kept pass is four arrays of about 128 KB at most, all read-only; a pass
of more blocks streams and keeps nothing.  The kept arrays are the ones a
cold pass yields, so no value depends on whether a pass was kept.

The checks run at fixed settings.  Moments are accepted up to order
``MAX_MOMENT_ORDER`` = 100.  The psi envelope check allows psi to exceed
the envelope by ``PSI_ENVELOPE_SLACK`` = 1e-12; the envelope scale stays
an argument so that a scale too small to hold can serve as a negative
control.  It evaluates psi and the envelope on arrays of grid points,
``transform._blocks`` of 16 entries a point, with numpy's ``expm1``,
``exp`` and ``pow``, whose last bit can differ from ``math``'s.  The
multinomial inequality is symmetric in the parts, so its check runs once
per partition of q and counts it as its number of orderings.  The
Chernoff optimizer identity is checked on a fixed 100-point (v, k, u)
lattice.  Monte Carlo estimates carry the exact 99%
Clopper-Pearson interval, whose endpoints are computed with
``scipy.special.betaincinv``.  Integer arguments go through
``errors.check_int``, real arguments through ``errors.check_real`` and
vectors through ``errors.check_real_vector``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from . import streams, transform
from .concentration import DEFAULT_ENVELOPE_SCALE, MAX_SPARSITY, TailEnvelope, _psi, chernoff_optimum_check
from .errors import BudgetError, ConstraintViolation, DomainError, check_int, check_real, check_real_vector

_UNIT_NORM_TOL = 1e-12
#: Highest moment order q accepted by ``MomentSpec`` and ``moment_bound_rhs``;
#: 2^q p^r r^q overflows float64 near q = 150.
MAX_MOMENT_ORDER = 100
#: Most configurations an exact enumeration may visit: 3^n for a moment,
#: 3^(m n) for a majorization spec (each cell unselected, +1 or -1).
ENUMERATION_BUDGET = 10**7
#: A grid point fails the psi envelope check when psi exceeds the envelope by more.
PSI_ENVELOPE_SLACK = 1e-12
# Each tail of the exact 99% Clopper-Pearson interval.
_CI_TAIL = (1.0 - 0.99) / 2
# Cells of a row's tail in ``_row_class_values``: the longest row of a grid of
# two or more rows under ``ENUMERATION_BUDGET`` (3^(2*7) <= 10^7 < 3^(2*8)).  A
# single row of more cells is split into a head and a tail so that each class
# table stays within 3^7 patterns.
_TAIL_CELLS = 7


def _check_unit(x, n: int | None = None) -> np.ndarray:
    """``x`` as a float64 array: a flat sequence of real numbers, of length ``n`` where given, non-empty, unit."""
    x = check_real_vector("x", x)
    if n is not None and len(x) != n:
        raise DomainError(f"x must have length n = {n}, got {len(x)}")
    if len(x) == 0:
        raise DomainError("x must be non-empty")
    norm_sq = float(np.dot(x, x))
    # Written so that a NaN norm fails: every comparison with NaN is false.
    if not abs(norm_sq - 1.0) <= _UNIT_NORM_TOL:
        raise ConstraintViolation(f"x must be a unit vector, got |x|^2 = {norm_sq!r}")
    return x


def _check_budget(count: str, cells: int) -> None:
    """BudgetError unless the 3^cells configurations of an enumeration fit in ``ENUMERATION_BUDGET``."""
    # Past the budget's bit length even 2^cells exceeds it, so no huge power is formed.
    if cells > ENUMERATION_BUDGET.bit_length() or 3**cells > ENUMERATION_BUDGET:
        raise BudgetError(f"enumeration budget exceeded: {count} = 3^{cells} > {ENUMERATION_BUDGET}")


def _check_grid_points(name: str, value) -> int:
    """A grid size as an int: at least 1 (else ``DomainError``), at most ``ENUMERATION_BUDGET`` (``BudgetError``)."""
    points = check_int(name, value, 1)
    if points > ENUMERATION_BUDGET:
        raise BudgetError(f"enumeration budget exceeded: {name} = {points} > {ENUMERATION_BUDGET}")
    return points


@functools.lru_cache(maxsize=None)
def _sign_patterns(cells: int, base: int, paired: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sign patterns of a run of cells in one row, with the weight, column key and multiplicity of each.

    A pattern holds 0.0 for an unselected cell and the sign +1.0 or -1.0 of
    a selected one.  A ``paired`` run takes its (3^cells+1)/2 classes, whose
    first selected sign is +, the empty class first, a nonempty class
    standing for its two patterns (multiplicity 2).  Any other run takes all
    3^cells patterns once: the classes, then classes 1.. negated in order.
    The weight of a pattern is its number of selected cells, and its key
    counts them per column in base ``base``: selected cell c adds base^c,
    whatever its sign.
    """
    classes = np.zeros((1, 0), dtype=np.int8)
    for _ in range(cells):
        k = len(classes)
        last = np.repeat(np.array([0, 1, -1], dtype=np.int8), (k, k, k - 1))
        classes = np.column_stack((np.concatenate((classes, classes, classes[1:])), last))
    patterns = classes if paired else np.concatenate((classes, -classes[1:]))
    signs = np.ascontiguousarray(patterns.T, dtype=np.float64)
    selected = signs != 0
    weights = np.count_nonzero(selected, axis=0)
    mult = np.where(paired & (weights > 0), 2.0, 1.0)
    table = signs, weights, base ** np.arange(cells, dtype=np.int64) @ selected, mult
    for array in table:
        array.flags.writeable = False
    return table


def _row_class_values(x: np.ndarray, m: int, s: int):
    """Every value z = (sum_i S_i^2 - T)/s of a selection of cells of the m x n grid and a sign pattern, in blocks.

    Cell c of the grid lies at row c // n and grid column c % n, with
    coefficient x[c % n].  The rows are independent, and flipping every
    sign of one row leaves z unchanged, so each row runs over its
    (3^n+1)/2 classes (each cell unselected or selected, the first selected
    sign +), a nonempty class standing for its two sign patterns; the rows
    combine by outer sums in row order, ((3^n+1)/2)^m class combinations in
    all.  The segments are the full rows, the head of the last row and its
    tail.  Each segment's row sums S and square sums T are the column sums
    of its class table, taken once per call, and every quantity of a value
    is a sum or product over its segments' table entries: S_i is S of row i
    (the head's S plus the tail's in the last row), T and sum_i S_i^2 add
    the segments' terms in row order.

    Yields blocks ``(z, mult, w, key)`` of arrays that broadcast together:
    the values, the number of sign patterns each stands for, its number w
    of selected cells, and its count of selected cells per grid column
    packed in base m + 1.  A caller applies its statistic f: the sum of
    f(z) * mult over the selections of w cells in a set is 2^w times the
    sum of their sign means of f(z).

    The last row splits into a head, its first n - tail cells, and a tail,
    its last tail = min(n, 7) cells (``_TAIL_CELLS``), so only m = 1 and
    n > 7 have a nonempty head.  An empty head still closes row m-2 when
    m >= 2; a single row of at most seven cells runs no head.  The tail is
    enumerated against the prefix: every class combination of rows 0..m-2
    and every pattern of the head (at most 15625 entries for the specs the
    budget accepts, at (n, m) = (2, 7)).  Each prefix entry takes the tail's
    classes, each doubled when nonempty, so a last row (h, t) and its
    negation (-h, -t) have one representative when t is nonempty, and (h, 0)
    and (-h, 0) are each their own; a nonempty head thus runs its row over
    (3^n + 3^(n-7))/2 values rather than its classes.  A block holds the
    values of whole prefix entries, ``transform._blocks`` of 16 entries a
    value (at most ``transform._CHUNK_ENTRIES`` / 16 values, or one
    entry's), since each value carries several working arrays.  Every
    value is formed elementwise, so the block size decides only how the
    values are grouped, never which values are formed or their bits.
    """
    n = len(x)
    tail = min(n, _TAIL_CELLS)
    # Prefix entries, one per class combination of rows 0..m-2 and pattern
    # of the head (the first n - tail cells of row m-1): `closed` sums S_i^2
    # over rows 0..m-2, `row` is S of the head, `mult` the patterns an entry
    # stands for.  Each segment starts a row, closing the one before.
    base = m + 1
    closed = row = t = np.zeros(1)
    mult = np.ones(1)
    w = key = np.zeros(1, dtype=np.int64)
    segments = [(n, True)] * (m - 1)
    if m > 1 or n > tail:  # the head closes row m-2, or holds cells of its own
        segments.append((n - tail, False))
    for width, paired in segments:
        signs, weights, keys, factor = _sign_patterns(width, base, paired)
        coef = signs * x[:width, None]
        closed = np.repeat(closed + row * row, len(weights))
        row = np.tile(coef.sum(axis=0), len(t))
        t = (t[:, None] + (coef * coef).sum(axis=0)).ravel()
        w = (w[:, None] + weights).ravel()
        key = (key[:, None] + keys).ravel()
        mult = (mult[:, None] * factor).ravel()

    # Every prefix entry takes the tail's classes, each doubled when nonempty.
    signs, weights, keys, factor = _sign_patterns(tail, base, True)
    coef = signs * x[n - tail :, None]
    row_tail, t_tail = coef.sum(axis=0), (coef * coef).sum(axis=0)
    keys = keys * base ** (n - tail)
    for lo, hi in transform._blocks(len(t), 16 * len(weights)):
        e = slice(lo, hi)
        total = row[e, None] + row_tail
        z = (closed[e, None] + total * total - (t[e, None] + t_tail)) / s
        yield z, mult[e, None] * factor, w[e, None] + weights, key[e, None] + keys


# The last pass of ``_class_blocks`` that fit in one block: ((x bytes, m, s), block), or None.
_kept_pass = None


def _class_blocks(x: np.ndarray, m: int, s: int):
    """The blocks of ``_row_class_values(x, m, s)``, the last one-block pass kept for the next call with its key.

    The key is the bytes of the float64 ``x`` with ``m`` and ``s``.  Only
    a pass of one block is kept, its four arrays read-only, and a call with
    another key drops it before it enumerates.
    """
    global _kept_pass
    key = (x.tobytes(), m, s)
    kept = _kept_pass  # one read: another thread may replace the pass between two
    if kept is not None and kept[0] == key:
        yield kept[1]
        return
    _kept_pass = None
    blocks = 0
    for block in _row_class_values(x, m, s):
        for array in block:
            array.flags.writeable = False
        blocks += 1
        yield block
    if blocks == 1:
        _kept_pass = key, block


class _ExactSum:
    """A running sum of float64 terms that ``total`` rounds to ``math.fsum`` of every term added, bit for bit.

    Each nonzero term is an integer significand M, |M| < 2^53, times
    2^(e-53), with e its ``np.frexp`` exponent.  M splits exactly into a
    high half H = trunc(M / 2^26), |H| < 2^27, and a low half
    M / 2^26 - H, a multiple of 2^-26 below 1 in size, and ``np.bincount``
    adds each half into the bucket of e (Neal's small superaccumulator).
    While at most 2^24 terms are added (``_MAX_TERMS``, above
    ``ENUMERATION_BUDGET``), every bucket total is a multiple of 2^-26 below
    2^51 in size, so float64 adds it exactly, block after block.  ``total``
    scales the buckets in use by 2^(e-27), exactly, with ``np.ldexp``, and
    rounds them once with ``math.fsum`` (Shewchuk's algorithm, correctly
    rounded; zero buckets add nothing), so the result is ``math.fsum`` of
    the terms however they were split into blocks.  A sum of finite terms
    whose bucket or rounded total leaves the float range raises
    ``OverflowError``, as ``math.fsum`` does.  Terms must be finite: a NaN
    or infinite term spoils every later total.
    """

    # frexp exponents of finite float64 values: -1073 (2^-1074) .. 1024.
    _LOW = -1073
    _SCALES = np.arange(1024 - _LOW + 1) + _LOW - 27
    _MAX_TERMS = 1 << 24

    def __init__(self):
        # Row 0 sums the high halves, row 1 the low halves; columns [_first, _end) are in use.
        self._sums = np.zeros((2, len(self._SCALES)))
        self._first, self._end = len(self._SCALES), 0
        self._count = 0

    def add(self, terms: np.ndarray) -> None:
        """Add every element of the float64 array ``terms``."""
        if terms.size == 0:
            return
        self._count += terms.size
        if self._count > self._MAX_TERMS:
            raise BudgetError(f"exact sum of more than {self._MAX_TERMS} terms")
        significand, exponent = np.frexp(terms.ravel())
        significand *= 2.0**27
        high = np.trunc(significand)
        significand -= high
        least = int(exponent.min())
        bucket = exponent - least
        high = np.bincount(bucket, high)
        used = slice(least - self._LOW, least - self._LOW + len(high))
        self._sums[0, used] += high
        self._sums[1, used] += np.bincount(bucket, significand)
        self._first, self._end = min(self._first, used.start), max(self._end, used.stop)

    def total(self) -> float:
        """``math.fsum`` of every term added so far."""
        used = slice(self._first, self._end)
        with np.errstate(over="ignore"):  # checked on the next line
            parts = np.ldexp(self._sums[:, used], self._SCALES[used])
        if not np.isfinite(parts).all():
            raise OverflowError("a bucket of the exact sum leaves the float range")
        return math.fsum(parts.ravel().tolist())


def _power(z: np.ndarray, q: int) -> np.ndarray:
    """z^q as |z|^q, given the sign of z for odd q, so numpy's vector ``pow`` takes every value."""
    magnitude = np.abs(z) ** q
    return np.copysign(magnitude, z) if q % 2 else magnitude


def _exact_sums(name: str, x: np.ndarray, m: int, s: int, p: float, f, kept: bool) -> tuple[float, float | None]:
    """The two exact sums of a statistic f over one pass of ``_row_class_values(x, m, s)``: (iid, kept).

    ``iid`` is the ``math.fsum`` of f(z) * mult * c[w], where
    c[w] = p^w (1-p)^(N-w) / 2^w is the probability of one selection of w
    iid Bernoulli(p) cells out of N = m n and one sign pattern: E[f(Z)]
    under iid selection.  ``kept`` is the ``math.fsum`` of f(z) * mult over
    the values whose count of selected cells is s in every column, left
    undivided; it is collected only when ``kept`` is true, and is None
    otherwise.  f(z) * mult is formed once per block and then weighted.
    Each sum is an ``_ExactSum``: per exponent, its buckets add the two
    halves of the terms' integer significands, and for the at most
    3^14 < 2^24 terms ``ENUMERATION_BUDGET`` allows every bucket total
    stays an exact float64 below 2^51, so the sums are ``math.fsum`` of the
    terms, bit for bit, with no Python float per term.  The oracles' f is
    ``_power``, z^q taken as |z|^q.  A NaN or infinite f(z), or a sum that
    leaves the float range (f(z) * mult, the sum of f over the mult
    configurations of one value, included), raises ``DomainError`` naming
    the oracle ``name``.

    The blocks come from ``_class_blocks``: a pass that fits in one block
    of at most ``transform._CHUNK_ENTRIES`` / 16 values is kept, its arrays
    read-only, and serves the next calls with the same bytes of ``x``, m
    and s without enumerating again; a pass of more blocks is enumerated on
    every call.  Either way the sums see the same arrays, so no value
    depends on whether a pass was kept.
    """
    cells = m * len(x)
    c = np.array([p**w * (1.0 - p) ** (cells - w) / 2**w for w in range(cells + 1)])
    keep = s * (((m + 1) ** len(x) - 1) // m)  # the key of s cells in each column
    iid, kept_sum = _ExactSum(), _ExactSum() if kept else None
    for z, mult, w, key in _class_blocks(x, m, s):
        fz = f(z)
        with np.errstate(over="ignore"):  # checked on the next line
            v = fz * mult
        if not np.isfinite(v).all():  # mult >= 1, so a NaN or infinite f(z) shows here too
            if not np.isfinite(fz).all():
                raise DomainError(f"{name}: the statistic is NaN or infinite at some configuration")
            raise DomainError(f"{name}: an exact sum leaves the float range")
        iid.add(v * c[w])
        if kept:
            kept_sum.add(v[key == keep])
    try:
        return iid.total(), kept_sum.total() if kept else None
    except OverflowError:
        raise DomainError(f"{name}: an exact sum leaves the float range") from None


@dataclass(frozen=True)
class MomentSpec:
    """Exact moment query for Z: unit vector x, selector rate p, integer order q in [1, 100].

    The 3^n configurations of x must fit in ``ENUMERATION_BUDGET``, so n <= 14.
    """

    x: tuple[float, ...]
    p: float
    q: int

    def __post_init__(self):
        x = _check_unit(self.x)
        _check_budget("3^n", len(x))
        object.__setattr__(self, "x", tuple(x.tolist()))
        object.__setattr__(self, "p", check_real("selector rate p", self.p, 0.0, 1.0))
        object.__setattr__(self, "q", check_int("moment order q", self.q, 1, MAX_MOMENT_ORDER))


def exact_moment_Z(spec: MomentSpec) -> float:
    """Exact E[Z^q] by enumerating all selector masks and sign patterns.

    Per selector mask eta the identity Z = S^2 - T holds with
    S = sum_i x_i eta_i r_i and T = sum_i x_i^2 eta_i: this is
    ``_row_class_values`` with one row and s = 1, over the (3^n+1)/2 row
    classes, and E[Z^q] is the iid sum of ``_exact_sums`` of z^q at rate p.
    """
    x = np.asarray(spec.x, dtype=np.float64)
    return _exact_sums("exact_moment_Z", x, 1, 1, spec.p, lambda z: _power(z, spec.q), kept=False)[0]


def moment_bound_rhs(p: float, q: int) -> float:
    """Closed moment bound 2^q sum_{r=2}^{q} p^r r^q dominating E[Z^q], for q in [2, 100]."""
    q = check_int("moment order q", q, 2, MAX_MOMENT_ORDER)
    p = check_real("selector rate p", p, 0.0, 1.0)
    return 2**q * math.fsum(p**r * r**q for r in range(2, q + 1))


def _partitions(total: int, largest: int):
    """Each partition of ``total`` into parts of at most ``largest``, non-increasing, with its count of orderings.

    A partition whose largest part v appears k times, followed by a
    partition of the rest with r parts and c orderings, has
    C(r + k, k) * c distinct orderings.
    """
    if total == 0:
        yield (), 1
        return
    for part in range(min(total, largest), 0, -1):
        for k in range(1, total // part + 1):
            for rest, count in _partitions(total - k * part, part - 1):
                yield (part,) * k + rest, math.comb(len(rest) + k, k) * count


def _orderings(parts: tuple[int, ...]):
    """The distinct orderings of the multiset ``parts``, in ascending (lexicographic) order."""
    if not parts:
        yield ()
        return
    for first in sorted(set(parts)):
        rest = list(parts)
        rest.remove(first)
        for tail in _orderings(tuple(rest)):
            yield (first,) + tail


def _multinomial(total: int, parts) -> int:
    out = math.factorial(total)
    for d in parts:
        out //= math.factorial(d)
    return out


@dataclass(frozen=True)
class MultinomialCheckReport:
    """Exhaustive verification of the squared-multinomial inequality."""

    q_max: int
    total_checked: int
    checked_per_q: dict[int, int]
    violations: list[tuple[int, tuple[int, ...]]]
    central_binomial_ok: bool

    @property
    def ok(self) -> bool:
        return self.central_binomial_ok and not self.violations


def check_multinomial_inequality(q_max: int) -> MultinomialCheckReport:
    """Check binom(2q; 2d_1..2d_r) <= 2^q binom(q; d_1..d_r)^2 exhaustively.

    Covers every composition d of every q <= q_max, 2^(q-1) of them, in
    exact integer arithmetic.  Both sides are symmetric in the parts, so
    each partition of q is checked once and counts as its number of
    distinct orderings; a violating partition is listed as each of its
    orderings, the violations in ascending order within each q.  Also
    verifies that central binomial coefficients satisfy
    binom(2k, k) >= 2^k.
    """
    q_max = check_int("q_max", q_max, 1)
    if q_max > 20:
        raise BudgetError(f"q_max = {q_max} exceeds the exact-arithmetic budget of 20")
    violations = []
    checked_per_q = {}
    for q in range(1, q_max + 1):
        count = 0
        violated = []
        for parts, orderings in _partitions(q, q):
            count += orderings
            lhs = _multinomial(2 * q, [2 * d for d in parts])
            rhs = 2**q * _multinomial(q, parts) ** 2
            if lhs > rhs:
                violated.extend(_orderings(parts))
        checked_per_q[q] = count
        violations.extend((q, parts) for parts in sorted(violated))
    central_ok = all(math.comb(2 * k, k) >= 2**k for k in range(1, q_max + 1))
    return MultinomialCheckReport(
        q_max=q_max,
        total_checked=sum(checked_per_q.values()),
        checked_per_q=checked_per_q,
        violations=violations,
        central_binomial_ok=central_ok,
    )


@dataclass(frozen=True)
class MajorizationSpec:
    """Exact comparison instance: without-replacement columns vs iid entries.

    Accepts integers n >= 1, m >= 1 and 1 <= s <= m, an even order q in
    [2, ``MAX_MOMENT_ORDER``] and a unit vector x of length n, whose
    3^(m n) configurations fit in ``ENUMERATION_BUDGET`` (m n <= 14).
    """

    n: int
    m: int
    s: int
    q: int
    x: tuple[float, ...]

    def __post_init__(self):
        # m is checked before s is compared with it.
        for name, low, high in (("n", 1, None), ("m", 1, None), ("s", 1, self.m), ("q", 2, MAX_MOMENT_ORDER)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low, high))
        if self.q % 2:
            raise DomainError(f"q must be even, got {self.q}")
        object.__setattr__(self, "x", tuple(_check_unit(self.x, self.n).tolist()))
        # One enumeration serves both sides.
        _check_budget("3^(m n)", self.m * self.n)


def check_majorization(spec: MajorizationSpec) -> tuple[float, float]:
    """Exact E[(x^T B x)^q] under both selector models; contract lhs <= rhs.

    The left value draws each column's s row indices uniformly without
    replacement; the right replaces the selectors by iid Bernoulli(s/m)
    entries.  Both come from one ``_exact_sums`` pass of z^q at p = s/m
    over the m x n grid, ((3^n+1)/2)^m row-class combinations.  The right
    side is its iid sum.  The left side, iid selection conditioned on every
    column holding exactly s cells, is its kept sum divided by the 2^(ns)
    sign patterns and the C(m,s)^n assignments.
    """
    n, m, s, q = spec.n, spec.m, spec.s, spec.q
    x = np.asarray(spec.x, dtype=np.float64)
    rhs, kept = _exact_sums("check_majorization", x, m, s, s / m, lambda z: _power(z, q), kept=True)
    return kept / 2 ** (n * s) / math.comb(m, s) ** n, rhs


@dataclass(frozen=True)
class PsiEnvelopeReport:
    """Grid verification of psi(t, p) against its scale-K envelope."""

    p: float
    scale: float
    grid_points: int
    max_violation: float
    worst_t: float
    violation_count: int

    @property
    def ok(self) -> bool:
        return self.violation_count == 0


def check_psi_envelope(
    p: float, scale: float = DEFAULT_ENVELOPE_SCALE, grid_points: int = 10_000
) -> PsiEnvelopeReport:
    """Verify psi(t, p) <= (e^{Kt} - K^2 t^2/2 - Kt - 1)/(K^2/2) on a t-grid.

    The grid covers (0, log(1/(2p))/2] with ``grid_points`` equispaced
    points; a point counts as a violation when psi exceeds the envelope by
    more than ``PSI_ENVELOPE_SLACK`` = 1e-12.  ``scale`` must be positive
    and finite, and ``grid_points`` an integer >= 1 (``int`` or numpy); a
    grid of more than ``ENUMERATION_BUDGET`` points raises ``BudgetError``.
    The points run as arrays in ``transform._blocks`` of 16 entries a
    point, so no grid size forms one array of every point; ``worst_t`` is
    the first t at which ``max_violation`` is reached.  A scale or p whose
    envelope or psi leaves the float range on the grid raises
    ``DomainError`` naming the first such t (the envelope's error where
    both first leave it at one t), never a ``RuntimeWarning``.
    """
    p = check_real("sparsity fraction p", p, 0.0, MAX_SPARSITY, high_open=False)
    scale = check_real("envelope scale", scale, 0.0, math.inf)
    grid_points = _check_grid_points("grid_points", grid_points)
    t_max = math.log(1.0 / (2.0 * p)) / 2.0
    worst = -math.inf
    worst_t = math.nan
    count = 0
    for lo, hi in transform._blocks(grid_points, 16):
        t = t_max * np.arange(lo + 1, hi + 1, dtype=np.float64) / grid_points
        kt = scale * t
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked on the next line
            envelope = (np.expm1(kt) - kt - kt * kt / 2.0) * 2.0 / (scale * scale)
        out = ~np.isfinite(envelope)  # scale * t above 709, or scale^2 below the float range
        if out.any():
            first = out.argmax()
            _psi(t[:first], p)  # a psi that leaves the float range at a smaller t raises first
            raise DomainError(
                f"envelope scale {scale!r} at p = {p!r}: the envelope leaves the float range at t = {float(t[first])!r}"
            )
        violation = _psi(t, p) - envelope  # p is checked and 0 < t <= t_max < log(1/p)/2
        i = violation.argmax()  # the first maximum of the block; a later block must exceed it
        if violation[i] > worst:
            worst, worst_t = float(violation[i]), float(t[i])
        count += int(np.count_nonzero(violation > PSI_ENVELOPE_SLACK))
    return PsiEnvelopeReport(
        p=p,
        scale=scale,
        grid_points=grid_points,
        max_violation=worst,
        worst_t=worst_t,
        violation_count=count,
    )


def chernoff_residual_grid() -> tuple[int, float]:
    """Max optimizer-vs-closed-form residual over a log-spaced (v, k, u) lattice.

    The lattice is 5 v in [0.1, 10] by 5 k in [1, 100] by 4 u in
    [0.01, 10], 100 points.  Returns (points_checked, max_residual).
    """
    vs = np.geomspace(0.1, 10.0, 5)
    ks = np.geomspace(1.0, 100.0, 5)
    us = np.geomspace(0.01, 10.0, 4)
    worst = 0.0
    count = 0
    for v in vs:
        for k in ks:
            env = TailEnvelope(float(v), float(k))
            for u in us:
                worst = max(worst, chernoff_optimum_check(env, float(u)))
                count += 1
    return count, worst


@dataclass(frozen=True)
class TrialReport:
    """Monte Carlo failure-probability estimate with its exact 99% interval."""

    n: int
    m: int
    s: int
    eps: float
    trials: int
    failures: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int


def clopper_pearson(failures: int, trials: int) -> tuple[float, float]:
    """Exact (Clopper-Pearson) two-sided 99% binomial confidence interval.

    ``failures`` and ``trials`` are integers with 0 <= failures <= trials.
    The endpoints are beta quantiles, computed with ``scipy.special.betaincinv``.
    """
    trials = check_int("trials", trials, 0)
    failures = check_int("failures", failures, 0, trials)
    low = 0.0 if failures == 0 else float(betaincinv(failures, trials - failures + 1, _CI_TAIL))
    high = 1.0 if failures == trials else float(betaincinv(failures + 1, trials - failures, 1 - _CI_TAIL))
    return low, high


def squared_norm_samples(
    n: int, m: int, s: int, x, trials: int, seed: int
) -> np.ndarray:
    """|A_t x|^2 for independent matrices A_t, t = 0..trials-1.

    Matrix t is exactly ``build_matrix(n, m, s, substream(seed, t))``, with
    the same column-root call and the same ``transform._project``.  Each of
    the ``transform._blocks`` of max(n s, m) entries a trial (its nonzeros
    or output rows) is one block-diagonal product; the layout does not
    affect the result.
    """
    n, m, s, seed = transform._validate_build_args(n, m, s, seed)
    trials = check_int("trials", trials, 1)
    x = _check_unit(x, n)

    samples = np.empty(trials, dtype=np.float64)
    for lo, hi in transform._blocks(trials, max(n * s, m)):
        trial_seeds = streams.substream_vec(seed, np.arange(lo, hi))
        roots = streams.substream_vec(trial_seeds[:, None], np.arange(n)).ravel()
        rows, signs = transform.sample_columns(m, s, roots)
        # One block-diagonal product: trial t's rows are offset by t*m.
        rows = np.repeat(np.arange(hi - lo, dtype=np.int64) * m, n)[:, None] + rows
        y = transform._project(rows, signs, (hi - lo) * m, np.tile(x, hi - lo)).reshape(hi - lo, m)
        samples[lo:hi] = (y * y).sum(axis=1)
    return samples


def estimate_failure_prob(
    n: int, m: int, s: int, x, eps: float, trials: int, seed: int
) -> TrialReport:
    """Empirical P{| |Ax|^2 - 1 | > eps} over independent matrices.

    Failures are counted with strict inequality; the report carries the
    exact 99% Clopper-Pearson interval and is reproducible from ``seed``.
    When eps equals an atom of |Ax|^2 - 1, float rounding decides the
    count, not the strict inequality: the samples that equal the atom in
    exact arithmetic read a few ulps to either side of it.  At n = 2,
    uniform x, (m, s, eps) = (200, 20, 0.15), 20000 trials and seed 12345
    (atoms j/20), samples read -0.15000000000000047, which counts, and
    0.1499999999999997, which does not; p_hat = 0.0419 lies between the
    exact probabilities with > (0.0142) and with >= (0.0728).
    """
    eps = check_real("eps", eps, 0.0, math.inf)
    samples = squared_norm_samples(n, m, s, x, trials, seed)
    n, m, s, trials, seed = int(n), int(m), int(s), int(trials), int(seed)
    failures = int(np.count_nonzero(np.abs(samples - 1.0) > eps))
    ci_low, ci_high = clopper_pearson(failures, trials)
    return TrialReport(
        n=n,
        m=m,
        s=s,
        eps=eps,
        trials=trials,
        failures=failures,
        p_hat=failures / trials,
        ci_low=ci_low,
        ci_high=ci_high,
        seed=seed,
    )
