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
with exact ``math.fsum``.  E[Z^q] (``exact_moment_Z``) is the one-row case
of the majorization right side, a sum over iid Bernoulli selections of
the cells of an m x n grid.  The rows are independent and a value does
not change when every sign of one row flips, so each row runs over its
(3^n+1)/2 classes (first selected sign +, a nonempty class counted twice)
and the rows combine by outer sums, ((3^n+1)/2)^m raw values, each with
its multiplicity, its number w of selected cells and its count of them
per column; a row longer than eight cells takes every sign pattern of
its first cells and the classes of its last eight, (3^n + 3^(n-8))/2
values.  A moment or a right side is one ``math.fsum`` of
z^q * mult * p^w (1-p)^(N-w) / 2^w over the N = m n cells.  The
majorization left side, where each column picks exactly s rows, is iid
selection conditioned on every column holding s cells: it is one more
``math.fsum``, in the same pass, of z^q * mult over the values whose
count of selected cells is s in every column.  One budget,
``ENUMERATION_BUDGET`` = 10^7, bounds both enumerations: 3^n <= 10^7 for
a moment (n <= 14) and 3^(mn) <= 10^7 for a majorization spec.  Working
arrays stay within blocks of about ``transform._CHUNK_ENTRIES`` / 16
values, and no value depends on the block size; the Monte Carlo blocks
its trials by the same rule, ``transform._blocks``.  Every oracle vector
``x`` goes through one rule: a flat sequence of real numbers, of the
length n where the caller fixes it, non-empty (else ``DomainError``) and
a unit vector (else ``ConstraintViolation``); the specs keep it as a
tuple of floats.

The checks run at fixed settings.  Moments are accepted up to order
``MAX_MOMENT_ORDER`` = 100.  The psi envelope check allows psi to exceed
the envelope by ``PSI_ENVELOPE_SLACK`` = 1e-12; the envelope scale stays
an argument so that a scale too small to hold can serve as a negative
control.  The Chernoff optimizer identity is checked on a fixed 100-point
(v, k, u) lattice.  Monte Carlo estimates carry the exact 99%
Clopper-Pearson interval, whose endpoints are computed with
``scipy.special.betaincinv``.  Integer arguments go through
``errors.check_int``, real arguments through ``errors.check_real`` and
vectors through ``errors.check_real_vector``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.special import betaincinv

from . import streams, transform
from .concentration import DEFAULT_ENVELOPE_SCALE, MAX_SPARSITY, TailEnvelope, chernoff_optimum_check, psi
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


def _fold(start: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """out[e, k] = start[e] + coef[0, k] + coef[1, k] + ..., added left to right."""
    out = np.repeat(start[:, None], coef.shape[1], axis=1)
    for terms in coef:
        out += terms
    return out


def _row_class_values(x: np.ndarray, m: int, s: int):
    """Every value z = (sum_i S_i^2 - T)/s of a selection of cells of the m x n grid and a sign pattern, in blocks.

    Cell c of the grid lies at row c // n and grid column c % n, with
    coefficient x[c % n].  The rows are independent, and flipping every
    sign of one row leaves z unchanged, so each row runs over its
    (3^n+1)/2 classes (each cell unselected or selected, the first selected
    sign +), a nonempty class standing for its two sign patterns; the rows
    combine by outer sums in row order, ((3^n+1)/2)^m class combinations in
    all.  S_i accumulates in cell order, T in cell order over the whole
    grid, and sum_i S_i^2 in row order.

    Yields blocks ``(z, mult, w, key)`` of arrays that broadcast together:
    the values, the number of sign patterns each stands for, its number w
    of selected cells, and its count of selected cells per grid column
    packed in base m + 1.  A caller applies its statistic f: the sum of
    f(z) * mult over the selections of w cells in a set is 2^w times the
    sum of their sign means of f(z).

    The last ``tail`` cells of the last row, the longest run whose 3^tail
    patterns times tail fit in ``transform._CHUNK_ENTRIES``, are enumerated
    against the prefix: every class combination of rows 0..m-2 and every
    pattern of the head, the cells of the last row before the tail (at most
    2744 entries for the specs the budget accepts).  Each prefix entry takes
    the tail's classes, each doubled when nonempty, so a last row (h, t)
    and its negation (-h, -t) have one representative when t is nonempty,
    and (h, 0) and (-h, 0) are each their own.  Only m = 1 and n > 8 have
    a nonempty head, and there the row runs over (3^n + 3^(n-tail))/2
    values rather than its classes.  A block holds the values of whole
    prefix entries, ``transform._blocks`` of 16 entries a value (at most
    ``transform._CHUNK_ENTRIES`` / 16 values, or one entry's), since each
    value carries several working arrays.  Every value is formed
    elementwise, so none depends on the block size.
    """
    n = len(x)
    tail = 1
    while tail < n and (tail + 1) * 3 ** (tail + 1) <= transform._CHUNK_ENTRIES:
        tail += 1
    # Prefix entries, one per class combination of rows 0..m-2 and pattern
    # of the head (the first n - tail cells of row m-1): `closed` sums S_i^2
    # over rows 0..m-2, `row` is S of the head, `mult` the patterns an entry
    # stands for.  Each segment starts a row, closing the one before.
    base = m + 1
    closed = row = t = np.zeros(1)
    mult = np.ones(1)
    w = key = np.zeros(1, dtype=np.int64)
    for width, paired in ((n, True),) * (m - 1) + ((n - tail, False),):
        signs, weights, keys, factor = _sign_patterns(width, base, paired)
        coef = signs * x[:width, None]
        closed = np.repeat(closed + row * row, len(weights))
        row = np.tile(_fold(np.zeros(1), coef)[0], len(t))
        t = _fold(t, coef * coef).ravel()
        w = (w[:, None] + weights).ravel()
        key = (key[:, None] + keys).ravel()
        mult = (mult[:, None] * factor).ravel()

    # Every prefix entry takes the tail's classes, each doubled when nonempty.
    signs, weights, keys, factor = _sign_patterns(tail, base, True)
    coef = signs * x[n - tail :, None]
    sq = coef * coef
    keys = keys * base ** (n - tail)
    for lo, hi in transform._blocks(len(t), 16 * len(weights)):
        e = slice(lo, hi)
        total = _fold(row[e], coef)
        z = (closed[e, None] + total * total - _fold(t[e], sq)) / s
        yield z, mult[e, None] * factor, w[e, None] + weights, key[e, None] + keys


def _iid_weights(cells: int, p: float) -> np.ndarray:
    """c[w] = p^w (1-p)^(cells-w) / 2^w, the probability of one selection of w iid Bernoulli(p) cells and one sign pattern."""
    return np.array([p**w * (1.0 - p) ** (cells - w) / 2**w for w in range(cells + 1)])


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
    classes, and E[Z^q] is one exact ``math.fsum`` of z^q * mult * c[w]
    with the iid selection weights c of ``_iid_weights``.
    """
    x = np.asarray(spec.x, dtype=np.float64)
    c = _iid_weights(len(x), spec.p)
    blocks = _row_class_values(x, 1, 1)
    return math.fsum(chain.from_iterable((z**spec.q * mult * c[w]).ravel().tolist() for z, mult, w, _ in blocks))


def moment_bound_rhs(p: float, q: int) -> float:
    """Closed moment bound 2^q sum_{r=2}^{q} p^r r^q dominating E[Z^q], for q in [2, 100]."""
    q = check_int("moment order q", q, 2, MAX_MOMENT_ORDER)
    p = check_real("selector rate p", p, 0.0, 1.0)
    return 2**q * math.fsum(p**r * r**q for r in range(2, q + 1))


def compositions(total: int):
    """All ordered tuples of positive integers summing to ``total``."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


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

    Runs over every composition d of every q <= q_max in exact integer
    arithmetic, and additionally verifies that central binomial
    coefficients satisfy binom(2k, k) >= 2^k.
    """
    q_max = check_int("q_max", q_max, 1)
    if q_max > 20:
        raise BudgetError(f"q_max = {q_max} exceeds the exact-arithmetic budget of 20")
    violations = []
    checked_per_q = {}
    for q in range(1, q_max + 1):
        count = 0
        for parts in compositions(q):
            count += 1
            lhs = _multinomial(2 * q, [2 * d for d in parts])
            rhs = 2**q * _multinomial(q, parts) ** 2
            if lhs > rhs:
                violations.append((q, parts))
        checked_per_q[q] = count
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
    """Exact comparison instance: without-replacement columns vs iid entries."""

    n: int
    m: int
    s: int
    q: int
    x: tuple[float, ...]

    def __post_init__(self):
        # m is checked before s is compared with it.
        for name, low, high in (("n", 1, 4), ("m", 1, 5), ("s", 1, self.m), ("q", 2, 6)):
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
    entries.  Both come from one pass over ``_row_class_values`` of the
    m x n grid, ((3^n+1)/2)^m row-class combinations.  The right side is one
    exact ``math.fsum`` of z^q * mult * c[w], with the iid selection weights
    c of ``_iid_weights`` at p = s/m.  The left side, iid selection
    conditioned on every column holding exactly s cells, is one exact
    ``math.fsum`` of z^q * mult over the values whose key is s in every
    column, divided by the 2^(ns) sign patterns and the C(m,s)^n
    assignments.
    """
    n, m, s, q = spec.n, spec.m, spec.s, spec.q
    c = _iid_weights(m * n, s / m)
    keep = s * (((m + 1) ** n - 1) // m)  # the key of s cells in each of the n columns
    lhs_terms = []

    def rhs_terms():
        for z, mult, w, key in _row_class_values(np.asarray(spec.x, dtype=np.float64), m, s):
            v = z**q * mult
            lhs_terms.extend(v[key == keep].tolist())
            yield (v * c[w]).ravel().tolist()

    rhs = math.fsum(chain.from_iterable(rhs_terms()))
    return math.fsum(lhs_terms) / 2 ** (n * s) / math.comb(m, s) ** n, rhs


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
    and finite, and ``grid_points`` an integer >= 1 (``int`` or numpy).  A
    scale or p whose envelope leaves the float range on the grid raises
    ``DomainError``.
    """
    p = check_real("sparsity fraction p", p, 0.0, MAX_SPARSITY, high_open=False)
    scale = check_real("envelope scale", scale, 0.0, math.inf)
    grid_points = check_int("grid_points", grid_points, 1)
    t_max = math.log(1.0 / (2.0 * p)) / 2.0
    worst = -math.inf
    worst_t = math.nan
    count = 0
    for i in range(1, grid_points + 1):
        t = t_max * i / grid_points
        kt = scale * t
        try:
            envelope = (math.expm1(kt) - kt - kt * kt / 2.0) * 2.0 / (scale * scale)
        except (OverflowError, ZeroDivisionError):  # scale * t above 709, or scale^2 below the float range
            raise DomainError(
                f"envelope scale {scale!r} at p = {p!r}: the envelope leaves the float range at t = {t!r}"
            ) from None
        violation = psi(t, p) - envelope
        if violation > worst:
            worst, worst_t = violation, t
        if violation > PSI_ENVELOPE_SLACK:
            count += 1
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
    """
    eps = check_real("eps", eps, 0.0, math.inf)
    n, m, s, seed = transform._validate_build_args(n, m, s, seed)
    trials = check_int("trials", trials, 1)
    samples = squared_norm_samples(n, m, s, x, trials, seed)
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
