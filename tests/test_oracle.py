"""Oracle checks against independent exact references.

Moment and majorization references come from exact rational enumeration
of the defining sums (fractions.Fraction, run separately and frozen
here) and from the per-mask loops the oracles ran before the batched sign
enumeration kernel; interval endpoints are cross-checked through the
binomial CDF.  Monte Carlo samples are checked bit for bit against the
``np.bincount`` scatter they used before the shared CSC kernel.
"""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from sparsejl import (
    BudgetError,
    ConstraintViolation,
    DomainError,
    MajorizationSpec,
    MomentSpec,
    TrialReport,
    build_matrix,
    apply,
    check_majorization,
    check_multinomial_inequality,
    check_psi_envelope,
    chernoff_residual_grid,
    clopper_pearson,
    estimate_failure_prob,
    exact_moment_Z,
    moment_bound_rhs,
    psi,
    squared_norm_samples,
)
from sparsejl import oracle, streams, transform


def bincount_samples(n, m, s, x, trials, seed):
    """|A_t x|^2 from one ``np.bincount`` scatter over every trial, as before the CSC kernel."""
    x = np.asarray(x, dtype=np.float64)
    col_ids = np.arange(n, dtype=np.int64)
    trial_seeds = streams.substream_vec(seed, np.arange(trials, dtype=np.uint64))
    roots = streams.substream_vec(np.repeat(trial_seeds, n), np.tile(col_ids, trials).astype(np.uint64))
    rows, signs = transform.sample_columns(m, s, roots)
    weights = signs * x[np.tile(col_ids, trials)][:, None]
    flat = np.repeat(np.arange(trials, dtype=np.int64), n)[:, None] * m + rows
    y = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=trials * m).reshape(trials, m)
    y *= 1.0 / math.sqrt(s)
    return (y * y).sum(axis=1)


def rational_moment(coeffs, n, p, q):
    """Independent oracle: E[Z^q] from the defining pair sum, exact rationals."""
    total = Fraction(0)
    for eta in product((0, 1), repeat=n):
        w_eta = p ** sum(eta) * (1 - p) ** (n - sum(eta))
        for r in product((-1, 1), repeat=n):
            z = Fraction(0)
            for i in range(n):
                for j in range(n):
                    if i != j and eta[i] and eta[j]:
                        z += coeffs[i][j] * r[i] * r[j]
            total += w_eta * Fraction(1, 2**n) * z**q
    return total


@functools.lru_cache(maxsize=None)
def _pm1(width):
    codes = np.arange(1 << width, dtype=np.int64)
    return (((codes[:, None] >> np.arange(width)) & 1) * 2 - 1).astype(np.float64)


def loop_moment(x, p, q):
    """Reference: E[Z^q] by one loop over selector masks, signs per mask."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    x_sq = x * x
    contributions = []
    for mask_bits in range(1 << n):
        k = bin(mask_bits).count("1")
        if k < 2:
            continue
        idx = [i for i in range(n) if mask_bits >> i & 1]
        weight = p**k * (1.0 - p) ** (n - k)
        s_vals = _pm1(k) @ x[idx]
        vals = s_vals * s_vals - float(np.sum(x_sq[idx]))
        contributions.append(weight * math.fsum(vals**q) / (1 << k))
    return math.fsum(contributions)


def _loop_sign_means(positions, coeffs, s, qs):
    w = len(positions)
    t_total = math.fsum(c * c for c in coeffs)
    if w < 1:
        return [((0.0 - t_total) / s) ** q for q in qs]
    rows_of = np.asarray(positions, dtype=np.int64)
    coef_mat = np.zeros((w, int(rows_of.max()) + 1))
    coef_mat[np.arange(w), rows_of] = coeffs
    s_vals = _pm1(w) @ coef_mat
    vals = ((s_vals * s_vals).sum(axis=1) - t_total) / s
    return [math.fsum(vals**q) / (1 << w) for q in qs]


def loop_majorization(n, m, s, qs, x):
    """Reference: both majorization sides by one loop over selections.

    Returns {q: (lhs, rhs)}; the orders share the loop, not the arithmetic.
    """
    x = np.asarray(x, dtype=np.float64)
    subset_weight = 1.0 / math.comb(m, s) ** n
    lhs_terms = []
    for assignment in product(combinations(range(m), s), repeat=n):
        positions = [row for subset in assignment for row in subset]
        coeffs = [x[col] for col, subset in enumerate(assignment) for _ in subset]
        lhs_terms.append([subset_weight * v for v in _loop_sign_means(positions, coeffs, s, qs)])
    p = s / m
    rhs_terms = []
    cells = [(row, col) for row in range(m) for col in range(n)]
    for mask_bits in range(1 << (m * n)):
        w = bin(mask_bits).count("1")
        weight = p**w * (1.0 - p) ** (m * n - w)
        chosen = [cell for idx, cell in enumerate(cells) if mask_bits >> idx & 1]
        positions = [row for row, _ in chosen]
        coeffs = [x[col] for _, col in chosen]
        rhs_terms.append([weight * v for v in _loop_sign_means(positions, coeffs, s, qs)])
    return {q: (math.fsum(t[i] for t in lhs_terms), math.fsum(t[i] for t in rhs_terms))
            for i, q in enumerate(qs)}


def unshared_sums(x, m, s, p, q):
    """(iid, kept) as the moment and majorization oracles each summed them before their shared engine."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    c = np.array([p**w * (1.0 - p) ** (m * n - w) / 2**w for w in range(m * n + 1)])
    keep = s * (((m + 1) ** n - 1) // m)
    kept = []

    def iid_terms():
        for z, mult, w, key in oracle._row_class_values(x, m, s):
            power = oracle._power(z, q)
            kept.extend((power * mult)[key == keep].tolist())
            yield (power * mult * c[w]).ravel().tolist()

    iid = math.fsum(chain.from_iterable(iid_terms()))
    return iid, math.fsum(kept)


def overlap_failure_prob(a, b, m, s, eps):
    """Exact P{| |Ax|^2 - 1 | > eps} for x = (a, b), n = 2, as a Fraction.

    |Ax|^2 - 1 = 2ab (L - 2k)/s, where the two columns share L rows
    (hypergeometric: C(s,L) C(m-s,s-L)/C(m,s)) and k of the L sign
    products are -1 (binomial: C(L,k)/2^L).
    """
    two_ab, bound = 2 * Fraction(a) * Fraction(b), Fraction(eps) * s
    total = Fraction(0)
    for shared in range(s + 1):
        count = sum(math.comb(shared, k) for k in range(shared + 1) if abs(two_ab * (shared - 2 * k)) > bound)
        total += Fraction(math.comb(s, shared) * math.comb(m - s, s - shared) * count, 2**shared)
    return total / math.comb(m, s)


def traced_peak(call):
    """(call(), peak bytes that tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Working arrays stay within blocks of about transform._CHUNK_ENTRIES / 16 values.
PEAK_BYTES = 4 << 20


def assert_matches_loop(got, ref):
    """Relative 1e-12 where the value is at least 1e-15, else absolute 1e-15."""
    if abs(ref) >= 1e-15:
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    else:
        assert got == pytest.approx(ref, rel=0.0, abs=1e-15)


class TestExactMomentZ:
    def test_empty_vector(self):
        with pytest.raises(DomainError, match="^x must be non-empty$"):
            MomentSpec((), 0.01, 2)

    def test_two_coordinate_second_moment(self):
        """x = (1/sqrt2, 1/sqrt2) leaves the single cross term; E[Z^2] = p^2."""
        spec = MomentSpec((1 / math.sqrt(2), 1 / math.sqrt(2)), 1 / 30, 2)
        assert exact_moment_Z(spec) == pytest.approx((1 / 30) ** 2, rel=1e-13)

    def test_against_rational_oracle_n3(self):
        """Frozen rational enumerations: E[Z^4] = 8/10125, E[Z^3] = 2/30375.

        Odd moments vanish only when no three indices can pair up into a
        triangle of cross terms; at n = 3 the triangle contributes
        48 p^3 / 27 to E[Z^3].
        """
        x = (1 / math.sqrt(3),) * 3
        assert exact_moment_Z(MomentSpec(x, 1 / 30, 4)) == pytest.approx(8 / 10125, rel=1e-12)
        assert exact_moment_Z(MomentSpec(x, 1 / 30, 3)) == pytest.approx(2 / 30375, rel=1e-12)
        coeffs = [[Fraction(1, 3) if i != j else 0 for j in range(3)] for i in range(3)]
        assert rational_moment(coeffs, 3, Fraction(1, 30), 3) == Fraction(2, 30375)

    @pytest.mark.parametrize("n", [4, 5])
    def test_against_rational_oracle_non_uniform(self, n):
        """Past n = 3 the values come from the row tables; the rational sum over every mask and sign pattern does not."""
        x = np.random.default_rng(40 + n).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        coeffs = [[Fraction(a) * Fraction(b) for b in x] for a in x]
        for p in (1 / 30, 1 / 10):
            for q in (2, 4):
                expected = float(rational_moment(coeffs, n, Fraction(p), q))
                assert exact_moment_Z(MomentSpec(x, p, q)) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_odd_moments_vanish_for_two_coordinates(self):
        x = (1 / math.sqrt(2), 1 / math.sqrt(2))
        for q in (1, 3, 5):
            assert exact_moment_Z(MomentSpec(x, 0.1, q)) == pytest.approx(0.0, abs=1e-18)

    def test_second_moment_closed_form_sweep(self):
        """E[Z^2] = 2 p^2 sum_{i != j} x_i^2 x_j^2 for n <= 6."""
        rng = np.random.default_rng(8)
        for n in range(2, 7):
            x = rng.standard_normal(n)
            x /= math.sqrt(float(x @ x))
            for p in (1 / 30, 0.1, 0.5):
                sq = x * x
                cross = float(np.sum(sq) ** 2 - np.sum(sq * sq))
                expected = 2.0 * p * p * cross
                got = exact_moment_Z(MomentSpec(tuple(x), p, 2))
                assert got == pytest.approx(expected, rel=1e-12)

    def test_second_moment_closed_form_at_the_budget(self):
        """E[Z^2] = 2 p^2 sum_{i != j} x_i^2 x_j^2 at n = 14, the largest n the budget accepts."""
        x = np.random.default_rng(14).standard_normal(14)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        for p in (1 / 30, 0.5):
            expected = 2.0 * p * p * math.fsum(a * a * b * b for i, a in enumerate(x)
                                               for j, b in enumerate(x) if i != j)
            assert exact_moment_Z(MomentSpec(x, p, 2)) == pytest.approx(expected, rel=1e-12)

    def test_matches_per_mask_loop(self):
        rng = np.random.default_rng(31)
        for n in range(1, 9):
            for x in (np.full(n, 1 / math.sqrt(n)), rng.standard_normal(n)):
                x = tuple(x / math.sqrt(float(x @ x)))
                for p in (1 / 30, 0.1, 0.5):
                    for q in range(1, 7):
                        assert_matches_loop(exact_moment_Z(MomentSpec(x, p, q)), loop_moment(x, p, q))
        # Past eight cells numpy's pairwise sum no longer adds T in cell order.  Past
        # seven the row splits into patterns of its first cells and classes of its last seven.
        for n in range(9, 12):
            for x in (np.full(n, 1 / math.sqrt(n)), rng.standard_normal(n)):
                x = tuple(x / math.sqrt(float(x @ x)))
                for q in (2, 3, 6):
                    assert_matches_loop(exact_moment_Z(MomentSpec(x, 0.1, q)), loop_moment(x, 0.1, q))

    @pytest.mark.parametrize("n", [9, 14])
    def test_working_memory_stays_in_blocks(self, n):
        """A two-cell head at n = 9 and a seven-cell head at n = 14: no table holds more than 3^7 patterns."""
        x = np.random.default_rng(n).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        _, peak = traced_peak(lambda: exact_moment_Z(MomentSpec(x, 0.1, 4)))
        assert peak <= PEAK_BYTES

    def test_validation(self):
        unit14 = (1 / math.sqrt(14),) * 14
        MomentSpec(unit14, 0.1, 2)  # at the budget edge
        with pytest.raises(BudgetError, match=r"3\^n"):
            MomentSpec((1 / math.sqrt(15),) * 15, 0.1, 2)
        with pytest.raises(ConstraintViolation, match="unit"):
            MomentSpec((1.0, 1.0), 0.1, 2)
        for bad in ((math.nan, math.nan), (math.nan, 1.0), (math.inf, -math.inf)):
            with pytest.raises(ConstraintViolation, match="unit"):
                MomentSpec(bad, 0.1, 2)
        with pytest.raises(DomainError):
            MomentSpec((1.0,), 1.5, 2)
        with pytest.raises(DomainError):
            MomentSpec((1.0,), 0.1, 0)


@pytest.mark.parametrize("make", [np.array, list])
def test_specs_are_values(make):
    """The specs keep x as a tuple of floats, so equal specs compare and hash equal."""
    for build in (lambda: MomentSpec(make([0.6, 0.8]), 0.1, 2), lambda: MajorizationSpec(2, 2, 1, 2, make([0.6, 0.8]))):
        a, b = build(), build()
        assert a == b
        assert hash(a) == hash(b)
        assert a.x == (0.6, 0.8) and all(type(v) is float for v in a.x)
    assert MomentSpec(make([1, 0]), 0.1, 2).x == (1.0, 0.0)


class TestMomentBoundRhs:
    def test_single_term(self):
        assert moment_bound_rhs(0.1, 2) == pytest.approx(16 * 0.01, rel=1e-15)

    def test_two_terms(self):
        p = 1 / 30
        assert moment_bound_rhs(p, 3) == pytest.approx(8 * (8 * p**2 + 27 * p**3), rel=1e-14)

    def test_order_starts_at_two(self):
        with pytest.raises(DomainError):
            moment_bound_rhs(0.1, 1)

    def test_dominates_exact_moments(self):
        rng = np.random.default_rng(9)
        for n in (2, 4, 6, 8):
            for _ in range(3):
                x = rng.standard_normal(n)
                x /= math.sqrt(float(x @ x))
                for p in (1 / 30, 0.1):
                    for q in range(2, 7):
                        exact = exact_moment_Z(MomentSpec(tuple(x), p, q))
                        assert exact <= moment_bound_rhs(p, q) * (1 + 1e-12)


class TestMomentOrderLimit:
    """Both moment functions stop at MAX_MOMENT_ORDER, short of float64 overflow."""

    @pytest.mark.parametrize("q", [101, 200])
    def test_above_limit_is_domain_error(self, q):
        with pytest.raises(DomainError, match=r"moment order q must be an integer in \[1, 100\]"):
            MomentSpec((0.6, 0.8), 0.1, q)
        with pytest.raises(DomainError, match=r"moment order q must be an integer in \[2, 100\]"):
            moment_bound_rhs(0.1, q)

    def test_limit_is_finite(self):
        q = oracle.MAX_MOMENT_ORDER
        assert q == 100
        exact, peak = traced_peak(lambda: exact_moment_Z(MomentSpec((14**-0.5,) * 14, 0.999, q)))
        bound = moment_bound_rhs(0.999, q)
        assert math.isfinite(exact) and math.isfinite(bound)
        assert exact <= bound
        # 2.4 million row classes at n = 14, formed in blocks.
        assert peak <= PEAK_BYTES


class TestMultinomialInequality:
    def test_hand_values(self):
        """binom(4;2,2) = 6 <= 2^2 binom(2;1,1)^2 = 16; degenerate 1 <= 8."""
        report = check_multinomial_inequality(3)
        assert report.ok
        assert math.factorial(4) // (math.factorial(2) ** 2) == 6
        assert 2**2 * (math.factorial(2) // math.factorial(1) ** 2) ** 2 == 16

    def test_exhaustive_until_twelve(self):
        report = check_multinomial_inequality(12)
        assert report.ok
        assert report.total_checked == sum(2 ** (q - 1) for q in range(1, 13))
        assert report.checked_per_q[12] == 2**11
        assert report.violations == []
        assert report.central_binomial_ok

    def test_budget(self):
        with pytest.raises(BudgetError):
            check_multinomial_inequality(21)
        with pytest.raises(DomainError):
            check_multinomial_inequality(0)

    def test_violation_is_reported(self, monkeypatch):
        """Negative control: binom(4; 2, 2) made 100 times larger than 6 exceeds 16, and is listed."""
        multinomial = oracle._multinomial
        monkeypatch.setattr(oracle, "_multinomial", lambda total, parts: multinomial(total, parts)
                            * (100 if (total, list(parts)) == (4, [2, 2]) else 1))
        report = check_multinomial_inequality(3)
        assert report.ok is False
        assert report.violations == [(2, (1, 1))]
        assert report.central_binomial_ok

    def test_every_composition_at_the_budget_edge(self):
        """Each partition counts as its orderings: 2^(q-1) compositions of every q <= 20."""
        report = check_multinomial_inequality(20)
        assert report.ok
        assert report.checked_per_q == {q: 2 ** (q - 1) for q in range(1, 21)}
        assert report.total_checked == 2**20 - 1

    def test_violating_partition_lists_every_ordering(self, monkeypatch):
        """Negative control: the left side of the partition {2, 1} of 3, binom(6; 4, 2) in either
        order, made 100 times larger, is listed as both of its compositions in the loop's order."""
        multinomial = oracle._multinomial
        monkeypatch.setattr(oracle, "_multinomial", lambda total, parts: multinomial(total, parts)
                            * (100 if (total, sorted(parts)) == (6, [2, 4]) else 1))
        report = check_multinomial_inequality(4)
        assert report.violations == [(3, (1, 2)), (3, (2, 1))]
        assert report.total_checked == 15

    @pytest.mark.parametrize("inflated", [
        [(6, [2, 2, 2])],
        [(8, [2, 6]), (8, [2, 2, 4])],
        [(10, [2, 2, 2, 4]), (12, [2, 4, 6]), (12, [2, 2, 2, 2, 2, 2])],
        [(14, [2, 2, 4, 6]), (14, [2, 2, 2, 2, 2, 4]), (4, [2, 2])],
    ], ids=["q3-all-ones", "q4-two-partitions", "q5-q6", "q7-many-orderings"])
    def test_matches_per_composition_loop(self, monkeypatch, inflated):
        """The report equals the check's reference, a loop over every composition, violations in its order."""
        multinomial = oracle._multinomial
        patched = lambda total, parts: multinomial(total, parts) * (100 if (total, sorted(parts)) in inflated else 1)
        monkeypatch.setattr(oracle, "_multinomial", patched)

        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        checked, violations = {}, []
        for q in range(1, 8):
            checked[q] = 0
            for parts in compositions(q):
                checked[q] += 1
                if patched(2 * q, [2 * d for d in parts]) > 2**q * patched(q, parts) ** 2:
                    violations.append((q, parts))
        report = check_multinomial_inequality(7)
        assert report.checked_per_q == checked
        assert report.violations == violations and violations


class TestMajorization:
    def test_frozen_rational_values(self):
        """n=2, m=2, s=1, x=(1/sqrt2,1/sqrt2): q=2 gives (1/2, 1/2); q=4
        gives (1/2, 7/8).  Values from exact rational enumeration."""
        x = (1 / math.sqrt(2), 1 / math.sqrt(2))
        lhs, rhs = check_majorization(MajorizationSpec(2, 2, 1, 2, x))
        assert lhs == pytest.approx(0.5, rel=1e-12)
        assert rhs == pytest.approx(0.5, rel=1e-12)
        lhs, rhs = check_majorization(MajorizationSpec(2, 2, 1, 4, x))
        assert lhs == pytest.approx(0.5, rel=1e-12)
        assert rhs == pytest.approx(7 / 8, rel=1e-12)

    def test_single_coordinate_kills_cross_terms(self):
        """x = e_1 leaves no off-diagonal mass, so both sides vanish."""
        lhs, rhs = check_majorization(MajorizationSpec(3, 3, 2, 2, (1.0, 0.0, 0.0)))
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_saturated_sparsity_deterministic_selection(self):
        """s = m selects every row; the left side is a pure sign average,
        reproduced here by direct enumeration."""
        x = (1 / math.sqrt(2), 1 / math.sqrt(2))
        m, s, q = 2, 2, 2
        lhs, rhs = check_majorization(MajorizationSpec(2, m, s, q, x))
        direct = []
        for signs in product((-1, 1), repeat=m * 2):
            val = 0.0
            for k in range(m):
                r1, r2 = signs[2 * k], signs[2 * k + 1]
                s_k = x[0] * r1 + x[1] * r2
                val += s_k * s_k - 1.0
            direct.append((val / s) ** q)
        assert lhs == pytest.approx(math.fsum(direct) / len(direct), rel=1e-12)
        assert 0.0 <= lhs <= rhs + 1e-12

    def test_ordering_sweep(self):
        rng = np.random.default_rng(12)
        for n in (1, 2, 3):
            x = rng.standard_normal(n)
            x /= math.sqrt(float(x @ x))
            for m in (2, 3):
                for s in range(1, m + 1):
                    lhs, rhs = check_majorization(MajorizationSpec(n, m, s, 2, tuple(x)))
                    assert -1e-12 <= lhs <= rhs + 1e-12

    def test_matches_per_selection_loop(self):
        """Every spec the budget accepts: n <= 4, m <= 5, s <= m, q in {2, 4, 6}.

        Each n >= 2 also runs a unit vector with a zero entry: a selected
        cell with coefficient 0 still counts toward its column's s cells.
        """
        rng = np.random.default_rng(77)
        checked = 0
        for n in range(1, 5):
            x = rng.standard_normal(n)
            x /= math.sqrt(float(x @ x))
            vectors = [tuple(x)]
            if n >= 2:
                z = x.copy()
                z[n // 2] = 0.0
                vectors.append(tuple(z / math.sqrt(float(z @ z))))
            for v in vectors:
                for m in range(1, 6):
                    for s in range(1, m + 1):
                        try:
                            specs = [MajorizationSpec(n, m, s, q, v) for q in (2, 4, 6)]
                        except BudgetError:
                            continue
                        ref = loop_majorization(n, m, s, (2, 4, 6), v)
                        for spec in specs:
                            got = check_majorization(spec)
                            assert_matches_loop(got[0], ref[spec.q][0])
                            assert_matches_loop(got[1], ref[spec.q][1])
                            checked += 1
        assert checked == 231

    @pytest.mark.parametrize("n, m, s, qs", [(5, 2, 1, (2, 4, 8)), (2, 6, 2, (2, 4, 8, 100))])
    def test_specs_past_the_former_caps_match_loop(self, n, m, s, qs):
        """The budget alone bounds n, m and q: specs with n > 4, m > 5 or q > 6 match the loop too."""
        x = np.random.default_rng(n * m).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        ref = loop_majorization(n, m, s, qs, x)
        for q in qs:
            lhs, rhs = check_majorization(MajorizationSpec(n, m, s, q, x))
            assert_matches_loop(lhs, ref[q][0])
            assert_matches_loop(rhs, ref[q][1])
            assert lhs <= rhs

    def test_block_size_does_not_change_results(self, monkeypatch):
        from sparsejl import transform as tr

        x3 = (0.6, 0.0, 0.8)
        x = (0.5, -0.5, 0.1, math.sqrt(0.49))
        full = [check_majorization(MajorizationSpec(3, 3, 2, 4, x3)), exact_moment_Z(MomentSpec(x, 0.1, 5))]
        for entries in (1, 7, 100):
            monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
            assert [check_majorization(MajorizationSpec(3, 3, 2, 4, x3)), exact_moment_Z(MomentSpec(x, 0.1, 5))] == full

    @pytest.mark.parametrize("n, m, s", [(9, 1, 1), (12, 1, 1), (3, 4, 2), (2, 7, 3)])
    def test_block_size_decides_only_the_grouping(self, monkeypatch, n, m, s):
        """Whatever the block size, the blocks concatenate to the same arrays, bit for bit:
        the rows split by the spec alone, a single row of n > 7 cells and no other."""
        x = np.random.default_rng(n * m).standard_normal(n)
        x /= math.sqrt(float(x @ x))

        def arrays(entries):
            monkeypatch.setattr(transform, "_CHUNK_ENTRIES", entries)
            blocks = [np.broadcast_arrays(*block) for block in oracle._row_class_values(x, m, s)]
            return [np.concatenate(column).view(np.int64) for column in zip(*blocks)]

        full = arrays(1 << 16)
        for entries in (1, 7, 1 << 20):
            assert all(np.array_equal(a, b) for a, b in zip(arrays(entries), full))

    @pytest.mark.parametrize("n, m, s, entries", [
        (8, 1, 1, None), (9, 1, 1, None), (10, 1, 1, None), (11, 1, 1, None), (12, 1, 1, None),
        (2, 3, 2, None), (3, 4, 2, None), (4, 3, 1, None),
        # Blocks of one prefix entry each.
        (2, 3, 2, 7), (3, 2, 1, 7), (4, 2, 2, 7),
    ])
    def test_representatives_count_every_pattern_once(self, monkeypatch, n, m, s, entries):
        """The multiplicities add up to the 3^(mn) patterns of the grid, and over
        the values with s cells in every column to the C(m,s)^n 2^(ns) of the left side."""
        if entries is not None:
            monkeypatch.setattr(transform, "_CHUNK_ENTRIES", entries)
        x = np.full(n, 1 / math.sqrt(n))
        keep = s * (((m + 1) ** n - 1) // m)
        total = kept = 0
        for z, mult, _, key in oracle._row_class_values(x, m, s):
            mult = np.broadcast_to(mult, z.shape)
            total += int(mult.sum())
            kept += int(mult[np.broadcast_to(key, z.shape) == keep].sum())
        assert total == 3 ** (m * n)
        assert kept == math.comb(m, s) ** n * 2 ** (n * s)

    @pytest.mark.parametrize("n, m, s, x", [
        (4, 3, 2, (0.5, -0.5, 0.1, math.sqrt(0.49))), (3, 4, 2, (0.6, 0.0, 0.8)), (2, 7, 3, (0.6, 0.8)),
    ])
    def test_working_memory_stays_in_blocks(self, n, m, s, x):
        (lhs, rhs), peak = traced_peak(lambda: check_majorization(MajorizationSpec(n, m, s, 4, x)))
        assert lhs <= rhs
        assert peak <= PEAK_BYTES

    def test_budget(self):
        """The budget counts the one enumeration of both sides, 3^(mn) <= 10^7."""
        x4 = (0.5, 0.5, 0.5, 0.5)
        x3 = (0.6, 0.0, 0.8)
        for n, m, s, x in ((4, 5, 2, x4), (4, 5, 5, x4), (4, 4, 4, x4), (3, 5, 1, x3)):
            with pytest.raises(BudgetError, match=r"3\^\(m n\)"):
                MajorizationSpec(n, m, s, 2, x)
        for s in range(1, 5):  # the largest specs of criterion 5 stay accepted
            MajorizationSpec(3, 4, s, 4, x3)
        for s in range(1, 8):  # the budget alone decides: 3^14 <= 10^7
            MajorizationSpec(2, 7, s, 2, (0.6, 0.8))

    def test_validation(self):
        with pytest.raises(DomainError):
            MajorizationSpec(2, 2, 1, 3, (1.0, 0.0))  # odd q
        with pytest.raises(BudgetError):
            MajorizationSpec(2, 8, 1, 2, (1.0, 0.0))  # 3^16 > 10^7
        with pytest.raises(ConstraintViolation, match="unit"):
            MajorizationSpec(2, 2, 1, 2, (math.nan, math.nan))


class TestExactSums:
    """The shared engine gives the sums each oracle wrote for itself, bit for bit."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_moments(self, n):
        x = np.random.default_rng(n).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        for p in (1 / 30, 0.5):
            for q in (1, 2, 3, 4, 6):
                assert exact_moment_Z(MomentSpec(x, p, q)) == unshared_sums(x, 1, 1, p, q)[0]

    @pytest.mark.parametrize("n, p, q", [(13, 1 / 30, 3), (14, 0.5, 4)])
    def test_moments_at_the_budget(self, n, p, q):
        x = np.random.default_rng(n).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        assert exact_moment_Z(MomentSpec(x, p, q)) == unshared_sums(x, 1, 1, p, q)[0]

    @pytest.mark.parametrize("n, m, s", [(2, 7, s) for s in range(1, 8)] + [(7, 2, 1)])
    def test_majorization_at_the_budget(self, n, m, s):
        """m n = 14: seven rows of two cells, and two rows of seven."""
        x = np.random.default_rng(n * m + s).standard_normal(n)
        x = tuple((x / math.sqrt(float(x @ x))).tolist())
        rhs, kept = unshared_sums(x, m, s, s / m, 4)
        lhs = kept / 2 ** (n * s) / math.comb(m, s) ** n
        assert check_majorization(MajorizationSpec(n, m, s, 4, x)) == (lhs, rhs)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_statistic_that_is_not_finite_is_domain_error(self, value):
        """math.fsum returned inf or nan for such terms without complaint."""
        x = np.array([0.6, 0.8])
        for name, m, kept in (("exact_moment_Z", 1, False), ("check_majorization", 2, True)):
            with pytest.raises(DomainError, match=f"^{name}: the statistic is NaN or infinite"):
                oracle._exact_sums(name, x, m, 1, 0.5, lambda z: np.full_like(z, value), kept)

    def test_sum_beyond_the_float_range_is_domain_error(self):
        """Each statistic is finite, but the kept sum of the four patterns of two cells is not: at 8e307
        the sum overflows, at 1e308 already f(z) * mult, the two patterns of one value."""
        x = np.array([0.6, 0.8])
        for value in (8e307, 1e308):
            with pytest.raises(DomainError, match="^check_majorization: an exact sum leaves the float range$"):
                oracle._exact_sums("check_majorization", x, 1, 1, 0.5, lambda z: np.full_like(z, value), True)

    # Values the enumeration gave before a one-row spec (m = 1, n <= 7) skipped its empty head
    # segment, as float.hex.  q = 2 and z^3 are formed by multiplication alone, and p = 1/4 is a
    # power of two, so every bit is set by the summation order, not by a library's pow.
    MOMENT_PINS = {
        2: "0x1.47ae147ae147cp-5", 3: "0x1.0000000000000p-4", 4: "0x1.369d0369d0368p-4",
        5: "0x1.5a4c55a4c55a4p-4", 6: "0x1.7357357357358p-4", 7: "0x1.85d9f7390d2a7p-4",
        8: "0x1.9414141414140p-4",
    }
    MAJORIZATION_PINS = {  # (n, m, s): (lhs, rhs) at q = 2
        (1, 2, 1): ("0x0.0p+0", "0x0.0p+0"),
        (1, 2, 2): ("0x0.0p+0", "0x0.0p+0"),
        (2, 2, 1): ("0x1.47ae147ae147cp-2", "0x1.47ae147ae147cp-2"),
        (2, 2, 2): ("0x1.47ae147ae147cp-2", "0x1.47ae147ae147cp-2"),
        (3, 2, 1): ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
        (3, 2, 2): ("0x1.0000000000000p-1", "0x1.0000000000000p-1"),
        (1, 3, 1): ("0x0.0p+0", "0x0.0p+0"),
        (1, 3, 2): ("0x0.0p+0", "0x0.0p+0"),
        (1, 3, 3): ("0x0.0p+0", "0x0.0p+0"),
        (2, 3, 1): ("0x1.b4e81b4e81b4fp-3", "0x1.b4e81b4e81b50p-3"),
        (2, 3, 2): ("0x1.b4e81b4e81b4fp-3", "0x1.b4e81b4e81b4ep-3"),
        (2, 3, 3): ("0x1.b4e81b4e81b4ep-3", "0x1.b4e81b4e81b4ep-3"),
        (3, 3, 1): ("0x1.5555555555555p-2", "0x1.5555555555557p-2"),
        (3, 3, 2): ("0x1.5555555555555p-2", "0x1.5555555555555p-2"),
        (3, 3, 3): ("0x1.5555555555556p-2", "0x1.5555555555556p-2"),
        (1, 4, 1): ("0x0.0p+0", "0x0.0p+0"),
        (1, 4, 2): ("0x0.0p+0", "0x0.0p+0"),
        (1, 4, 3): ("0x0.0p+0", "0x0.0p+0"),
        (1, 4, 4): ("0x0.0p+0", "0x0.0p+0"),
        (2, 4, 1): ("0x1.47ae147ae147cp-3", "0x1.47ae147ae147cp-3"),
        (2, 4, 2): ("0x1.47ae147ae147cp-3", "0x1.47ae147ae147cp-3"),
        (2, 4, 3): ("0x1.47ae147ae147bp-3", "0x1.47ae147ae147bp-3"),
        (2, 4, 4): ("0x1.47ae147ae147bp-3", "0x1.47ae147ae147bp-3"),
        (3, 4, 1): ("0x1.0000000000000p-2", "0x1.0000000000000p-2"),
        (3, 4, 2): ("0x1.0000000000000p-2", "0x1.0000000000000p-2"),
        (3, 4, 3): ("0x1.0000000000000p-2", "0x1.0000000000000p-2"),
        (3, 4, 4): ("0x1.0000000000001p-2", "0x1.0000000000001p-2"),
    }
    CUBE_PINS = {  # (n, m): (iid, kept) sums of z^3 at s = 1, p = 1/4
        (3, 1): ("0x1.426cf7ca432bfp-7", "0x1.426cf7ca432c5p+2"),
        (8, 1): ("0x1.e44b3218ffe6cp-5", "0x1.e44b3218ffe6fp+9"),
        (2, 3): ("0x1.76b8000000000p-55", "0x1.2000000000000p-49"),
    }

    @staticmethod
    def pin_vector(n):
        """(1, -2, 3, ...) / norm, formed with correctly rounded operations only."""
        v = [(-1) ** i * (i + 1) for i in range(n)]
        norm = math.sqrt(math.fsum(a * a for a in v))
        return tuple(a / norm for a in v)

    def test_moment_pins(self):
        """m = 1: n <= 7 runs no head segment, n = 8 a head of one cell."""
        got = {n: exact_moment_Z(MomentSpec(self.pin_vector(n), 0.25, 2)).hex() for n in self.MOMENT_PINS}
        assert got == self.MOMENT_PINS

    def test_majorization_pins(self):
        """m >= 2: the empty head segment stays, as it closes row m - 2."""
        got = {}
        for n, m, s in self.MAJORIZATION_PINS:
            lhs, rhs = check_majorization(MajorizationSpec(n, m, s, 2, self.pin_vector(n)))
            got[n, m, s] = (lhs.hex(), rhs.hex())
        assert got == self.MAJORIZATION_PINS

    def test_odd_statistic_pins(self):
        got = {}
        for n, m in self.CUBE_PINS:
            iid, kept = oracle._exact_sums("pin", np.array(self.pin_vector(n)), m, 1, 0.25, lambda z: z * z * z, True)
            got[n, m] = (iid.hex(), kept.hex())
        assert got == self.CUBE_PINS

    def test_majorization_at_criterion_5(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(2):
                x = rng.standard_normal(n)
                x = tuple((x / math.sqrt(float(x @ x))).tolist())
                for m in (1, 2, 3, 4):
                    for s in range(1, m + 1):
                        for q in (2, 4):
                            rhs, kept = unshared_sums(x, m, s, s / m, q)
                            lhs = kept / 2 ** (n * s) / math.comb(m, s) ** n
                            assert check_majorization(MajorizationSpec(n, m, s, q, x)) == (lhs, rhs)


@pytest.fixture
def enumerations(monkeypatch):
    """The (n, m, s) of every enumeration that ``_row_class_values`` starts, from a clean slate."""
    TestKeptPass.evict()
    calls = []
    enumerate_classes = oracle._row_class_values

    def counted(x, m, s):
        calls.append((len(x), m, s))
        return enumerate_classes(x, m, s)

    monkeypatch.setattr(oracle, "_row_class_values", counted)
    return calls


class TestKeptPass:
    """A pass that fits in one block is enumerated once for a run of calls with one key, and moves no value."""

    RATES = (1 / 30, 0.1)

    @staticmethod
    def evict():
        """A pass on another key, (x, m, s) = ((1.0,), 1, 1), which no test below uses: the kept pass goes."""
        exact_moment_Z(MomentSpec((1.0,), 0.5, 2))

    @classmethod
    def cold(cls, oracle_call, spec):
        cls.evict()
        return oracle_call(spec)

    @staticmethod
    def unit(seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        return tuple((x / math.sqrt(float(x @ x))).tolist())

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sweep_enumerates_once_with_cold_values(self, enumerations, n):
        """x -> p -> q, as `sparsejl check` asks: every value after the first comes from the kept pass."""
        specs = [MomentSpec(self.unit(n, n), p, q) for p in self.RATES for q in range(1, 7)]
        swept = [exact_moment_Z(spec).hex() for spec in specs]
        assert enumerations == [(n, 1, 1)]
        assert swept == [self.cold(exact_moment_Z, spec).hex() for spec in specs]

    @pytest.mark.parametrize("n, m, s", [(2, 3, 2), (3, 3, 1)])
    def test_majorization_q2_then_q4_equals_cold_passes(self, n, m, s):
        specs = [MajorizationSpec(n, m, s, q, self.unit(n * m, n)) for q in (2, 4)]
        self.evict()
        swept = [tuple(v.hex() for v in check_majorization(spec)) for spec in specs]
        assert swept == [tuple(v.hex() for v in self.cold(check_majorization, spec)) for spec in specs]

    def test_interleaving_gives_cold_values(self, enumerations):
        """A, B, A: the second A enumerates again, since B's pass replaced A's."""
        a, b = self.unit(1, 5), self.unit(2, 5)
        specs = [MomentSpec(a, 0.1, 2), MomentSpec(b, 0.1, 3), MomentSpec(a, 0.1, 4)]
        swept = [exact_moment_Z(spec).hex() for spec in specs]
        assert enumerations == [(5, 1, 1)] * 3
        assert swept == [self.cold(exact_moment_Z, spec).hex() for spec in specs]

    def test_every_key_part_counts(self, enumerations):
        """One ulp in one coordinate, -0.0 for 0.0, and another (m, s) are other passes, each with its cold value."""
        x = self.unit(3, 3)
        ulp = (x[0], np.nextafter(x[1], 1.0), x[2])
        zero, negative_zero = (0.6, 0.0, 0.8), (0.6, -0.0, 0.8)
        calls = [
            (exact_moment_Z, MomentSpec(x, 0.1, 3)),
            (exact_moment_Z, MomentSpec(ulp, 0.1, 3)),
            (exact_moment_Z, MomentSpec(zero, 0.1, 3)),
            (exact_moment_Z, MomentSpec(negative_zero, 0.1, 3)),
            (check_majorization, MajorizationSpec(3, 2, 1, 2, x)),
            (check_majorization, MajorizationSpec(3, 2, 2, 2, x)),
            (check_majorization, MajorizationSpec(3, 3, 2, 2, x)),
        ]
        swept = [np.array(call(spec)).tobytes() for call, spec in calls]
        assert enumerations == [(3, 1, 1)] * 4 + [(3, 2, 1), (3, 2, 2), (3, 3, 2)]
        assert swept == [np.array(self.cold(call, spec)).tobytes() for call, spec in calls]

    def test_pass_of_several_blocks_enumerates_every_call(self, enumerations):
        for p in self.RATES:
            for q in range(2, 7):
                exact_moment_Z(MomentSpec(self.unit(12, 12), p, q))
        assert enumerations == [(12, 1, 1)] * 10
        assert oracle._kept_pass is None

    def test_pass_of_several_blocks_keeps_no_memory(self):
        spec = MomentSpec(self.unit(12, 12), 0.1, 4)
        exact_moment_Z(spec)  # the row tables, which ``_sign_patterns`` keeps for every later pass
        tracemalloc.start()
        try:
            exact_moment_Z(spec)
            grown = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert grown < 256 << 10
        assert oracle._kept_pass is None

    @pytest.mark.parametrize("n, m, s", [(n, 1, 1) for n in range(1, 9)] + [(2, 5, 3), (3, 3, 1), (4, 2, 2)])
    def test_kept_pass_is_one_block_of_read_only_arrays(self, n, m, s):
        """At most ``_CHUNK_ENTRIES`` / 16 values in four arrays, none of them writable."""
        x = np.array(self.unit(n + m, n))
        oracle._exact_sums("kept", x, m, s, 0.1, lambda z: z, True)
        key, block = oracle._kept_pass
        assert key == (x.tobytes(), m, s)
        assert len(block) == 4 and all(array.size <= transform._CHUNK_ENTRIES // 16 for array in block)
        for array in block:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


# Finite float64 values of every size: subnormals, both zeros and magnitudes from 1e-300 to 1e300,
# and full 53-bit integers over a narrow range of scales, whose sums need more than 53 bits and round.
finite_floats = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-1.0, 1.0), st.integers(-300, 300)),
    st.builds(math.ldexp, st.integers(-(2**53) + 1, 2**53 - 1), st.integers(-60, 60)),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.225073858507201e-308]),
)


class TestExactSum:
    """The exponent-bucket accumulator is ``math.fsum``, bit for bit, whatever the blocks."""

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.lists(finite_floats, max_size=200), st.integers(0, 200))
    def test_equals_fsum_bitwise(self, data, values, cancelled):
        # Negated copies of the first values cancel exactly.
        terms = data.draw(st.permutations(values + [-v for v in values[:cancelled]]))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(terms)), max_size=6)))
        acc = oracle._ExactSum()
        for block in np.split(np.array(terms, dtype=np.float64), cuts):
            acc.add(block)
        assert acc.total().hex() == math.fsum(terms).hex()

    def test_sum_just_above_a_tie(self):
        """2^53 + (1 + 2^-52) rounds up to 2^53 + 2, but 2^53 + 1 alone ties down to 2^53."""
        acc = oracle._ExactSum()
        acc.add(np.array([2.0**53, 1.0 + 2.0**-52]))
        assert acc.total() == 2.0**53 + 2

    def test_many_terms_in_one_bucket(self):
        """2^20 random significands of one exponent: each half's bucket total stays exact."""
        terms = np.random.default_rng(20).uniform(0.5, 1.0, 1 << 20)
        for blocks in (1, 7):
            acc = oracle._ExactSum()
            for block in np.array_split(terms, blocks):
                acc.add(block)
            assert acc.total().hex() == math.fsum(terms.tolist()).hex()

    def test_term_count_is_bounded(self, monkeypatch):
        """Past _MAX_TERMS terms a bucket total might not be exact, so the sum stops."""
        monkeypatch.setattr(oracle._ExactSum, "_MAX_TERMS", 10)
        acc = oracle._ExactSum()
        acc.add(np.ones(10))
        with pytest.raises(BudgetError, match="more than 10 terms"):
            acc.add(np.ones(1))


class TestPsiEnvelope:
    def test_default_scale_has_no_violations(self):
        for p in (1 / 100, 1 / 30):
            report = check_psi_envelope(p, grid_points=2000)
            assert report.ok
            assert report.max_violation < 0.0

    def test_small_scale_fails(self):
        report = check_psi_envelope(1 / 30, scale=4.0, grid_points=500)
        assert not report.ok
        assert report.violation_count == 500

    def test_grid_covers_closed_endpoint(self):
        report = check_psi_envelope(1 / 30, grid_points=100)
        assert report.grid_points == 100
        assert report.worst_t <= math.log(15.0) / 2.0

    @pytest.mark.parametrize("kwargs,match", [
        ({"scale": math.nan}, "scale"),
        ({"scale": math.inf}, "scale"),
        ({"scale": 0.0}, "scale"),
        ({"scale": -6.0}, "scale"),
        ({"grid_points": 0}, "grid_points"),
        ({"grid_points": 2.5}, "grid_points"),
        ({"grid_points": 10.0}, "grid_points"),
        ({"grid_points": True}, "grid_points"),
    ], ids=[  # ids fixed by case, so that a case keeps its name when others are added or removed
        "kwargs0-scale", "kwargs1-scale", "kwargs2-scale", "kwargs3-scale",
        "kwargs7-grid_points", "kwargs8-grid_points", "kwargs9-grid_points", "kwargs10-grid_points",
    ])
    def test_bad_arguments_are_rejected(self, kwargs, match):
        """A NaN or infinite scale used to certify ok with max_violation -inf."""
        with pytest.raises(DomainError, match=match):
            check_psi_envelope(1 / 30, **{"grid_points": 10, **kwargs})

    @pytest.mark.parametrize("points", [oracle.ENUMERATION_BUDGET + 1, 10**10])
    def test_grid_beyond_the_budget_is_budget_error(self, points):
        """At about 1 us a point, 10^10 points ran for hours."""
        with pytest.raises(BudgetError, match=f"grid_points = {points} > {oracle.ENUMERATION_BUDGET}"):
            check_psi_envelope(1 / 30, grid_points=points)

    @pytest.mark.parametrize("scale", [1000.0, 1e-300, 9.190606151180187e307],
                             ids=["overflows", "squared-underflows", "product-overflows"])
    def test_envelope_beyond_float_range_is_domain_error(self, scale):
        """The envelope at these scales ended in a bare OverflowError or ZeroDivisionError, and
        scale * t past the float range in a RuntimeWarning."""
        with pytest.raises(DomainError, match="envelope scale .* leaves the float range"):
            check_psi_envelope(1 / 30, scale=scale, grid_points=10)

    @staticmethod
    def point_loop(p, scale, grid_points):
        """(max_violation, worst_t, violation_count) from the public psi and the envelope, one point at a time."""
        t_max = math.log(1.0 / (2.0 * p)) / 2.0
        worst, worst_t, count = -math.inf, math.nan, 0
        for i in range(1, grid_points + 1):
            t = t_max * i / grid_points
            kt = scale * t
            violation = psi(t, p) - (math.expm1(kt) - kt - kt * kt / 2.0) * 2.0 / (scale * scale)
            if violation > worst:
                worst, worst_t = violation, t
            count += violation > oracle.PSI_ENVELOPE_SLACK
        return worst, worst_t, count

    @pytest.mark.parametrize("scale", [50.0, 8.0])
    @pytest.mark.parametrize("p", [1 / 100, 1 / 30])
    def test_array_grid_matches_point_loop(self, monkeypatch, p, scale):
        """Blocks of 4 points over 1000: at K = 50 the worst point is the first, at K = 8 it lies in a later block."""
        monkeypatch.setattr(transform, "_CHUNK_ENTRIES", 64)
        report = check_psi_envelope(p, scale, grid_points=1000)
        worst, worst_t, count = self.point_loop(p, scale, 1000)
        assert report.violation_count == count
        assert report.worst_t == worst_t
        assert report.max_violation == pytest.approx(worst, rel=1e-9)
        if scale == 8.0:
            assert 0 < count < 1000 and worst_t > 4 * math.log(1.0 / (2.0 * p)) / 2.0 / 1000

    def test_tie_keeps_the_earliest_t(self, monkeypatch):
        """psi made 1e300 from t = 1 on, far above the envelope's half ulp there: every such point
        ties, within a block and across the blocks that follow, and the first one is reported."""
        monkeypatch.setattr(transform, "_CHUNK_ENTRIES", 64)
        monkeypatch.setattr(oracle, "_psi", lambda t, p: np.where(t >= 1.0, 1e300, 0.0))
        report = check_psi_envelope(1 / 30, grid_points=1000)
        grid = [math.log(15.0) / 2.0 * i / 1000 for i in range(1, 1001)]
        tied = [t for t in grid if t >= 1.0]
        assert report.max_violation == 1e300
        assert report.worst_t == tied[0] and grid.index(tied[0]) % 4 != 0
        assert report.violation_count == len(tied)

    def test_float_range_error_names_the_first_t_without_a_warning(self):
        """The envelope at K = 1000 overflows from the sixth of ten points on (1000 t > 709)."""
        t = math.log(15.0) / 2.0 * 6 / 10
        message = f"envelope scale 1000.0 at p = {1 / 30!r}: the envelope leaves the float range at t = {t!r}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                check_psi_envelope(1 / 30, scale=1000.0, grid_points=10)
            with pytest.raises(DomainError, match=r"^psi at t = 150\.0, p = 1e-300 leaves the float range$"):
                psi(150.0, 1e-300)

    @pytest.mark.parametrize("scale, first", [
        (5.0, "psi at t = {}, p = 1e-300"),
        (6.0, "envelope scale 6.0 at p = 1e-300"),
    ])
    def test_first_overflow_decides_the_error(self, scale, first):
        """At p = 1e-300 psi's e^{6t} overflows from the fourth of ten points, t = 138; the envelope
        at K = 5 only from the fifth, and at K = 6 from the fourth too, where it is checked first."""
        t = math.log(1.0 / 2e-300) / 2.0 * 4 / 10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(first.format(repr(t)))) as info:
                check_psi_envelope(1e-300, scale=scale, grid_points=10)
        assert repr(t) in str(info.value)

    def test_grid_in_blocks_within_memory(self):
        """10^6 points run in blocks: one array of the grid alone would take 8 MB."""
        report, peak = traced_peak(lambda: check_psi_envelope(1 / 30, grid_points=10**6))
        assert report.ok and report.grid_points == 10**6
        assert peak <= PEAK_BYTES


class TestChernoffGrid:
    def test_hundred_point_lattice(self):
        points, residual = chernoff_residual_grid()
        assert points == 100
        assert residual <= 1e-12


class TestClopperPearson:
    def test_endpoint_conventions(self):
        low, high = clopper_pearson(0, 100)
        assert low == 0.0 and 0 < high < 1
        assert binom.cdf(0, 100, high) == pytest.approx(0.005, rel=1e-9)
        low, high = clopper_pearson(100, 100)
        assert high == 1.0 and 0 < low < 1
        assert binom.sf(99, 100, low) == pytest.approx(0.005, rel=1e-9)

    def test_inverts_binomial_cdf(self):
        """Endpoint p solves the defining binomial tail equations."""
        for k, n in [(3, 50), (17, 200), (1, 10)]:
            low, high = clopper_pearson(k, n)
            assert binom.sf(k - 1, n, low) == pytest.approx(0.005, rel=1e-9)
            assert binom.cdf(k, n, high) == pytest.approx(0.005, rel=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError):
            clopper_pearson(5, 4)

    def test_import_does_not_load_scipy_stats(self):
        """The interval needs one special function, not the whole scipy.stats package."""
        src = os.path.dirname(os.path.dirname(oracle.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        code = "import sys, sparsejl; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestMonteCarlo:
    def test_samples_match_build_apply_bitwise(self):
        x = np.full(8, 1 / math.sqrt(8.0))
        samples = squared_norm_samples(8, 16, 3, x, trials=6, seed=99)
        for t in range(6):
            matrix = build_matrix(8, 16, 3, streams.substream(99, t))
            y = apply(matrix, x)
            assert samples[t] == float((y * y).sum())

    def test_single_coordinate_never_fails(self):
        """n = 1 columns have unit norm, so |Ax|^2 = 1 up to roundoff."""
        report = estimate_failure_prob(1, 7, 3, np.array([1.0]), 0.1, 500, seed=4)
        assert report.failures == 0
        assert report.p_hat == 0.0
        assert report.ci_low == 0.0

    def test_enumerable_instance_matches_exact_probability(self):
        """n=2, m=2, s=1, uniform x: |Ax|^2 is 1 +- 1 when both columns pick
        the same row (probability 1/2) and exactly 1 otherwise, so the
        failure rate is 1/2 for eps < 1 and 0 for eps >= 1 (strict count)."""
        x = np.full(2, 1 / math.sqrt(2.0))
        report = estimate_failure_prob(2, 2, 1, x, eps=1.0, trials=2000, seed=6)
        assert report.failures == 0
        report = estimate_failure_prob(2, 2, 1, x, eps=0.5, trials=2000, seed=6)
        exact = 0.5
        se = math.sqrt(exact * (1 - exact) / report.trials)
        assert abs(report.p_hat - exact) <= 4.0 * se
        assert report.ci_low <= exact <= report.ci_high

    @pytest.mark.parametrize("m, s, eps", [
        (64, 8, 0.2), (64, 8, 0.3), (200, 20, 0.16), (1000, 30, 0.11), (2000, 40, 0.06), (8176, 273, 0.02),
    ])
    def test_row_sets_match_overlap_distribution(self, m, s, eps):
        """The exact failure probability at n = 2 lies in the 99% interval.

        It rests on the law of the set of rows each column takes, through
        the number of rows the two share.  Every eps lies off the atoms j/s.
        """
        x = np.full(2, 1 / math.sqrt(2.0))
        report = estimate_failure_prob(2, m, s, x, eps, trials=20000, seed=12345)
        exact = float(overlap_failure_prob(x[0], x[1], m, s, eps))
        assert report.ci_low <= exact <= report.ci_high

    def test_reproducible(self):
        x = np.full(4, 0.5)
        a = estimate_failure_prob(4, 8, 2, x, 0.3, 300, seed=123)
        b = estimate_failure_prob(4, 8, 2, x, 0.3, 300, seed=123)
        assert a == b
        assert isinstance(a, TrialReport)
        assert a.ci_low <= a.p_hat <= a.ci_high

    def test_chunking_does_not_change_results(self, monkeypatch):
        from sparsejl import transform as tr

        x = np.full(6, 1 / math.sqrt(6.0))
        full = squared_norm_samples(6, 12, 2, x, trials=40, seed=5)
        for entries in (5, 64):  # blocks of one trial and of five
            monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
            chunked = squared_norm_samples(6, 12, 2, x, trials=40, seed=5)
            assert np.array_equal(full, chunked)

    @pytest.mark.parametrize("n, m, s", [(1, 5, 2), (6, 12, 1), (5, 7, 7), (16, 40, 3)])
    # At each shape 1 gives blocks of one trial, 120 of several and 2^20 of all 30.
    @pytest.mark.parametrize("chunk", [1, 60, 120, 1 << 20])
    def test_matches_bincount_scatter(self, monkeypatch, n, m, s, chunk):
        """Blocks of 1 to all 30 trials give the scatter's samples bit for bit."""
        x = np.random.default_rng(n).standard_normal(n) * np.logspace(-2, 2, n)
        x /= math.sqrt(float(x @ x))
        expect = bincount_samples(n, m, s, x, 30, seed=11)
        monkeypatch.setattr(transform, "_CHUNK_ENTRIES", chunk)
        samples = squared_norm_samples(n, m, s, x, trials=30, seed=11)
        assert np.array_equal(samples.view(np.int64), expect.view(np.int64))

    def test_validation(self):
        x = np.full(4, 0.5)
        with pytest.raises(DomainError):
            squared_norm_samples(4, 8, 2, x, trials=0, seed=1)
        with pytest.raises(DomainError, match="^trials must be an integer in"):  # was numpy's ValueError
            squared_norm_samples(1, 4, 1, [1.0], 2**70, 0)
        with pytest.raises(ConstraintViolation):
            squared_norm_samples(4, 8, 2, np.ones(4), trials=3, seed=1)
        with pytest.raises(ConstraintViolation):
            estimate_failure_prob(4, 8, 2, np.full(4, math.nan), eps=0.1, trials=3, seed=1)
        for seed in (-1, 1 << 64):
            with pytest.raises(DomainError, match="seed"):
                squared_norm_samples(4, 8, 2, x, trials=3, seed=seed)
            with pytest.raises(DomainError, match="seed"):
                estimate_failure_prob(4, 8, 2, x, eps=0.1, trials=3, seed=seed)
        for eps in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                estimate_failure_prob(4, 8, 2, x, eps=eps, trials=3, seed=1)
