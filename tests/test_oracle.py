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
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
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

    def test_matches_per_mask_loop(self):
        rng = np.random.default_rng(31)
        for n in range(1, 9):
            for x in (np.full(n, 1 / math.sqrt(n)), rng.standard_normal(n)):
                x = tuple(x / math.sqrt(float(x @ x)))
                for p in (1 / 30, 0.1, 0.5):
                    for q in range(1, 7):
                        assert_matches_loop(exact_moment_Z(MomentSpec(x, p, q)), loop_moment(x, p, q))
        # Past eight cells numpy's pairwise sum no longer adds T in cell order, and the
        # row splits into patterns of its first cells and classes of its last eight.
        for n in range(9, 12):
            for x in (np.full(n, 1 / math.sqrt(n)), rng.standard_normal(n)):
                x = tuple(x / math.sqrt(float(x @ x)))
                for q in (2, 3, 6):
                    assert_matches_loop(exact_moment_Z(MomentSpec(x, 0.1, q)), loop_moment(x, 0.1, q))

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

    def test_block_size_does_not_change_results(self, monkeypatch):
        from sparsejl import transform as tr

        x3 = (0.6, 0.0, 0.8)
        x = (0.5, -0.5, 0.1, math.sqrt(0.49))
        full = [check_majorization(MajorizationSpec(3, 3, 2, 4, x3)), exact_moment_Z(MomentSpec(x, 0.1, 5))]
        for entries in (1, 7, 100):
            monkeypatch.setattr(tr, "_CHUNK_ENTRIES", entries)
            assert [check_majorization(MajorizationSpec(3, 3, 2, 4, x3)), exact_moment_Z(MomentSpec(x, 0.1, 5))] == full

    @pytest.mark.parametrize("n, m, s, entries", [
        (9, 1, 1, None), (10, 1, 1, None), (11, 1, 1, None), (12, 1, 1, None),
        (2, 3, 2, None), (3, 4, 2, None), (4, 3, 1, None),
        # Tails of one cell, so that the rows of these grids have a head too.
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

    @pytest.mark.parametrize("n, m, s, x", [(4, 3, 2, (0.5, -0.5, 0.1, math.sqrt(0.49))), (3, 4, 2, (0.6, 0.0, 0.8))])
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

    def test_validation(self):
        with pytest.raises(DomainError):
            MajorizationSpec(2, 2, 1, 3, (1.0, 0.0))  # odd q
        with pytest.raises(DomainError):
            MajorizationSpec(2, 6, 1, 2, (1.0, 0.0))  # m too large
        with pytest.raises(ConstraintViolation, match="unit"):
            MajorizationSpec(2, 2, 1, 2, (math.nan, math.nan))


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


    @pytest.mark.parametrize("scale", [1000.0, 1e-300], ids=["overflows", "squared-underflows"])
    def test_envelope_beyond_float_range_is_domain_error(self, scale):
        """The envelope at these scales ended in a bare OverflowError or ZeroDivisionError."""
        with pytest.raises(DomainError, match="envelope scale .* leaves the float range"):
            check_psi_envelope(1 / 30, scale=scale, grid_points=10)


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
