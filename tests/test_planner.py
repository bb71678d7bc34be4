"""Planner checks: certified dimensions, constraints, and the bounds table.

Dimension references were computed with 40-digit mpmath evaluations of
the closed-form bound and frozen here.
"""

import math

import numpy as np
import pytest

from sparsejl import (
    BENNET_ROW,
    ConstraintViolation,
    DomainError,
    PlanRequest,
    TailEnvelope,
    bounds_table,
    certified_delta,
    min_dimension,
    sub_poisson_tail,
)

P30 = 1.0 / 30.0


def _grid_plans() -> list[PlanRequest]:
    """The 70 valid plans of eps in {0.01, ..., 0.08}, delta in {1e-6, ..., 0.5}, p in {1/30, ..., 0.001}."""
    plans = []
    for eps in (0.01, 0.02, 0.03, 0.05, 0.08):
        for delta in (1e-6, 1e-3, 0.01, 0.1, 0.5):
            for p in (P30, 0.02, 0.01, 0.005, 0.001):
                try:
                    plans.append(PlanRequest(eps, delta, p))
                except ConstraintViolation:
                    pass
    return plans


class TestPlanRequest:
    def test_sparsity_constraint_message(self):
        with pytest.raises(ConstraintViolation, match="p ⩽ 1/30"):
            PlanRequest(0.05, 0.01, 0.05)

    def test_validity_constraint_message(self):
        """eps just above p log(1/2p) = 0.0902683... must be rejected."""
        with pytest.raises(ConstraintViolation, match="ε ⩽ p log\\(1/2p\\)"):
            PlanRequest(0.0903, 0.01, P30)

    def test_validity_boundary_accepted(self):
        limit = P30 * math.log(15.0)
        assert limit == pytest.approx(0.090268340036740336, rel=1e-14)
        req = PlanRequest(limit, 0.01, P30)
        assert req.eps_limit >= req.eps

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            PlanRequest(1.5, 0.01, P30)
        with pytest.raises(DomainError):
            PlanRequest(0.05, 0.0, P30)


class TestMinDimension:
    def test_reference_instance(self):
        """Raw bound at (0.05, 0.01, 1/30) is 57841.7005...; ceil is 57842."""
        result = min_dimension(PlanRequest(0.05, 0.01, P30))
        assert result.m_min == 57842
        assert result.h_value == pytest.approx(0.14656048681217270582, rel=1e-13)
        assert result.gaussian_reference == pytest.approx(4 * math.log(200.0) / 0.0025, rel=1e-14)
        assert result.s_implied == round(P30 * 57842)
        assert result.slack == pytest.approx(P30 * math.log(15.0) - 0.05, rel=1e-12)

    def test_desk_scale_instance(self):
        """Raw bound at (0.08, 0.5, 1/30) is 8175.4777...; ceil is 8176."""
        result = min_dimension(PlanRequest(0.08, 0.5, P30))
        assert result.m_min == 8176
        assert result.s_implied == 273

    def test_never_beats_gaussian_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = float(rng.uniform(1e-3, P30))
            eps = float(rng.uniform(1e-4, 1.0) * p * math.log(1.0 / (2 * p)))
            delta = float(rng.uniform(1e-6, 0.9))
            result = min_dimension(PlanRequest(eps, delta, p))
            assert result.m_min >= result.gaussian_reference

    def test_algebraic_self_consistency(self):
        """m eps^2 / (4 log(2/delta)) recovers 1/h up to ceiling rounding."""
        for eps, delta, p in [(0.05, 0.01, P30), (0.01, 1e-4, 0.02), (0.002, 0.1, 0.005)]:
            result = min_dimension(PlanRequest(eps, delta, p))
            lhs = result.m_min * eps**2 / (4.0 * math.log(2.0 / delta))
            inv_h = 1.0 / result.h_value
            assert inv_h <= lhs <= inv_h + eps**2 / (4.0 * math.log(2.0 / delta)) + 1e-12

    def test_monotone_on_lattice(self):
        """Shrinking eps, delta, or p never shrinks the dimension."""
        eps_grid = [0.002, 0.005, 0.01, 0.02]
        delta_grid = [1e-4, 1e-3, 1e-2, 1e-1]
        p_grid = [0.005, 0.01, 0.02, P30]
        m = {}
        for eps in eps_grid:
            for delta in delta_grid:
                for p in p_grid:
                    m[eps, delta, p] = min_dimension(PlanRequest(eps, delta, p)).m_min
        for i, eps in enumerate(eps_grid):
            for j, delta in enumerate(delta_grid):
                for k, p in enumerate(p_grid):
                    if i:
                        assert m[eps_grid[i - 1], delta, p] >= m[eps, delta, p]
                    if j:
                        assert m[eps, delta_grid[j - 1], p] >= m[eps, delta, p]
                    if k:
                        assert m[eps, delta, p_grid[k - 1]] >= m[eps, delta, p]

    def test_optimality_limit(self):
        """Ratio to the reference tends to 1 as eps/p -> 0 (1.00830 at 1e-3)."""
        ratios = []
        for ratio_target in (1e-3, 1e-2, 1e-1):
            eps = P30 * ratio_target
            result = min_dimension(PlanRequest(eps, 0.01, P30))
            ratios.append(result.m_min / result.gaussian_reference)
        assert ratios[0] == pytest.approx(1.0082990102997653, rel=1e-10)
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[0] <= 1.01

    def test_implied_sparsity_floor(self):
        """p * m_min >= 4 log(2/delta) / (p log^2(1/2p)) > 11 on the whole
        valid domain, so s_implied is always a comfortable positive integer."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = float(rng.uniform(1e-4, P30))
            eps = float(rng.uniform(0.2, 1.0) * p * math.log(1.0 / (2 * p)))
            result = min_dimension(PlanRequest(eps, 0.999, p))
            assert result.s_implied >= 11

    @pytest.mark.parametrize("p", [P30, 1e-3, 1e-30, 1e-100, 1e-150])
    def test_implied_sparsity_floor_at_the_validity_limit(self, p):
        """At eps = p log(1/2p), the smallest p * m_min for its p, the floor still holds."""
        result = min_dimension(PlanRequest(PlanRequest(0.5 * p, 0.999, p).eps_limit, 0.999, p))
        assert result.s_implied >= 11

    def test_plan_is_the_sub_poisson_tail_inverted(self):
        """m_min is the least m whose two-sided sub-Poisson tail at deviation m p eps is at most delta.

        |Ax|^2 - 1 scaled by m p has the envelope v = 2 m p^2, k = 50, so the
        tail at m is 2 sub_poisson_tail(TailEnvelope(2 m p^2, 50), m p eps).
        Over the 70 valid plans of the grid the closest ratios to delta are
        0.99999985 at m_min and 1.0000003 at m_min - 1; no slack is allowed.
        """
        def tail(m, eps, p):
            return 2.0 * sub_poisson_tail(TailEnvelope(2.0 * m * p * p, 50.0), m * p * eps)

        plans = _grid_plans()
        for req in plans:
            m_min = min_dimension(req).m_min
            assert tail(m_min, req.eps, req.p) <= req.delta, req
            assert tail(m_min - 1, req.eps, req.p) > req.delta, req
        assert len(plans) == 70

    def test_reference_pairs_are_not_certified(self):
        """The README pair (57842, 1928) misses delta = 0.01 by 1e-6; the criterion-3 pair
        (8176, 273) has s/m = 0.033390 > 1/30, outside the theorem's domain."""
        readme = min_dimension(PlanRequest(0.05, 0.01, P30))
        assert readme.delta_implied == pytest.approx(0.0100010, abs=5e-8)
        assert not readme.certified
        desk = min_dimension(PlanRequest(0.08, 0.5, P30))
        assert desk.delta_implied == pytest.approx(0.49912, abs=5e-6) and desk.delta_implied <= 0.5
        assert not desk.certified

    def test_certified_over_the_grid(self):
        """certified is delta' <= delta with p' = s/m inside the theorem's domain; 42 of the 70
        grid plans print a pair that is not certified, 31 by delta' and 11 by p'."""
        over = outside = 0
        for req in _grid_plans():
            result = min_dimension(req)
            s, m = result.s_implied, result.m_min
            assert result.delta_implied == certified_delta(m, s, req.eps)
            assert result.delta_implied == pytest.approx(
                2.0 * sub_poisson_tail(TailEnvelope(2.0 * s * s / m, 50.0), s * req.eps), rel=1e-12)
            p = s / m
            in_domain = p <= P30 and req.eps <= p * math.log(1.0 / (2.0 * p))
            assert result.certified == (in_domain and result.delta_implied <= req.delta), req
            over += result.delta_implied > req.delta
            outside += result.delta_implied <= req.delta and not in_domain
        assert (over, outside) == (31, 11)

    def test_certified_delta_where_s_squared_overflows(self):
        """At eps = 2e-154, s_implied is about 4.6e306, so 2 s^2/m would overflow; v is 2 s (s/m)."""
        result = min_dimension(PlanRequest(2e-154, 0.5, P30))
        assert result.s_implied > 1e306
        assert 0.0 <= result.delta_implied <= 1.0

    def test_certified_delta_needs_s_at_most_m(self):
        with pytest.raises(DomainError, match=r"^s must be an integer in \[1, 100\], got 101$"):
            certified_delta(100, 101, 0.05)

    @pytest.mark.parametrize("eps,p", [(1.07e-153, 3e-156), (1e-300, P30)],
                             ids=["bound-overflow", "eps-squared-underflow"])
    def test_bound_beyond_float_range_is_domain_error(self, eps, p):
        """4 log(2/delta)/(eps^2 h) overflowed to inf, and math.ceil(inf) raised OverflowError."""
        with pytest.raises(DomainError, match="leaves the float range"):
            min_dimension(PlanRequest(eps, 0.5, p))


class TestBoundsTable:
    def test_row_inventory(self):
        rows = bounds_table(0.05, 0.01, P30)
        assert [r.source for r in rows] == ["gaussian_reference", "decoupling_explicit", BENNET_ROW]
        assert all(r.valid for r in rows)

    def test_bennet_row_matches_planner(self):
        rows = {r.source: r for r in bounds_table(0.05, 0.01, P30)}
        assert rows[BENNET_ROW].value == min_dimension(PlanRequest(0.05, 0.01, P30)).m_min
        assert rows[BENNET_ROW].valid

    def test_bound_beyond_float_range_marks_bennet_invalid(self):
        rows = {r.source: r for r in bounds_table(1.07e-153, 0.5, 3e-156)}
        assert not rows[BENNET_ROW].valid and math.isnan(rows[BENNET_ROW].value)

    def test_explicit_constants_row(self):
        eps, delta, p = 0.05, 0.01, P30
        rows = {r.source: r for r in bounds_table(eps, delta, p)}
        expected = math.ceil(max(
            128.0 * math.log(1.0 / delta) / eps**2,
            8.0 * math.sqrt(2.0) * math.log(2.0 / delta) / (p * eps),
        ))
        assert rows["decoupling_explicit"].value == expected

    def test_better_constants_than_explicit_row(self):
        """In the eps = p regime the h-based row beats the explicit-constant row."""
        for delta in (1e-2, 1e-4):
            rows = {r.source: r for r in bounds_table(P30, delta, P30)}
            assert rows[BENNET_ROW].valid and rows["decoupling_explicit"].valid
            assert rows[BENNET_ROW].value <= rows["decoupling_explicit"].value

    def test_invalid_rows_marked_not_omitted(self):
        rows = {r.source: r for r in bounds_table(0.05, 0.01, 0.2)}
        assert not rows[BENNET_ROW].valid
        assert len(rows) == 3

    @pytest.mark.parametrize("name", ["eps", "delta", "p"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_must_be_positive_and_finite(self, name, value):
        """A NaN p once marked five rows valid."""
        args = {"eps": 0.1, "delta": 0.1, "p": 0.01, name: value}
        with pytest.raises(DomainError, match=f"^{name} must be finite and in \\(0, 1"):
            bounds_table(**args)

    def test_p_above_one_is_domain_error(self):
        """A "fraction" of 5 marked the decoupling_explicit row valid at 235785."""
        with pytest.raises(DomainError, match=r"^p must be finite and in \(0, 1\], got 5.0$"):
            bounds_table(0.05, 0.01, 5.0)
        assert bounds_table(0.05, 0.01, 1.0)[1].valid

    def test_underflowing_p_eps_marks_rows_invalid(self):
        """1/(p eps) with p eps = 0 ended in a bare ZeroDivisionError."""
        rows = bounds_table(0.02, 0.1, 5e-324)
        assert [r.source for r in rows if r.valid] == ["gaussian_reference"]

    def test_gaussian_reference_row(self):
        """The row is the number ``plan`` prints as gaussian_reference, bit for bit, whatever p.

        At (0.03, 0.01) the table's old 4 log(2/delta) * (1/eps^2) was one ulp below it."""
        for eps, delta in [(0.05, 0.01), (0.08, 0.5), (0.03, 0.01)]:
            reference = min_dimension(PlanRequest(eps, delta, P30)).gaussian_reference
            assert reference == pytest.approx(4.0 * math.log(2.0 / delta) / eps**2, rel=1e-14)
            for p in (P30, 0.2):
                assert bounds_table(eps, delta, p)[0].value == reference
