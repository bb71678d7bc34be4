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
    bounds_table,
    bounds_to_csv,
    min_dimension,
)

P30 = 1.0 / 30.0


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

    @pytest.mark.parametrize("eps,p", [(1.07e-153, 3e-156), (1e-300, P30)],
                             ids=["bound-overflow", "eps-squared-underflow"])
    def test_bound_beyond_float_range_is_domain_error(self, eps, p):
        """4 log(2/delta)/(eps^2 h) overflowed to inf, and math.ceil(inf) raised OverflowError."""
        with pytest.raises(DomainError, match="leaves the float range"):
            min_dimension(PlanRequest(eps, 0.5, p))


class TestBoundsTable:
    def test_row_inventory(self):
        rows = bounds_table(0.05, 0.01, P30, B=4.0)
        assert [r.source for r in rows] == [
            "lower_bound_reference",
            "rademacher_chaos",
            "graph_enumeration_loglog",
            "graph_enumeration",
            "matrix_chernoff",
            "hanson_wright",
            "decoupling_explicit",
            BENNET_ROW,
        ]

    def test_bennet_row_matches_planner(self):
        rows = {r.source: r for r in bounds_table(0.05, 0.01, P30, B=4.0)}
        assert rows[BENNET_ROW].value == min_dimension(PlanRequest(0.05, 0.01, P30)).m_min
        assert rows[BENNET_ROW].valid

    def test_bound_beyond_float_range_marks_bennet_invalid(self):
        rows = {r.source: r for r in bounds_table(1.07e-153, 0.5, 3e-156, B=4.0)}
        assert not rows[BENNET_ROW].valid and math.isnan(rows[BENNET_ROW].value)

    def test_graph_enumeration_row(self):
        eps, delta, p = 0.05, 0.01, P30
        rows = {r.source: r for r in bounds_table(eps, delta, p, B=4.0)}
        l2 = math.log(2.0 / delta)
        expected = math.ceil(max(l2 / eps**2, l2 / (p * eps)))
        assert rows["graph_enumeration"].value == expected

    def test_explicit_constants_row(self):
        eps, delta, p = 0.05, 0.01, P30
        rows = {r.source: r for r in bounds_table(eps, delta, p, B=4.0)}
        expected = math.ceil(max(
            128.0 * math.log(1.0 / delta) / eps**2,
            8.0 * math.sqrt(2.0) * math.log(2.0 / delta) / (p * eps),
        ))
        assert rows["decoupling_explicit"].value == expected

    def test_better_constants_than_explicit_row(self):
        """In the eps = p regime the h-based row beats the explicit-constant row."""
        for delta in (1e-2, 1e-4):
            rows = {r.source: r for r in bounds_table(P30, delta, P30, B=4.0)}
            assert rows[BENNET_ROW].valid and rows["decoupling_explicit"].valid
            assert rows[BENNET_ROW].value <= rows["decoupling_explicit"].value

    def test_invalid_rows_marked_not_omitted(self):
        rows = {r.source: r for r in bounds_table(0.05, 0.01, 0.2, B=1.5)}
        assert not rows[BENNET_ROW].valid
        assert not rows["matrix_chernoff"].valid
        assert len(rows) == 8

    @pytest.mark.parametrize("name", ["p", "constant"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_must_be_positive_and_finite(self, name, value):
        """A NaN p once marked five rows valid; a NaN or negative constant printed nan or negative rows."""
        args = {"p": 0.01, "constant": 1.0, name: value}
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            bounds_table(0.1, 0.1, args["p"], B=math.e, constant=args["constant"])

    def test_underflowing_p_eps_marks_rows_invalid(self):
        """1/(p eps) with p eps = 0 ended in a bare ZeroDivisionError."""
        rows = bounds_table(0.02, 0.1, 5e-324, B=4.0)
        assert [r.source for r in rows if r.valid] == ["lower_bound_reference"]

    def test_constant_scaling(self):
        base = {r.source: r for r in bounds_table(0.05, 0.01, P30, B=4.0)}
        doubled = {r.source: r for r in bounds_table(0.05, 0.01, P30, B=4.0, constant=2.0)}
        raw = max(math.log(200.0) / 0.05**2, math.log(200.0) / (P30 * 0.05))
        assert doubled["graph_enumeration"].value == math.ceil(2.0 * raw)
        assert doubled["graph_enumeration"].constant == 2.0
        assert doubled["decoupling_explicit"].value == base["decoupling_explicit"].value
        assert doubled[BENNET_ROW].value == base[BENNET_ROW].value

    def test_loglog_row_needs_small_delta(self):
        """log log(2/delta) must be positive for the triple-log row, which
        fails once delta >= 2/e."""
        rows = {r.source: r for r in bounds_table(0.05, 0.9, P30, B=4.0)}
        assert not rows["graph_enumeration_loglog"].valid
        rows = {r.source: r for r in bounds_table(0.05, 0.01, P30, B=4.0)}
        assert rows["graph_enumeration_loglog"].valid

    def test_lower_reference_line(self):
        rows = {r.source: r for r in bounds_table(0.05, 0.01, P30, B=4.0)}
        assert rows["lower_bound_reference"].value == pytest.approx(
            4.0 * math.log(200.0) / 0.0025, rel=1e-14
        )

    def test_csv_serialization(self):
        rows = bounds_table(0.05, 0.01, P30, B=4.0)
        text = bounds_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "source,formula_value,constant,valid"
        assert len(lines) == 9
        assert lines[-1].startswith(BENNET_ROW)
