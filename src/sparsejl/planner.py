"""Embedding-dimension planning for sparse random projections.

Given a distortion ``eps``, failure probability ``delta`` and sparsity
fraction ``p``, the certified minimal embedding dimension is

    m  >=  (4 log(2/delta) / eps^2) * h(25 eps / p)^{-1},

valid for p <= 1/30 and eps <= p log(1/(2p)).  Since h <= 1 this never
beats the optimal dense-projection reference 4 log(2/delta)/eps^2, and it
approaches it as eps/p -> 0.  A comparison table of published alternative
bounds (evaluated with configurable leading constants where only an
unspecified constant is known) is also provided.  Every real argument goes
through ``errors.check_real``.
"""

from __future__ import annotations

import io
import csv
import math
from dataclasses import dataclass

from .concentration import DEFAULT_ENVELOPE_SCALE, MAX_SPARSITY, bennet_h
from .errors import ConstraintViolation, DomainError, check_real

#: Row label under which this package's own bound appears in the table.
BENNET_ROW = "bennet"


@dataclass(frozen=True)
class PlanRequest:
    """Validated (eps, delta, p) planning request.

    Requires 0 < eps < 1, 0 < delta < 1, 0 < p <= 1/30 and the validity
    constraint eps <= p log(1/(2p)); the three are kept as floats.
    """

    eps: float
    delta: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "eps", check_real("eps", self.eps, 0.0, 1.0))
        object.__setattr__(self, "delta", check_real("delta", self.delta, 0.0, 1.0))
        p = check_real("p (sparsity constraint p ⩽ 1/30)", self.p, 0.0, MAX_SPARSITY,
                       high_open=False, error=ConstraintViolation)
        object.__setattr__(self, "p", p)
        if self.eps > self.eps_limit:
            raise ConstraintViolation(
                f"validity constraint ε ⩽ p log(1/2p) violated: "
                f"eps = {self.eps} > {self.eps_limit:.6g}"
            )

    @property
    def eps_limit(self) -> float:
        return self.p * math.log(1.0 / (2.0 * self.p))


@dataclass(frozen=True)
class PlanResult:
    """Planner output: certified dimension plus diagnostics."""

    m_min: int
    h_value: float
    gaussian_reference: float
    slack: float
    s_implied: int


def min_dimension(req: PlanRequest) -> PlanResult:
    """Minimal certified embedding dimension for ``req``.

    Returns ceil((4 log(2/delta)/eps^2) / h(K eps / 2p)) with K fixed at
    ``DEFAULT_ENVELOPE_SCALE`` = 50, the only scale the bound is certified
    for, together with the h value, the eps/p -> 0 Gaussian reference
    4 log(2/delta)/eps^2, the slack in the validity constraint, and the
    implied per-column sparsity round(p * m), at least 11 on the valid domain.
    Raises ``DomainError`` where 4 log(2/delta)/(eps^2 h) leaves the float range.
    """
    h_value = bennet_h(DEFAULT_ENVELOPE_SCALE * req.eps / (2.0 * req.p))
    eps_sq = req.eps * req.eps
    gaussian_reference = 4.0 * math.log(2.0 / req.delta) / eps_sq if eps_sq else math.inf
    bound = gaussian_reference / h_value
    if not math.isfinite(bound):
        raise DomainError(
            f"eps = {req.eps}, p = {req.p}: 4 log(2/delta)/(eps^2 h) leaves the float range"
        )
    m_min = math.ceil(bound)
    return PlanResult(
        m_min=m_min,
        h_value=h_value,
        gaussian_reference=gaussian_reference,
        slack=req.eps_limit - req.eps,
        s_implied=round(req.p * m_min),
    )


@dataclass(frozen=True)
class BoundsRow:
    """One evaluated dimension bound: label, value, constant used, validity."""

    source: str
    value: float
    constant: float
    valid: bool


def _row(source: str, raw: float, constant: float, valid: bool, ceil: bool = True) -> BoundsRow:
    if not (math.isfinite(raw) and raw > 0):
        valid = False
    value = float(math.ceil(raw)) if (ceil and math.isfinite(raw)) else raw
    return BoundsRow(source=source, value=value, constant=constant, valid=valid)


def bounds_table(
    eps: float, delta: float, p: float, B: float, constant: float = 1.0
) -> list[BoundsRow]:
    """Published dimension bounds evaluated side by side.

    A finite ``constant`` > 0 replaces the unspecified leading constants; rows with
    explicit published constants ignore it.  ``B`` must be finite.  Rows
    whose preconditions fail (the B > 2 requirement, this package's p and
    eps constraints, or inner logarithms leaving their domain) are marked
    invalid rather than omitted.  The two published lower bounds are rendered as the single
    optimal-dimension reference line 4 log(2/delta)/eps^2, ``lower_bound_reference``.  That
    is the lower bound's asymptotic constant (as eps -> 0), not a lower bound at finite eps:
    the smallest m with P{|chi^2_m/m - 1| > eps} <= delta, the exact Gaussian dimension, is
    5310 against 8477 at (eps, delta) = (0.05, 0.01) and 142 against 866 at (0.08, 0.5).
    """
    eps = check_real("eps", eps, 0.0, 1.0)
    delta = check_real("delta", delta, 0.0, 1.0)
    p = check_real("p", p, 0.0, math.inf)
    B = check_real("B", B, -math.inf, math.inf)
    constant = check_real("constant", constant, 0.0, math.inf)

    l2 = math.log(2.0 / delta)
    l1 = math.log(1.0 / delta)
    inv_eps2 = 1.0 / (eps * eps) if eps * eps else math.inf  # eps^2 may underflow to 0
    inv_peps = 1.0 / (p * eps) if p * eps else math.inf  # so may p * eps
    rows: list[BoundsRow] = []

    rows.append(_row("lower_bound_reference", 4.0 * l2 * inv_eps2, 1.0, True, ceil=False))
    rows.append(_row("rademacher_chaos", constant * max(l2 * inv_eps2, l2 * l2 * inv_peps), constant, True))

    # The triple-log refinement needs log log(2/delta) > 0 to evaluate.
    ll2 = math.log(l2) if l2 > 0 else math.nan
    if ll2 > 0:
        refine = l1 * l1 * (math.log(ll2) / ll2) * inv_peps
    else:
        refine = math.nan
    rows.append(_row("graph_enumeration_loglog", constant * max(l2 * inv_eps2, refine)
                     if math.isfinite(refine) else math.nan, constant, math.isfinite(refine)))

    rows.append(_row("graph_enumeration", constant * max(l2 * inv_eps2, l2 * inv_peps), constant, True))

    if B > 2.0:
        chernoff = constant * max(B * l2 * inv_eps2, (l2 / math.log(B)) * inv_peps)
        rows.append(_row("matrix_chernoff", chernoff, constant, True))
    else:
        rows.append(BoundsRow("matrix_chernoff", math.nan, constant, False))

    rows.append(_row("hanson_wright", constant * max(l2 * inv_eps2, l2 * inv_peps), constant, True))
    rows.append(_row("decoupling_explicit",
                     max(128.0 * l1 * inv_eps2, 8.0 * math.sqrt(2.0) * l2 * inv_peps), 1.0, True))

    try:
        result = min_dimension(PlanRequest(eps, delta, p))
        rows.append(BoundsRow(BENNET_ROW, float(result.m_min), 1.0, True))
    except (ConstraintViolation, DomainError):
        rows.append(BoundsRow(BENNET_ROW, math.nan, 1.0, False))
    return rows


def bounds_to_csv(rows: list[BoundsRow]) -> str:
    """Serialize table rows as CSV with columns source,formula_value,constant,valid."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source", "formula_value", "constant", "valid"])
    for row in rows:
        writer.writerow([row.source, repr(row.value), repr(row.constant), row.valid])
    return buf.getvalue()
