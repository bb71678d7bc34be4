"""Embedding-dimension planning for sparse random projections.

Given a distortion ``eps``, failure probability ``delta`` and sparsity
fraction ``p``, the certified minimal embedding dimension is

    m  >=  (4 log(2/delta) / eps^2) * h(25 eps / p)^{-1},

valid for p <= 1/30 and eps <= p log(1/(2p)).  Since h <= 1 this never
beats the optimal dense-projection reference 4 log(2/delta)/eps^2, and it
approaches it as eps/p -> 0.  The plan also reports the package's own
failure bound for the pair (m, s) it prints, and whether that pair is
certified.  A table sets the bound beside the Gaussian reference and a
published bound with explicit constants.  Every real argument goes
through ``errors.check_real``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .concentration import DEFAULT_ENVELOPE_SCALE, MAX_SPARSITY, TailEnvelope, bennet_h, sub_poisson_tail
from .errors import ConstraintViolation, DomainError, check_int, check_real

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
    delta_implied: float
    certified: bool


def _gaussian_reference(eps: float, delta: float) -> float:
    """4 log(2/delta)/eps^2, infinite where eps^2 underflows to 0."""
    eps_sq = eps * eps
    return 4.0 * math.log(2.0 / delta) / eps_sq if eps_sq else math.inf


def certified_delta(m: int, s: int, eps: float) -> float:
    """The package's bound on P{| |Ax|^2 - 1 | > eps} for m rows and s nonzeros a column.

    That is 2 sub_poisson_tail(TailEnvelope(2 s^2/m, 50), s eps), the
    two-sided tail that ``min_dimension`` inverts, at p = s/m; v is formed as
    2 s (s/m), finite where s^2 is not.  It is a certificate only where
    ``PlanRequest`` accepts p = s/m.  Requires 1 <= s <= m and 0 < eps < 1.
    """
    m = check_int("m", m, 1)
    s = check_int("s", s, 1, m)
    eps = check_real("eps", eps, 0.0, 1.0)
    return 2.0 * sub_poisson_tail(TailEnvelope(2.0 * s * (s / m), DEFAULT_ENVELOPE_SCALE), s * eps)


def min_dimension(req: PlanRequest) -> PlanResult:
    """Minimal certified embedding dimension for ``req``.

    Returns ceil((4 log(2/delta)/eps^2) / h(K eps / 2p)) with K fixed at
    ``DEFAULT_ENVELOPE_SCALE`` = 50, the only scale the bound is certified
    for, together with the h value, the eps/p -> 0 Gaussian reference
    4 log(2/delta)/eps^2, the slack in the validity constraint, and the
    implied per-column sparsity round(p * m), at least 11 on the valid domain.
    ``delta_implied`` is ``certified_delta`` of the printed pair (m_min,
    s_implied), which need not be at most delta since s_implied/m_min is
    not p; ``certified`` is true when it is and ``PlanRequest`` accepts
    p = s_implied/m_min.  Raises ``DomainError`` where
    4 log(2/delta)/(eps^2 h) leaves the float range.
    """
    h_value = bennet_h(DEFAULT_ENVELOPE_SCALE * req.eps / (2.0 * req.p))
    gaussian_reference = _gaussian_reference(req.eps, req.delta)
    bound = gaussian_reference / h_value
    if not math.isfinite(bound):
        raise DomainError(
            f"eps = {req.eps}, p = {req.p}: 4 log(2/delta)/(eps^2 h) leaves the float range"
        )
    m_min = math.ceil(bound)
    s_implied = round(req.p * m_min)
    delta_implied = certified_delta(m_min, s_implied, req.eps)
    try:
        PlanRequest(req.eps, req.delta, s_implied / m_min)
    except ConstraintViolation:
        certified = False
    else:
        certified = delta_implied <= req.delta
    return PlanResult(
        m_min=m_min,
        h_value=h_value,
        gaussian_reference=gaussian_reference,
        slack=req.eps_limit - req.eps,
        s_implied=s_implied,
        delta_implied=delta_implied,
        certified=certified,
    )


@dataclass(frozen=True)
class BoundsRow:
    """One evaluated dimension bound: label, value, and whether the value is finite."""

    source: str
    value: float
    valid: bool


def bounds_table(eps: float, delta: float, p: float) -> list[BoundsRow]:
    """The dimension bounds the package can compute, side by side, for a fraction p in (0, 1].

    Three rows, in this order: ``gaussian_reference``, 4 log(2/delta)/eps^2
    as ``min_dimension`` reports it; ``decoupling_explicit``,
    ceil(max(128 log(1/delta)/eps^2, 8 sqrt(2) log(2/delta)/(p eps))), whose
    constants are published; and ``bennet``, this package's ``m_min``.  A
    row is valid when its value is finite: an invalid one (``bennet``
    outside the planner's constraints, a value past the float range) is
    marked, not omitted.
    ``gaussian_reference`` is the lower bound's asymptotic constant (as
    eps -> 0), not a lower bound at finite eps: the smallest m with
    P{|chi^2_m/m - 1| > eps} <= delta, the exact Gaussian dimension, is
    5310 against 8477 at (eps, delta) = (0.05, 0.01) and 142 against 866
    at (0.08, 0.5).
    """
    eps = check_real("eps", eps, 0.0, 1.0)
    delta = check_real("delta", delta, 0.0, 1.0)
    p = check_real("p", p, 0.0, 1.0, high_open=False)

    inv_eps2 = 1.0 / (eps * eps) if eps * eps else math.inf  # eps^2 may underflow to 0
    inv_peps = 1.0 / (p * eps) if p * eps else math.inf  # so may p * eps
    explicit = max(128.0 * math.log(1.0 / delta) * inv_eps2, 8.0 * math.sqrt(2.0) * math.log(2.0 / delta) * inv_peps)
    try:
        m_min = float(min_dimension(PlanRequest(eps, delta, p)).m_min)
    except (ConstraintViolation, DomainError):
        m_min = math.nan
    values = {
        "gaussian_reference": _gaussian_reference(eps, delta),
        "decoupling_explicit": float(math.ceil(explicit)) if math.isfinite(explicit) else explicit,
        BENNET_ROW: m_min,
    }
    return [BoundsRow(source, value, math.isfinite(value)) for source, value in values.items()]
