"""Bennet-style tail machinery for sub-Poissonian concentration bounds.

The central object is the function ``h(u) = ((1+u)log(1+u) - u) / (u^2/2)``,
which interpolates Gaussian behaviour (h -> 1 as u -> 0) and Poissonian
behaviour (h ~ 2 log(u)/u as u -> oo).  A tail envelope with variance proxy
``v`` and scale ``k`` asserts ``log E e^{tX} <= v (e^{kt} - kt - 1) / k^2``;
optimizing the Chernoff bound under that envelope yields the tail

    P{X >= u} <= exp(-(u^2 / 2v) * h(k u / v)).

Also provided: the classical Poisson tail bound, and the piecewise upper
bound ``psi(t, p)`` on the reduced moment generating function of the
single-row projection error together with its scale-K envelope.  The
dimension bound is certified for one scale only, K = 50
(``DEFAULT_ENVELOPE_SCALE``), so the row-MGF bound ``mgf_envelope_bound``
fixes K at 50 and takes no scale argument.  Every real argument goes
through ``errors.check_real``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_real

#: Envelope scale used throughout; h(25 eps/p) in the dimension bound is
#: h(DEFAULT_ENVELOPE_SCALE * eps / (2 p)).
DEFAULT_ENVELOPE_SCALE = 50.0

#: Largest sparsity fraction for which the psi envelope is established.
MAX_SPARSITY = 1.0 / 30.0

_H_SERIES_CUTOFF = 1e-4
# From this u on, h divides by u rather than by u^2/2, since u * u
# overflows above about 1.3e154.
_H_LARGE_CUTOFF = 1e150
# Taylor coefficients of h at 0: h(u) = sum_j (-1)^j u^j / T_{j+1} with
# triangular numbers T_k = k(k+1)/2.  Eight terms keep the truncation error
# below 1e-17 for u <= 1e-2, well past the 1e-4 switch point.
_H_COEFFS = [1.0, -1 / 3, 1 / 6, -1 / 10, 1 / 15, -1 / 21, 1 / 28, -1 / 36]


def _bennet_h_series(u: float) -> float:
    acc = 0.0
    for c in reversed(_H_COEFFS):
        acc = acc * u + c
    return acc


def bennet_h(u: float) -> float:
    """Bennet function h(u) = ((1+u)log(1+u) - u) / (u^2/2).

    Strictly decreasing on (0, oo) with h(0+) = 1.  Below u = 1e-4 the
    closed form loses roughly 2*log10(1/u) digits to cancellation, so a
    Taylor series is used there instead.  From u = 1e150 on, where u^2
    nears the float range, it is evaluated as 2((1 + 1/u) log(1+u) - 1)/u.
    ``u`` must be finite.
    """
    u = check_real("u", u, 0.0, math.inf, low_open=False)
    if u < _H_SERIES_CUTOFF:
        return _bennet_h_series(u)
    if u >= _H_LARGE_CUTOFF:
        return 2.0 * ((1.0 + 1.0 / u) * math.log1p(u) - 1.0) / u
    return ((1.0 + u) * math.log1p(u) - u) / (u * u / 2.0)


def poisson_tail_bound(lam: float, eps: float) -> float:
    """Chernoff bound e^{-lam} (e lam / eps)^eps on P{Poiss(lam) >= eps}.

    Dominates the exact upper tail for eps >= lam; the returned value is
    clamped to [0, 1] (the raw bound is vacuous for eps < lam).
    """
    lam = check_real("lam", lam, 0.0, math.inf)
    eps = check_real("eps", eps, 0.0, math.inf)
    log_bound = -lam + eps * (1.0 + math.log(lam) - math.log(eps))
    return min(1.0, math.exp(log_bound))


def psi(t: float, p: float) -> float:
    """Piecewise envelope on the reduced MGF remainder of one projection row.

    For 0 < t < 1/2:
        e^{4t} - 8t^2 - 4t - 1 + 8 e^3 p t^3 / (1 - 2 e p t)
    For 1/2 <= t < log(1/p)/2:
        e^{4t} - 8t^2 - 4t - 1 + p e^{6t} / (1 - p e^{2t})

    ``p`` must lie in (0, 1/30] and ``t`` in the open interval
    (0, log(1/p)/2); both branch denominators are then strictly positive.
    The shared cubic part is evaluated as expm1(4t) - 4t - 8t^2 so that
    psi(t, p) = O(t^3) survives in floating point as t -> 0.  Where e^{6t}
    leaves the float range (p below about 2e-103) it raises ``DomainError``.
    """
    p = check_real("sparsity fraction p", p, 0.0, MAX_SPARSITY, high_open=False)
    return float(_psi(check_real("t", t, 0.0, math.log(1.0 / p) / 2.0), p))


def _psi(t, p: float) -> np.ndarray:
    """:func:`psi` at every element of ``t`` (a float or float64 array), for values its checks have passed.

    Both branches are formed with numpy's ``expm1``, ``exp`` and ``pow`` at
    every element, and each element takes the one its t selects.  A value
    that leaves the float range raises ``DomainError`` naming the first
    such t, never a ``RuntimeWarning``.
    """
    t = np.asarray(t, dtype=np.float64)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        base = np.expm1(4.0 * t) - 4.0 * t - 8.0 * t * t
        small = 8.0 * math.exp(3.0) * p * t**3 / (1.0 - 2.0 * math.e * p * t)
        large = p * np.exp(6.0 * t) / (1.0 - p * np.exp(2.0 * t))
        value = base + np.where(t < 0.5, small, large)
    bad = ~np.isfinite(value)
    if bad.any():
        raise DomainError(f"psi at t = {float(t.flat[bad.argmax()])!r}, p = {p!r} leaves the float range")
    return value


def mgf_envelope_bound(t: float, p: float) -> float:
    """Upper bound 1 + 2 p^2 (e^{Kt} - Kt - 1) / K^2 on the row MGF.

    K is fixed at ``DEFAULT_ENVELOPE_SCALE`` = 50, the scale the dimension
    bound is certified for.  Valid for 0 < t <= log(1/(2p))/2 and
    p <= 1/30; always >= 1.  Where e^{Kt} leaves the float range (p below
    about 2e-13) it raises ``DomainError``.
    """
    p = check_real("sparsity fraction p", p, 0.0, MAX_SPARSITY, high_open=False)
    t = check_real("t", t, 0.0, math.log(1.0 / (2.0 * p)) / 2.0, high_open=False)
    k = DEFAULT_ENVELOPE_SCALE
    kt = k * t
    try:
        return 1.0 + 2.0 * p * p * (math.expm1(kt) - kt) / (k * k)
    except OverflowError:
        raise DomainError(f"mgf_envelope_bound at t = {t!r}, p = {p!r} leaves the float range") from None


@dataclass(frozen=True)
class TailEnvelope:
    """MGF envelope log E e^{tX} <= v (e^{kt} - kt - 1) / k^2.

    ``v`` is the variance proxy (2 m p^2 for an m-row projection) and ``k``
    the envelope scale; both must be finite.
    """

    v: float
    k: float

    def __post_init__(self):
        object.__setattr__(self, "v", check_real("variance proxy v", self.v, 0.0, math.inf, low_open=False))
        object.__setattr__(self, "k", check_real("envelope scale k", self.k, 0.0, math.inf))


def _range_error(env: TailEnvelope, u: float) -> DomainError:
    return DomainError(f"the Chernoff exponent at v = {env.v!r}, k = {env.k!r}, u = {u!r} leaves the float range")


def _chernoff_exponent(env: TailEnvelope, u: float) -> float:
    """-(u^2/2v) h(ku/v), the optimized Chernoff exponent under ``env`` (v > 0) at ``u``.

    u^2/2v is (u * u) / 2v unless u * u or 2v overflows (u above about
    1.3e154, v above about 9e307); then it is (u / v / 2) * u, which stays
    finite as long as u^2/2v does.
    """
    ratio = env.k * u / env.v
    if ratio == math.inf:
        raise _range_error(env, u)
    square, twice = u * u, 2.0 * env.v
    gauss = square / twice if max(square, twice) < math.inf else u / env.v / 2.0 * u
    return -gauss * bennet_h(ratio)


def sub_poisson_tail(env: TailEnvelope, u: float) -> float:
    """Optimized Chernoff tail exp(-(u^2/2v) h(ku/v)) under ``env``.

    Coincides with the Gaussian bound exp(-u^2/2v) as ku/v -> 0.  A zero
    variance proxy is the point mass at 0, so the tail is 0 for u > 0.
    Where ku/v leaves the float range it raises ``DomainError``.
    """
    u = check_real("u", u, 0.0, math.inf)
    if env.v == 0.0:
        return 0.0
    return min(1.0, math.exp(_chernoff_exponent(env, u)))


def chernoff_optimum_check(env: TailEnvelope, u: float) -> float:
    """Residual between the optimized Chernoff exponent and its closed form.

    Evaluates the envelope exponent at the optimizer t* = log(1 + ku/v)/k
    and returns |(v (e^{kt*} - kt* - 1)/k^2 - t* u) - (-(u^2/2v) h(ku/v))|.
    Both routes describe the same quantity, so the residual is a pure
    floating-point check (<= 1e-12 for well-scaled inputs).  Where ku/v,
    u^2/2v or an intermediate of the optimizer route (k^2, e^{kt*}) leaves
    the float range it raises ``DomainError``.
    """
    u = check_real("u", u, 0.0, math.inf)
    if env.v == 0.0:
        raise DomainError("chernoff_optimum_check requires a positive variance proxy")
    closed_form = _chernoff_exponent(env, u)
    if closed_form == -math.inf:
        raise _range_error(env, u)
    v, k = env.v, env.k
    try:
        t_star = math.log1p(k * u / v) / k
        optimized = v * (math.expm1(k * t_star) - k * t_star) / (k * k) - t_star * u
    except (OverflowError, ZeroDivisionError):
        raise _range_error(env, u) from None
    return abs(optimized - closed_form)
