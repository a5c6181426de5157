"""Truncation orders and certified Bessel tail bounds.

:func:`series_order` sets the order ``N`` of every truncated series in the
package and :func:`truncation_order` its critical order ``N_D``; the
certified bounds :func:`bessel_abs_tail_bound` and
:func:`bessel_sq_tail_bound` cover the Bessel tails beyond ``N``.  The
package evaluates Bessel functions only through :mod:`scipy.special`: the
``J_0`` and ``J_1`` of the circle and disk transforms and the ``I_n/I_0``
of the von Mises PAS.
"""

from __future__ import annotations

import math

__all__ = [
    "DEFAULT_ORDER_MARGIN",
    "truncation_order",
    "series_order",
    "bessel_abs_tail_bound",
    "bessel_sq_tail_bound",
    "line_gauss_bound",
    "arc_gauss_bound",
]

#: Default truncation margin above the critical order.
DEFAULT_ORDER_MARGIN = 10


def truncation_order(r1: float) -> int:
    """Critical truncation order ``ceil(e * pi * r1)``.

    Beyond this order the Bessel tails over a disk of radius ``r1``
    (in wavelengths) decay at least exponentially; see
    :func:`bessel_abs_tail_bound` and :func:`bessel_sq_tail_bound`.
    """
    r1 = float(r1)
    if r1 < 0.0:
        raise ValueError("truncation_order requires r1 >= 0")
    return math.ceil(math.e * math.pi * r1)


def series_order(radius: float, N: int | None = None) -> tuple[int, int]:
    """``(N, N_D)`` for a Bessel series over arguments up to ``radius``.

    ``N`` defaults to ``N_D + DEFAULT_ORDER_MARGIN``; ``N`` below
    ``N_D = truncation_order(radius)``, where the tail bounds fail, is refused.
    """
    n_critical = truncation_order(radius)
    if N is None:
        return n_critical + DEFAULT_ORDER_MARGIN, n_critical
    N = int(N)
    if N < n_critical:
        raise ValueError(
            f"truncation order N={N} below the critical order N_D={n_critical} "
            f"for radius {radius}"
        )
    return N, n_critical


def bessel_abs_tail_bound(N: int, r1: float) -> float:
    """Certified bound on ``sum_{|n|>N} |J_n(2*pi*r)|`` for all ``r <= r1``.

    The bound is ``0.2 * exp(N_D - N)`` with ``N_D = truncation_order(r1)``;
    :func:`series_order` refuses ``N < N_D``.
    """
    N, n_critical = series_order(r1, N)
    return 0.2 * math.exp(n_critical - N)


def bessel_sq_tail_bound(N: int, r1: float) -> float:
    """Certified bound on ``sum_{|n|>N} J_n(2*pi*r)**2`` for all ``r <= r1``.

    The bound is ``0.01 * exp(2*(N_D - N))``; :func:`series_order`
    refuses ``N < N_D``.
    """
    N, n_critical = series_order(r1, N)
    return 0.01 * math.exp(2 * (n_critical - N))


def line_gauss_bound(q: int, length: float) -> float:
    """``4*sum_{k>=2q} (x/2)**k/k!``, ``x = 2*pi*length``: a line's ``q``-point Gauss error.

    A plane wave ``exp(j*w.x)``, ``|w| <= 4*pi``, along the line is ``exp(j*omega*s)``,
    ``|omega| <= x``, ``s`` in ``[-1, 1]``; its Chebyshev coefficients are
    ``2*j**k*J_k(omega)`` (Jacobi-Anger), ``|J_k| <= (x/2)**k/k!`` (DLMF 10.14.4),
    the rule is exact below ``T_{2q}`` and a mean of ``T_k`` is at most 1.  The
    terms fall by a ratio below 1/2 once ``k + 1 > x``; before, the trivial 2 is returned.
    """
    half, k = math.pi * length, 2 * q
    if half == 0.0:
        return 0.0
    if 2.0 * half >= k + 1:
        return 2.0
    log_term = k * math.log(half) - math.lgamma(k + 1)
    return min(2.0, 4.0 * math.exp(min(log_term, 0.0)) / (1.0 - half / (k + 1)))


def arc_gauss_bound(q: int, radius: float, span: float) -> float:
    """``(32/15)*M*rho**(-2q)/(rho**2 - 1)``: an arc's ``q``-point Gauss error.

    A plane wave along the arc is ``exp(j*z*cos(a + span*s/2))``, ``z <= 4*pi*radius``,
    at most ``M = exp(4*pi*radius*sinh(|span|*(rho - 1/rho)/4))`` on the Bernstein
    ellipse ``E_rho``: Trefethen, *Approximation Theory and Approximation Practice*
    (SIAM 2013), Thm 19.3, halved for a mean.  The bound's log is convex in
    ``t = log(rho)``; bisection on its slope's sign takes the minimum, capped at 2
    (0 for an arc of zero length, whose mean carries no weight).
    """
    b, z = abs(span) / 2.0, 4.0 * math.pi * radius
    if b * z == 0.0:
        return 0.0
    lo, hi = 0.0, min(700.0, math.asinh(700.0 / b))  # keeps b*sinh(t) <= 700, cosh finite
    for _ in range(64):
        t = 0.5 * (lo + hi)
        up = z * b * math.cosh(b * math.sinh(t)) * math.cosh(t) >= 2 * q - 2 / math.expm1(-2 * t)
        lo, hi = (lo, t) if up else (t, hi)
    log_bound = z * math.sinh(b * math.sinh(hi)) - (2 * q + 2) * hi - math.log(-math.expm1(-2 * hi))
    return min(2.0, 32.0 / 15.0 * math.exp(min(log_bound, 0.0)))
