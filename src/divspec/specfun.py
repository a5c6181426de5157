"""Truncation orders, certified Bessel tail bounds and two Bessel recurrences.

:func:`series_order` sets the order ``N`` of every truncated series in the
package and :func:`truncation_order` its critical order ``N_D``; the
certified bounds :func:`bessel_abs_tail_bound` and
:func:`bessel_sq_tail_bound` cover the Bessel tails beyond ``N``.  The
package evaluates Bessel functions only here, by two backward recurrences
in plain Python: ``_bessel_j``, the ``J_0..J_n`` of a circle's or disk's
diagonal ``G``, and ``_bessel_i_ratios``, the ``I_k/I_0`` of the von Mises
PAS.  Neither numpy nor scipy is imported.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import mul

__all__ = [
    "truncation_order",
    "series_order",
    "bessel_abs_tail_bound",
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


#: Miller's recurrence rescales by ``2**-332`` when a value passes ``2**332``
#: (about ``1e100``), so that neither the values nor their squares overflow;
#: a power of two rescales exactly.
_MILLER_RESCALE = 2.0**332


def _bessel_j(n_max: int, z: float) -> list[float]:
    """``[J_0(z), ..., J_n_max(z)]`` at one ``z >= 0``; ``J_(-n) = (-1)**n * J_n``.

    Below ``z = 1e-8`` each ``J_n`` is ``(z/2)**n/n!`` to within
    ``(z/2)**2/(n+1) < 2**-53`` relative (exact at ``z = 0``).  Above it,
    Miller's backward recurrence ``f_(k-1) = (2k/z)*f_k - f_(k+1)`` (DLMF
    3.6(iii)) runs from ``f_(m+1) = 0``, ``f_m = 1``, with
    ``m = max(n_max, ceil(e*z/2)) + 40``: the package's ``N_D + 40``, so the
    start's error is below ``0.2*exp(-40)``.  The ``f_k`` are ``J_k`` times
    ``-(pi*z/2)*Y_(m+1)(z)``, positive since ``m + 1 > z``, and
    ``J_0**2 + 2*sum J_n**2 = 1`` (DLMF 10.23), a sum of positive terms,
    gives that factor.
    """
    z = float(z)
    if z < 1e-8:
        return list(accumulate(range(1, n_max + 1), lambda J, n: J * (0.5 * z) / n, initial=1.0))
    m = max(n_max, math.ceil(math.e * z / 2.0)) + 40
    J = [0.0] * (n_max + 1)
    above, f, squares = 0.0, 1.0, 0.0  # f_(k+1), f_k, sum f_k**2
    for k in range(m, 0, -1):
        if k <= n_max:
            J[k] = f
        squares += f * f
        above, f = f, 2.0 * k / z * f - above
        if f > _MILLER_RESCALE or f < -_MILLER_RESCALE:
            scale = 1.0 / _MILLER_RESCALE
            above, f, squares = above * scale, f * scale, squares * scale * scale
            J[k:] = [v * scale for v in J[k:]]
    norm = math.sqrt(f * f + 2.0 * squares)
    J[0] = f
    return [v / norm for v in J]


# log(2**-1075): below it a positive double rounds to zero
_LOG_UNDERFLOW = -1075.0 * math.log(2.0)


def _bessel_i_ratios(k_max: int, kappa: float) -> list[float]:
    """``s_k = I_k(kappa)/I_0(kappa)``, ``k = 0..K``, for ``0 <= kappa``; zero beyond ``K``.

    ``s_k`` is the product of ``r_j = I_j/I_(j-1)``, ``j = 1..k``, which the
    backward recurrence ``r_j = 1/(2j/kappa + r_(j+1))`` gives from
    ``r_(K+1) = 0``.  The start ``K = max(k_max, ceil(sqrt(80*kappa))) + 40``
    is lowered to the first order at which the bound
    ``s_k <= (kappa/2)**k/k!`` underflows, so that every ``s_k`` past the
    list rounds to zero.  Beyond ``sqrt(80*kappa)``, ``s_k < exp(-40)``, so
    ``1 + 2*sum s_k`` over the list is ``exp(kappa)/I_0(kappa)`` to within
    round-off.  A subnormal ``kappa`` makes ``2j/kappa`` infinite and every
    ``s_k``, ``k >= 1``, zero.
    """
    if kappa == 0.0:
        return [1.0]
    K = max(k_max, math.ceil(math.sqrt(80.0 * kappa))) + 40
    log_half = math.log(kappa) - math.log(2.0)  # kappa/2 underflows at the least subnormal
    log_bound = lambda k: k * log_half - math.lgamma(k + 1.0)  # noqa: E731
    # the bound's log is concave in k and 0 at k = 0: bisection keeps it
    # at or above the underflow at lo and below it at start
    lo, start = 0, K
    if log_bound(start) < _LOG_UNDERFLOW:
        while start - lo > 1:
            mid = (lo + start) // 2
            lo, start = (lo, mid) if log_bound(mid) < _LOG_UNDERFLOW else (mid, start)
    ratios = [0.0] * start
    r = 0.0
    for j in range(start, 0, -1):
        r = 1.0 / (2.0 * j / kappa + r)
        ratios[j - 1] = r
    return list(accumulate(ratios, mul, initial=1.0))
