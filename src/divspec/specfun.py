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

