"""Integer-order Bessel functions and exponential tail bounds.

This module is the numerical bedrock of the library: everything else
(basis functions, correlation kernels, time autocorrelations) reduces to
evaluations of J_n and to the tail estimates provided here.
:func:`series_order` sets the order of every Bessel series in the package.

Evaluation is delegated to scipy's vetted series/asymptotic hybrid; the
contract enforced by the test suite is a relative accuracy of 1e-12
wherever ``|J_n(x)| > 1e-300``.  Negative orders are always computed from
the non-negative branch via ``J_{-n}(x) = (-1)^n J_n(x)`` so that the
reflection identity holds bit-exactly.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

__all__ = [
    "bessel_j",
    "bessel_j_orders",
    "bessel_i_ratio",
    "DEFAULT_ORDER_MARGIN",
    "truncation_order",
    "series_order",
    "bessel_abs_tail_bound",
    "bessel_sq_tail_bound",
    "bessel_abs_tail",
    "bessel_sq_tail",
]

#: Default truncation margin above the critical order.
DEFAULT_ORDER_MARGIN = 10

#: Tail summations stop once this many consecutive terms fall below
#: ``_TAIL_TERM_FLOOR``.
_TAIL_QUIET_ORDERS = 20
_TAIL_TERM_FLOOR = 1e-18


def bessel_j(n: int, x):
    """Bessel function of the first kind of integer order.

    Parameters
    ----------
    n : int
        Order, may be negative.
    x : float or ndarray
        Argument(s), must be non-negative.

    Returns
    -------
    float or ndarray
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("bessel_j requires a non-negative argument")
    n = int(n)
    value = special.jv(abs(n), x)
    if n < 0 and n % 2 != 0:
        value = -value
    return float(value) if np.ndim(value) == 0 else value


def bessel_j_orders(n_max: int, x) -> np.ndarray:
    """Evaluate all orders ``-n_max..n_max`` at once.

    Returns an array of shape ``(len(x), 2*n_max + 1)`` whose column ``i``
    holds ``J_{i - n_max}(x)``.  Duplicate arguments are collapsed before
    calling into scipy when that pays off, which makes grids with repeated
    radii (circles, polar grids) essentially free.  The result is computed
    order-by-order in row-major blocks so large point sets stay cache
    friendly; callers receive a transposed view.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 0.0):
        raise ValueError("bessel_j_orders requires non-negative arguments")
    n_max = int(n_max)
    if n_max < 0:
        raise ValueError("n_max must be non-negative")
    unique, inverse = np.unique(x, return_inverse=True)
    orders = np.arange(0, n_max + 1)
    if unique.size <= x.size // 2:
        pos = special.jv(orders[:, None], unique[None, :])[:, inverse]
    else:
        pos = special.jv(orders[:, None], x[None, :])
    out = np.empty((2 * n_max + 1, x.size))
    out[n_max:, :] = pos
    for n in range(1, n_max + 1):
        out[n_max - n, :] = pos[n] if n % 2 == 0 else -pos[n]
    return out.T


def bessel_i_ratio(n: int, kappa: float) -> float:
    """Ratio ``I_n(kappa) / I_0(kappa)`` of modified Bessel functions.

    Evaluated through exponentially scaled functions, so it stays finite
    for arbitrarily large ``kappa``.  The result lies in ``[0, 1]`` and
    decreases with ``|n|`` for fixed ``kappa``.
    """
    kappa = np.asarray(kappa, dtype=float)
    if np.any(kappa < 0.0):
        raise ValueError("bessel_i_ratio requires kappa >= 0")
    n = np.abs(np.asarray(n, dtype=int))
    value = special.ive(n, kappa) / special.ive(0, kappa)
    return float(value) if np.ndim(value) == 0 else value


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


def _tail_sum(N: int, r: float, square: bool) -> float:
    if r < 0.0:
        raise ValueError("tail sums require r >= 0")
    x = 2.0 * math.pi * float(r)
    total = 0.0
    quiet = 0
    n = int(N) + 1
    while quiet < _TAIL_QUIET_ORDERS:
        term = abs(float(special.jv(n, x)))
        if square:
            term *= term
        total += term
        quiet = quiet + 1 if term < _TAIL_TERM_FLOOR else 0
        n += 1
    return 2.0 * total  # negative orders contribute identically


def bessel_abs_tail(N: int, r: float) -> float:
    """Empirical tail ``sum_{|n|>N} |J_n(2*pi*r)|`` summed to negligibility."""
    return _tail_sum(N, r, square=False)


def bessel_sq_tail(N: int, r: float) -> float:
    """Empirical tail ``sum_{|n|>N} J_n(2*pi*r)**2`` summed to negligibility."""
    return _tail_sum(N, r, square=True)
