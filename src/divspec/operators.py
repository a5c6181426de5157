"""Truncated matrix representation of the spatial autocorrelation operator.

The fading field restricted to an aperture is expanded in the functions

    v_n(x) = exp(j*beta(x)*n) * j**n * J_n(2*pi*|x|),   n = -N..N,

where ``(|x|, beta(x))`` are polar coordinates.  Two matrices capture the
whole problem:

* the Gram matrix ``G`` with entries ``G_mn = <v_m, v_n>`` over the
  aperture measure (geometry only), and
* the coefficient correlation matrix ``R`` with entries given by the PAS
  Fourier coefficients, ``R_mn = s_{m-n}`` (statistics only; Hermitian
  Toeplitz with unit diagonal).

The eigenvalues of their product approximate the diversity spectrum; see
:mod:`divspec.spectrum`.  The orders ``N`` and ``N_D`` and the tail bounds
that certify the truncation come from :mod:`divspec.specfun`.

Index convention used everywhere: matrix row/column ``i`` corresponds to
order ``n = i - N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from . import specfun
from .aperture import (
    DiscreteArray,
    QuadratureRule,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)
from .pas import PasModel

__all__ = [
    "QuadratureConvergenceError",
    "TruncatedOperator",
    "basis_matrix",
    "gram_matrix",
    "rtilde_matrix",
    "rho_n_kernel",
    "build_truncated_operator",
]

#: Largest basis matrix ``V`` (bytes) that :func:`gram_matrix` assembles.
_MAX_BASIS_BYTES = 1 << 30

#: Elementwise tolerance of the quadrature doubling test.
_DOUBLING_TOL = 1e-10

#: Tolerated relative magnitude of negative Gram eigenvalues.
_PSD_TOL = 1e-10

_I_POWERS = np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j])


class QuadratureConvergenceError(RuntimeError):
    """Raised when refining the quadrature still changes the Gram matrix."""


def basis_matrix(points, N: int) -> np.ndarray:
    """Evaluate all basis functions at all points.

    Returns the complex matrix ``V[k, i] = v_{i-N}(points[k])``.  At the
    origin the polar angle is taken as 0; this is immaterial because every
    order except 0 vanishes there.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    r = np.hypot(pts[:, 0], pts[:, 1])
    beta = np.arctan2(pts[:, 1], pts[:, 0])
    N = int(N)
    jn = specfun.bessel_j_orders(N, 2.0 * math.pi * r)
    jn_rows = jn.T
    # row-major order blocks with exp(j*beta*n) built by cumulative
    # products keep large point sets cache friendly
    rows = np.empty((2 * N + 1, pts.shape[0]), dtype=complex)
    np.multiply(_I_POWERS[0], jn_rows[N], out=rows[N])
    if N > 0:
        unit = np.exp(1j * beta)
        current = unit.copy()
        for n in range(1, N + 1):
            ipow = _I_POWERS[n % 4]
            np.multiply(ipow * current, jn_rows[N + n], out=rows[N + n])
            np.multiply(np.conj(ipow * current), jn_rows[N - n], out=rows[N - n])
            if n < N:
                current *= unit
    return rows.T


def _gram_from_rule(rule: QuadratureRule, N: int) -> np.ndarray:
    V = basis_matrix(rule.nodes, N)
    G = V.conj().T @ (rule.weights[:, None] * V)
    return 0.5 * (G + G.conj().T)


def _default_order(N: int) -> int:
    return 4 * (int(N) + 1)


def _check_basis_size(rule: QuadratureRule, N: int) -> None:
    nbytes = len(rule) * (2 * N + 1) * np.dtype(complex).itemsize
    if nbytes > _MAX_BASIS_BYTES:
        raise ValueError(
            f"Gram assembly over {len(rule)} nodes at N={N} needs a {nbytes}-byte "
            f"basis matrix, above the {_MAX_BASIS_BYTES}-byte limit"
        )


def gram_matrix(aperture, N: int) -> np.ndarray:
    """Gram matrix ``G_mn = <v_m, v_n>`` over the aperture measure.

    A rule of order ``4*(N+1)`` is built and verified by doubling the
    order: any entry moving by more than 1e-10 raises
    :class:`QuadratureConvergenceError` and the doubled rule's result is
    returned otherwise.  A discrete array's point masses are exact and
    skip the doubling.  A rule whose basis matrix would exceed 1 GiB is
    refused with ``ValueError`` before any assembly.
    """
    N = int(N)
    q = _default_order(N)
    rule = build_quadrature(aperture, q)
    if isinstance(aperture, DiscreteArray):
        _check_basis_size(rule, N)
        return _gram_from_rule(rule, N)
    fine = build_quadrature(aperture, 2 * q)
    _check_basis_size(fine, N)
    G = _gram_from_rule(rule, N)
    G2 = _gram_from_rule(fine, N)
    drift = float(np.max(np.abs(G2 - G)))
    if drift > _DOUBLING_TOL:
        raise QuadratureConvergenceError(
            f"Gram matrix changed by {drift:.3e} when doubling the quadrature "
            f"order from {q}"
        )
    return G2


def rtilde_matrix(model: PasModel, N: int) -> np.ndarray:
    """Hermitian Toeplitz coefficient correlation matrix of size 2N+1.

    Entry ``(m, n)`` equals the PAS Fourier coefficient of order ``m - n``;
    the diagonal is exactly one by the unit-power normalisation.
    """
    N = int(N)
    ns = np.arange(0, 2 * N + 1)
    return toeplitz(model.fourier(ns), model.fourier(-ns))


def rho_n_kernel(model: PasModel, x, N: int | None = None):
    """Truncated spatial correlation kernel at displacement(s) ``x``.

    Evaluates ``sum_{|n|<=N} s_n exp(j*beta*n) j**n J_n(2*pi*|x|)``; the
    omitted tail is bounded by :func:`~divspec.specfun.bessel_abs_tail_bound`
    at radius ``max |x|``, where :func:`~divspec.specfun.series_order`
    chooses or refuses ``N``.
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    if scalar:
        pts = pts[None, :]
    r_max = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    N, _ = specfun.series_order(r_max, N)
    values = basis_matrix(pts, N) @ model.fourier(np.arange(-N, N + 1))
    return complex(values[0]) if scalar else values


@dataclass(frozen=True)
class TruncatedOperator:
    """Matrix pair ``(G, R)`` plus the truncation metadata.

    ``N`` is the truncation order, ``N_D`` the critical order for the
    enclosing radius ``r1`` of the centred aperture, ``rho_max`` the PAS
    peak factor entering the error bounds, and ``offset`` the translation
    removed by centring.
    """

    N: int
    N_D: int
    r1: float
    gram: np.ndarray
    rtilde: np.ndarray
    rho_max: float
    offset: np.ndarray

    @property
    def size(self) -> int:
        return 2 * self.N + 1

    def orders(self) -> np.ndarray:
        return np.arange(-self.N, self.N + 1)


def _validate_operator(op: TruncatedOperator) -> None:
    G, R = op.gram, op.rtilde
    scale = max(1.0, float(np.max(np.abs(G))))
    if float(np.max(np.abs(G - G.conj().T))) > 1e-14 * scale:
        raise ArithmeticError("Gram matrix lost Hermitian symmetry")
    if float(np.max(np.abs(R - R.conj().T))) > 1e-14:
        raise ArithmeticError("coefficient correlation matrix is not Hermitian")
    if float(np.max(np.abs(np.diag(R) - 1.0))) > 1e-12:
        raise ArithmeticError("coefficient correlation matrix diagonal is not 1")
    g_eigs = np.linalg.eigvalsh(G)
    if g_eigs[0] < -_PSD_TOL * max(g_eigs[-1], 1.0):
        raise ArithmeticError(f"Gram matrix indefinite: min eigenvalue {g_eigs[0]:.3e}")
    r_eigs = np.linalg.eigvalsh(R)
    if r_eigs[0] < -_PSD_TOL * max(r_eigs[-1], 1.0):
        raise ArithmeticError(
            f"coefficient correlation matrix indefinite: min eigenvalue {r_eigs[0]:.3e}"
        )
    trace = float(np.trace(G).real)
    if trace > 1.0 + 1e-12 or trace < -1e-12:
        raise ArithmeticError(f"Gram trace {trace} outside [0, 1]")
    residual = specfun.bessel_sq_tail_bound(op.N, op.r1)
    if 1.0 - trace > residual + 1e-9:
        raise ArithmeticError(
            f"Gram trace deficit {1.0 - trace:.3e} exceeds the tail bound {residual:.3e}"
        )


def build_truncated_operator(aperture, model: PasModel, N: int | None = None) -> TruncatedOperator:
    """Assemble the truncated operator for an aperture and a PAS.

    The aperture is centred first (the kernel is stationary, so this only
    shrinks the enclosing radius ``r1``).  ``N`` is chosen or refused by
    :func:`~divspec.specfun.series_order` at ``r1``.  All structural
    invariants are verified on the result.
    """
    centered, offset = centering_transform(aperture)
    r1 = enclosing_radius(centered)
    N, n_critical = specfun.series_order(r1, N)
    G = gram_matrix(centered, N)
    op = TruncatedOperator(
        N=N,
        N_D=n_critical,
        r1=r1,
        gram=G,
        rtilde=rtilde_matrix(model, N),
        rho_max=float(model.rho_max()),
        offset=np.asarray(offset, dtype=float),
    )
    _validate_operator(op)
    return op
