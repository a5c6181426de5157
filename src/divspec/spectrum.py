"""Diversity spectra, diversity measures, and an independent cross-check.

The eigenvalues of the product of the Gram and coefficient correlation
matrices approximate the spectrum of the spatial autocorrelation operator.
The product of two Hermitian matrices is not Hermitian itself, but the
operator keeps ``G`` as a factor ``G = F^H F`` of ``K <= 2N+1`` rows
(see :class:`~divspec.operators.TruncatedOperator`), so

    eig(G R) = eig(F R F^H), padded with 2N+1-K exact zeros,

which is manifestly real and non-negative and keeps the sort stable.
``R`` is ``R(0)``, about the PAS's own axis, with the mean angle applied
as a phase on ``F``.  Every solve and every sweep point reads this one
matrix.  On a line through the centre in mirror pairs (a segment, one
line, a ULA) it is unitarily similar to the real ``P T P^T`` of the
operator's real half factor ``P`` and the real fold ``T`` of ``R``, of
order ``K <= N+1``, which the solve forms instead.  ``R`` is PSD by a
certificate the build gives it, proven for the shipped PAS models and
tested once for any other (see
:func:`~divspec.operators.build_truncated_operator`); only an operator
with no certificate has ``R`` tested by a Cholesky factor where it is read.

Each solve carries two certified error bounds scaled from the tail bound
of :mod:`divspec.specfun`, which also sets ``N`` and ``N_D``: one for each
eigenvalue and one for the squared Hilbert-Schmidt norm, which
:func:`omega_corrected` turns into an interval enclosing the converged
diversity measure.  :func:`omega_from_traces` reads the measure and that
interval off ``tr(F R F^H)`` and ``tr((F R F^H)^2)``, with no eigensolve.

:func:`nystrom_oracle` solves the same eigenvalue problem by direct
kernel discretisation.  It takes its nodes from
:func:`~divspec.aperture.build_quadrature` and samples the kernel at every
node pair with :func:`discrete_correlation` instead of assembling the Gram
and coefficient matrices, so it stays an independent verification of the
matrix route.  It converges more slowly and is kept only for that purpose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import specfun
from .aperture import (
    DiscreteArray,
    Disk,
    ParallelLines,
    PiecewiseCurve,
    Rectangle,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)
from .operators import (
    _MAX_GRID_BYTES,
    TruncatedOperator,
    _check_psd,
    _kernel_grid,
    _line_fold,
    _wave_parts,
)
from .pas import PasModel, _check_finite

__all__ = [
    "DiversitySpectrum",
    "ExcessiveClampError",
    "BoundTooLooseError",
    "OracleConvergenceError",
    "solve_spectrum",
    "omega_from_traces",
    "omega_corrected",
    "discrete_correlation",
    "discrete_diversity",
    "mimo_slope",
    "nystrom_oracle",
]

#: Eigenvalues in (-1e-8, 0) are rounding noise and are clamped to zero;
#: anything below signals a broken matrix pair and raises.
_CLAMP_FLOOR = 1e-8


class ExcessiveClampError(ArithmeticError):
    """A computed eigenvalue was negative beyond rounding tolerance."""


class BoundTooLooseError(ValueError):
    """The certified error is too large for a meaningful correction."""


class OracleConvergenceError(RuntimeError):
    """Kernel discretisation did not converge within the node budget."""


@dataclass(frozen=True)
class DiversitySpectrum:
    """Descending eigenvalues of a solved aperture/PAS pair with bounds.

    ``eigenvalues`` (``2N+1`` of them; for an array of ``L`` antennas
    those beyond the first ``L`` are exact zeros) sum to ``trace`` (equal
    to one up to the certified truncation residual), and
    ``omega = trace**2 / hs_norm_sq``, the effective number of equal-power
    uncorrelated branches, is read off the truncated sums without assuming
    a unit trace, so the truncation bias cancels to first order.
    ``eig_error_bound`` certifies each eigenvalue, ``hs_error_bound`` the
    squared Hilbert-Schmidt norm ``hs_norm_sq``.
    """

    eigenvalues: np.ndarray
    trace: float
    omega: float
    hs_norm_sq: float
    eig_error_bound: float
    hs_error_bound: float
    N: int
    N_D: int
    r1: float
    rho_max: float


def _times(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``A @ B`` for a complex ``B``; a real ``A`` multiplies ``B``'s interleaved parts at once."""
    if np.iscomplexobj(A):
        return A @ B
    return (A @ np.ascontiguousarray(B).view(float)).view(complex)


def _kl_matrix(op: TruncatedOperator) -> np.ndarray:
    """``F' R F'^H``, Hermitian with the nonzero spectrum of ``G' R``.

    ``F' = F * d`` carries the mean angle as the phase ``d = exp(-j*alpha0*n)``.
    On a line at ``theta`` (``op._line_angle``) ``F'`` is the half factor
    ``P`` unfolded with the phase ``exp(j*n*psi)``, ``psi = theta - alpha0``.
    Summing ``R``'s orders ``+-a`` and ``+-b`` folds ``F' R F'^H`` to
    ``B T B^H`` with the real ``T_ab = r_(a-b) + r_(a+b)``,
    ``r_k = Re(exp(j*k*psi)*s_k)`` (``_line_fold``), where ``B`` is ``P``
    with its odd columns times ``j``.  ``P``'s even-``n`` block of rows is
    zero at odd ``n`` and its odd-``n`` block at even ``n``, so ``diag(1, j)``
    over those blocks takes ``B T B^H`` to the real ``P T P^T``, unitarily
    similar and of ``P``'s order, which is returned.  ``T`` is congruent to
    ``S^T D R D^H S``, ``S`` summing orders ``+-a``, so it is PSD with ``R``
    and carries ``R``'s certificate.  Elsewhere the build's read-only window
    ``R`` is multiplied as one contiguous copy: a circle's or disk's diagonal
    ``G`` commutes with ``d``, so its 1-D ``F`` gives ``diag(F) R diag(F)``,
    real with ``R``, and any other ``F`` gives ``(R F'^H)^H F'^H``.  An ``R``
    the build did not certify (one built by hand) is tested here by
    ``_check_psd``, a Cholesky factor of ``R + 1e-10*I``.
    """
    if not op._psd_certified:
        _check_psd(op.rtilde)
    F = op.gram_factor
    if op._line_angle is not None:
        T = _line_fold(op.rtilde[:, 0], op._line_angle - op.alpha0, op.N)
        return (F @ T) @ F.T
    R = np.ascontiguousarray(op.rtilde)
    if F.ndim == 1:
        return F[:, None] * R * F
    # F' R F'^H = (R F'^H)^H F'^H
    Fh = (F * np.exp(-1j * op.alpha0 * np.arange(-op.N, op.N + 1))).conj().T
    return _times(R, Fh).conj().T @ Fh


def _error_bounds(op: TruncatedOperator) -> tuple[float, float]:
    """Certified bounds on each eigenvalue and on the squared Hilbert-Schmidt norm."""
    eig_error_bound = op.rho_max * specfun.bessel_abs_tail_bound(op.N, op.r1)
    return eig_error_bound, 2.0 * op.rho_max * eig_error_bound


def solve_spectrum(op: TruncatedOperator) -> DiversitySpectrum:
    """Solve the truncated eigenvalue problem and attach certified bounds.

    One ``K x K`` ``eigvalsh(F' R F'^H)`` gives the nonzero eigenvalues of
    ``G' R`` (see ``_kl_matrix``); those beyond rank ``K`` are exact zeros.
    ``R`` is PSD by the build's certificate; an ``R`` with none is first
    tested by a Cholesky factor of ``R + 1e-10*I`` (an eigenvalue below
    ``-1e-10`` is refused).  The eigensolve is real for a circle or a disk
    under the isotropic, uniform and von Mises models, and for a line
    through the centre in mirror pairs under any PAS.  Eigenvalues in
    ``(-1e-8, 0)`` clamp to zero, and any below raises
    :class:`ExcessiveClampError`.
    """
    sym = _kl_matrix(op)
    sym = 0.5 * (sym + sym.conj().T)
    lam = np.linalg.eigvalsh(sym)[::-1].copy()
    if lam[-1] < -_CLAMP_FLOOR:
        raise ExcessiveClampError(
            f"eigenvalue {lam[-1]:.3e} below the clamping floor; "
            "the Gram or correlation matrix is broken"
        )
    np.clip(lam, 0.0, None, out=lam)
    lam = np.concatenate([lam, np.zeros(op.size - len(lam))])
    eig_error_bound, hs_error_bound = _error_bounds(op)
    trace = float(lam.sum())
    hs_norm_sq = float(np.sum(lam * lam))
    omega = trace * trace / hs_norm_sq
    return DiversitySpectrum(
        eigenvalues=lam,
        trace=trace,
        omega=omega,
        hs_norm_sq=hs_norm_sq,
        eig_error_bound=eig_error_bound,
        hs_error_bound=hs_error_bound,
        N=op.N,
        N_D=op.N_D,
        r1=op.r1,
        rho_max=op.rho_max,
    )


def omega_from_traces(op: TruncatedOperator) -> tuple[float, float, float]:
    """``omega`` and the interval of :func:`omega_corrected`, with no eigensolve.

    The eigenvalues of ``M = F' R F'^H``, the matrix that
    :func:`solve_spectrum` eigensolves, with the same certificate or test
    of ``R``, sum to ``tr(M)`` and their squares to ``tr(M^2) = sum(M * M^T)``, so one
    matrix and the solve's own bounds give ``(omega, midpoint,
    half_width)``.  For a circle or a disk ``M`` is formed in ``O(N**2)``
    with no matrix product.
    """
    P = _kl_matrix(op)
    trace = float(np.trace(P).real)
    hs_norm_sq = float(np.sum(P * P.T).real)
    return trace * trace / hs_norm_sq, *_omega_interval(hs_norm_sq, _error_bounds(op)[1])


def omega_corrected(spectrum: DiversitySpectrum) -> tuple[float, float]:
    """Certified enclosure of the converged diversity measure.

    The exact operator has unit trace, so the converged measure is
    ``1/h`` with ``h`` the exact squared Hilbert-Schmidt norm.  Since
    ``|hs_norm_sq - h| <= delta = hs_error_bound``, it lies in
    ``[1/(hs_norm_sq + delta), 1/(hs_norm_sq - delta)]``; returns that
    interval's midpoint and half-width.  Requires
    ``delta / hs_norm_sq < 1/2``.
    """
    return _omega_interval(spectrum.hs_norm_sq, spectrum.hs_error_bound)


def _omega_interval(h: float, delta: float) -> tuple[float, float]:
    """Midpoint and half-width of ``[1/(h + delta), 1/(h - delta)]``; needs ``delta < h/2``."""
    if delta >= 0.5 * h:
        raise BoundTooLooseError(
            f"certified relative error {delta / h:.3f} >= 0.5; raise the truncation order"
        )
    denom = h * h - delta * delta
    return h / denom, delta / denom


def _max_distance(pts: np.ndarray) -> float:
    """Largest pairwise distance, scanned in row blocks of about 1 MB."""
    rows = max(1, (1 << 16) // len(pts))
    d_max = 0.0
    for lo in range(0, len(pts), rows):
        diff = pts[lo : lo + rows, None, :] - pts[None, :, :]
        d_max = max(d_max, float(np.max(np.hypot(diff[..., 0], diff[..., 1]))))
    return d_max


def discrete_correlation(positions, model: PasModel, N: int | None = None) -> np.ndarray:
    """Correlation matrix of a finite antenna array.

    Entry ``(i, k)`` is the truncated correlation kernel at the antenna
    displacement ``x_i - x_k``, so ``N`` is chosen or refused at the largest
    pairwise distance ``d_max``.  On the angle grid of
    :func:`~divspec.operators.rho_n_kernel` for radius ``d_max`` the kernel
    factors, ``rho_N(x_i - x_k) = sum_q E_iq w_q conj(E_kq)`` with
    ``E_iq = exp(j*2*pi*x_i.u_q)``, so the matrix is ``E diag(w) E^H``, each
    entry within ``bessel_abs_tail_bound(Q-N-1, d_max) <= 0.2*exp(-40)`` of
    the series.  The grid is antipodal, so ``E = [C + jS, C - jS]`` with
    ``C`` and ``S`` the cosines and sines on its first ``Q/2`` angles, and
    with the folded weights ``c+-`` of ``_kernel_grid`` the product is real:
    ``Re R = C diag(c+) C^T + S diag(c+) S^T`` and ``Im R = Y - Y^T``,
    ``Y = S diag(c-) C^T``, about ``1.5*L**2*Q`` real multiply-adds against
    ``4*L**2*Q`` for the complex product.  The positions are centred first,
    which keeps the phases small.  The result is exactly Hermitian, with unit
    diagonal.  Plane waves of ``L x Q`` (sized as complex) or an ``L x L``
    result above 256 MiB are refused with ``ValueError`` before they are
    allocated.

    An antennas sweep (:func:`divspec.cli.cmd_sweep`) evaluates its points
    through the same product (``_correlation_matrix``) on one grid, chosen
    at its base aperture's diameter, which covers every point's ``d_max``.
    """
    return _correlation_matrix(positions, lambda d_max: _kernel_grid(model, d_max, N))


def _correlation_matrix(positions, kernel_grid) -> np.ndarray:
    """:func:`discrete_correlation`'s matrix on the grid ``(N, u, c) = kernel_grid(d_max)``.

    ``kernel_grid`` chooses, or shares and refuses, the kernel grid for the
    centred positions' largest pairwise distance ``d_max``.  ``[C S]`` and
    its copy weighted by ``c+`` are the only ``L x Q`` arrays: ``Re R`` is
    their product, symmetrised, and the copy's ``S`` half is then
    overwritten by ``S diag(c-)`` for ``Y``.
    """
    pts = np.asarray(positions, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("positions must be a non-empty (L, 2) array")
    _check_finite("discrete_correlation", positions=pts)
    L = pts.shape[0]
    nbytes = L * L * np.dtype(complex).itemsize
    if nbytes > _MAX_GRID_BYTES:
        raise ValueError(
            f"a {L}x{L} correlation matrix needs {nbytes} bytes, "
            f"above the {_MAX_GRID_BYTES}-byte limit"
        )
    pts = pts - pts.mean(axis=0)
    N, u, c = kernel_grid(_max_distance(pts))
    W = _wave_parts(pts, u, N)
    h = len(u) // 2
    weighted = W * np.tile(c[0], 2)
    re = weighted @ W.T
    Y = np.multiply(W[:, h:], c[1], out=weighted[:, h:]) @ W[:, :h].T
    del weighted
    R = np.empty((L, L), dtype=complex)
    np.add(re, re.T, out=R.real)
    R.real *= 0.5
    np.subtract(Y, Y.T, out=R.imag)
    np.fill_diagonal(R, 1.0)
    return R


def discrete_diversity(R: np.ndarray) -> float:
    """Diversity measure of an antenna correlation matrix.

    Needs only the traces of ``R`` and ``R^H R``, no eigendecomposition:
    with unit diagonal this is ``L**2 / sum |R_ik|**2``, between 1 (fully
    correlated) and ``L`` (uncorrelated).
    """
    R = np.asarray(R)
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ValueError("discrete_diversity requires a square matrix")
    if not np.all(np.isfinite(R)):
        raise ValueError("discrete_diversity requires a finite matrix")
    if float(np.max(np.abs(R - R.conj().T))) > 1e-10:
        raise ValueError("discrete_diversity requires a Hermitian matrix")
    if float(np.max(np.abs(np.diag(R) - 1.0))) > 1e-10:
        raise ValueError("discrete_diversity requires a unit diagonal")
    trace = float(np.trace(R).real)
    return trace * trace / float(np.sum(np.abs(R) ** 2))


def mimo_slope(omega_tx: float, omega_rx: float) -> float:
    """Low-power spectral-efficiency slope of a two-sided antenna system.

    The harmonic mean of the transmit and receive diversity measures,
    assuming the two sides are uncorrelated.
    """
    omega_tx = float(omega_tx)
    omega_rx = float(omega_rx)
    _check_finite("mimo_slope", omega_tx=omega_tx, omega_rx=omega_rx)
    if omega_tx < 1.0 - 1e-12 or omega_rx < 1.0 - 1e-12:
        raise ValueError("diversity measures must be >= 1")
    return 2.0 / (1.0 / omega_tx + 1.0 / omega_rx)


# ---------------------------------------------------------------------------
# Independent verification route: direct kernel discretisation
# ---------------------------------------------------------------------------

_ORACLE_CAP_1D = 4096
_ORACLE_CAP_RADIAL = 64
#: Largest move of the ten largest eigenvalues at which a doubling has converged.
_ORACLE_TOL = 1e-7


def _oracle_eigs(aperture, model, m, n_kernel):
    rule = build_quadrature(aperture, m)
    K = discrete_correlation(rule.nodes, model, n_kernel)
    sw = np.sqrt(rule.weights)
    return np.linalg.eigvalsh(sw[:, None] * K * sw[None, :])[::-1]


def _top_diff(a: np.ndarray, b: np.ndarray, k: int = 10) -> float:
    k = min(k, len(a), len(b))
    return float(np.max(np.abs(a[:k] - b[:k])))


def nystrom_oracle(aperture, model: PasModel) -> np.ndarray:
    """Eigenvalues by direct quadrature discretisation of the kernel.

    The kernel is sampled on a quadrature grid, scaled symmetrically by the
    square roots of the weights, and diagonalised; the grid is refined by
    doubling until the ten largest eigenvalues move by less than ``1e-7``.
    It starts at :func:`~divspec.aperture.build_quadrature` order 8 for a
    disk or rectangle and ``max(32, 128 // pieces)`` per piece otherwise,
    and an array's antennas are evaluated once.  The kernel is truncated at
    ``N_D + 15`` for the aperture diameter, comfortably converged.

    This is the slow, assumption-free route; use it to validate
    :func:`solve_spectrum`, not to replace it.
    """
    centered, _ = centering_transform(aperture)
    r1 = enclosing_radius(centered)
    n_kernel = specfun.truncation_order(2.0 * r1) + 15
    if isinstance(centered, DiscreteArray) or r1 == 0.0:
        # exact point evaluation; nothing to refine
        return _oracle_eigs(centered, model, 1, n_kernel)

    two_dim = isinstance(centered, (Disk, Rectangle))
    pieces = 1
    if isinstance(centered, ParallelLines):
        pieces = centered.count
    elif isinstance(centered, PiecewiseCurve):
        pieces = len(centered.pieces)
    m = 8 if two_dim else max(32, 128 // pieces)
    cap = _ORACLE_CAP_RADIAL if two_dim else max(m, _ORACLE_CAP_1D // pieces)
    prev = _oracle_eigs(centered, model, m, n_kernel)
    while 2 * m <= cap:
        m *= 2
        cur = _oracle_eigs(centered, model, m, n_kernel)
        if _top_diff(prev, cur) < _ORACLE_TOL:
            return cur
        prev = cur
    raise OracleConvergenceError(
        f"top eigenvalues still moving at the node cap (resolution {m})"
    )
