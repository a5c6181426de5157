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
:mod:`divspec.spectrum`.

Every ``G`` is the centred aperture's (the kernel is stationary).  The
measure of a centred circle or disk is rotation invariant, so its ``G``
is diagonal in closed form, ``g_n = J_n(z)**2`` on a circle and
``J_n(z)**2 - J_{n-1}(z)*J_{n+1}(z)`` on a disk, ``z = 2*pi*radius``.
Every other ``G`` and the correlation kernel are evaluated in the angle
domain.  By Jacobi-Anger each ``v_n`` is an angle integral of plane
waves, so ``G`` is the 2-D DFT of the aperture measure's Fourier
transform sampled on a periodic grid of ``Q`` angles, and the kernel is
one weighted sum of plane waves on the same grid.  The grid's aliasing is
certified by the same Bessel tail bound as the truncation, and a
transform above ``Q = 4096`` is refused; see :func:`gram_matrix` and
:func:`rho_n_kernel`.  Arrays, curves, segments and single parallel lines
are node sums, ``G = F^H F`` with a ``K x (2N+1)`` factor ``F``.

A segment, one line and an array found on a line through its centre
in mirror pairs (``_line_angle``) fold: on the line
``v_(-n) = exp(-2j*n*theta)*v_n``, so ``G`` has rank at most ``N+1``, and a
node at ``-t`` repeats the one at ``t`` with its odd orders negated.  Their
factor is a real ``K x (N+1)`` half factor ``P`` (``_line_factor``), and the
solve reads ``R`` through a real ``(N+1) x (N+1)`` fold (``_line_fold``).

The operator keeps ``G`` only as one factor, ``G = F^H F``, of at most
``2N+1`` rows, or a line's ``P`` (see :class:`TruncatedOperator`), which
is all the solve reads.
The orders ``N`` and ``N_D`` and the tail bounds that certify the
truncation come from :mod:`divspec.specfun`.

Index convention used everywhere: matrix row/column ``i`` corresponds to
order ``n = i - N``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import specfun
from .aperture import (
    ArcPiece,
    Circle,
    DiscreteArray,
    Disk,
    ParallelLines,
    PiecewiseCurve,
    Rectangle,
    Segment,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)
from .pas import IsotropicPas, PasModel, TabulatedPas, UniformPas, VonMisesPas

__all__ = [
    "TruncatedOperator",
    "gram_matrix",
    "rho_n_kernel",
    "build_truncated_operator",
]

#: Angle-grid orders above ``N + N_D`` that :func:`gram_matrix` keeps clear
#: of aliasing; the aliased Bessel tail is below ``0.2*exp(-_ALIAS_MARGIN)``.
_ALIAS_MARGIN = 40

#: Largest complex matrix (bytes) of an evaluation: the Gram assembly's
#: ``Q x Q`` transform (``Q = 4096``), a node sum's ``K x Q`` plane waves,
#: an array's correlation matrix, or ``R``, sized as complex whatever the PAS.
_MAX_GRID_BYTES = 1 << 28

#: Row-block size (bytes) of the streamed kernel evaluation, small enough
#: to stay in cache.
_KERNEL_BLOCK_BYTES = 1 << 22

#: Bound on ``||G_q - G||_2`` that chooses a curve's Gauss order ``q``.
_GAUSS_TOL = 2.0**-53

#: Tolerated magnitude of negative eigenvalues of ``G`` and ``R``: the ``eigh``
#: that factors a transform's ``G`` tests it, and ``_check_psd`` an ``R`` that is
#: not proven PSD (one built for a model outside ``_PSD_MODELS``, or by hand).
_PSD_TOL = 1e-10

#: PAS models whose ``R(0)`` is PSD by construction, to within ``_PSD_TOL``
#: (see :func:`build_truncated_operator`); matched by exact type, since a
#: subclass may override ``fourier``.
_PSD_MODELS = (IsotropicPas, UniformPas, VonMisesPas, TabulatedPas)


def _angle_grid_size(N: int, r1: float) -> int:
    """Smallest even 5-smooth ``Q >= max(2N+1, N + 1 + N_D + _ALIAS_MARGIN)``.

    Even, so that the grid is antipodal (see ``_angle_grid``).  The
    candidates ``2**a * 3**b * 5**c``, ``a >= 1``, are enumerated, so the
    size is found in time polylogarithmic in ``N``, and the size refusals
    that follow it come at once for any ``N``.
    """
    bound = max(2 * N + 1, N + 1 + specfun.truncation_order(r1) + _ALIAS_MARGIN)
    Q = 2 * bound  # above the power of two at or above the bound
    five = 1
    while five < Q:
        odd = five
        while odd < Q:
            q = 2 * odd
            while q < bound:
                q *= 2
            Q = min(Q, q)
            odd *= 3
        five *= 5
    return Q


def _check_grid_bytes(rows: int, Q: int, N: int) -> None:
    nbytes = rows * Q * np.dtype(complex).itemsize
    if nbytes > _MAX_GRID_BYTES:
        raise ValueError(
            f"evaluation at N={N} on a Q={Q} angle grid needs a {rows}x{Q} "
            f"{nbytes}-byte matrix, above the {_MAX_GRID_BYTES}-byte limit"
        )


def _angle_grid(Q: int) -> np.ndarray:
    """Unit vectors ``u_q = (cos a_q, sin a_q)``, ``a_q = 2*pi*q/Q``, for an even ``Q``.

    The grid is antipodal bit for bit: the first ``Q/2`` vectors are
    evaluated and the rest are their negations, ``u_(q+Q/2) = -u_q``.
    """
    alpha = 2.0 * math.pi * np.arange(Q // 2) / Q
    half = np.stack([np.cos(alpha), np.sin(alpha)], axis=1)
    return np.concatenate([half, -half])


def _cos_sin(points, u: np.ndarray, cos, sin) -> None:
    """``cos`` and ``sin`` of ``2*pi*x_k.u_q`` over the first half of the antipodal grid ``u``.

    The phase is formed in ``sin`` and overwritten by its sine, after its
    cosine is written to ``cos``: no array but the outputs.
    """
    phase = np.matmul(points, u[: len(u) // 2].T, out=sin)
    phase *= 2.0 * math.pi
    np.cos(phase, out=cos)
    np.sin(phase, out=phase)


def _plane_waves(points, u: np.ndarray, N: int) -> np.ndarray:
    """``E_kq = exp(j*2*pi*x_k.u_q)``, refused above ``_MAX_GRID_BYTES`` before allocation.

    Cosine and sine are taken on the first ``Q/2`` angles of the antipodal
    grid ``u`` (``_cos_sin``), and the second half is their conjugate: half
    the trigonometry, no complex ``exp``, and no array but the result.
    """
    points = np.asarray(points, dtype=float)
    _check_grid_bytes(len(points), len(u), N)
    E = np.empty((len(points), len(u)), dtype=complex)
    h = len(u) // 2
    _cos_sin(points, u, E.real[:, :h], E.imag[:, :h])
    np.conjugate(E[:, :h], out=E[:, h:])
    return E


def _wave_parts(points, u: np.ndarray, N: int) -> np.ndarray:
    """``[C S]``, ``rows x Q`` real: the plane waves on the antipodal grid ``u`` are ``[C + jS, C - jS]``.

    Half the bytes of ``_plane_waves`` for the same trigonometry; refused at
    the same size, before allocation.
    """
    points = np.asarray(points, dtype=float)
    _check_grid_bytes(len(points), len(u), N)
    W = np.empty((len(points), len(u)))
    h = len(u) // 2
    _cos_sin(points, u, W[:, :h], W[:, h:])
    return W


def _point_masses(nodes, weights, u: np.ndarray, N: int) -> np.ndarray:
    """``sum_k w_k exp(j*2*pi*x_k.(u_q - u_p))`` as one product ``E^H diag(w) E``."""
    E = _plane_waves(nodes, u, N)
    return (E.conj().T * np.asarray(weights, dtype=float)) @ E


def _sinc_factor(length: float, angle: float, u: np.ndarray) -> np.ndarray:
    """Transform factor ``sinc(length * d.(u_q - u_p))`` of a centred line along ``d``."""
    s = u @ np.array([math.cos(angle), math.sin(angle)])
    return np.sinc(length * (s[None, :] - s[:, None]))


def _aperture_transform(aperture, u: np.ndarray, N: int) -> np.ndarray:
    """``Phi_pq = mu_hat(u_q - u_p)`` of a centred rectangle, its sides' ``sinc`` product, or lines.

    Two or more lines' is the point masses at their centres times one line's.
    """
    if isinstance(aperture, Rectangle):
        phi = _sinc_factor(aperture.width, aperture.angle, u)
        phi *= _sinc_factor(aperture.height, aperture.angle + math.pi / 2.0, u)
        return phi
    centers = aperture.line_centers()
    phi = _point_masses(centers, np.full(len(centers), 1.0 / len(centers)), u, N)
    phi *= _sinc_factor(aperture.length, aperture.angle, u)
    return phi


def _gram_from_transform(phi: np.ndarray, N: int) -> np.ndarray:
    Q = phi.shape[0]
    idx = np.arange(-N, N + 1) % Q
    G = np.fft.fft(np.fft.ifft(phi, axis=1)[:, idx], axis=0)[idx] / Q
    return 0.5 * (G + G.conj().T)


def _radial_diagonal(aperture, N: int) -> np.ndarray:
    """``g_n``, ``n = -N..N``: ``J_n(z)**2`` of a circle, ``J_n(z)**2 - J_(n-1)(z)*J_(n+1)(z)`` of a disk.

    A centred circle's or disk's ``G`` is ``diag(g)``, ``G_nn`` the mean of
    ``J_n(2*pi*rho)**2`` over the measure: at ``rho = r`` on a circle, and
    with weight ``2*rho/r**2`` on a disk, where ``int_0^r J_n(k*rho)**2 rho
    drho = (r**2/2)*(J_n(kr)**2 - J_{n-1}(kr)*J_{n+1}(kr))``.
    ``z = 2*pi*radius``; the ``J_0..J_(N+1)`` come from Miller's recurrence
    (``specfun._bessel_j``), and ``g`` is even in ``n`` since
    ``J_(-n) = (-1)**n * J_n``.
    """
    J = np.array(specfun._bessel_j(N + 1, 2.0 * math.pi * aperture.radius))
    if isinstance(aperture, Circle):
        g = J[:-1] ** 2
    else:
        # an integral of a square: round-off below zero clamps; J_(-1) = -J_1
        g = np.maximum(J[:-1] ** 2 - np.append(-J[1], J[:-2]) * J[1:], 0.0)
    return np.concatenate([g[:0:-1], g])


def _node_factor(rule, u: np.ndarray, N: int) -> np.ndarray:
    """``K x (2N+1)`` factor ``F`` of a node sum's Gram matrix, ``G = F^H F``.

    ``F = sqrt(w) * ifft(E, axis=1)[:, n mod Q]`` with ``E`` the nodes'
    plane waves on the angle grid ``u``, so ``F_kn`` is ``sqrt(w_k)*v_n(x_k)``
    to the grid's aliasing bound.  The point-mass transform
    ``E^H diag(w) E`` taken through the 2-D DFT of ``_gram_from_transform``
    reduces to ``F^H F``, each DFT acting on one factor, without the
    ``Q x Q`` intermediate.
    """
    idx = np.arange(-N, N + 1) % len(u)
    F = np.fft.ifft(_plane_waves(rule.nodes, u, N), axis=1)[:, idx]
    F *= np.sqrt(rule.weights)[:, None]
    return F


def _factor_gram(F: np.ndarray) -> np.ndarray:
    G = F.conj().T @ F
    return 0.5 * (G + G.conj().T)


def _curve_bound(curve: PiecewiseCurve, q: int) -> float:
    """Bound on ``||G_q - G||_2`` for the ``q``-point Gauss rule on each piece."""
    return max(
        specfun.arc_gauss_bound(q, p.radius, p.angle_stop - p.angle_start)
        if isinstance(p, ArcPiece)
        else specfun.line_gauss_bound(q, p.length)
        for p in curve.pieces
    )


def _gauss_order(bound, pieces: int, Q: int) -> int:
    """Smallest ``q`` with ``bound(q) <= _GAUSS_TOL``, or one past the ``pieces*q x Q`` budget."""
    # bisection keeps bound(lo) > _GAUSS_TOL >= bound(hi); hi starts one past the byte budget
    lo, hi = 0, _MAX_GRID_BYTES // (pieces * Q * np.dtype(complex).itemsize) + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound(mid) <= _GAUSS_TOL else (mid, hi)
    return hi


def _line_angle(aperture) -> float | None:
    """Angle of the line through the origin on which ``aperture`` lies in mirror pairs, else ``None``.

    A centred segment or one centred parallel line lies on one, its
    Gauss rule mirrored exactly (see :func:`~divspec.aperture.build_quadrature`).
    An array qualifies when an exact floating-point test, with no tolerance,
    finds it so: with ``p`` its antenna farthest from the origin, every
    antenna ``x`` has ``x_1*p_2 == x_2*p_1``, and the antennas, sorted,
    equal their negations, sorted (coincident antennas count with their
    multiplicity).  Antennas at ``(t_k, 0)`` with ``t_k`` and ``-t_k`` both
    present pass it; a rotated or ``linspace``-built array generally fails
    it by rounding and keeps the node sum.
    """
    if isinstance(aperture, Segment) or (isinstance(aperture, ParallelLines) and aperture.count == 1):
        return aperture.angle
    if not isinstance(aperture, DiscreteArray):
        return None
    pts = aperture.as_array()
    p = pts[np.argmax(np.hypot(pts[:, 0], pts[:, 1]))]
    z = pts[:, 0] + 1j * pts[:, 1]
    if np.array_equal(pts[:, 0] * p[1], pts[:, 1] * p[0]) and np.array_equal(np.sort(z), np.sort(-z)):
        return math.atan2(p[1], p[0])
    return None


def _node_sum_factor(aperture, N: int, angle: float | None) -> np.ndarray | None:
    """Factor of a node sum's ``G`` (see :func:`gram_matrix`), else ``None``.

    On a line through the origin in mirror pairs, at ``angle``
    (``_line_angle``), it is ``_line_factor``'s real half factor, elsewhere
    ``F`` with ``G = F^H F``.  A rule whose ``rows x Q`` plane waves exceed
    the byte budget is refused before it or the angle grid is built.
    """
    if angle is None and not isinstance(aperture, (DiscreteArray, PiecewiseCurve)):
        return None
    Q = _angle_grid_size(N, enclosing_radius(aperture))
    if isinstance(aperture, DiscreteArray):
        q, rows = 1, len(aperture.points)
    elif isinstance(aperture, PiecewiseCurve):
        pieces = sum(p.length > 0.0 for p in aperture.pieces) or 1
        q = _gauss_order(lambda k: _curve_bound(aperture, k), pieces, Q)
        rows = pieces * q
    else:
        q = rows = _gauss_order(lambda k: specfun.line_gauss_bound(k, aperture.length), 1, Q)
    _check_grid_bytes(rows, Q, N)
    rule = build_quadrature(aperture, q)
    if angle is None:
        return _node_factor(rule, _angle_grid(Q), N)
    return _line_factor(rule, angle, _angle_grid(Q), N)


def _line_factor(rule, angle: float, u: np.ndarray, N: int) -> np.ndarray:
    """Real half factor ``P`` of a rule on a line through the origin in mirror pairs.

    A node at ``t*d``, ``d = (cos angle, sin angle)``, has ``v_n = exp(j*n*angle)
    * j**n * J_n(2*pi*t)`` for either sign of ``t``, so the columns ``n`` and
    ``-n`` of ``F`` are parallel.  Each node with ``t > 0`` gives the row
    ``sqrt(2*w)*c_n*J_n(2*pi*t)``, ``n = 0..N``, ``c_0 = 1`` and ``c_n = sqrt(2)``,
    and each node at the origin the row ``sqrt(w)`` at ``n = 0``.  The ``J_n`` are
    the ``ifft`` of the plane waves of ``(t, 0)`` on the angle grid ``u``
    (see ``_node_factor``), ``j**n*J_n``, read as its real part at even ``n``
    and its imaginary part at odd ``n``.  The mirror of a ``t > 0`` row is the
    same row with its odd ``n`` negated; their sum and difference over
    ``sqrt(2)`` split it by the parity of ``n``.  ``P`` holds the even-``n``
    block's rows, then the odd-``n`` block's, zero at the other parity, and
    each block with more rows than columns is replaced by its triangular QR
    factor.  ``||P||_F**2`` is ``||F||_F**2`` and ``P^T P`` is ``F^H F`` folded
    (see ``_unfold``).
    """
    side = rule.nodes @ np.array([math.cos(angle), math.sin(angle)])
    upper = side > 0.0
    V = np.fft.ifft(_plane_waves(side[upper, None] * [1.0, 0.0], u, N), axis=1)
    A = np.where(np.arange(N + 1) % 2 == 0, V.real[:, : N + 1], V.imag[:, : N + 1])
    # c_n*sqrt(2*w) is 2*sqrt(w) above n = 0, one rounding: sqrt(2)*sqrt(2*w) would
    # bias ||P||_F**2, the build's trace, up by about 1.3e-16 relative
    A[:, :1] *= np.sqrt(2.0 * rule.weights[upper])[:, None]
    A[:, 1:] *= 2.0 * np.sqrt(rule.weights[upper])[:, None]
    centre = np.zeros((int(np.count_nonzero(side == 0.0)), (N + 2) // 2))
    centre[:, 0] = np.sqrt(rule.weights[side == 0.0])
    blocks = [np.concatenate([A[:, 0::2], centre]), A[:, 1::2]]
    blocks = [np.linalg.qr(B, mode="r") if len(B) > B.shape[1] else B for B in blocks]
    P = np.zeros((len(blocks[0]) + len(blocks[1]), N + 1))
    P[: len(blocks[0]), 0::2] = blocks[0]
    P[len(blocks[0]) :, 1::2] = blocks[1]
    return P


def _unfold(P: np.ndarray, angle: float, N: int) -> np.ndarray:
    """``K x (2N+1)`` factor ``F_kn = P_k|n| / c_|n| * exp(j*n*angle)``, ``G = F^H F``, of a line's ``P``."""
    n = np.arange(-N, N + 1)
    c = np.where(n[N:] == 0, 1.0, math.sqrt(2.0))
    return (P / c)[:, np.abs(n)] * np.exp(1j * angle * n)


def _line_fold(s: np.ndarray, psi: float, N: int) -> np.ndarray:
    """``T``, ``(N+1) x (N+1)``, with ``T_ab = r_(a-b) + r_(a+b)``, row and column 0 over ``sqrt(2)``.

    ``r_k = Re(exp(j*k*psi)*s_k)`` for the PAS coefficients ``s = s_(0..2N)``
    about its axis and ``psi`` the line's angle from the mean angle.
    """
    k = np.arange(2 * N + 1)
    r = np.cos(psi * k) * s.real - np.sin(psi * k) * s.imag
    # rows r_|k|, k = -N..N, and r_k, k = 0..2N, windowed in one call: T_ab = r_|a-b| + r_(a+b)
    # is the first row's reversed Toeplitz window plus the second's Hankel window
    rows = np.concatenate([r[N:0:-1], r[: N + 1], r]).reshape(2, 2 * N + 1)
    toeplitz, hankel = sliding_window_view(rows, N + 1, axis=1)
    T = toeplitz[:, ::-1] + hankel
    T[0, 1:] *= math.sqrt(0.5)
    T[1:, 0] *= math.sqrt(0.5)
    T[0, 0] *= 0.5
    return T


def _transform_factor(aperture, N: int) -> np.ndarray:
    """Factor ``F`` of a centred rectangle's or lines' ``G``, from one real ``eigh``.

    Rotating the aperture by ``theta`` multiplies ``v_n`` by
    ``exp(j*n*theta)``, so ``G = P H P^H`` with ``P = diag(exp(-j*n*theta))``
    and ``H`` the ``G`` of the same aperture at angle 0.  That one is even
    in both axes, so ``H`` is real: its odd-offset entries vanish and the
    others are their own conjugates.  With ``H = V diag(lam) V^T``,
    ``F = diag(sqrt(lam)) V^T P^H``.  The ``eigh`` is also ``G``'s PSD test:
    an eigenvalue below ``-_PSD_TOL`` is refused, the negative ones above
    it are round-off and clamp to zero.
    """
    G = gram_matrix(replace(aperture, angle=0.0), N)
    H = G.real.copy()
    del G  # freed before the eigh, so that the transform stays the build's peak
    lam, V = np.linalg.eigh(H)
    del H
    if lam[0] < -_PSD_TOL:
        raise ArithmeticError(f"Gram matrix indefinite: min eigenvalue {lam[0]:.3e}")
    V *= np.sqrt(np.clip(lam, 0.0, None))
    return V.T * np.exp(1j * aperture.angle * np.arange(-N, N + 1))


def _gram_factor(aperture, N: int, angle: float | None) -> np.ndarray:
    """The operator's factor ``F`` of a centred aperture's ``G``, ``2N+1`` rows at most.

    ``sqrt(g)`` of a circle's or disk's diagonal, held 1-D; a line's real
    half factor at ``angle`` (``_line_angle``; ``_line_factor``, ``N+1``
    columns); another node sum's ``F``, or its ``2N+1``-row triangular QR
    factor when it has more rows; else ``_transform_factor``.
    """
    if isinstance(aperture, (Circle, Disk)):
        return np.sqrt(_radial_diagonal(aperture, N))
    F = _node_sum_factor(aperture, N, angle)
    if F is None:
        return _transform_factor(aperture, N)
    return np.linalg.qr(F, mode="r") if len(F) > 2 * N + 1 else F


def gram_matrix(aperture, N: int) -> np.ndarray:
    """Gram matrix ``G_mn = <v_m, v_n>`` over the aperture measure.

    By Jacobi-Anger, ``v_n(x) = (1/2pi) int exp(j*2*pi*x.u(a)) exp(j*n*a) da``
    with ``u(a) = (cos a, sin a)``, so ``G`` is the 2-D DFT of the
    aperture's Fourier transform ``mu_hat(u(a_q) - u(a_p))`` sampled on a
    periodic grid of ``Q`` angles.  The grid aliases order ``n`` only onto
    orders ``|n + lQ| >= Q - N``; ``Q`` is the smallest even 5-smooth integer
    with ``Q - N - 1 >= N_D + 40`` (and ``Q >= 2N+1``), so each basis value
    is off by at most ``bessel_abs_tail_bound(Q-N-1, r1) <= 0.2*exp(-40)``
    and each entry of ``G`` by at most twice that, ``r1`` being the radius
    of the aperture about the origin.  An even grid is antipodal
    (``_angle_grid``), so the plane waves' trigonometry is taken on half of
    it (``_plane_waves``).

    ``G`` is the centred aperture's (``centering_transform``), the one
    :func:`build_truncated_operator` factors: the kernel depends only on
    coordinate differences, so where an aperture sits changes no spectrum.
    Each kind has one route.  A circle's or disk's ``G`` is diagonal in
    closed form (``_radial_diagonal``), with no grid; a rectangle's and two
    or more lines' is the 2-D DFT of their closed-form transform
    (``_aperture_transform``).  Arrays, curves, segments and single lines
    are weighted point masses, whose ``G`` is ``F^H F`` with the
    ``K x (2N+1)`` factor ``F_kn = sqrt(w_k)*v_n(x_k)`` evaluated on the
    same grid; on a line in mirror pairs ``F`` is unfolded from the
    operator's real half factor (``_line_factor``, ``_unfold``).  An array's
    antennas are exact point masses; the others' are one Gauss rule of
    ``q`` nodes on each piece of positive length (a line being one piece).
    With ``e_n(a) = exp(j*n*a)``,
    ``v(x) = (1/2pi) int exp(j*2*pi*x.u(a)) e(a) da``, so the rule moves ``G`` by
    ``dG = (1/4pi^2) int int E(a,b) e(a) e(b)^H da db`` with ``E`` its error on
    ``exp(j*2*pi*x.(u(a) - u(b)))``, a length-weighted mean of the pieces'
    normalised errors: ``||dG||_2 <= sup |E|`` by Cauchy-Schwarz and Parseval.
    ``q`` is the smallest order at which :func:`~divspec.specfun.line_gauss_bound`
    and :func:`~divspec.specfun.arc_gauss_bound` bound every piece's ``|E|`` by
    ``2**-53``, under the solve's round-off like the grid's ``0.2*exp(-40)``, so
    the printed bounds do not carry it.  A transform above ``Q = 4096``, or a
    node sum's ``rows x Q`` plane waves above the same 256 MiB, is refused
    with ``ValueError`` before it is allocated, a curve's before its rule is
    built.
    """
    N = int(N)
    aperture, _ = centering_transform(aperture)
    if isinstance(aperture, (Circle, Disk)):
        return np.diag(_radial_diagonal(aperture, N))
    angle = _line_angle(aperture)
    F = _node_sum_factor(aperture, N, angle)
    if F is not None:
        return _factor_gram(F if angle is None else _unfold(F, angle, N))
    Q = _angle_grid_size(N, enclosing_radius(aperture))
    _check_grid_bytes(Q, Q, N)
    return _gram_from_transform(_aperture_transform(aperture, _angle_grid(Q), N), N)


def _toeplitz(s: np.ndarray) -> np.ndarray:
    """``T_mn = s_(m-n)``, ``m, n = 0..2N``, from ``s = s_(-2N..2N)``: a read-only view of ``s``."""
    # window m of s, reversed, is s_(m-n) for n = 0..2N
    return sliding_window_view(s, (len(s) + 1) // 2)[:, ::-1]


def _kernel_grid(model: PasModel, radius: float, N: int | None):
    """``(N, u, c)`` with ``rho_N(x) = cos(2*pi*x.u) @ c+ + j*sin(2*pi*x.u) @ c-`` for ``|x| <= radius``.

    ``N`` is chosen or refused by :func:`~divspec.specfun.series_order` at
    ``radius``; ``u`` is the antipodal angle grid of :func:`gram_matrix` for
    that radius.  The weights ``w_q = p_N(a_q)/Q`` sample the truncated PAS
    series ``p_N(a) = sum_{|n|<=N} s_n exp(j*n*a)``, real since
    ``s_{-n} = conj(s_n)``, and ``rho_N(x) = sum_q w_q exp(j*2*pi*x.u_q)``.
    Since ``u_(q+Q/2) = -u_q`` the sum folds onto the first ``Q/2`` angles,
    the ``u`` of the summary, with the real weights ``c = (c+, c-)``,
    ``c+-_q = w_q +- w_(q+Q/2)``, a ``2 x Q/2`` array.  A grid whose single
    row of plane waves would exceed ``_MAX_GRID_BYTES`` is refused before
    anything of size ``Q`` is allocated.
    """
    N, _ = specfun.series_order(radius, N)
    Q = _angle_grid_size(N, radius)
    _check_grid_bytes(1, Q, N)
    coeffs = np.zeros(Q, dtype=complex)
    orders = np.arange(-N, N + 1)
    coeffs[orders % Q] = model.fourier(orders)
    c = np.fft.ifft(coeffs).real.reshape(2, Q // 2)
    return N, _angle_grid(Q), np.stack([c[0] + c[1], c[0] - c[1]])


def rho_n_kernel(model: PasModel, x, N: int | None = None):
    """Truncated spatial correlation kernel at displacement(s) ``x``.

    Evaluates ``rho_N(x) = sum_{|n|<=N} s_n exp(j*beta*n) j**n J_n(2*pi*|x|)``,
    where :func:`~divspec.specfun.series_order` chooses or refuses ``N`` at
    radius ``r = max |x|``; the omitted tail is bounded by
    :func:`~divspec.specfun.bessel_abs_tail_bound` ``(N, r)``.  By
    Jacobi-Anger ``rho_N`` is the angle integral of ``p_N(a)/(2*pi)``
    times plane waves, evaluated by the trapezoidal rule on the ``Q``
    angles of :func:`gram_matrix`, folded onto half of them: each point is
    ``cos(2*pi*x.u) @ c+ + j*sin(2*pi*x.u) @ c-`` (see ``_kernel_grid``), the
    formula of :func:`~divspec.spectrum.discrete_correlation`, in row blocks
    of about 4 MiB.  The rule aliases only orders ``|m| >= Q - N``, and
    ``|s_n| <= 1``, so each value moves by at most
    ``bessel_abs_tail_bound(Q-N-1, r) <= 0.2*exp(-40)``.
    """
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    if scalar:
        pts = pts[None, :]
    r_max = float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
    N, u, c = _kernel_grid(model, r_max, N)
    h = len(u) // 2
    rows = max(1, _KERNEL_BLOCK_BYTES // (len(u) * np.dtype(float).itemsize))
    values = np.empty(len(pts), dtype=complex)
    for lo in range(0, len(pts), rows):
        W = _wave_parts(pts[lo : lo + rows], u, N)
        values.real[lo : lo + rows] = W[:, :h] @ c[0]
        values.imag[lo : lo + rows] = W[:, h:] @ c[1]
    return complex(values[0]) if scalar else values


@dataclass(frozen=True, eq=False)
class TruncatedOperator:
    """Gram factor and ``R`` plus the truncation metadata.

    ``N`` is the truncation order, ``N_D`` the critical order for the
    enclosing radius ``r1`` of the centred aperture, ``rho_max`` the PAS
    peak factor entering the error bounds, and ``offset`` the translation
    removed by centring.

    ``gram_factor`` is ``F``, ``G = F^H F``, with ``K <= 2N+1`` rows, so
    ``G R`` has rank at most ``K``.  A circle's or disk's ``F`` is
    ``sqrt(g)`` of its diagonal ``G = diag(g)``, held as a 1-D array and
    read as a diagonal matrix.  A node sum's is ``F_kn = sqrt(w_k)*v_n(x_k)``
    (see :func:`gram_matrix`), or its triangular QR factor when it has more
    than ``2N+1`` nodes; a rectangle's or two or more lines' comes from one
    real ``eigh`` (``_transform_factor``).  ``_line_angle`` is ``None``
    except on a line through the origin in mirror pairs, a centred segment
    or line or such an array: there it is the line's angle ``theta`` and
    ``gram_factor`` the real ``K x (N+1)`` half factor ``P`` of
    ``_line_factor``, ``K <= N+1``, with ``||P||_F = ||F||_F``; ``F`` is
    ``P`` unfolded (``_unfold``).  ``gram`` forms ``F^H F`` on each read;
    only ``--dump-matrices`` and tests read it.  ``==`` compares identity
    and reads no matrix.

    ``rtilde`` is ``R(0)``, ``R`` of the PAS about its own axis: real for
    the isotropic, uniform and von Mises models, so every factorisation
    of it and product with it is real, and complex for a tabulated one.
    ``alpha0`` is the PAS's mean angle: the operator stands for
    ``(G, R(alpha0))`` with ``R(alpha0) = D R(0) D^H`` exactly,
    ``D = diag(exp(-j*n*alpha0))``, which the solve applies as a phase on
    ``F``; ``R(alpha0)`` is PSD exactly when ``R(0)`` is, and a diagonal
    ``G`` commutes with ``D``.  On every route ``rtilde`` is the read-only
    window of ``s`` (``_toeplitz``), so the ``R(0)`` a certificate was given
    cannot change after it; a line's solve reads only its first column.

    ``_psd_certified`` records that ``R(0)`` is PSD to within ``_PSD_TOL``,
    proven or tested once by :func:`build_truncated_operator`'s PAS half.
    Only ``_join`` sets it, joining that half to an aperture's for a build
    or a sweep point.  It is not an ``__init__`` argument and
    ``dataclasses.replace`` resets it, so a hand-built ``R`` is tested by
    ``_check_psd`` where it is read, by every solve and sweep point
    (:mod:`divspec.spectrum`).
    """

    N: int
    N_D: int
    r1: float
    gram_factor: np.ndarray
    rtilde: np.ndarray
    rho_max: float
    offset: np.ndarray
    alpha0: float = 0.0
    _line_angle: float | None = field(default=None, repr=False)
    _psd_certified: bool = field(init=False, default=False, repr=False)

    @property
    def size(self) -> int:
        return 2 * self.N + 1

    @property
    def gram(self) -> np.ndarray:
        F = self.gram_factor
        if F.ndim == 1:
            return np.diag(F * F)
        return _factor_gram(F if self._line_angle is None else _unfold(F, self._line_angle, self.N))


def _check_psd(R: np.ndarray) -> None:
    """Refuse ``R`` unless ``R + _PSD_TOL*I`` has a Cholesky factor.

    That admits every ``R`` whose smallest eigenvalue exceeds ``-_PSD_TOL``
    (up to round-off in the factorisation); only a refusal pays for
    ``eigvalsh``, to name that eigenvalue.
    """
    shifted = R.copy()
    shifted.flat[:: len(R) + 1] += _PSD_TOL
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lam_min = float(np.linalg.eigvalsh(R)[0])
        raise ArithmeticError(
            f"coefficient correlation matrix indefinite: min eigenvalue {lam_min:.3e}"
        ) from None


def build_truncated_operator(aperture, model: PasModel, N: int | None = None) -> TruncatedOperator:
    """Assemble the truncated operator for an aperture and a PAS.

    The aperture is centred first (the kernel is stationary, so this only
    shrinks the enclosing radius ``r1``), and ``N`` is chosen or refused by
    :func:`~divspec.specfun.series_order` at ``r1``.  An ``R`` above
    256 MiB as a complex matrix is refused next, before anything of order
    ``2N+1`` is allocated.  ``R`` is built about the PAS's own axis, the
    mean angle kept as ``alpha0``, and is real when its coefficients are;
    it stays a read-only window of them.  ``G`` is kept as its factor
    ``F``, on a line, decided once (``_line_angle``), as the half factor
    ``P`` (see :class:`TruncatedOperator`).  No route forms ``R`` here;
    each keeps the size refusal, so all admit and refuse the same orders.
    Each invariant that can fail is tested once, here: ``G``'s trace
    ``||F||_F**2`` against the tail bound, a transform ``G``'s PSD (in
    ``_transform_factor``; that ``G`` is exactly Hermitian, formed as
    ``0.5*(G + G^H)``, and every other ``F^H F`` is PSD by construction),
    and ``R``'s symmetry and unit diagonal on the coefficients
    ``s = s_(-2N..2N)`` it is windowed from, ``s_(-k) = conj(s_k)`` and
    ``s_0 = 1``, which are ``R``'s own because ``R_mn = s_(m-n)``.  A NaN
    fails every one of these tests.

    ``R``'s PSD is proven for the four shipped models (by exact type:
    ``IsotropicPas``, ``UniformPas``, ``VonMisesPas``, ``TabulatedPas``),
    whose constructors refuse a negative density ``S``.  With the exact
    ``s_k = int S(a) exp(-j*k*a) da``,
    ``x^H R x = int S(a) |sum_n x_n exp(j*n*a)|**2 da >= 0`` (Caratheodory-
    Toeplitz), and the computed ``R`` differs from the exact one by the
    Toeplitz matrix of the errors ``ds_k``, of norm at most
    ``sum |ds_k| <= (4N+1)*max |ds_k|``.  Against 40-digit values
    ``max |ds_k|`` is 0 for the isotropic model and below 4e-16 for the
    others up to von Mises ``kappa = 700`` (uniform 1 to 360 degrees, von
    Mises ``kappa`` 0 to 700, a table with a zero arc, ``|k| <= 4094``;
    3.1e-16 at most), and below 4e-15 up to the ceiling ``kappa = 1e6``,
    where the rounding of the ratio recurrence's 9,000 steps adds up to
    3.5e-15.  So up to the largest admitted ``N``, 2047, ``R``'s eigenvalues
    stay above ``-3.3e-12`` (``-3.3e-11`` for ``kappa`` above 700), inside
    ``-_PSD_TOL``.
    ``R`` of any other :class:`~divspec.pas.PasModel` is tested once by a
    Cholesky factor (``_check_psd``).  Either way the operator carries the
    certificate, and no solve or sweep point tests ``R`` again.

    The build is two halves, in this order: the aperture's
    (``_aperture_half``: centring, ``N``, ``R``'s size refusal, the line
    angle, ``F`` and its trace tests) and the PAS's (``_coefficient_half``:
    ``s`` and its tests, ``R(0)`` and its PSD certificate or test,
    ``rho_max``), which depends only on the model about its axis and ``N``.
    ``_join`` makes them one operator at the model's mean angle, so a sweep
    (:func:`divspec.cli.cmd_sweep`) builds the PAS half once per order and
    a direction sweep each half once.
    """
    geometry = _aperture_half(aperture, N)
    return _join(geometry, _coefficient_half(model, geometry["N"]), model.alpha0)


def _aperture_half(aperture, N: int | None) -> dict:
    """The aperture's fields of its operator: ``N``, ``N_D``, ``r1``, ``F``, the offset and the line angle.

    Centres the aperture, chooses or refuses ``N``, refuses an ``R`` above
    256 MiB, decides the route once (``_line_angle``), and builds and
    checks ``F`` (see :func:`build_truncated_operator`).  The PAS half it
    joins is the one of order ``N``.
    """
    centered, offset = centering_transform(aperture)
    r1 = enclosing_radius(centered)
    N, n_critical = specfun.series_order(r1, N)
    size = 2 * N + 1
    nbytes = size * size * np.dtype(complex).itemsize
    if nbytes > _MAX_GRID_BYTES:
        raise ValueError(
            f"evaluation at N={N} needs a {size}x{size} {nbytes}-byte coefficient "
            f"correlation matrix R, above the {_MAX_GRID_BYTES}-byte limit"
        )
    line_angle = _line_angle(centered)
    F = _gram_factor(centered, N, line_angle)
    trace = float(np.vdot(F, F).real)
    if not trace <= 1.0 + 1e-12:
        raise ArithmeticError(f"Gram trace {trace} outside [0, 1]")
    residual = specfun.bessel_sq_tail_bound(N, r1)
    if 1.0 - trace > residual + 1e-9:
        raise ArithmeticError(
            f"Gram trace deficit {1.0 - trace:.3e} exceeds the tail bound {residual:.3e}"
        )
    return dict(
        N=N,
        N_D=n_critical,
        r1=r1,
        gram_factor=F,
        offset=np.asarray(offset, dtype=float),
        _line_angle=line_angle,
    )


def _coefficient_half(model: PasModel, N: int) -> dict:
    """The PAS's fields of an order-``N`` operator: ``R(0)``, certified PSD, and ``rho_max``.

    ``R(0)`` is the read-only window of ``s = s_(-2N..2N)`` about the
    PAS's axis on every route, so no caller can change it after its
    certificate.  ``s`` and ``R(0)`` are tested as
    :func:`build_truncated_operator` says.  The result depends only on
    the model about its axis and ``N``.
    """
    s = model._on_axis().fourier(np.arange(-2 * N, 2 * N + 1))
    if not float(np.max(np.abs(s - s[::-1].conj()))) <= 1e-14:
        raise ArithmeticError("coefficient correlation matrix is not Hermitian")
    if not abs(s[2 * N] - 1.0) <= 1e-12:
        raise ArithmeticError("coefficient correlation matrix diagonal is not 1")
    R = _toeplitz(s if s.imag.any() else s.real)
    if type(model) not in _PSD_MODELS:
        _check_psd(R)
    return dict(rtilde=R, rho_max=float(model.rho_max()))


def _join(aperture_half: dict, coefficient_half: dict, alpha0: float) -> TruncatedOperator:
    """The operator of two halves of one ``N`` at mean angle ``alpha0``, sharing their arrays.

    It carries ``R(0)``'s certificate: ``R(alpha0) = D R(0) D^H`` is PSD
    exactly when ``R(0)`` is.
    """
    op = TruncatedOperator(**aperture_half, **coefficient_half, alpha0=alpha0)
    object.__setattr__(op, "_psd_certified", True)
    return op
