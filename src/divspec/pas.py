"""Power azimuth spectrum (PAS) models and induced Doppler statistics.

A PAS is the angular density S(alpha) of received power over the angle of
arrival, normalised to unit total power.  Every model exposes

* ``value(alpha)``      -- the density itself,
* ``fourier(n)``        -- the scaled Fourier coefficient
  ``2*pi * (1/2*pi) * int exp(-j*alpha*n) S(alpha) d(alpha)``, which is 1
  at ``n = 0`` by normalisation and bounded by 1 in magnitude,
* ``rho_max()``         -- ``2*pi * sup S``, the operator-norm constant that
  enters the eigenvalue error bounds.

Models are immutable after construction and safe to share across threads.
All angles are radians; the CLI layer converts from degrees.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .specfun import _bessel_i_ratios

__all__ = [
    "PasModel",
    "IsotropicPas",
    "UniformPas",
    "VonMisesPas",
    "TabulatedPas",
    "DopplerSpec",
    "wrap_angle",
    "doppler_spectrum",
    "time_acf",
]

TWO_PI = 2.0 * math.pi

#: Size (bytes) of one ``orders x rows`` block of ``TabulatedPas.fourier``.
_FOURIER_BLOCK_BYTES = 1 << 22

#: Largest ``kappa`` of :class:`VonMisesPas`: its coefficients' recurrence
#: runs about ``sqrt(80*kappa)`` steps, 9,000 at the ceiling.
_KAPPA_MAX = 1e6


def wrap_angle(alpha):
    """Wrap angle(s) into the interval (-pi, pi]; angles already in it are returned unchanged."""
    alpha = np.asarray(alpha, dtype=float)
    inside = (alpha > -math.pi) & (alpha <= math.pi)
    wrapped = np.where(inside, alpha, np.remainder(alpha + math.pi, TWO_PI) - math.pi)
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    return float(wrapped) if np.ndim(alpha) == 0 else wrapped


def _check_finite(owner: str, **params) -> None:
    # NaN passes every sign check; a PAS, an aperture or a position set with a
    # NaN or infinite parameter would come out as NaN or fail far from its input
    for name, value in params.items():
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:  # a number or a point; math.isfinite costs far less than a ufunc call
            finite = all(map(math.isfinite, value if isinstance(value, tuple) else (value,)))
        if not finite:
            raise ValueError(f"{owner} requires finite {name}")


class PasModel:
    """Common behaviour of all PAS models.

    Subclasses implement the centred density and centred Fourier
    coefficients; shifting by the mean angle of arrival ``alpha0``, which
    is wrapped into (-pi, pi], is handled here (a shift multiplies
    coefficient ``n`` by ``exp(-j*alpha0*n)``).
    """

    alpha0: float = 0.0

    def __post_init__(self):
        _check_finite(type(self).__name__, **vars(self))
        object.__setattr__(self, "alpha0", wrap_angle(self.alpha0))

    def _on_axis(self) -> "PasModel":
        """A copy of this model with ``alpha0 = 0``, the frame in which it is centred."""
        model = copy.copy(self)
        object.__setattr__(model, "alpha0", 0.0)
        return model

    def _centered_value(self, alpha):
        raise NotImplementedError

    def _centered_fourier(self, n):
        raise NotImplementedError

    def value(self, alpha):
        """Density S(alpha); ``alpha`` may be a scalar or an array."""
        alpha = np.asarray(alpha, dtype=float)
        flat = np.atleast_1d(alpha)
        out = self._centered_value(wrap_angle(flat - self.alpha0))
        return float(out[0]) if alpha.ndim == 0 else out.reshape(alpha.shape)

    def fourier(self, n):
        """Scaled Fourier coefficient for integer order(s) ``n`` (complex)."""
        n = np.asarray(n)
        flat = np.atleast_1d(n)
        coeff = np.asarray(self._centered_fourier(flat), dtype=complex)
        out = np.where(flat == 0, 1.0 + 0.0j, coeff * np.exp(-1j * self.alpha0 * flat))
        return complex(out[0]) if n.ndim == 0 else out.reshape(n.shape)

    def rho_max(self) -> float:
        """Peak density scaled by ``2*pi`` (equals 1 for isotropic scattering)."""
        raise NotImplementedError


@dataclass(frozen=True)
class IsotropicPas(PasModel):
    """Uniform scattering over the full circle, S(alpha) = 1/(2*pi)."""

    alpha0: float = 0.0

    def _centered_value(self, alpha):
        return np.full_like(np.asarray(alpha, dtype=float), 1.0 / TWO_PI)

    def _centered_fourier(self, n):
        return np.where(np.asarray(n) == 0, 1.0, 0.0)

    def rho_max(self) -> float:
        return 1.0


@dataclass(frozen=True)
class UniformPas(PasModel):
    """Constant density over an opening angle ``delta``, zero outside."""

    delta: float = TWO_PI
    alpha0: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.delta <= TWO_PI:
            raise ValueError("UniformPas requires delta in (0, 2*pi]")

    def _centered_value(self, alpha):
        inside = np.abs(np.asarray(alpha, dtype=float)) <= self.delta / 2.0
        return np.where(inside, 1.0 / self.delta, 0.0)

    def _centered_fourier(self, n):
        # sin(n*delta/2) / (n*delta/2), written via the normalised sinc
        return np.sinc(np.asarray(n) * self.delta / TWO_PI)

    def rho_max(self) -> float:
        return TWO_PI / self.delta


@dataclass(frozen=True)
class VonMisesPas(PasModel):
    """Von Mises density ``exp(kappa*cos(alpha)) / (2*pi*I_0(kappa))``.

    ``kappa = 0`` reduces to the isotropic model; large ``kappa``
    concentrates the power around ``alpha0``, and ``kappa`` above ``1e6``,
    an angular spread below about ``0.06`` degrees, is refused.  The
    coefficients ``s_k = I_k(kappa)/I_0(kappa)`` come from one backward ratio
    recurrence per model (``specfun._bessel_i_ratios``), run at construction
    from order ``ceil(sqrt(80*kappa)) + 40``; past that list, where
    ``s_k < exp(-40)``, they are zero.  ``rho_max = exp(kappa)/I_0(kappa)``
    comes from the same list, the generating function at angle 0,
    ``1 + 2*sum_(k>=1) s_k``.
    """

    kappa: float = 0.0
    alpha0: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.kappa <= _KAPPA_MAX:
            raise ValueError(f"VonMisesPas requires kappa >= 0 and kappa <= {_KAPPA_MAX:.0f}")
        # formed once: every coefficient, every build and every density value reads them
        s = np.array(_bessel_i_ratios(0, self.kappa))
        s.flags.writeable = False
        object.__setattr__(self, "_s", s)
        object.__setattr__(self, "_rho_max", 1.0 + 2.0 * math.fsum(s[1:]))

    def _centered_value(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        # exp(kappa*(cos(alpha) - 1)) * rho_max / (2*pi) avoids overflow
        return np.exp(self.kappa * (np.cos(alpha) - 1.0)) * (self._rho_max / TWO_PI)

    def _centered_fourier(self, n):
        k = np.abs(n)
        return np.where(k < len(self._s), self._s[np.minimum(k, len(self._s) - 1)], 0.0)

    def rho_max(self) -> float:
        return self._rho_max


class TabulatedPas(PasModel):
    """Piecewise-constant PAS built from ``(angle, density)`` samples.

    Sample ``k`` assigns its density to the arc from its angle up to the
    next sample's angle (the last arc wraps around).  The table is rescaled
    to unit total power at construction; the applied factor is kept in
    ``normalization_scale``.
    """

    def __init__(self, angles, densities, alpha0: float = 0.0):
        angles = np.asarray(angles, dtype=float)
        densities = np.asarray(densities, dtype=float)
        _check_finite("TabulatedPas", angles=angles, densities=densities, alpha0=alpha0)
        if angles.ndim != 1 or angles.shape != densities.shape or angles.size == 0:
            raise ValueError("TabulatedPas requires matching non-empty angle/density arrays")
        if np.any(densities < 0.0):
            raise ValueError("TabulatedPas densities must be non-negative")
        order = np.argsort(wrap_angle(angles), kind="stable")
        start = wrap_angle(angles)[order]
        if np.any(np.diff(start) == 0.0):
            raise ValueError("TabulatedPas angles must be distinct")
        values = densities[order]
        widths = np.diff(np.append(start, start[0] + TWO_PI))
        total = float(np.sum(values * widths))
        if total <= 0.0:
            raise ValueError("TabulatedPas must carry positive total power")
        self.normalization_scale = 1.0 / total
        self._start = start
        self._widths = widths
        self._values = values * self.normalization_scale
        self.alpha0 = float(wrap_angle(alpha0))

    def _centered_value(self, alpha):
        alpha = np.asarray(alpha, dtype=float)
        # membership in the wrapped arc [start_k, start_k + width_k)
        rel = np.remainder(alpha[..., None] - self._start[None, :], TWO_PI)
        inside = rel < self._widths[None, :]
        # exactly one arc matches; the arcs tile the circle
        return np.sum(np.where(inside, self._values[None, :], 0.0), axis=-1)

    def _centered_fourier(self, n):
        n = np.asarray(n, dtype=float)
        shaped = n[..., None]
        # sum over blocks of table rows, so the orders x rows temporaries stay bounded
        rows = max(1, _FOURIER_BLOCK_BYTES // (max(n.size, 1) * np.dtype(complex).itemsize))
        parts = []
        for lo in range(0, self._start.size, rows):
            a = self._start[None, lo : lo + rows]
            b = a + self._widths[None, lo : lo + rows]
            with np.errstate(divide="ignore", invalid="ignore"):
                seg = (np.exp(-1j * shaped * a) - np.exp(-1j * shaped * b)) / (1j * shaped)
            parts.append(np.sum(self._values[None, lo : lo + rows] * seg, axis=-1))
        return np.where(n == 0, 1.0 + 0.0j, np.sum(parts, axis=0))

    def rho_max(self) -> float:
        return TWO_PI * float(np.max(self._values))


@dataclass(frozen=True)
class DopplerSpec:
    """Maximal Doppler frequency; equals the speed when wavelengths are 1."""

    nu_max: float

    def __post_init__(self):
        _check_finite("DopplerSpec", nu_max=self.nu_max)
        if self.nu_max <= 0.0:
            raise ValueError("DopplerSpec requires nu_max > 0")


def doppler_spectrum(model: PasModel, spec: DopplerSpec, nu: float) -> float:
    """Doppler power density at frequency ``nu``, ``|nu| < nu_max``.

    Motion along the x-axis folds arrival angles ``alpha`` and ``-alpha``
    onto the same frequency ``nu = nu_max*cos(alpha)``, giving

        [S(alpha(nu)) + S(-alpha(nu))] / sqrt(nu_max**2 - nu**2)

    with ``alpha(nu) = arccos(nu/nu_max)``.  The endpoint singularities are
    integrable but excluded from pointwise evaluation.
    """
    nu = float(nu)
    nu_max = spec.nu_max
    if abs(nu) >= nu_max:
        raise ValueError("doppler_spectrum requires |nu| < nu_max")
    alpha = math.acos(nu / nu_max)
    dens = float(model.value(alpha)) + float(model.value(-alpha))
    return dens / math.sqrt(nu_max * nu_max - nu * nu)


def time_acf(model: PasModel, spec: DopplerSpec, t: float, N: int | None = None) -> complex:
    """Time autocorrelation of the fading seen by a receiver at speed nu_max.

    This is the spatial correlation kernel at displacement ``(nu_max*t, 0)``:
    the truncated series ``sum_{|n|<=N} s_n j**n J_n(2*pi*nu_max*t)``, whose
    absolute truncation error is bounded by
    :func:`specfun.bessel_abs_tail_bound` at radius ``nu_max*|t|``, where
    :func:`specfun.series_order` chooses or refuses ``N``.
    """
    from .operators import rho_n_kernel  # operators imports this module

    return rho_n_kernel(model, (spec.nu_max * float(t), 0.0), N)
