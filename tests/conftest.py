import math
import time
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.linalg import toeplitz

import divspec as ds
from divspec import operators


def _uca_points(count, radius):
    beta = 2.0 * math.pi * np.arange(count) / count
    return tuple(zip((radius * np.cos(beta)).tolist(), (radius * np.sin(beta)).tolist()))


APERTURES = {
    "segment": ds.Segment(1.0),
    "circle": ds.Circle(1.0),
    "disk": ds.Disk(0.5),
    "rectangle": ds.Rectangle(1.0, 0.5),
    "curve": ds.PiecewiseCurve(
        (ds.LinePiece((0.0, 0.0), (0.7, 0.0)), ds.LinePiece((0.7, 0.0), (0.7, 0.5)))
    ),
    "lines": ds.ParallelLines(4, 1.0, 1.0),
    "array": ds.DiscreteArray(_uca_points(8, 0.5)),
}

MODELS = {
    "isotropic": ds.IsotropicPas(),
    "uniform": ds.UniformPas(delta=math.pi / 2, alpha0=math.pi / 6),
    "von_mises": ds.VonMisesPas(kappa=5.0, alpha0=2.1),
}


@dataclass
class SolvedCase:
    name: str
    aperture_key: str
    model_key: str
    spectrum: ds.DiversitySpectrum
    spectrum_refined: ds.DiversitySpectrum  # same scenario at N + 5
    gram_trace: float


@pytest.fixture(scope="session")
def suite_spectra():
    """Every aperture kind crossed with every PAS, solved at N and N + 5."""
    cases = []
    start = time.perf_counter()
    for ap_key, aperture in APERTURES.items():
        for m_key, model in MODELS.items():
            op = ds.build_truncated_operator(aperture, model)
            op5 = ds.build_truncated_operator(aperture, model, N=op.N + 5)
            cases.append(
                SolvedCase(
                    name=f"{ap_key}/{m_key}",
                    aperture_key=ap_key,
                    model_key=m_key,
                    spectrum=ds.solve_spectrum(op),
                    spectrum_refined=ds.solve_spectrum(op5),
                    gram_trace=float(np.trace(op.gram).real),
                )
            )
    elapsed = time.perf_counter() - start
    return {"cases": cases, "elapsed": elapsed}


@pytest.fixture
def linalg_calls(monkeypatch):
    """``(name, shape, dtype)`` of every ``np.linalg`` factorisation the test calls."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh", "qr"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, _name=name, **kwargs):
            calls.append((_name, np.shape(a), np.asarray(a).dtype.name))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


@pytest.fixture
def turn():
    """``turn(op, alpha0)``: ``op`` at mean angle ``alpha0``, joined as a direction-sweep point is.

    Every field but ``alpha0`` is ``op``'s own, shared, and the certificate
    of ``R(0)`` is kept (``operators._join``).
    """

    def turned(op, alpha0):
        shared = {f.name: getattr(op, f.name) for f in fields(op) if f.init and f.name != "alpha0"}
        return operators._join(shared, {}, alpha0)

    return turned


@pytest.fixture
def rtilde_reference():
    """``rtilde_reference(model, N)``: ``R(alpha0)``, ``R_mn = s_(m-n)``, by ``scipy.linalg.toeplitz``.

    The independent reference of the coefficient correlation matrix that
    ``--dump-matrices`` writes, from ``model.fourier`` alone.
    """

    def reference(model, N):
        ns = np.arange(0, 2 * N + 1)
        return toeplitz(model.fourier(ns), model.fourier(-ns))

    return reference
