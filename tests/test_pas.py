import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from divspec import pas as pasmod
from divspec.aperture import Circle
from divspec.operators import build_truncated_operator
from divspec.pas import (
    DopplerSpec,
    IsotropicPas,
    TabulatedPas,
    UniformPas,
    VonMisesPas,
    doppler_spectrum,
    time_acf,
    wrap_angle,
)

TWO_PI = 2.0 * math.pi


def fourier_quadrature(model, n, breakpoints=()):
    """Direct quadrature of the defining coefficient integral.

    Integrates ``exp(-j*alpha*n) * S(alpha)`` piecewise between the given
    discontinuities so scipy's adaptive rule only ever sees smooth pieces.
    """
    edges = sorted({-math.pi, math.pi, *(float(wrap_angle(b)) for b in breakpoints)})
    total = 0.0 + 0.0j
    for a, b in zip(edges, edges[1:]):
        re, _ = integrate.quad(lambda t: model.value(t) * math.cos(n * t), a, b, limit=400)
        im, _ = integrate.quad(lambda t: -model.value(t) * math.sin(n * t), a, b, limit=400)
        total += re + 1j * im
    return total


def uniform_breakpoints(delta, alpha0):
    return (alpha0 - delta / 2, alpha0 + delta / 2)


MODELS_WITH_BREAKS = [
    (IsotropicPas(), ()),
    (UniformPas(delta=math.pi, alpha0=0.0), uniform_breakpoints(math.pi, 0.0)),
    (UniformPas(delta=math.pi / 4, alpha0=2.5), uniform_breakpoints(math.pi / 4, 2.5)),
    (VonMisesPas(kappa=3.0, alpha0=-1.2), ()),
    (
        TabulatedPas([-2.0, 0.5, 1.5, 3.0], [0.3, 1.0, 0.0, 0.6], alpha0=0.4),
        (-2.0 + 0.4, 0.5 + 0.4, 1.5 + 0.4, 3.0 + 0.4),
    ),
]


class TestValues:
    def test_isotropic_constant(self):
        model = IsotropicPas()
        for alpha in [-3.0, 0.0, 1.234, math.pi]:
            assert model.value(alpha) == pytest.approx(1.0 / TWO_PI, rel=1e-15)

    def test_uniform_window(self):
        model = UniformPas(delta=math.pi, alpha0=0.0)
        assert model.value(math.pi / 4) == pytest.approx(1.0 / math.pi)
        assert model.value(0.9 * math.pi) == 0.0

    def test_uniform_window_straddles_pi(self):
        model = UniformPas(delta=math.pi / 2, alpha0=math.pi - 0.1)
        assert model.value(-math.pi + 0.05) > 0.0  # wraps across the cut
        assert model.value(0.0) == 0.0

    def test_von_mises_peak(self):
        kappa = 2.0
        i0 = integrate.quad(lambda t: math.exp(kappa * math.cos(t)) / math.pi, 0, math.pi)[0]
        model = VonMisesPas(kappa=kappa, alpha0=0.0)
        assert model.value(0.0) == pytest.approx(math.exp(kappa) / (TWO_PI * i0), rel=1e-10)

    def test_shift_moves_peak(self):
        model = VonMisesPas(kappa=4.0, alpha0=1.0)
        assert model.value(1.0) > model.value(0.0)

    @pytest.mark.parametrize("model,breaks", MODELS_WITH_BREAKS)
    def test_normalisation(self, model, breaks):
        edges = sorted({-math.pi, math.pi, *(float(wrap_angle(b)) for b in breaks)})
        total = sum(
            integrate.quad(model.value, a, b, limit=200)[0] for a, b in zip(edges, edges[1:])
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_non_negative(self):
        for model, _ in MODELS_WITH_BREAKS:
            assert np.all(model.value(np.linspace(-math.pi, math.pi, 257)) >= 0.0)


class TestFourier:
    def test_zeroth_is_one(self):
        for model, _ in MODELS_WITH_BREAKS:
            assert model.fourier(0) == 1.0 + 0.0j

    def test_isotropic_vanishes(self):
        model = IsotropicPas()
        for n in [1, -1, 2, 17]:
            assert model.fourier(n) == 0.0

    def test_uniform_half_circle(self):
        model = UniformPas(delta=math.pi, alpha0=0.0)
        assert model.fourier(1) == pytest.approx(2.0 / math.pi, rel=1e-14)

    def test_full_circle_is_isotropic(self):
        model = UniformPas(delta=TWO_PI, alpha0=0.0)
        for n in range(1, 8):
            assert abs(model.fourier(n)) < 1e-15

    def test_von_mises_real_ratio(self):
        model = VonMisesPas(kappa=4.0, alpha0=0.0)
        for n in range(0, 9):
            coeff = model.fourier(n)
            assert coeff.imag == 0.0
            assert coeff.real == pytest.approx(special.ive(n, 4.0) / special.ive(0, 4.0), rel=1e-14)

    @pytest.mark.parametrize("model,breaks", MODELS_WITH_BREAKS)
    def test_against_quadrature(self, model, breaks):
        for n in [-50, -7, -1, 0, 1, 2, 13, 50]:
            oracle = fourier_quadrature(model, n, breaks)
            assert model.fourier(n) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("model,breaks", MODELS_WITH_BREAKS)
    def test_hermitian_and_bounded(self, model, breaks):
        ns = np.arange(-40, 41)
        coeffs = model.fourier(ns)
        assert np.allclose(coeffs[::-1], np.conj(coeffs), atol=1e-14)
        assert np.all(np.abs(coeffs) <= 1.0 + 1e-12)

    def test_von_mises_continuity_at_zero(self):
        small = VonMisesPas(kappa=1e-8, alpha0=0.0)
        iso = IsotropicPas()
        ns = np.arange(-10, 11)
        assert np.allclose(small.fourier(ns), iso.fourier(ns), atol=1e-7)

    def test_vectorised_matches_scalar(self):
        model = UniformPas(delta=1.1, alpha0=0.7)
        ns = np.array([-3, 0, 2, 9])
        vec = model.fourier(ns)
        for i, n in enumerate(ns):
            assert vec[i] == model.fourier(int(n))


class TestRhoMax:
    def test_isotropic(self):
        assert IsotropicPas().rho_max() == 1.0

    def test_uniform(self):
        assert UniformPas(delta=math.pi / 2).rho_max() == pytest.approx(4.0, rel=1e-15)

    def test_von_mises_zero_kappa(self):
        assert VonMisesPas(kappa=0.0).rho_max() == pytest.approx(1.0, rel=1e-15)

    def test_von_mises_quadrature(self):
        kappa = 3.0
        i0 = integrate.quad(lambda t: math.exp(kappa * math.cos(t)) / math.pi, 0, math.pi)[0]
        assert VonMisesPas(kappa=kappa).rho_max() == pytest.approx(
            math.exp(kappa) / i0, rel=1e-10
        )

    def test_tabulated(self):
        model = TabulatedPas([-1.0, 0.0, 1.0], [1.0, 3.0, 2.0])
        grid = np.linspace(-math.pi, math.pi, 8192)
        assert model.rho_max() == pytest.approx(TWO_PI * float(np.max(model.value(grid))), rel=1e-12)


class TestTabulated:
    def test_records_scale(self):
        model = TabulatedPas([-1.0, 1.0], [2.0, 2.0])
        assert model.normalization_scale == pytest.approx(1.0 / (2.0 * TWO_PI))

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError):
            TabulatedPas([0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedPas([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            TabulatedPas([0.0, 1.0], [0.0, 0.0])

    def test_blocked_fourier_matches_one_block(self, monkeypatch):
        rng = np.random.default_rng(5)
        model = TabulatedPas(np.sort(rng.uniform(-3.0, 3.0, 300)), rng.uniform(0.1, 2.0, 300))
        n = np.arange(-40, 41)
        whole = model.fourier(n)
        # 81 orders x 16 bytes x 7 rows: 43 blocks, the last one short
        monkeypatch.setattr(pasmod, "_FOURIER_BLOCK_BYTES", 81 * 16 * 7)
        assert np.max(np.abs(model.fourier(n) - whole)) <= 1e-15

    def test_long_table_memory_bounded(self):
        # one block of all rows would trace about 1.4 GiB at orders -76..76
        rows = 200_000
        angles = TWO_PI * np.arange(rows) / rows
        model = TabulatedPas(angles, 1.5 + 0.5 * np.cos(6.0 * angles))
        tracemalloc.start()
        try:
            op = build_truncated_operator(Circle(1.0), model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        # the sampled density's only non-trivial coefficient, 1/6 up to the step
        assert op.rtilde[op.N + 6, op.N] == pytest.approx(1.0 / 6.0, abs=1e-3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "name, make",
    [
        ("alpha0", lambda x: IsotropicPas(alpha0=x)),
        ("delta", lambda x: UniformPas(delta=x)),
        ("alpha0", lambda x: UniformPas(delta=1.0, alpha0=x)),
        ("kappa", lambda x: VonMisesPas(kappa=x)),
        ("alpha0", lambda x: VonMisesPas(kappa=2.0, alpha0=x)),
        ("angles", lambda x: TabulatedPas([0.0, x], [1.0, 1.0])),
        ("densities", lambda x: TabulatedPas([0.0, 1.0], [1.0, x])),
        ("alpha0", lambda x: TabulatedPas([0.0, 1.0], [1.0, 1.0], alpha0=x)),
        ("nu_max", lambda x: DopplerSpec(x)),
    ],
    ids=[
        "isotropic", "uniform-delta", "uniform", "von_mises-kappa", "von_mises",
        "tabulated-angles", "tabulated-densities", "tabulated", "doppler",
    ],
)
def test_refuses_non_finite_parameter(name, make, bad):
    # a NaN or infinite parameter would reach the kernel and the solve as NaN
    with pytest.raises(ValueError, match=f"requires finite {name}$"):
        make(bad)


class TestDoppler:
    def test_jakes_at_zero(self):
        value = doppler_spectrum(IsotropicPas(), DopplerSpec(1.0), 0.0)
        assert value == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_jakes_shape(self):
        spec = DopplerSpec(1.0)
        for nu in [0.3, -0.77]:
            expected = 1.0 / (math.pi * math.sqrt(1.0 - nu * nu))
            assert doppler_spectrum(IsotropicPas(), spec, nu) == pytest.approx(expected, rel=1e-12)

    def test_domain_error_at_edge(self):
        with pytest.raises(ValueError):
            doppler_spectrum(IsotropicPas(), DopplerSpec(1.0), 1.0)
        with pytest.raises(ValueError):
            doppler_spectrum(IsotropicPas(), DopplerSpec(0.5), -0.6)

    def test_mirror_symmetry_in_alpha0(self):
        spec = DopplerSpec(1.0)
        left = VonMisesPas(kappa=5.0, alpha0=0.8)
        right = VonMisesPas(kappa=5.0, alpha0=-0.8)
        for nu in np.linspace(-0.9, 0.9, 7):
            assert doppler_spectrum(left, spec, nu) == pytest.approx(
                doppler_spectrum(right, spec, nu), rel=1e-12
            )

    @pytest.mark.parametrize(
        "model",
        [IsotropicPas(), UniformPas(delta=math.pi / 2, alpha0=0.9), VonMisesPas(kappa=10.0)],
    )
    def test_normalisation(self, model):
        # substitute nu = nu_max*cos(theta); the integrand becomes bounded
        nu_max = 1.0
        spec = DopplerSpec(nu_max)

        def integrand(theta):
            nu = nu_max * math.cos(theta)
            return doppler_spectrum(model, spec, nu) * nu_max * math.sin(theta)

        total, _ = integrate.quad(integrand, 1e-12, math.pi - 1e-12, limit=400)
        assert total == pytest.approx(1.0, abs=1e-6)


class TestTimeAcf:
    def test_isotropic_reduces_to_single_term(self):
        spec = DopplerSpec(1.0)
        for t in [0.1, 0.5, 1.3]:
            n_needed = math.ceil(math.e * math.pi * t)
            value = time_acf(IsotropicPas(), spec, t, N=n_needed + 10)
            assert value == pytest.approx(special.jv(0, TWO_PI * t), abs=1e-12)

    def test_unit_at_zero_lag(self):
        for model, _ in MODELS_WITH_BREAKS:
            assert time_acf(model, DopplerSpec(2.0), 0.0, N=5) == pytest.approx(1.0, abs=1e-14)

    def test_against_direct_quadrature(self):
        model = UniformPas(delta=math.pi / 2, alpha0=0.0)
        spec = DopplerSpec(1.0)
        t = 0.3
        edges = [-math.pi, -math.pi / 4, math.pi / 4, math.pi]
        total = 0.0 + 0.0j
        for a, b in zip(edges, edges[1:]):
            re, _ = integrate.quad(
                lambda u: model.value(u) * math.cos(TWO_PI * t * math.cos(u)), a, b, limit=200
            )
            im, _ = integrate.quad(
                lambda u: model.value(u) * math.sin(TWO_PI * t * math.cos(u)), a, b, limit=200
            )
            total += re + 1j * im
        value = time_acf(model, spec, t, N=20)
        assert value == pytest.approx(total, abs=1e-8)

    def test_truncation_precondition(self):
        with pytest.raises(ValueError):
            time_acf(IsotropicPas(), DopplerSpec(1.0), 1.3, N=5)

    def test_default_order(self):
        from divspec.specfun import series_order

        spec = DopplerSpec(2.0)
        model = UniformPas(delta=1.0, alpha0=0.6)
        for t in [0.0, 0.4, -1.3]:
            N, _ = series_order(spec.nu_max * abs(t))
            assert time_acf(model, spec, t) == time_acf(model, spec, t, N=N)
            assert time_acf(IsotropicPas(), spec, t) == pytest.approx(
                special.jv(0, TWO_PI * spec.nu_max * abs(t)), abs=1e-12
            )

    def test_negative_lag_conjugates(self):
        model = UniformPas(delta=1.0, alpha0=0.6)
        spec = DopplerSpec(1.0)
        forward = time_acf(model, spec, 0.4, N=20)
        backward = time_acf(model, spec, -0.4, N=20)
        assert backward == pytest.approx(np.conj(forward), rel=1e-14)


class TestWrapAngle:
    def test_interval(self):
        for alpha in [-math.pi, math.pi, 3 * math.pi, -7.5, 123.4]:
            w = wrap_angle(alpha)
            assert -math.pi < w <= math.pi
            # representative of the same angle
            assert math.cos(w) == pytest.approx(math.cos(alpha), abs=1e-12)
            assert math.sin(w) == pytest.approx(math.sin(alpha), abs=1e-12)

    def test_inside_interval_unchanged(self):
        grid = np.linspace(-math.pi, math.pi, 6284)[1:]
        grid = np.concatenate([grid, [1.2, -1.2, 0.0, -0.0, np.nextafter(-math.pi, 0.0)]])
        assert np.array_equal(wrap_angle(grid), grid)
        assert all(wrap_angle(float(a)) == float(a) for a in grid)
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == math.pi
        assert np.array_equal(wrap_angle(np.array([-math.pi, 3 * math.pi])), [math.pi, math.pi])

    def test_doppler_spec_validation(self):
        with pytest.raises(ValueError):
            DopplerSpec(0.0)
        with pytest.raises(ValueError):
            pasmod.DopplerSpec(-1.0)
