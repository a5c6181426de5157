import math
import tracemalloc

import mpmath
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

    @pytest.mark.parametrize("kappa", [1e-3, 0.5, 4.0, 10.0, 100.0, 1e4, 1e6])
    def test_von_mises_reads_the_list_formed_at_construction(self, kappa, monkeypatch):
        # the recurrence runs once per model, at construction; fourier returns its
        # list's bits, and zero past the list, where every s_k < exp(-40)
        def per_call(n):
            k = np.abs(n)
            s = np.zeros(int(np.max(k)) + 1)
            head = pasmod._bessel_i_ratios(kappa)[: len(s)]
            s[: len(head)] = head
            return s[k] * np.exp(-1j * 0.7 * n)

        model = VonMisesPas(kappa=kappa, alpha0=0.7)
        calls = []
        monkeypatch.setattr(pasmod, "_bessel_i_ratios", lambda *args: calls.append(args))
        c = math.ceil(math.sqrt(80.0 * kappa))
        head = np.arange(-c, c + 1)
        wide = np.arange(-4000, 4001)
        got_head, got_wide = model.fourier(head), model.fourier(wide)
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(got_head, per_call(head))
        assert np.array_equal(got_wide, per_call(wide))

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


# the models whose R(0) build_truncated_operator proves PSD, at the edges of their
# parameters; the table has a zero-density arc
PROVEN_MODELS = {
    "isotropic": IsotropicPas(),
    "uniform-1deg": UniformPas(delta=math.radians(1.0)),
    "uniform-2deg": UniformPas(delta=math.radians(2.0)),
    "uniform-5deg": UniformPas(delta=math.radians(5.0)),
    "uniform-90deg": UniformPas(delta=math.radians(90.0)),
    "uniform-360deg": UniformPas(delta=TWO_PI),
    "von-mises-0": VonMisesPas(kappa=0.0),
    "von-mises-3": VonMisesPas(kappa=3.0),
    "von-mises-30": VonMisesPas(kappa=30.0),
    "von-mises-100": VonMisesPas(kappa=100.0),
    "von-mises-200": VonMisesPas(kappa=200.0),
    "von-mises-700": VonMisesPas(kappa=700.0),
    "von-mises-ceiling": VonMisesPas(kappa=1e6),
    "tabulated-zero-arc": TabulatedPas(np.radians([0.0, 40.0, 150.0, 200.0]), [1.0, 3.0, 0.0, 0.5]),
}


def exact_coefficient(model, k: int):
    """``s_k`` of the density ``model`` stands for, ``k >= 0``, as a 40-digit ``mpc``.

    A table's density is the one its stored arcs ``[a, a + w)`` and values
    define, so the reference shares the table's rounding of its input.
    """
    with mpmath.workdps(40):
        if k == 0 or isinstance(model, IsotropicPas):
            return mpmath.mpc(k == 0)
        if isinstance(model, UniformPas):
            x = k * mpmath.mpf(model.delta) / 2
            return mpmath.mpc(mpmath.sin(x) / x)
        if isinstance(model, VonMisesPas):
            kappa = mpmath.mpf(model.kappa)
            return mpmath.mpc(mpmath.besseli(k, kappa) / mpmath.besseli(0, kappa))
        total = mpmath.mpc(0)
        for a, w, v in zip(model._start, model._widths, model._values):
            a, b = mpmath.mpf(a), mpmath.mpf(a) + mpmath.mpf(w)
            total += mpmath.mpf(v) * (mpmath.expj(-k * a) - mpmath.expj(-k * b)) / mpmath.mpc(0, k)
        return total


#: ``max|ds_k|`` that ``build_truncated_operator``'s docstring states: the
#: recurrence's rounding over about 9,000 steps at the von Mises ceiling
STATED_ERROR = {name: 4e-15 if name == "von-mises-ceiling" else 4e-16 for name in PROVEN_MODELS}


class TestPsdPremise:
    """``R(0)`` is PSD to within ``(4N+1)*max|ds_k|``, since the exact one is."""

    @pytest.mark.parametrize("name", PROVEN_MODELS)
    def test_coefficients_against_40_digits(self, name):
        model = PROVEN_MODELS[name]
        # every order of N = 300; sampled orders of N = 2000 and of 2047, the
        # largest N whose R the build admits; negative orders against conj(s_k)
        for N, step in [(300, 1), (2000, 41), (2047, 41)]:
            orders = np.unique(np.append(np.arange(0, 2 * N + 1, step), 2 * N))
            pos, neg = model.fourier(orders), model.fourier(-orders)
            err = 0.0
            for k, sp, sn in zip(orders.tolist(), pos, neg):
                exact = exact_coefficient(model, k)
                err = max(err, float(abs(mpmath.mpc(sp) - exact)), float(abs(mpmath.mpc(sn) - mpmath.conj(exact))))
            assert err <= STATED_ERROR[name] and (4 * N + 1) * err <= 1e-10, (N, err)

    @pytest.mark.parametrize("N", [50, 600])
    @pytest.mark.parametrize("model", PROVEN_MODELS.values(), ids=PROVEN_MODELS)
    def test_built_rtilde_psd(self, model, N):
        op = build_truncated_operator(Circle(1.0), model, N)
        assert op.N == N and op._psd_certified
        assert np.linalg.eigvalsh(op.rtilde)[0] >= -1e-10


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
