import importlib.util
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import divspec as ds
from divspec import cli, operators, spectrum
from divspec.spectrum import (
    BoundTooLooseError,
    DiversitySpectrum,
    ExcessiveClampError,
    OracleConvergenceError,
)

TWO_PI = 2.0 * math.pi
NON_FINITE = [math.nan, math.inf, -math.inf]


def make_spectrum(eigenvalues, hs_error_bound=0.0):
    lam = np.asarray(eigenvalues, dtype=float)
    trace = float(lam.sum())
    hs = float(np.sum(lam * lam))
    return DiversitySpectrum(
        eigenvalues=lam,
        trace=trace,
        omega=trace * trace / hs,
        hs_norm_sq=hs,
        eig_error_bound=0.0,
        hs_error_bound=hs_error_bound,
        N=10,
        N_D=5,
        r1=0.5,
        rho_max=1.0,
    )


class TestSolve:
    def test_circle_isotropic_closed_form(self):
        op = ds.build_truncated_operator(ds.Circle(1.0), ds.IsotropicPas())
        spec = ds.solve_spectrum(op)
        exact = np.sort([special.jv(n, TWO_PI) ** 2 for n in range(-op.N, op.N + 1)])[::-1]
        assert np.max(np.abs(spec.eigenvalues - exact)) < 1e-12

    def test_point_aperture_fully_correlated(self):
        op = ds.build_truncated_operator(ds.Disk(0.0), ds.VonMisesPas(kappa=3.0, alpha0=0.4))
        spec = ds.solve_spectrum(op)
        assert spec.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(spec.eigenvalues[1:]) < 1e-12
        assert spec.omega == pytest.approx(1.0, abs=1e-10)

    def test_descending_and_nonnegative(self, suite_spectra):
        for case in suite_spectra["cases"]:
            lam = case.spectrum.eigenvalues
            assert np.all(np.diff(lam) <= 1e-15)
            assert np.all(lam >= 0.0)

    def test_attached_bounds(self):
        op = ds.build_truncated_operator(ds.Circle(1.0), ds.UniformPas(delta=math.pi / 2))
        spec = ds.solve_spectrum(op)
        decay = math.exp(op.N_D - op.N)
        assert spec.eig_error_bound == pytest.approx(0.2 * 4.0 * decay, rel=1e-14)
        assert spec.hs_error_bound == pytest.approx(0.4 * 16.0 * decay, rel=1e-14)

    def test_excessive_clamp_raises(self):
        # R just passes its test (min eigenvalue -9e-11 > -1e-10), and a scaled F
        # along that eigenvector takes F R F^H to -9e-8, below the clamping floor
        op = ds.build_truncated_operator(ds.Circle(1.0), ds.IsotropicPas())
        lam, vecs = np.linalg.eigh(op.rtilde)
        rtilde = op.rtilde + (-9e-11 - lam[0]) * np.outer(vecs[:, 0], vecs[:, 0])
        broken = replace(op, rtilde=rtilde, gram_factor=np.sqrt(1e3) * vecs[:, :1].T.astype(complex))
        with pytest.raises(ExcessiveClampError, match="eigenvalue -9.0..e-08 below the clamping floor"):
            ds.solve_spectrum(broken)

    def test_translation_invariance(self):
        base = ds.solve_spectrum(
            ds.build_truncated_operator(ds.Rectangle(0.8, 0.4), ds.VonMisesPas(kappa=4.0))
        )
        moved = ds.solve_spectrum(
            ds.build_truncated_operator(
                ds.Rectangle(0.8, 0.4, center=(1.3, -0.6)), ds.VonMisesPas(kappa=4.0)
            )
        )
        assert np.max(np.abs(base.eigenvalues - moved.eigenvalues)) < 1e-10

    @pytest.mark.parametrize(
        "make_aperture",
        [
            lambda theta: ds.Segment(1.0, angle=theta),
            lambda theta: ds.Rectangle(0.8, 0.4, angle=theta),
        ],
    )
    def test_rotation_covariance(self, make_aperture):
        theta = 0.7
        pas = ds.UniformPas(delta=math.pi / 3, alpha0=0.5)
        pas_rot = ds.UniformPas(delta=math.pi / 3, alpha0=0.5 + theta)
        base = ds.solve_spectrum(ds.build_truncated_operator(make_aperture(0.0), pas))
        rotated = ds.solve_spectrum(
            ds.build_truncated_operator(make_aperture(theta), pas_rot)
        )
        assert np.max(np.abs(base.eigenvalues - rotated.eigenvalues)) < 1e-8

    def test_mirror_symmetry_for_on_axis_line(self):
        plus = ds.solve_spectrum(
            ds.build_truncated_operator(ds.Segment(1.0), ds.UniformPas(delta=1.1, alpha0=0.9))
        )
        minus = ds.solve_spectrum(
            ds.build_truncated_operator(ds.Segment(1.0), ds.UniformPas(delta=1.1, alpha0=-0.9))
        )
        assert np.max(np.abs(plus.eigenvalues - minus.eigenvalues)) < 1e-10

    def test_omega_at_least_one(self, suite_spectra):
        for case in suite_spectra["cases"]:
            assert case.spectrum.omega >= 1.0 - 1e-12


class TestOmegaCorrected:
    def test_exact_case(self):
        spec = make_spectrum([0.6, 0.4], hs_error_bound=0.0)
        assert ds.omega_corrected(spec) == (spec.omega, 0.0)

    def test_small_bound_arithmetic(self):
        spec = make_spectrum([0.2] * 5, hs_error_bound=1e-6)  # hs_norm_sq = 0.2
        center, half = ds.omega_corrected(spec)
        lo, hi = 1.0 / (0.2 + 1e-6), 1.0 / (0.2 - 1e-6)
        assert center == pytest.approx((lo + hi) / 2.0, rel=1e-14)
        assert half == pytest.approx((hi - lo) / 2.0, rel=1e-9)

    def test_loose_bound_rejected(self):
        spec = make_spectrum([0.2] * 5, hs_error_bound=0.2)  # eps = 1 >= 0.5
        with pytest.raises(BoundTooLooseError):
            ds.omega_corrected(spec)

    @pytest.mark.parametrize(
        "aperture,model",
        [
            (
                ds.ParallelLines(8, 8.0, 6.0, angle=math.radians(10.0)),
                ds.VonMisesPas(kappa=5.0, alpha0=math.radians(60.0)),
            ),
            (
                ds.PiecewiseCurve(
                    (
                        ds.LinePiece((-4.0, 0.0), (0.0, 0.0)),
                        ds.ArcPiece(
                            center=(0.0, 2.0), radius=2.0,
                            angle_start=-math.pi / 2, angle_stop=math.pi / 2,
                        ),
                        ds.LinePiece((0.0, 4.0), (-4.0, 4.0)),
                    )
                ),
                ds.UniformPas(delta=math.radians(120.0), alpha0=math.radians(30.0)),
            ),
        ],
        ids=["lines8", "line_arc_line"],
    )
    def test_encloses_refined_omega(self, aperture, model):
        spec = ds.solve_spectrum(ds.build_truncated_operator(aperture, model))
        ref = ds.solve_spectrum(ds.build_truncated_operator(aperture, model, N=spec.N + 25))
        center, half = ds.omega_corrected(spec)
        assert abs(1.0 / ref.hs_norm_sq - center) <= half


#: PAS models with odd Fourier orders (c- != 0), two lobes and an off-axis peak, and
#: the isotropic model, whose folded weights c- vanish
FOLD_MODELS = [
    ds.TabulatedPas([-2.8, -2.2, 0.4, 1.1], [2.0, 0.0, 1.0, 0.0], alpha0=0.3),
    ds.VonMisesPas(kappa=6.0, alpha0=2.2),
    ds.IsotropicPas(),
]
FOLD_IDS = ["two-lobe-tabulated", "off-axis-von-mises", "isotropic"]


class TestDiscrete:
    def test_single_antenna(self):
        R = ds.discrete_correlation([(0.0, 0.0)], ds.IsotropicPas())
        assert R.shape == (1, 1) and R[0, 0] == 1.0

    def test_pair_isotropic(self):
        d = 0.4
        R = ds.discrete_correlation([(0.0, 0.0), (d, 0.0)], ds.IsotropicPas())
        assert R[0, 1] == pytest.approx(special.jv(0, TWO_PI * d), abs=1e-12)
        assert R[1, 0] == np.conj(R[0, 1])

    def test_duplicate_positions_fully_correlated(self):
        R = ds.discrete_correlation(
            [(0.1, 0.2), (0.1, 0.2)], ds.VonMisesPas(kappa=2.0, alpha0=0.3)
        )
        assert np.allclose(R, np.ones((2, 2)), atol=1e-12)

    def test_truncation_precondition(self):
        with pytest.raises(ValueError):
            ds.discrete_correlation([(0.0, 0.0), (1.0, 0.0)], ds.IsotropicPas(), N=3)

    @pytest.mark.parametrize(
        "model",
        [ds.IsotropicPas(), ds.VonMisesPas(kappa=4.0, alpha0=1.0), ds.UniformPas(delta=1e-3, alpha0=0.5)],
        ids=["isotropic", "von_mises", "uniform_narrow"],
    )
    def test_translation_invariant(self, model):
        rng = np.random.default_rng(3)
        r = 1.5 * np.sqrt(rng.uniform(0.0, 1.0, 16))
        beta = rng.uniform(0.0, TWO_PI, 16)
        pts = np.stack([r * np.cos(beta), r * np.sin(beta)], axis=1)
        here = ds.discrete_correlation(pts, model)
        far = ds.discrete_correlation(pts + np.array([1000.0, -500.0]), model)
        assert np.max(np.abs(far - here)) <= 1e-12

    def test_matches_kernel_at_displacements(self):
        model = ds.UniformPas(delta=math.pi / 3, alpha0=0.8)
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, size=(9, 2))
        R = ds.discrete_correlation(pts, model)
        diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
        d_max = float(np.max(np.hypot(diffs[:, 0], diffs[:, 1])))
        N, _ = ds.series_order(d_max)
        expected = ds.rho_n_kernel(model, diffs, N).reshape(9, 9)
        np.fill_diagonal(expected, 1.0)
        assert np.max(np.abs(R - expected)) <= 1e-13
        assert np.all(np.diag(R) == 1.0)
        assert np.array_equal(R, R.conj().T)

    @pytest.mark.parametrize("model", FOLD_MODELS, ids=FOLD_IDS)
    def test_real_form_matches_complex_product(self, model):
        # E diag(w) E^H on the full grid, with w the unfolded inverse FFT of the s_n
        pts = np.random.default_rng(7).uniform(-2.0, 2.0, size=(24, 2))
        R = ds.discrete_correlation(pts, model)
        centred = pts - pts.mean(axis=0)
        N, u, c = operators._kernel_grid(model, spectrum._max_distance(centred), None)
        Q = len(u)
        coeffs = np.zeros(Q, dtype=complex)
        orders = np.arange(-N, N + 1)
        coeffs[orders % Q] = model.fourier(orders)
        w = np.fft.ifft(coeffs).real
        E = np.exp(2j * math.pi * (centred @ u.T))
        reference = (E * w) @ E.conj().T
        assert np.max(np.abs(R - reference)) <= 1e-14
        assert np.array_equal(R, R.conj().T) and np.all(np.diag(R) == 1.0)
        # c- = w_q - w_(q+Q/2) vanishes when the PAS repeats under a -> a + pi, as the isotropic one does
        assert np.any(c[1] != 0.0) == (not isinstance(model, ds.IsotropicPas))
        assert np.array_equal(c, np.stack([w[: Q // 2] + w[Q // 2 :], w[: Q // 2] - w[Q // 2 :]]))

    @pytest.mark.parametrize("model", FOLD_MODELS, ids=FOLD_IDS)
    def test_kernel_equals_entries_at_displacements(self, model):
        # rho_n_kernel reads the folded weights of the same grid as discrete_correlation
        pts = np.random.default_rng(8).uniform(-1.5, 1.5, size=(12, 2))
        R = ds.discrete_correlation(pts, model)
        diffs = (pts[:, None, :] - pts[None, :, :]).reshape(-1, 2)
        N, _ = ds.series_order(spectrum._max_distance(pts))
        values = ds.rho_n_kernel(model, diffs, N).reshape(12, 12)
        off = ~np.eye(12, dtype=bool)
        assert np.max(np.abs(R[off] - values[off])) <= 1e-14
        assert np.max(np.abs(np.diag(values) - 1.0)) <= 1e-14

    def test_oversized_plane_waves_refused_before_allocation(self):
        # 2,000 antennas over 1000 wavelengths: N = 8550 on a Q = 17280 grid
        # makes E 553 MB; the pairwise-distance scan stays in ~1 MB blocks
        L = 2000
        line = np.stack([np.linspace(0.0, 1000.0, L), np.zeros(L)], axis=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"N=8550 on a Q=17280 .* 2000x17280 552960000-byte"):
                ds.discrete_correlation(line, ds.IsotropicPas())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_oversized_result_refused_before_allocation(self):
        L = 6000
        line = np.stack([0.5 * np.arange(L), np.zeros(L)], axis=1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"6000x6000 correlation matrix needs 576000000 bytes"):
                ds.discrete_correlation(line, ds.IsotropicPas())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_identity_gives_antenna_count(self):
        for L in [2, 5, 16]:
            assert ds.discrete_diversity(np.eye(L)) == float(L)

    def test_all_ones_gives_one(self):
        assert ds.discrete_diversity(np.ones((6, 6))) == 1.0

    def test_two_blocks(self):
        L = 8
        R = np.zeros((L, L))
        R[: L // 2, : L // 2] = 1.0
        R[L // 2 :, L // 2 :] = 1.0
        assert ds.discrete_diversity(R) == pytest.approx(2.0)

    def test_non_hermitian_rejected(self):
        R = np.eye(3)
        R[0, 1] = 0.5
        with pytest.raises(ValueError):
            ds.discrete_diversity(R)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("entry", [(0, 1), (2, 2)], ids=["off-diagonal", "diagonal"])
    def test_non_finite_rejected(self, entry, bad):
        # NaN fails no comparison, so the Hermitian and diagonal checks alone let it through
        R = np.eye(3)
        R[entry] = R[entry[::-1]] = bad
        with pytest.raises(ValueError, match="discrete_diversity requires a finite matrix"):
            ds.discrete_diversity(R)

    def test_dense_sampling_approaches_continuous(self):
        pas = ds.UniformPas(delta=math.pi / 2, alpha0=0.4)
        continuous = ds.solve_spectrum(ds.build_truncated_operator(ds.Segment(1.0), pas)).omega
        omegas = []
        for L in [4, 16, 64]:
            pts = np.stack([np.linspace(-0.5, 0.5, L), np.zeros(L)], axis=1)
            omegas.append(ds.discrete_diversity(ds.discrete_correlation(pts, pas)))
        assert abs(omegas[-1] - continuous) / continuous < 0.05
        assert abs(omegas[-1] - continuous) < abs(omegas[0] - continuous)


ROOT = Path(__file__).resolve().parents[1]


def _array_workload_inputs(seed):
    spec = importlib.util.spec_from_file_location("divbench_workloads", ROOT / "divbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.array_inputs(seed)


def test_array_grid_aliasing_certified(monkeypatch, tmp_path):
    """Every array's d_max aliases below 1e-17 on the grid it is evaluated on.

    fig9's and fig10's points share one grid a sweep, chosen at the base
    diameter; each benchmark array has its own, chosen at its d_max.
    """
    points = []
    correlate = spectrum._correlation_matrix

    def recorded(positions, kernel_grid):
        def grid(d_max):
            N, u, c = kernel_grid(d_max)
            points.append((d_max, N, len(u)))
            return N, u, c

        return correlate(positions, grid)

    monkeypatch.setattr(spectrum, "_correlation_matrix", recorded)
    monkeypatch.setattr(cli, "_correlation_matrix", recorded)
    rows = 0
    for fig in ("fig9", "fig10"):
        out = tmp_path / f"{fig}.csv"
        assert cli.main(["sweep", "--config", str(ROOT / "scenarios" / f"{fig}.cfg"), "--out", str(out)]) == 0
        rows += len(out.read_text().splitlines()) - 2
    arrays = 0
    for seed in (1, 2, 3):
        for arr in _array_workload_inputs(seed):
            ds.discrete_correlation(arr["points"], cli.make_pas(arr["pas"]))
            arrays += 1
    assert len(points) == rows + arrays
    for d_max, N, Q in points:
        assert ds.bessel_abs_tail_bound(Q - N - 1, d_max) <= 1e-17


def _full_route(op, R):
    """Eigenvalues and omega of ``R^(1/2) G R^(1/2)`` from the operator's ``G`` and the model's rotated ``R``."""
    vals, vecs = np.linalg.eigh(R)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    sym = root @ op.gram @ root
    lam = np.clip(np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))[::-1], 0.0, None)
    return lam, lam.sum() ** 2 / np.sum(lam * lam)


def _array_cases():
    rng = np.random.default_rng(3)
    cases = [
        pytest.param(arr["points"], cli.make_pas(arr["pas"]), None, id=f"{arr['name']}-seed{seed}")
        for seed in (1, 2, 3)
        for arr in _array_workload_inputs(seed)
    ]
    return cases + [
        pytest.param(np.array([[0.3, -0.1]]), ds.VonMisesPas(kappa=3.0, alpha0=0.2), None, id="one-antenna"),
        pytest.param(
            np.array([[0.0, 0.0], [0.0, 0.0], [0.5, 0.2]]), ds.IsotropicPas(), None, id="coincident"
        ),
        pytest.param(
            rng.uniform(-1.0, 1.0, (10, 2)), ds.UniformPas(delta=1.0, alpha0=0.4), 40, id="n-override"
        ),
    ]


def _is_ula(points):
    """The divbench ULA layout: ``x = (k - (L-1)/2)/2`` on the x-axis."""
    L = len(points)
    return np.array_equal(points, np.stack([(np.arange(L) - 0.5 * (L - 1)) * 0.5, np.zeros(L)], axis=1))


class TestArrayFactorRoute:
    @pytest.mark.parametrize("points, model, N", _array_cases())
    def test_matches_full_route(self, points, model, N, rtilde_reference):
        op = ds.build_truncated_operator(ds.DiscreteArray(tuple(map(tuple, points.tolist()))), model, N)
        spec = ds.solve_spectrum(op)
        lam, omega = _full_route(op, rtilde_reference(model, op.N))
        L = len(points)
        # the ULAs and one antenna lie on a line through their centre in mirror
        # pairs: their factor is the real half factor of N+1 columns
        line = op._line_angle is not None
        assert line == (L == 1 or _is_ula(points))
        columns = op.N + 1 if line else op.size
        assert op.gram_factor.shape == (min(L, columns), columns)
        assert len(spec.eigenvalues) == op.size
        assert np.all(spec.eigenvalues[L:] == 0.0)
        assert np.max(np.abs(spec.eigenvalues - lam)) <= 1e-13
        assert abs(spec.omega - omega) <= 1e-13 * omega

    @pytest.mark.parametrize("points, model, N", _array_cases())
    def test_gram_hermitian_and_psd(self, points, model, N):
        # the build tests neither for an array: G = F^H F makes both hold
        op = ds.build_truncated_operator(ds.DiscreteArray(tuple(map(tuple, points.tolist()))), model, N)
        assert np.array_equal(op.gram, op.gram.conj().T)
        assert np.linalg.eigvalsh(op.gram)[0] >= -1e-14

    def test_wide_array_takes_its_qr_factor(self, linalg_calls):
        # 30 antennas within radius 0.2 exceed 2N+1 = 25: the build replaces their
        # 30-row F by its 25-row QR factor, and the solve is the narrow route's
        rng = np.random.default_rng(30)
        r = 0.2 * np.sqrt(rng.uniform(0.0, 1.0, 30))
        beta = rng.uniform(0.0, TWO_PI, 30)
        points = np.stack([r * np.cos(beta), r * np.sin(beta)], axis=1)
        aperture = ds.DiscreteArray(tuple(map(tuple, points.tolist())))
        op = ds.build_truncated_operator(aperture, ds.VonMisesPas(kappa=2.0))
        ds.solve_spectrum(op)
        assert op.size == 25 and op.gram_factor.shape == (25, 25)
        assert linalg_calls == [
            ("qr", (30, 25), "complex128"),
            ("eigvalsh", (25, 25), "complex128"),
        ]


_WIDE_ARRAY = np.random.default_rng(30).uniform(-0.1, 0.1, (30, 2))


ROTATED_MODELS = pytest.mark.parametrize(
    "model",
    [
        ds.IsotropicPas(alpha0=2.5),
        ds.UniformPas(delta=1.0, alpha0=-1.1),
        ds.VonMisesPas(kappa=8.0, alpha0=0.7),
        ds.TabulatedPas(np.radians([0.0, 40.0, 150.0, 260.0]), [1.0, 3.0, 0.5, 2.0], alpha0=2.0),
    ],
    ids=["isotropic", "uniform", "von-mises", "tabulated"],
)
EVERY_KIND = pytest.mark.parametrize(
    "aperture",
    [
        ds.Segment(2.0, angle=0.4),
        ds.Circle(0.8),
        ds.Disk(0.6),
        ds.Rectangle(0.7, 0.3, angle=0.2),
        ds.ParallelLines(count=3, length=0.8, span=0.6),
        ds.PiecewiseCurve((ds.LinePiece((0.0, 0.0), (0.7, 0.0)), ds.ArcPiece((0.7, 0.3), 0.3, -math.pi / 2, 1.0))),
        ds.DiscreteArray(((0.0, 0.0), (0.5, 0.1), (-0.2, 0.4))),
        ds.DiscreteArray(tuple(map(tuple, _WIDE_ARRAY.tolist()))),
    ],
    ids=["segment", "circle", "disk", "rectangle", "lines", "curve", "array", "wide-array"],
)


@ROTATED_MODELS
@EVERY_KIND
def test_spectrum_matches_rotated_rtilde(aperture, model, rtilde_reference):
    # R about the PAS's axis with alpha0 as a phase against R(alpha0) itself
    op = ds.build_truncated_operator(aperture, model)
    spec = ds.solve_spectrum(op)
    lam, omega = _full_route(op, rtilde_reference(model, op.N))
    assert np.max(np.abs(spec.eigenvalues - lam)) <= 1e-13
    assert abs(spec.omega - omega) <= 1e-13 * omega


@ROTATED_MODELS
@EVERY_KIND
def test_traces_match_solve(aperture, model):
    # omega and its interval off tr(G'R) and tr((G'R)^2) against the eigenvalues
    op = ds.build_truncated_operator(aperture, model)
    spec = ds.solve_spectrum(op)
    expected = (spec.omega, *ds.omega_corrected(spec))
    assert np.allclose(ds.omega_from_traces(op), expected, rtol=1e-13, atol=0.0)


class TestMimoSlope:
    def test_anchors(self):
        assert ds.mimo_slope(1.0, 1.0) == 1.0
        assert ds.mimo_slope(3.7, 3.7) == pytest.approx(3.7)
        assert ds.mimo_slope(2.0, 4.0) == pytest.approx(8.0 / 3.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            ds.mimo_slope(0.5, 2.0)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_refused(self, bad):
        with pytest.raises(ValueError, match="mimo_slope requires finite omega_tx"):
            ds.mimo_slope(bad, 2.0)
        with pytest.raises(ValueError, match="mimo_slope requires finite omega_rx"):
            ds.mimo_slope(2.0, bad)


class TestNystromOracle:
    def test_point_aperture(self):
        eigs = ds.nystrom_oracle(ds.Disk(0.0), ds.IsotropicPas())
        assert eigs[0] == pytest.approx(1.0, abs=1e-12)

    def test_circle_isotropic_closed_form(self):
        eigs = ds.nystrom_oracle(ds.Circle(1.0), ds.IsotropicPas())
        N = ds.truncation_order(1.0) + 10
        exact = np.sort([special.jv(n, TWO_PI) ** 2 for n in range(-N, N + 1)])[::-1]
        assert np.max(np.abs(eigs[:10] - exact[:10])) < 1e-6

    def test_matches_matrix_route_on_segment(self):
        pas = ds.UniformPas(delta=math.pi / 2, alpha0=math.pi / 2)
        op = ds.build_truncated_operator(ds.Segment(1.0), pas, N=ds.truncation_order(0.5) + 20)
        spec = ds.solve_spectrum(op)
        eigs = ds.nystrom_oracle(ds.Segment(1.0), pas)
        assert np.max(np.abs(spec.eigenvalues[:10] - eigs[:10])) < 1e-5

    @staticmethod
    def _resolutions(monkeypatch):
        """The resolutions ``_oracle_eigs`` is called at, under a 1-D cap of 512 nodes."""
        monkeypatch.setattr(spectrum, "_ORACLE_CAP_1D", 512)
        resolutions = []
        oracle_eigs = spectrum._oracle_eigs

        def recording(aperture, model, m, n_kernel):
            resolutions.append(m)
            return oracle_eigs(aperture, model, m, n_kernel)

        monkeypatch.setattr(spectrum, "_oracle_eigs", recording)
        return resolutions

    def test_unconvergeable_budget_raises(self, monkeypatch):
        # four lines seed at 32 nodes a piece; a cap of 512 // 4 = 128 allows
        # two doublings, whose moves (~1e-15) all miss the 1e-16 tolerance
        resolutions = self._resolutions(monkeypatch)
        monkeypatch.setattr(spectrum, "_ORACLE_TOL", 1e-16)
        with pytest.raises(OracleConvergenceError, match=r"\(resolution 128\)"):
            ds.nystrom_oracle(ds.ParallelLines(4, 1.0, 1.0), ds.IsotropicPas())
        assert resolutions == [32, 64, 128]

    def test_many_pieces_refine_below_the_cap(self, monkeypatch):
        # 17 lines under a cap of 512 // 17 = 30 nodes a piece: the seed is lowered
        # to half the cap, 15, so the oracle compares two resolutions before it
        # could refuse; 17 * 30 = 510 nodes agree with the solve
        resolutions = self._resolutions(monkeypatch)
        lines = ds.ParallelLines(17, 0.5, 2.0)
        eigs = ds.nystrom_oracle(lines, ds.IsotropicPas())
        assert resolutions == [15, 30]
        solved = ds.solve_spectrum(ds.build_truncated_operator(lines, ds.IsotropicPas())).eigenvalues
        assert np.max(np.abs(eigs[:10] - solved[:10])) <= 1e-12


    def test_too_many_pieces_refused_before_quadrature(self, monkeypatch):
        # a cap of 512 // 257 = 1 node a piece has no resolution to refine to
        resolutions = self._resolutions(monkeypatch)
        with pytest.raises(OracleConvergenceError, match="257 pieces leave 1 node"):
            ds.nystrom_oracle(ds.ParallelLines(257, 0.5, 2.0), ds.IsotropicPas())
        assert resolutions == []

class TestTheoremSurrogates:
    def test_eigenvalue_stability_under_refinement(self, suite_spectra):
        # refining the truncation moves the top eigenvalues by at most twice
        # the certified per-eigenvalue bound
        for case in suite_spectra["cases"]:
            s, s5 = case.spectrum, case.spectrum_refined
            top = 2 * s.N_D + 1
            assert np.max(np.abs(s.eigenvalues[:top] - s5.eigenvalues[:top])) <= (
                2.0 * s.eig_error_bound
            ), case.name

    def test_hs_norm_stability_under_refinement(self, suite_spectra):
        for case in suite_spectra["cases"]:
            s, s5 = case.spectrum, case.spectrum_refined
            assert abs(s.hs_norm_sq - s5.hs_norm_sq) <= 2.0 * s.hs_error_bound, case.name

    def test_trace_within_gram_budget(self, suite_spectra):
        for case in suite_spectra["cases"]:
            s = case.spectrum
            assert s.trace >= case.gram_trace - 1e-10, case.name
            assert abs(s.trace - 1.0) <= s.eig_error_bound * (2 * s.N + 1) + 1e-10, case.name


@pytest.mark.slow
class TestNystromAgreementAcrossKinds:
    SCENARIOS = [
        (ds.Segment(1.0), ds.IsotropicPas()),
        (ds.Circle(0.8), ds.UniformPas(delta=math.pi / 2, alpha0=0.5)),
        (ds.Disk(0.35), ds.VonMisesPas(kappa=5.0, alpha0=1.1)),
        (ds.Rectangle(0.6, 0.4), ds.UniformPas(delta=math.pi, alpha0=-0.3)),
        (
            ds.PiecewiseCurve(
                (ds.LinePiece((0.0, 0.0), (0.5, 0.0)), ds.LinePiece((0.5, 0.0), (0.5, 0.4)))
            ),
            ds.VonMisesPas(kappa=2.0),
        ),
        (
            ds.PiecewiseCurve(
                (
                    ds.LinePiece((-0.4, 0.0), (0.0, 0.0)),
                    ds.ArcPiece(
                        center=(0.0, 0.25), radius=0.25, angle_start=-math.pi / 2, angle_stop=0.0
                    ),
                )
            ),
            ds.UniformPas(delta=2.0, alpha0=0.8),
        ),
        (ds.ParallelLines(3, 0.8, 0.6), ds.IsotropicPas()),
    ]

    @pytest.mark.parametrize("aperture,pas", SCENARIOS)
    def test_top_eigenvalues_agree(self, aperture, pas):
        centered, _ = ds.centering_transform(aperture)
        r1 = ds.enclosing_radius(centered)
        op = ds.build_truncated_operator(aperture, pas, N=ds.truncation_order(r1) + 20)
        spec = ds.solve_spectrum(op)
        eigs = ds.nystrom_oracle(aperture, pas)
        tol = max(1e-5, spec.eig_error_bound + 1e-6)
        assert np.max(np.abs(spec.eigenvalues[:10] - eigs[:10])) < tol


def _line_array(L, spacing=0.5, axis=0):
    """``L`` antennas at ``(k - (L-1)/2)*spacing`` on one coordinate axis, in exact mirror pairs."""
    points = np.zeros((L, 2))
    points[:, axis] = (np.arange(L) - 0.5 * (L - 1)) * spacing
    return ds.DiscreteArray(tuple(map(tuple, points.tolist())))


LINE_MODELS = {
    "isotropic": lambda alpha: ds.IsotropicPas(alpha0=alpha),
    "uniform-5deg": lambda alpha: ds.UniformPas(delta=math.radians(5.0), alpha0=alpha),
    "von-mises-30": lambda alpha: ds.VonMisesPas(kappa=30.0, alpha0=alpha),
    "tabulated": lambda alpha: ds.TabulatedPas(
        np.radians([0.0, 40.0, 150.0, 260.0]), [1.0, 3.0, 0.5, 2.0], alpha0=alpha
    ),
}
# odd and even Gauss orders q, odd and even antenna counts L, a centre node or none
LINE_APERTURES = {
    "segment-0": ds.Segment(0.0, angle=0.3),
    "segment-0.3": ds.Segment(0.3, angle=0.4),
    "segment-1": ds.Segment(1.0),
    "segment-2.5": ds.Segment(2.5, angle=-1.3),
    "segment-10": ds.Segment(10.0, angle=2.0),
    "segment-25": ds.Segment(25.0, angle=0.4, center=(1.0, -2.0)),
    "one-line": ds.ParallelLines(1, 3.0, angle=0.7, center=(0.5, 0.5)),
    "ula-7": _line_array(7),
    "ula-8": _line_array(8),
    "ula-31-y-axis": _line_array(31, 0.4, axis=1),
    "coincident-mirrored": ds.DiscreteArray(
        ((0.5, 0.0), (0.5, 0.0), (-0.5, 0.0), (-0.5, 0.0), (0.0, 0.0), (0.0, 0.0), (1.25, 0.0), (-1.25, 0.0))
    ),
}


def _line_case(aperture, model, monkeypatch):
    """The operator and its rule, recorded as the build reads it."""
    rules = []

    def spy(line, order):
        rules.append(ds.build_quadrature(line, order))
        return rules[-1]

    with monkeypatch.context() as patched:
        patched.setattr(operators, "build_quadrature", spy)
        op = ds.build_truncated_operator(aperture, model)
    (rule,) = rules
    return op, rule


class TestLineRoute:
    """Apertures on a line through their centre in mirror pairs: one real eigenproblem."""

    @pytest.mark.parametrize("offset", [0.0, 0.9, math.pi / 2, -math.pi / 2], ids=["0", "0.9", "+pi/2", "-pi/2"])
    @pytest.mark.parametrize("kind", sorted(LINE_MODELS))
    @pytest.mark.parametrize("name", sorted(LINE_APERTURES))
    def test_matches_full_factor_product(self, name, kind, offset, monkeypatch, rtilde_reference):
        # against today's K x (2N+1) node-sum factor F of the same rule, formed here:
        # eig(F R(alpha0) F^H) with the line at theta and the PAS at alpha0 = theta - offset
        aperture = LINE_APERTURES[name]
        theta = getattr(aperture, "angle", math.pi / 2 if "y-axis" in name else 0.0)
        model = LINE_MODELS[kind](theta - offset)
        op, rule = _line_case(aperture, model, monkeypatch)
        assert op._line_angle is not None and op.gram_factor.dtype.name == "float64"
        assert op.gram_factor.shape[1] == op.N + 1 and len(op.gram_factor) <= min(len(rule), op.N + 1)
        u = operators._angle_grid(operators._angle_grid_size(op.N, op.r1))
        F = operators._node_factor(rule, u, op.N)
        M = F @ rtilde_reference(model, op.N) @ F.conj().T
        reference = np.sort(np.linalg.eigvalsh(0.5 * (M + M.conj().T)))[::-1]
        lam = ds.solve_spectrum(op).eigenvalues
        assert len(lam) == op.size and np.all(lam[len(op.gram_factor) :] == 0.0)
        K = min(len(lam), len(reference))
        assert np.max(np.abs(lam[:K] - reference[:K])) <= 1e-13 * reference[0]
        assert np.max(np.abs(reference[K:]), initial=0.0) <= 1e-13 * reference[0]
        # the trace test reads ||P||_F^2 = ||F||_F^2
        assert abs(np.vdot(op.gram_factor, op.gram_factor) - np.vdot(F, F).real) <= 1e-14

    @pytest.mark.parametrize("kind", sorted(LINE_MODELS))
    @pytest.mark.parametrize("name", sorted(LINE_APERTURES))
    def test_traces_match_solve(self, name, kind, turn):
        model = LINE_MODELS[kind](0.8)
        op = ds.build_truncated_operator(LINE_APERTURES[name], model)
        spec = ds.solve_spectrum(op)
        expected = (spec.omega, *ds.omega_corrected(spec))
        assert np.allclose(ds.omega_from_traces(op), expected, rtol=1e-13, atol=0.0)
        turned = turn(op, -2.1)
        assert turned._line_angle == op._line_angle and turned.gram_factor is op.gram_factor
        spec = ds.solve_spectrum(turned)
        assert np.allclose(ds.omega_from_traces(turned), (spec.omega, *ds.omega_corrected(spec)), rtol=1e-13)

    @pytest.mark.parametrize(
        "aperture",
        [
            # collinear through the centre, but not in mirror pairs
            ds.DiscreteArray(((-0.5, 0.0), (0.0, 0.0), (0.75, 0.0))),
            # a ULA turned by 0.3 rad: its coordinates are rounded off one line
            ds.DiscreteArray(
                tuple(((k - 3.5) * 0.5 * math.cos(0.3), (k - 3.5) * 0.5 * math.sin(0.3)) for k in range(8))
            ),
            # mirror pairs off one line
            ds.DiscreteArray(((0.5, 0.0), (-0.5, 0.0), (0.0, 0.5), (0.0, -0.5))),
            ds.PiecewiseCurve((ds.LinePiece((-1.0, 0.0), (1.0, 0.0)),)),
        ],
        ids=["asymmetric-collinear", "rotated-ula", "cross", "one-line-curve"],
    )
    def test_other_node_sums_keep_their_factor(self, aperture, linalg_calls):
        op = ds.build_truncated_operator(aperture, ds.VonMisesPas(kappa=3.0, alpha0=0.4))
        assert op._line_angle is None and op.gram_factor.shape[1] == op.size
        linalg_calls.clear()
        ds.solve_spectrum(op)
        assert [(name, kind) for name, _, kind in linalg_calls] == [("eigvalsh", "complex128")]

    def test_segment40_is_one_real_eigensolve(self, monkeypatch, linalg_calls):
        # divbench's segment40: one float64 eigvalsh of order at most its rule's q nodes
        aperture = cli.make_aperture({"kind": "segment", "length": 40.0})
        model = cli.make_pas({"kind": "uniform", "delta_deg": 60.0, "alpha0_deg": 20.0})
        op, rule = _line_case(aperture, model, monkeypatch)
        linalg_calls.clear()
        ds.solve_spectrum(op)
        ((name, shape, kind),) = linalg_calls
        assert name == "eigvalsh" and kind == "float64" and shape[0] == shape[1] <= len(rule)
        assert shape[0] <= op.N + 1 and op.rtilde.dtype.name == "float64"

    @pytest.mark.parametrize(
        "model",
        [ds.UniformPas(delta=math.radians(5.0), alpha0=0.3), ds.VonMisesPas(kappa=10.0, alpha0=-1.0)],
        ids=["uniform-5deg", "von-mises-10"],
    )
    @pytest.mark.parametrize(
        "aperture",
        [
            ds.Segment(0.05),
            ds.Segment(1.0, angle=0.4),
            ds.Segment(10.0),
            ds.Segment(40.0, angle=-0.7),
            ds.ParallelLines(1, 3.0, angle=0.7),
            _line_array(7),
            _line_array(8),
        ],
        ids=["segment-0.05", "segment-1", "segment-10", "segment-40", "one-line", "ula-7", "ula-8"],
    )
    def test_printed_bounds_enclose_high_order_solve(self, aperture, model):
        op = ds.build_truncated_operator(aperture, model)
        assert op._line_angle is not None
        spec = ds.solve_spectrum(op)
        ref = ds.solve_spectrum(ds.build_truncated_operator(aperture, model, N=op.N + 25))
        assert np.max(np.abs(spec.eigenvalues - ref.eigenvalues[: op.size])) <= spec.eig_error_bound
        assert np.max(ref.eigenvalues[op.size :], initial=0.0) <= spec.eig_error_bound
        center, half = ds.omega_corrected(spec)
        assert abs(ref.omega - center) <= half
