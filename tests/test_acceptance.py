"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL
line per criterion on stdout.
"""

import json
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

import divspec as ds
from divspec.cli import main

TWO_PI = 2.0 * math.pi
SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@contextmanager
def criterion(number, text):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {number}: {text}")
        raise
    print(f"[PASS] criterion {number}: {text}")


def test_criterion_1_circle_closed_form():
    with criterion(1, "circle eigenvalues match the squared-Bessel closed form"):
        start = time.perf_counter()
        op = ds.build_truncated_operator(ds.Circle(1.0), ds.IsotropicPas())
        spec = ds.solve_spectrum(op)
        elapsed = time.perf_counter() - start
        assert op.N == 19
        exact = np.sort([special.jv(n, TWO_PI) ** 2 for n in range(-19, 20)])[::-1]
        assert np.max(np.abs(spec.eigenvalues - exact)) <= 1e-10
        assert elapsed < 1.0, f"solve took {elapsed:.2f} s"


def test_criterion_2_trace_identity(suite_spectra):
    with criterion(2, "eigenvalue sums honour the trace identity across the suite"):
        cases = suite_spectra["cases"]
        assert len(cases) >= 12
        assert len({c.aperture_key for c in cases}) == 7
        assert len({c.model_key for c in cases}) == 3
        for case in cases:
            s = case.spectrum
            assert s.trace >= case.gram_trace - 1e-10, case.name
            # upper endpoint carries the same 1e-10 numerical slack as the
            # other comparisons; the exact truncated trace never exceeds one,
            # but the computed one can by a few ulp of round-off
            assert s.trace <= 1.0 + 1e-10, case.name
            residual = 0.01 * math.exp(2 * (s.N_D - s.N))
            assert 1.0 - s.trace <= residual + 1e-10, case.name


def test_criterion_3_theorem_bounds(suite_spectra):
    with criterion(3, "refinement shifts stay inside the certified error bounds"):
        start = time.perf_counter()
        for case in suite_spectra["cases"]:
            s, s5 = case.spectrum, case.spectrum_refined
            top = 2 * s.N_D + 1
            eig_shift = float(np.max(np.abs(s.eigenvalues[:top] - s5.eigenvalues[:top])))
            assert eig_shift <= 2.0 * 0.2 * s.rho_max * math.exp(s.N_D - s.N), case.name
            hs_shift = abs(s.hs_norm_sq - s5.hs_norm_sq)
            assert hs_shift <= 2.0 * 0.4 * s.rho_max**2 * math.exp(s.N_D - s.N), case.name
        elapsed = suite_spectra["elapsed"] + (time.perf_counter() - start)
        assert elapsed < 30.0, f"suite solves plus checks took {elapsed:.1f} s"


def test_criterion_4_oracle_equivalence():
    with criterion(4, "matrix route agrees with the kernel-discretisation oracle"):
        scenarios = [
            (ds.Segment(1.0), ds.UniformPas(delta=math.pi / 2, alpha0=math.pi / 2)),
            (ds.Disk(0.5), ds.VonMisesPas(kappa=5.0)),
            (ds.ParallelLines(4, 1.0, 1.0), ds.UniformPas(delta=math.pi / 4)),
        ]
        start = time.perf_counter()
        for aperture, pas in scenarios:
            centered, _ = ds.centering_transform(aperture)
            n_solve = ds.truncation_order(ds.enclosing_radius(centered)) + 20
            spec = ds.solve_spectrum(ds.build_truncated_operator(aperture, pas, N=n_solve))
            oracle = ds.nystrom_oracle(aperture, pas)
            diff = float(np.max(np.abs(spec.eigenvalues[:10] - oracle[:10])))
            assert diff <= 1e-5, f"{type(aperture).__name__}: top-10 differ by {diff:.2e}"
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"oracle comparison took {elapsed:.1f} s"


def test_criterion_5_diversity_anchors(suite_spectra):
    with criterion(5, "diversity measure anchors and lower bound hold"):
        for L in (1, 2, 7, 32):
            assert ds.discrete_diversity(np.eye(L)) == float(L)
            assert ds.discrete_diversity(np.ones((L, L))) == 1.0
        for case in suite_spectra["cases"]:
            assert case.spectrum.omega >= 1.0 - 1e-12, case.name


def test_criterion_6_jakes_anchors():
    with criterion(6, "isotropic scattering reproduces the classical Doppler results"):
        spec = ds.DopplerSpec(1.0)
        iso = ds.IsotropicPas()
        for t in (0.1, 0.5, 1.3):
            n_min = ds.truncation_order(t)
            value = ds.time_acf(iso, spec, t, N=n_min + 10)
            assert abs(value - special.jv(0, TWO_PI * t)) <= 1e-10
        assert abs(ds.doppler_spectrum(iso, spec, 0.0) - 1.0 / math.pi) <= 1e-12
        for model in (iso, ds.UniformPas(delta=math.pi / 2), ds.VonMisesPas(kappa=10.0)):

            def integrand(theta, m=model):
                nu = math.cos(theta)
                return ds.doppler_spectrum(m, spec, nu) * math.sin(theta)

            total, _ = integrate.quad(integrand, 1e-12, math.pi - 1e-12, limit=400)
            assert abs(total - 1.0) <= 1e-6


def test_criterion_7_figure_shapes():
    with criterion(7, "sweep shapes: saturation, mirror symmetry, opening-angle order"):
        # (a) antennas on a unit-radius ring approach the dense-ring measure
        iso = ds.IsotropicPas()
        continuous = ds.solve_spectrum(ds.build_truncated_operator(ds.Circle(1.0), iso)).omega
        beta = TWO_PI * np.arange(32) / 32
        ring = np.stack([np.cos(beta), np.sin(beta)], axis=1)
        omega32 = ds.discrete_diversity(ds.discrete_correlation(ring, iso))
        assert abs(omega32 - continuous) / continuous < 0.05

        # (b) on-axis arrival gives the least diversity; the sweep is mirror
        # symmetric in the arrival direction
        pas45 = lambda a0: ds.UniformPas(delta=math.pi / 4, alpha0=a0)
        seg = ds.Segment(1.0)
        omega = {
            a0: ds.solve_spectrum(ds.build_truncated_operator(seg, pas45(a0))).omega
            for a0 in (-math.pi / 3, -math.pi / 6, 0.0, math.pi / 6, math.pi / 3, math.pi / 2)
        }
        assert abs(omega[-math.pi / 6] - omega[math.pi / 6]) <= 1e-8
        assert abs(omega[-math.pi / 3] - omega[math.pi / 3]) <= 1e-8
        assert omega[0.0] <= omega[math.pi / 2]

        # (c) wider openings never reduce the diversity of a small ring
        ring_omega = {}
        for delta in (math.pi / 4, math.pi / 2, TWO_PI):
            op = ds.build_truncated_operator(ds.Circle(0.3), ds.UniformPas(delta=delta))
            ring_omega[delta] = ds.solve_spectrum(op).omega
        assert ring_omega[math.pi / 4] <= ring_omega[math.pi / 2] <= ring_omega[TWO_PI]


def test_criterion_8_default_truncation_certificate():
    with criterion(8, "default truncation and attached bound for a unit-radius aperture"):
        pas = ds.UniformPas(delta=math.pi / 2, alpha0=0.3)
        op = ds.build_truncated_operator(ds.Circle(1.0), pas)
        spec = ds.solve_spectrum(op)
        assert (op.N, op.N_D) == (19, 9)
        assert spec.eig_error_bound == pytest.approx(
            0.2 * pas.rho_max() * math.exp(-10.0), rel=1e-14
        )


@pytest.mark.parametrize("config", sorted(SCENARIO_DIR.glob("fig*.cfg"), key=lambda p: p.name))
def test_criterion_9_cli_determinism(config, tmp_path):
    with criterion(9, f"byte-identical CLI reruns for {config.name}"):
        command = "sweep" if "sweep" in json.loads(config.read_text()) else "spectrum"
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main([command, "--config", str(config), "--out", str(first)]) == 0
        assert main([command, "--config", str(config), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
