import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import divspec as ds
from divspec import cli, operators
from divspec.cli import main
from divspec.specfun import DEFAULT_ORDER_MARGIN

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"
BENCH_CONFIG_DIR = Path(__file__).resolve().parents[1] / "divbench" / "configs"


def write_cfg(path, payload):
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def read_rows(path):
    header = None
    rows = []
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


UCA_CFG = {
    "aperture": {"kind": "circle", "radius": 1.0},
    "pas": {"kind": "von_mises", "kappa": 0.0, "alpha0_deg": 0.0},
}


class TestSpectrumCommand:
    def test_uca_first_eigenvalue(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", UCA_CFG)
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert header == ["index", "eigenvalue", "cumulative"]
        assert meta["N"] == "19" and meta["N_D"] == "9"
        top = max(special.jv(n, 2 * math.pi) ** 2 for n in range(-19, 20))
        assert float(rows[0][1]) == pytest.approx(top, abs=1e-12)
        assert float(rows[0][0]) == 1

    def test_point_aperture_rows(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {"aperture": {"kind": "disk", "radius": 0.0}, "pas": {"kind": "isotropic"}},
        )
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)
        assert float(rows[0][2]) == pytest.approx(1.0, abs=1e-12)
        assert all(abs(float(r[1])) < 1e-12 for r in rows[1:])

    def test_missing_field_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", {"aperture": {"kind": "circle"}, "pas": {"kind": "isotropic"}})
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "radius" in capsys.readouterr().err

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        rc = main(["spectrum", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_bad_json_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text('{\n  "aperture": {,}\n}\n')
        assert main(["spectrum", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_unknown_kind_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {"aperture": {"kind": "sphere", "radius": 1.0}, "pas": {"kind": "isotropic"}},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "sphere" in capsys.readouterr().err

    def test_numerical_error_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.cfg", dict(UCA_CFG, n_override=3))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 3
        assert "critical order" in capsys.readouterr().err

    def test_dump_matrices(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.cfg", UCA_CFG)
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--dump-matrices"]) == 0
        gram = (tmp_path / "out_gram.csv").read_text().splitlines()
        rtilde = (tmp_path / "out_rtilde.csv").read_text().splitlines()
        assert len(gram) == 39 and len(rtilde) == 39
        assert complex(rtilde[0].split(",")[0]) == 1.0 + 0.0j

    def test_oracle_column(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "segment", "length": 0.5},
                "pas": {"kind": "isotropic"},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--oracle"]) == 0
        _, header, rows = read_rows(out)
        assert header[-1] == "oracle_eigenvalue"
        assert float(rows[0][3]) == pytest.approx(float(rows[0][1]), abs=1e-5)

    def test_tabulated_pas_from_csv(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("0,1.0\n90,2.0\n180,0.5\n270,1.0\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "circle", "radius": 0.5},
                "pas": {"kind": "tabulated", "table": str(table), "alpha0_deg": 15.0},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        meta, _, _ = read_rows(out)
        # peak 2.0 against mean 1.125 over the circle
        assert float(meta["rho_max"]) == pytest.approx(2.0 / 1.125, rel=1e-12)

    def test_tabulated_pas_missing_table_file(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "circle", "radius": 0.5},
                "pas": {"kind": "tabulated", "table": str(tmp_path / "nope.csv")},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
        assert "pas.table" in capsys.readouterr().err

    def test_discrete_array_csv_input(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("0.0,0.0\n0.25,0.0\n0.5,0.0\n")
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {"aperture": {"kind": "discrete_array", "csv": str(pts)}, "pas": {"kind": "isotropic"}},
        )
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert float(rows[0][2]) <= 1.0 + 1e-9


DIRECTION_SWEEP = {"kind": "direction", "start": 0.0, "stop": 90.0, "steps": 3}
ISOTROPIC_DOPPLER = {"pas": {"kind": "isotropic"}}
NAN = float("nan")

BAD_CONFIGS = {
    "n_override-list": ("spectrum", dict(UCA_CFG, n_override=[1]), "config.n_override"),
    "n_override-text": ("spectrum", dict(UCA_CFG, n_override="abc"), "config.n_override"),
    "sweep-steps": ("sweep", dict(UCA_CFG, sweep=dict(DIRECTION_SWEEP, steps="x")), "sweep.steps"),
    "doppler-nu_max": (
        "doppler",
        dict(ISOTROPIC_DOPPLER, doppler={"nu_max": "q"}),
        "doppler.nu_max",
    ),
    "doppler-sweep-nu_max": (
        "sweep",
        dict(
            ISOTROPIC_DOPPLER,
            doppler={"nu_max": "q"},
            sweep={"kind": "doppler", "start": -0.5, "stop": 0.5, "steps": 3},
        ),
        "doppler.nu_max",
    ),
    "alpha0-text": (
        "spectrum",
        dict(UCA_CFG, pas={"kind": "isotropic", "alpha0_deg": "x"}),
        "pas.alpha0_deg",
    ),
    "segment-length-nan": (
        "spectrum",
        dict(UCA_CFG, aperture={"kind": "segment", "length": NAN}),
        "config.aperture.length",
    ),
    "disk-radius-nan": (
        "spectrum",
        dict(UCA_CFG, aperture={"kind": "disk", "radius": NAN}),
        "config.aperture.radius",
    ),
    "kappa-nan": ("spectrum", dict(UCA_CFG, pas={"kind": "von_mises", "kappa": NAN}), "config.pas.kappa"),
    "delta-infinity": (
        "spectrum",
        dict(UCA_CFG, pas={"kind": "uniform", "delta_deg": float("inf")}),
        "config.pas.delta_deg",
    ),
    "points-overflow": (
        "spectrum",
        dict(UCA_CFG, aperture={"kind": "discrete_array", "points": [[0.0, 0.0], ["1e400", 0.0]]}),
        "config.aperture.points[1][0]",
    ),
    "table-nan-cell": (
        "spectrum",
        dict(UCA_CFG, pas={"kind": "tabulated", "table": "TABLE"}),
        "pas.table",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_error_exit_2_names_field(tmp_path, capsys, case):
    command, payload, field = BAD_CONFIGS[case]
    table = tmp_path / "table.csv"
    table.write_text("0,1.0\n90,nan\n180,0.5\n")
    text = json.dumps(payload).replace('"TABLE"', json.dumps(str(table)))
    # json.dumps cannot write an overflowing literal; json.load reads it as inf
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text.replace('"1e400"', "1e400"))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field}: ")


@pytest.mark.parametrize(
    "aperture, message",
    [
        ({"kind": "segment", "length": "nan"}, "aperture: Segment requires finite length"),
        ({"kind": "segment", "length": "inf"}, "aperture: Segment requires finite length"),
        ({"kind": "segment", "length": "1e400"}, "aperture: Segment requires finite length"),
        ({"kind": "disk", "radius": 1.0, "center": ["nan", 0]}, "aperture: Disk requires finite center"),
        ({"kind": "segment", "length": True}, "config.aperture.length: true is not a valid value"),
        ({"kind": "circle", "radius": False}, "config.aperture.radius: false is not a valid value"),
    ],
    ids=["length-nan", "length-inf", "length-overflow", "center-nan", "length-true", "radius-false"],
)
def test_non_finite_text_and_booleans_refused(tmp_path, capsys, aperture, message):
    # float() reads "nan", "inf" and "1e400" as non-finite and true as 1.0
    cfg = write_cfg(tmp_path / "c.cfg", dict(UCA_CFG, aperture=aperture))
    out = tmp_path / "o.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n" and not out.exists()


FIELD_BLOCKS = [
    ("aperture", {"kind": "segment", "length": 1.0, "angle_deg": 10.0, "center": [0.1, 0.2]}),
    ("aperture", {"kind": "circle", "radius": 0.5, "center": [0.1, 0.2]}),
    ("aperture", {"kind": "disk", "radius": 0.5, "center": [0.1, 0.2]}),
    (
        "aperture",
        {"kind": "rectangle", "width": 1.0, "height": 0.5, "angle_deg": 10.0, "center": [0.1, 0.2]},
    ),
    (
        "aperture",
        {
            "kind": "parallel_lines",
            "count": 2,
            "length": 1.0,
            "span": 0.5,
            "angle_deg": 10.0,
            "center": [0.1, 0.2],
        },
    ),
    ("aperture", {"kind": "discrete_array", "points": [[0.0, 0.0], [0.5, 0.0]]}),
    ("aperture.pieces[0]", {"type": "line", "start": [0.0, 0.0], "end": [1.0, 0.0]}),
    (
        "aperture.pieces[0]",
        {"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "start_deg": 0.0, "stop_deg": 90.0},
    ),
    ("pas", {"kind": "isotropic", "alpha0_deg": 10.0}),
    ("pas", {"kind": "uniform", "delta_deg": 45.0, "alpha0_deg": 10.0}),
    ("pas", {"kind": "von_mises", "kappa": 3.0, "alpha0_deg": 10.0}),
    ("pas", {"kind": "tabulated", "table": "table.csv", "alpha0_deg": 10.0}),
]
FIELD_CASES = [
    (path, block, field)
    for path, block in FIELD_BLOCKS
    for field in block
    if field not in ("kind", "type", "table")
]


@pytest.mark.parametrize(
    "path, block, field",
    FIELD_CASES,
    ids=[f"{block.get('kind', block.get('type'))}.{field}" for _, block, field in FIELD_CASES],
)
def test_unconvertible_field_named(tmp_path, capsys, path, block, field):
    # a point field gets a one-coordinate list, every other field text
    bad = [1] if field in ("center", "start", "end") else "abc"
    block = dict(block, **{field: bad})
    if path == "pas":
        payload = dict(UCA_CFG, pas=block)
    elif path == "aperture":
        payload = dict(UCA_CFG, aperture=block)
    else:
        payload = dict(UCA_CFG, aperture={"kind": "piecewise_curve", "pieces": [block]})
    cfg = write_cfg(tmp_path / "c.cfg", payload)
    out = tmp_path / "o.csv"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}.{field}: ") and not out.exists()


@pytest.mark.parametrize(
    "command, payload, field",
    [
        (
            "sweep",
            {"aperture": UCA_CFG["aperture"], "sweep": dict(DIRECTION_SWEEP, steps=10**7)},
            "sweep.steps",
        ),
        ("doppler", {"doppler": {"nu_max": 1.0, "steps": 10**7}}, "doppler.steps"),
    ],
    ids=["sweep", "doppler"],
)
def test_oversized_steps_refused(tmp_path, capsys, command, payload, field):
    # no pas block: a run past the steps check stops there instead of solving 10^7 points
    cfg = write_cfg(tmp_path / "c.cfg", payload)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {field}: must be <= 1000000\n" and not out.exists()


def test_steps_limit_admits_its_bound():
    kind, values = cli._sweep_values({"kind": "radius", "start": 0.1, "stop": 0.2, "steps": 10**6})
    assert kind == "radius" and len(values) == 10**6


@pytest.mark.parametrize(
    "case",
    [
        ("spectrum", dict(UCA_CFG, n_override=19.9), "config.n_override"),
        ("sweep", dict(UCA_CFG, sweep=dict(DIRECTION_SWEEP, steps=2.9)), "sweep.steps"),
        (
            "doppler",
            dict(ISOTROPIC_DOPPLER, doppler={"nu_max": 1.0, "steps": 5.5}),
            "doppler.steps",
        ),
        (
            "spectrum",
            dict(UCA_CFG, aperture={"kind": "parallel_lines", "count": 2.5, "length": 1.0, "span": 1.0}),
            "aperture.count",
        ),
    ],
    ids=["n_override", "sweep-steps", "doppler-steps", "aperture-count"],
)
def test_non_integral_field_refused(tmp_path, capsys, case):
    command, payload, field = case
    cfg = write_cfg(tmp_path / "c.cfg", payload)
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ") and not out.exists()


@pytest.mark.parametrize("command", ["doppler", "sweep"])
def test_non_positive_nu_max_refused(tmp_path, capsys, command):
    payload = dict(ISOTROPIC_DOPPLER, doppler={"nu_max": -1.0})
    if command == "sweep":
        payload["sweep"] = {"kind": "doppler", "start": -0.5, "stop": 0.5, "steps": 3}
    cfg = write_cfg(tmp_path / "c.cfg", payload)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2
    assert capsys.readouterr().err == "error: doppler.nu_max: must be > 0\n"


def _point_config(cfg, kind, value):
    """``cfg`` at one point of a radius, length or direction sweep, built apart from the CLI."""
    out = copy.deepcopy(cfg)
    if kind == "direction":
        out.setdefault("pas", {})["alpha0_deg"] = value
    elif kind == "length" and out["aperture"]["kind"] == "rectangle":
        out["aperture"]["width"] = value
    else:
        out["aperture"][kind] = value
    return out


def _gram_inputs(cfg):
    """Every config the ``spectrum`` or a continuous ``sweep`` would solve."""
    sweep = cfg.get("sweep")
    if sweep is None:
        return [cfg]
    kind, values = cli._sweep_values(sweep)
    if kind in ("antennas", "doppler"):
        return []
    return [_point_config(cfg, kind, float(v)) for v in values]


@pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6", "fig7", "fig8"])
def test_sweep_point_sets_one_field(fig):
    cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
    before = copy.deepcopy(cfg)
    kind, values = cli._sweep_values(cfg["sweep"])
    for value in values:
        assert cli._apply_sweep(cfg, kind, float(value)) == _point_config(cfg, kind, float(value))
    assert cfg == before


@pytest.mark.parametrize(
    "kind, aperture, message",
    [
        ("radius", {"kind": "segment", "length": 1.0}, "radius sweep requires a circle or disk"),
        (
            "length",
            {"kind": "circle", "radius": 1.0},
            "length sweep requires segment, lines, or rectangle",
        ),
        ("area", {"kind": "circle", "radius": 1.0}, "unknown sweep kind 'area'"),
    ],
)
def test_sweep_kind_refused(kind, aperture, message):
    with pytest.raises(cli.ConfigError, match=f"^sweep.kind: {message}$"):
        cli._apply_sweep(dict(UCA_CFG, aperture=aperture), kind, 1.0)


def test_angle_grid_certified_on_shipped_inputs(monkeypatch):
    grids = []
    choose = operators._angle_grid_size

    def spy(N, r1):
        grids.append((N, r1, choose(N, r1)))
        return grids[-1][2]

    monkeypatch.setattr(operators, "_angle_grid_size", spy)
    paths = sorted(SCENARIO_DIR.glob("*.cfg")) + sorted(BENCH_CONFIG_DIR.glob("*.cfg"))
    for path in paths:
        for cfg in _gram_inputs(json.loads(path.read_text())):
            cli._solve_scenario(cfg)
    assert len(grids) == 2 + 90 + 5
    for N, r1, Q in grids:
        assert ds.bessel_abs_tail_bound(Q - N - 1, r1) <= 1e-17


class TestSweepCommand:
    def test_radius_sweep(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            dict(UCA_CFG, sweep={"kind": "radius", "start": 0.1, "stop": 0.3, "steps": 3}),
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == ["param", "omega", "omega_corrected", "error_bound"]
        assert len(rows) == 3
        assert all(float(r[1]) >= 1.0 for r in rows)

    def test_direction_sweep_mirror(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "segment", "length": 1.0},
                "pas": {"kind": "uniform", "delta_deg": 45.0},
                "sweep": {"kind": "direction", "start": -60.0, "stop": 60.0, "steps": 5},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        omegas = {float(r[0]): float(r[1]) for r in rows}
        assert omegas[-60.0] == pytest.approx(omegas[60.0], abs=1e-8)
        assert omegas[-30.0] == pytest.approx(omegas[30.0], abs=1e-8)

    def test_antennas_sweep_integer_params(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            dict(UCA_CFG, sweep={"kind": "antennas", "start": 2, "stop": 6, "steps": 5}),
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert [r[0] for r in rows] == ["2", "3", "4", "5", "6"]
        assert all(1.0 <= float(r[1]) <= float(r[0]) + 1e-12 for r in rows)

    @pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_certificate_encloses_refined_omega(self, fig, tmp_path):
        # every printed omega_corrected +- error_bound must contain the
        # converged measure, here 1/hs_norm_sq of a solve 25 orders higher
        config = SCENARIO_DIR / f"{fig}.cfg"
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        base = json.loads(config.read_text())
        kind = base["sweep"]["kind"]
        _, _, rows = read_rows(out)
        assert len(rows) == base["sweep"]["steps"]
        for param, _, center, half in rows:
            row_cfg = _point_config(base, kind, float(param))
            aperture = cli.make_aperture(row_cfg["aperture"])
            model = cli.make_pas(row_cfg["pas"])
            centered, _ = ds.centering_transform(aperture)
            N = ds.truncation_order(ds.enclosing_radius(centered)) + DEFAULT_ORDER_MARGIN
            ref = ds.solve_spectrum(ds.build_truncated_operator(aperture, model, N=N + 25))
            assert abs(1.0 / ref.hs_norm_sq - float(center)) <= float(half), (fig, param)

    def test_antennas_require_circle_or_segment(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "disk", "radius": 0.5},
                "pas": {"kind": "isotropic"},
                "sweep": {"kind": "antennas", "start": 2, "stop": 4, "steps": 3},
            },
        )
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    def test_sweep_validation(self, tmp_path):
        for sweep in [
            {"kind": "radius", "start": 0.3, "stop": 0.1, "steps": 3},
            {"kind": "radius", "start": 0.1, "stop": 0.3, "steps": 1},
        ]:
            cfg = write_cfg(tmp_path / "c.cfg", dict(UCA_CFG, sweep=sweep))
            assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    def test_failed_point_leaves_empty_cells(self, tmp_path, capsys):
        # a 2-degree opening makes the certified bound too loose to correct
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "circle", "radius": 0.4},
                "pas": {"kind": "uniform", "delta_deg": 2.0},
                "sweep": {"kind": "radius", "start": 0.2, "stop": 0.4, "steps": 2},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, _, rows = read_rows(out)
        assert all(r[1] == "" for r in rows)
        assert "warning" in capsys.readouterr().err


def _point_rows(cfg):
    """CSV rows of a continuous sweep with every point built and solved alone."""
    kind, values = cli._sweep_values(cfg["sweep"])
    rows, warnings = [], []
    for value in values:
        try:
            *_, spec = cli._solve_scenario(_point_config(cfg, kind, float(value)))
            center, half_width = ds.omega_corrected(spec)
        except (ValueError, ArithmeticError, RuntimeError) as exc:
            warnings.append(f"warning: param={value}: {exc}\n")
            rows.append([cli._fmt(value), "", "", ""])
            continue
        rows.append([cli._fmt(v) for v in (value, spec.omega, center, half_width)])
    return rows, "".join(warnings)


def _sweep(tmp_path, cfg):
    config = write_cfg(tmp_path / "sweep.cfg", cfg)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", config, "--out", str(out)]) == 0
    return read_rows(out)[2]


def _count_work(monkeypatch):
    counts = {"gram_matrix": 0, "eigh": 0, "eigvalsh": 0}
    for module, name in ((operators, "gram_matrix"), (np.linalg, "eigh"), (np.linalg, "eigvalsh")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


TABLE_DIRECTION = {
    "aperture": {"kind": "rectangle", "width": 1.2, "height": 0.5, "angle_deg": 10.0},
    "pas": {"kind": "tabulated", "table": "TABLE"},
    "sweep": {"kind": "direction", "start": -170.0, "stop": 170.0, "steps": 7},
}


class TestSweepReuse:
    """Sweeps share work across points and print what per-point solves print."""

    @pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6"])
    def test_shared_rtilde_rows_byte_identical(self, fig, tmp_path):
        cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        assert _sweep(tmp_path, cfg) == _point_rows(cfg)[0]

    @pytest.mark.parametrize("fig", ["fig7", "fig8", "tabulated"])
    def test_rotated_rows_match_per_point_solves(self, fig, tmp_path):
        if fig == "tabulated":
            table = tmp_path / "table.csv"
            table.write_text("0,1.0\n70,3.0\n160,0.5\n250,2.0\n")
            cfg = json.loads(json.dumps(TABLE_DIRECTION).replace('"TABLE"', json.dumps(str(table))))
        else:
            cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        rows = _sweep(tmp_path, cfg)
        expected = _point_rows(cfg)[0]
        assert [r[0] for r in rows] == [r[0] for r in expected]
        for row, ref in zip(rows, expected):
            for got, want in zip(row[1:], ref[1:]):
                assert abs(float(got) - float(want)) <= 1e-13 * abs(float(want)), (row, ref)

    def test_direction_sweep_builds_once(self, tmp_path, monkeypatch):
        cfg = json.loads((SCENARIO_DIR / "fig7.cfg").read_text())
        counts = _count_work(monkeypatch)
        assert len(_sweep(tmp_path, cfg)) == 10
        assert counts == {"gram_matrix": 1, "eigh": 1, "eigvalsh": 10}

    def test_radius_sweep_shares_rtilde_per_order(self, tmp_path, monkeypatch):
        cfg = json.loads((SCENARIO_DIR / "fig4.cfg").read_text())
        counts = _count_work(monkeypatch)
        assert len(_sweep(tmp_path, cfg)) == 25
        assert counts == {"gram_matrix": 25, "eigh": 5, "eigvalsh": 25}

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(json.loads((SCENARIO_DIR / "fig7.cfg").read_text()), n_override=20),
            {
                "aperture": {"kind": "segment", "length": 600.0},
                "pas": {"kind": "uniform", "delta_deg": 45.0},
                "sweep": {"kind": "direction", "start": 0.0, "stop": 90.0, "steps": 3},
            },
        ],
        ids=["below-critical-order", "grid-guard"],
    )
    def test_refused_direction_build_fails_every_point(self, cfg, tmp_path, capsys):
        rows, warnings = _point_rows(cfg)
        capsys.readouterr()
        assert _sweep(tmp_path, cfg) == rows
        assert all(r[1:] == ["", "", ""] for r in rows)
        err = capsys.readouterr().err
        assert err == warnings and err.count("warning: param=") == len(rows)
        assert "below the critical order N_D=43" in err or "Q=5184" in err

    def test_partial_failures_keep_surviving_rows(self, tmp_path, capsys):
        # N = 14 serves the small radii, is too loose at 1.1 and 1.55 and
        # below the critical order at 2.0
        cfg = {
            "aperture": {"kind": "circle", "radius": 1.0},
            "pas": {"kind": "von_mises", "kappa": 3.0},
            "n_override": 14,
            "sweep": {"kind": "radius", "start": 0.2, "stop": 2.0, "steps": 5},
        }
        rows, warnings = _point_rows(cfg)
        capsys.readouterr()
        assert _sweep(tmp_path, cfg) == rows
        assert capsys.readouterr().err == warnings
        assert [r[1] != "" for r in rows] == [True, True, False, False, False]
        assert "critical order" in warnings and "certified relative error" in warnings


class TestDopplerCommand:
    def test_jakes_center_value(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "pas": {"kind": "isotropic"},
                "doppler": {"nu_max": 1.0, "start": -0.5, "stop": 0.5, "steps": 5},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["doppler", "--config", cfg, "--out", str(out)]) == 0
        meta, header, rows = read_rows(out)
        assert header == ["nu", "S_doppler"]
        values = {float(r[0]): float(r[1]) for r in rows}
        assert values[0.0] == pytest.approx(1.0 / math.pi, abs=1e-12)

    def test_doppler_validation(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {"pas": {"kind": "isotropic"}, "doppler": {"nu_max": 1.0, "steps": 1}},
        )
        assert main(["doppler", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 2

    def test_sweep_subcommand_doppler_kind(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "pas": {"kind": "uniform", "delta_deg": 90.0},
                "doppler": {"nu_max": 2.0},
                "sweep": {"kind": "doppler", "start": -1.9, "stop": 1.9, "steps": 7},
            },
        )
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        _, header, rows = read_rows(out)
        assert header == ["nu", "S_doppler"] and len(rows) == 7


class TestDeterminism:
    def test_back_to_back_runs_identical(self, tmp_path):
        cfg = write_cfg(
            tmp_path / "c.cfg",
            {
                "aperture": {"kind": "rectangle", "width": 0.8, "height": 0.4, "angle_deg": 20.0},
                "pas": {"kind": "von_mises", "kappa": 3.0, "alpha0_deg": 45.0},
            },
        )
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(a)]) == 0
        assert main(["spectrum", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
