import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import divspec as ds
from divspec import cli, operators, spectrum
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

#: 16 antennas on the unit circle
UCA16 = [[math.cos(k * math.pi / 8), math.sin(k * math.pi / 8)] for k in range(16)]


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

    @pytest.mark.parametrize(
        "pieces",
        [
            [{"type": "line", "start": [0.3, 0.4], "end": [0.3, 0.4]}],
            [{"type": "line", "start": [0.3, 0.4], "end": [0.3, 0.4]}] * 3,
        ],
        ids=["one-piece", "three-pieces"],
    )
    def test_zero_length_curve_is_a_point(self, tmp_path, pieces):
        curve = {"kind": "piecewise_curve", "pieces": pieces}
        point = {"kind": "segment", "length": 0.0, "center": [0.3, 0.4]}
        pas = {"kind": "von_mises", "kappa": 3.0, "alpha0_deg": 20.0}
        outputs = []
        for k, aperture in enumerate([curve, point]):
            cfg = write_cfg(tmp_path / f"{k}.cfg", {"aperture": aperture, "pas": pas})
            outputs.append(tmp_path / f"{k}.csv")
            assert main(["spectrum", "--config", cfg, "--out", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()
        _, _, rows = read_rows(outputs[0])
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_length_middle_piece_carries_no_measure(self, tmp_path):
        ends = [[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]]
        line = lambda a, b: {"type": "line", "start": ends[a], "end": ends[b]}  # noqa: E731
        pas = {"kind": "isotropic"}
        outputs = []
        for k, pieces in enumerate([[line(0, 1), line(1, 1), line(1, 2)], [line(0, 1), line(1, 2)]]):
            aperture = {"kind": "piecewise_curve", "pieces": pieces}
            cfg = write_cfg(tmp_path / f"{k}.cfg", {"aperture": aperture, "pas": pas})
            outputs.append(tmp_path / f"{k}.csv")
            assert main(["spectrum", "--config", cfg, "--out", str(outputs[-1])]) == 0
        assert outputs[0].read_bytes() == outputs[1].read_bytes()

    def test_wound_arc_refused_quickly(self, tmp_path, capsys):
        # radius 1 through 1e6 rad needs some 1e7 Gauss nodes, above the byte limit
        arc = {"type": "arc", "center": [0.0, 0.0], "radius": 1.0, "start_deg": 0.0}
        arc["stop_deg"] = math.degrees(1e6)
        aperture = {"kind": "piecewise_curve", "pieces": [arc]}
        cfg = write_cfg(tmp_path / "c.cfg", {"aperture": aperture, "pas": {"kind": "isotropic"}})
        out = tmp_path / "o.csv"
        start = time.perf_counter()
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "byte limit" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("kind", ["circle", "disk"])
    def test_oversized_circle_refused_quickly(self, tmp_path, capsys, kind):
        # radius 240 needs a 4121 x 4121 R, above the byte limit as a complex matrix
        payload = {"aperture": {"kind": kind, "radius": 240.0}, "pas": {"kind": "von_mises", "kappa": 3.0}}
        cfg = write_cfg(tmp_path / "c.cfg", payload)
        out = tmp_path / "o.csv"
        start = time.perf_counter()
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert "4121x4121 271722256-byte coefficient correlation matrix R" in err and not out.exists()

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

    @pytest.mark.parametrize(
        "aperture, pas",
        [
            ({"kind": "segment", "length": 3.0, "angle_deg": 20.0}, {"kind": "tabulated", "alpha0_deg": 35.0}),
            ({"kind": "discrete_array", "points": UCA16}, {"kind": "von_mises", "kappa": 5.0, "alpha0_deg": 40.0}),
        ],
        ids=["segment-tabulated", "uca16-von-mises"],
    )
    def test_dump_matrices_contents(self, tmp_path, aperture, pas, rtilde_reference):
        # every entry of both dumps reads back bit for bit, signed zeros too: 17
        # digits round-trip, and under an off-axis PAS R is complex
        if pas["kind"] == "tabulated":
            (tmp_path / "table.csv").write_text("0,1.0\n70,3.0\n160,0.0\n250,2.0\n")
            pas = dict(pas, table=str(tmp_path / "table.csv"))
        payload = {"aperture": aperture, "pas": pas}
        cfg = write_cfg(tmp_path / "c.cfg", payload)
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--dump-matrices"]) == 0

        def parse(name):
            lines = (tmp_path / name).read_text().splitlines()
            return np.array([[complex(v) for v in line.split(",")] for line in lines])

        N = int(read_rows(out)[0]["N"])
        model = cli.make_pas(pas)
        R = rtilde_reference(model, N)
        assert np.any(R.imag != 0.0)
        assert parse("out_rtilde.csv").tobytes() == np.ascontiguousarray(R).tobytes()
        op = ds.build_truncated_operator(cli.make_aperture(aperture), model)
        assert op.N == N and parse("out_gram.csv").tobytes() == op.gram.tobytes()

    @pytest.mark.parametrize(
        "aperture",
        [{"kind": "segment", "length": 1.0}, {"kind": "discrete_array", "points": [[0.0, 0.0], [0.5, 0.2]]}],
        ids=["segment", "array"],
    )
    def test_dump_matrices_write_formed_gram(self, tmp_path, aperture):
        # a line's half factor (both apertures lie on a line through their centre in
        # mirror pairs) forms its G = F^H F, unfolded, only when the dump reads it
        payload = {"aperture": aperture, "pas": {"kind": "von_mises", "kappa": 3.0}}
        cfg = write_cfg(tmp_path / "c.cfg", payload)
        out = tmp_path / "out.csv"
        assert main(["spectrum", "--config", cfg, "--out", str(out), "--dump-matrices"]) == 0
        op = ds.build_truncated_operator(cli.make_aperture(aperture), cli.make_pas(payload["pas"]))
        assert op.gram_factor.shape[1] == op.N + 1 and op._line_angle is not None
        lines = (tmp_path / "out_gram.csv").read_text().splitlines()
        gram = np.array([[complex(v) for v in line.split(",")] for line in lines])
        F = operators._unfold(op.gram_factor, op._line_angle, op.N)
        assert np.array_equal(gram, operators._factor_gram(F))

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


# a broken G needs points whose G comes from the closed-form transform
LENGTH_SWEEP = {
    "aperture": {"kind": "rectangle", "width": 1.0, "height": 0.5},
    "pas": {"kind": "uniform", "delta_deg": 90.0},
    "sweep": {"kind": "length", "start": 0.5, "stop": 1.0, "steps": 3},
}
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
    "kappa-above-ceiling": ("spectrum", dict(UCA_CFG, pas={"kind": "von_mises", "kappa": 1e300}), "pas"),
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
    # circles and disks (fig2 to fig5, disk3) build no grid: fig6 to fig8 build 20 + 10 + 10,
    # the divbench segment, curve, lines and rectangle one each
    assert len(grids) == 40 + 4
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

    @pytest.mark.parametrize("fig", ["fig9", "fig10"])
    def test_antennas_interval_encloses_refined_omega(self, fig, tmp_path):
        # the omega column is discrete_diversity at the shared kernel order;
        # the interval must contain the omega of a kernel 40 orders higher
        config = SCENARIO_DIR / f"{fig}.cfg"
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
        base = json.loads(config.read_text())
        aperture, model = cli.make_aperture(base["aperture"]), cli.make_pas(base["pas"])
        N, _ = ds.series_order(2.0 * ds.enclosing_radius(ds.centering_transform(aperture)[0]))
        _, _, rows = read_rows(out)
        assert len(rows) == 31
        for L, omega, center, half in rows:
            positions = cli._antenna_positions(aperture, int(L))
            assert omega == cli._fmt(ds.discrete_diversity(ds.discrete_correlation(positions, model, N)))
            ref = ds.discrete_diversity(ds.discrete_correlation(positions, model, N + 40))
            assert abs(ref - float(center)) <= float(half), (fig, L)

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


def _rtilde_with_min_eig(R, target):
    # (R - mu*I)/(1 - mu) keeps the unit diagonal and the Toeplitz form
    mu = (np.linalg.eigvalsh(R)[0] - target) / (1.0 - target)
    return (R - mu * np.eye(len(R))) / (1.0 - mu)


def _with_nan(F):
    F = F.copy()
    F.flat[0] = np.nan
    return F


RADIUS_SWEEP = {
    "aperture": {"kind": "circle", "radius": 0.5},
    "pas": {"kind": "uniform", "delta_deg": 90.0},
    "sweep": {"kind": "radius", "start": 0.2, "stop": 0.6, "steps": 3},
}
DIRECTION_SWEEP = {
    "aperture": {"kind": "segment", "length": 1.0},
    "pas": {"kind": "von_mises", "kappa": 3.0},
    "sweep": {"kind": "direction", "start": -60.0, "stop": 60.0, "steps": 3},
}
R_INDEFINITE = "coefficient correlation matrix indefinite: min eigenvalue -2.000e-10"


def _point_rows(cfg):
    """CSV rows of a continuous sweep with every point built and solved alone.

    Each row is ``solve_spectrum``'s omega and ``omega_corrected``'s interval.
    """
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


def _refused_sweep(tmp_path, cfg, capsys):
    """stderr of a sweep refused as a whole: it exits 3 and writes no CSV."""
    config = write_cfg(tmp_path / "sweep.cfg", cfg)
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert main(["sweep", "--config", config, "--out", str(out)]) == 3
    assert not out.exists()
    return capsys.readouterr().err


def _assert_rows_close(rows, expected, rtol=1e-13):
    """Same params and empty cells; every number within ``rtol`` relative."""
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert row[0] == want[0] and [v == "" for v in row] == [v == "" for v in want]
        for got, ref in zip(row[1:], want[1:]):
            if ref:
                assert abs(float(got) - float(ref)) <= rtol * abs(float(ref)), (row, want)


def _count_work(monkeypatch, *private):
    """Calls of ``gram_matrix``, the ``private`` ``operators`` names and four factorisations."""
    names = ("gram_matrix",) + private
    counts = dict.fromkeys(names + ("cholesky", "eigh", "eigvalsh", "qr"), 0)
    linalg = [(np.linalg, name) for name in ("cholesky", "eigh", "eigvalsh", "qr")]
    for module, name in [(operators, name) for name in names] + linalg:
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
    """Sweeps read omega off two traces and print what per-point solves print."""

    @pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6"])
    def test_rows_match_per_point_solves(self, fig, tmp_path):
        cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        _assert_rows_close(_sweep(tmp_path, cfg), _point_rows(cfg)[0])

    @pytest.mark.parametrize("fig", ["fig7", "fig8", "tabulated"])
    def test_rotated_rows_match_per_point_solves(self, fig, tmp_path):
        if fig == "tabulated":
            table = tmp_path / "table.csv"
            table.write_text("0,1.0\n70,3.0\n160,0.5\n250,2.0\n")
            cfg = json.loads(json.dumps(TABLE_DIRECTION).replace('"TABLE"', json.dumps(str(table))))
        else:
            cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        _assert_rows_close(_sweep(tmp_path, cfg), _point_rows(cfg)[0])

    def test_direction_sweep_builds_once(self, tmp_path, monkeypatch):
        # one real half factor of the segment's G, whose rule costs leggauss one companion
        # eigvalsh and whose two parity blocks, each with more rows than columns, one QR
        # each; no G formed or tested, and no test of the certified R at any point
        cfg = json.loads((SCENARIO_DIR / "fig7.cfg").read_text())
        ds.aperture._gauss01.cache_clear()
        counts = _count_work(monkeypatch, "_line_factor", "_node_factor", "_factor_gram")
        assert len(_sweep(tmp_path, cfg)) == 10
        assert counts == {
            "gram_matrix": 0,
            "_line_factor": 1,
            "_node_factor": 0,
            "_factor_gram": 0,
            "cholesky": 0,
            "eigh": 0,
            "eigvalsh": 1,
            "qr": 2,
        }

    def test_radius_sweep_runs_no_eigensolve(self, tmp_path, monkeypatch):
        # every point keeps its circle's diagonal G, forms no transform and no G,
        # and its R is certified by the build, with no Cholesky test
        cfg = json.loads((SCENARIO_DIR / "fig4.cfg").read_text())
        counts = _count_work(monkeypatch, "_radial_diagonal", "_aperture_transform", "_factor_gram")
        assert len(_sweep(tmp_path, cfg)) == 25
        assert counts == {
            "gram_matrix": 0,
            "_radial_diagonal": 25,
            "_aperture_transform": 0,
            "_factor_gram": 0,
            "cholesky": 0,
            "eigh": 0,
            "eigvalsh": 0,
            "qr": 0,
        }

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
        # every direction point shares both halves, built before the first row, so
        # their refusal is the whole sweep's: it exits 3 with the point's own message
        with pytest.raises((ValueError, ArithmeticError)) as alone:
            cli._solve_scenario(_point_config(cfg, "direction", cfg["sweep"]["start"]))
        err = _refused_sweep(tmp_path, cfg, capsys)
        assert err == f"numerical error: {alone.value}\n"
        assert "below the critical order N_D=43" in err or "5145x5145 423536400-byte coefficient" in err

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
        _assert_rows_close(_sweep(tmp_path, cfg), rows)
        assert capsys.readouterr().err == warnings
        assert [r[1] != "" for r in rows] == [True, True, False, False, False]
        assert "critical order" in warnings and "certified relative error" in warnings


@pytest.mark.parametrize(
    "cfg, target, breakage, message",
    [
        (RADIUS_SWEEP, "_toeplitz", lambda R: _rtilde_with_min_eig(R, -2e-10), R_INDEFINITE),
        (DIRECTION_SWEEP, "_toeplitz", lambda R: _rtilde_with_min_eig(R, -2e-10), R_INDEFINITE),
        (LENGTH_SWEEP, "gram_matrix", lambda G: G - 1e-6 * np.eye(len(G)), "Gram matrix indefinite"),
        (LENGTH_SWEEP, "gram_matrix", lambda G: G * (1.0 - 1e-3), "trace deficit .* exceeds the tail bound"),
        (RADIUS_SWEEP, "_radial_diagonal", lambda g: g * (1.0 - 1e-3), "trace deficit .* exceeds the tail bound"),
        (LENGTH_SWEEP, "_gram_factor", _with_nan, r"Gram trace nan outside \[0, 1\]"),
        (RADIUS_SWEEP, "_gram_factor", _with_nan, r"Gram trace nan outside \[0, 1\]"),
    ],
    ids=[
        "rtilde-indefinite-radius",
        "rtilde-indefinite-direction",
        "gram-indefinite",
        "trace-deficit",
        "diagonal-trace-deficit",
        "nan-factor-length",
        "nan-factor-radius",
    ],
)
def test_refusal_fires_on_every_sweep_point(cfg, target, breakage, message, tmp_path, monkeypatch, capsys):
    # with no eigensolve on a sweep, the build's checks are what refuse a broken pair;
    # R's PSD is tested there for a model outside the four whose PSD is proven
    if target == "_toeplitz":
        monkeypatch.setattr(operators, "_PSD_MODELS", ())
    build = getattr(operators, target)
    monkeypatch.setattr(operators, target, lambda *args: breakage(build(*args)))
    if cfg is DIRECTION_SWEEP:
        # a direction sweep builds R(0) once, before its first row, for the whole sweep
        assert re.fullmatch(f"numerical error: {message}\n", _refused_sweep(tmp_path, cfg, capsys))
        return
    rows = _sweep(tmp_path, cfg)
    assert len(rows) == 3 and all(r[1:] == ["", "", ""] for r in rows)
    warnings = capsys.readouterr().err.splitlines()
    assert len(warnings) == 3
    for row, line in zip(rows, warnings):
        assert line.startswith(f"warning: param={float(row[0])}: ")
        assert re.search(message, line)


def _independent_rows(cfg):
    """CSV rows of a sweep with every point built alone, sharing nothing with another.

    A radius, length or direction point is its own ``build_truncated_operator``
    read by ``omega_from_traces``; an antennas point is ``discrete_correlation``
    of its positions, on the grid of their own ``d_max``, and
    ``discrete_diversity``, at the order that the base diameter and
    ``n_override`` set.
    """
    kind, values = cli._sweep_values(cfg["sweep"])
    aperture, model, N = cli._scenario(cfg)
    if kind != "antennas":
        rows = []
        for value in values:
            point = _point_config(cfg, kind, float(value))
            op = ds.build_truncated_operator(cli.make_aperture(point["aperture"]), cli.make_pas(point["pas"]), N)
            rows.append([cli._fmt(v) for v in (value, *ds.omega_from_traces(op))])
        return rows
    diameter = 2.0 * ds.enclosing_radius(ds.centering_transform(aperture)[0])
    N, _ = ds.series_order(diameter, N)
    delta = ds.bessel_abs_tail_bound(N, diameter)
    rows = []
    for L in map(int, values):
        R = ds.discrete_correlation(cli._antenna_positions(aperture, L), model, N)
        S = float(np.sum(np.abs(R) ** 2))
        slack = 2.0 * L * delta * math.sqrt(S) + (L * delta) ** 2
        interval = ds.spectrum._omega_interval(S / L**2, slack / L**2)
        rows.append([str(L), *map(cli._fmt, (ds.discrete_diversity(R), *interval))])
    return rows


ANTENNAS_UCA = {
    "aperture": {"kind": "circle", "radius": 1.0},
    "pas": {"kind": "von_mises", "kappa": 3.0, "alpha0_deg": 20.0},
    "sweep": {"kind": "antennas", "start": 2, "stop": 8, "steps": 7},
}


class TestSweepSharing:
    """A sweep builds once what its points share and writes what independent points write."""

    FIGS = ["fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"]

    @pytest.mark.parametrize("fig", FIGS)
    def test_rows_equal_independent_builds(self, fig, tmp_path):
        cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        assert _sweep(tmp_path, cfg) == _independent_rows(cfg)

    def test_rows_agree_with_independent_builds_on_their_own_grids(self, tmp_path):
        # on a circle of radius 2, three and five antennas span less than the
        # diameter, so each built alone takes a smaller grid than the shared one (120
        # against 128 angles): both alias below 1e-17 at its d_max, and the rows agree
        # to round-off, not as bytes
        cfg = dict(ANTENNAS_UCA, aperture={"kind": "circle", "radius": 2.0})
        aperture, model, _ = cli._scenario(cfg)
        N, u, _ = operators._kernel_grid(model, 4.0, None)
        for L in (3, 5):
            pts = cli._antenna_positions(aperture, L)
            d_max = spectrum._max_distance(pts - pts.mean(axis=0))
            own = len(operators._kernel_grid(model, d_max, N)[1])
            assert own < len(u)
            for Q in (own, len(u)):
                assert ds.bessel_abs_tail_bound(Q - N - 1, d_max) <= 1e-17
        rows, alone = _sweep(tmp_path, cfg), _independent_rows(cfg)
        assert [row[0] for row in rows] == [row[0] for row in alone]
        values = np.array([row[1:] for row in rows], dtype=float)
        assert np.allclose(values, np.array([row[1:] for row in alone], dtype=float), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("fig", ["fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_halves_built_once_per_order(self, fig, tmp_path, monkeypatch):
        # the PAS half windows R(0) once (_toeplitz) per distinct N; every radius or
        # length point builds its own Gram factor, a direction sweep one
        cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        kind, values = cli._sweep_values(cfg["sweep"])
        orders = set()
        for value in values:
            aperture = cli.make_aperture(_point_config(cfg, kind, float(value))["aperture"])
            orders.add(ds.series_order(ds.enclosing_radius(ds.centering_transform(aperture)[0]))[0])
        counts = _count_work(monkeypatch, "_toeplitz", "_gram_factor")
        assert len(_sweep(tmp_path, cfg)) == len(values)
        points = 1 if kind == "direction" else len(values)
        assert (counts["_toeplitz"], counts["_gram_factor"]) == (len(orders), points)
        assert len(orders) == (1 if kind == "direction" else 5)

    def test_radius_sweep_keeps_one_pas_half(self, tmp_path, monkeypatch):
        # 24 radii meet 24 orders; before each PAS half is built, at most the last
        # one's R(0) is alive, as a sweep of points built alone holds one at a time
        halves, alive = [], []
        build = cli._coefficient_half

        def tracked(*args):
            gc.collect()
            alive.append(sum(ref() is not None for ref in halves))
            half = build(*args)
            halves.append(weakref.ref(half["rtilde"]))
            return half

        monkeypatch.setattr(cli, "_coefficient_half", tracked)
        cfg = dict(UCA_CFG, sweep={"kind": "radius", "start": 0.5, "stop": 12.0, "steps": 24})
        assert len(_sweep(tmp_path, cfg)) == 24
        assert len(alive) == 24 and max(alive) == 1

    @pytest.mark.parametrize("fig", ["fig9", "fig10"])
    def test_kernel_grid_built_once_per_antennas_sweep(self, fig, tmp_path, monkeypatch):
        grids = []
        for module in (cli, spectrum):
            choose = module._kernel_grid

            def counted(*args, _choose=choose, _module=module):
                grids.append(_module.__name__)
                return _choose(*args)

            monkeypatch.setattr(module, "_kernel_grid", counted)
        cfg = json.loads((SCENARIO_DIR / f"{fig}.cfg").read_text())
        assert len(_sweep(tmp_path, cfg)) == 31
        assert grids == ["divspec.cli"]

    def test_point_past_the_size_guard_refused_alone(self, tmp_path, capsys):
        # radius 240 needs a 4121 x 4121 R, refused before anything of its order is
        # allocated; the first point is written as if alone
        cfg = dict(UCA_CFG, sweep={"kind": "radius", "start": 0.1, "stop": 240.0, "steps": 2})
        rows = _sweep(tmp_path, cfg)
        assert rows[0] == _independent_rows(dict(cfg, sweep=dict(cfg["sweep"], stop=0.2)))[0]
        assert rows[1] == ["240", "", "", ""]
        err = capsys.readouterr().err
        assert err.startswith("warning: param=240.0: evaluation at N=2060 needs a 4121x4121")
        assert err.count("warning:") == 1

    def test_antennas_point_beyond_the_shared_grid_refused_alone(self, tmp_path, monkeypatch, capsys):
        # spread three antennas over twice the base diameter: that point alone is refused
        place = cli._antenna_positions
        monkeypatch.setattr(cli, "_antenna_positions", lambda ap, L: place(ap, L) * (2.0 if L == 3 else 1.0))
        rows = _sweep(tmp_path, ANTENNAS_UCA)
        monkeypatch.undo()
        expected = _independent_rows(ANTENNAS_UCA)
        assert rows[1] == ["3", "", "", ""]
        assert rows[:1] + rows[2:] == expected[:1] + expected[2:]
        err = capsys.readouterr().err
        message = r"warning: L=3: antennas 3\.46\d* apart exceed the kernel grid of diameter 2\.0\n"
        assert re.fullmatch(message, err)

    def test_interleaved_sweeps_repeat_their_bytes(self, tmp_path):
        # nothing a sweep shares outlives its call
        outputs = []
        for fig in ("fig5", "fig4", "fig5"):
            out = tmp_path / f"{len(outputs)}.csv"
            assert main(["sweep", "--config", str(SCENARIO_DIR / f"{fig}.cfg"), "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[2] != outputs[1]

    def test_antennas_n_override_sets_the_kernel_order(self, tmp_path):
        # N = 60 reaches every point's correlation matrix and its interval
        cfg = dict(ANTENNAS_UCA, n_override=60)
        rows = _sweep(tmp_path, cfg)
        assert rows == _independent_rows(cfg)
        aperture, model = cli.make_aperture(cfg["aperture"]), cli.make_pas(cfg["pas"])
        for L, omega, *_ in rows:
            R = ds.discrete_correlation(cli._antenna_positions(aperture, int(L)), model, 60)
            assert omega == cli._fmt(ds.discrete_diversity(R))
        assert [r[3] for r in rows] != [r[3] for r in _sweep(tmp_path, ANTENNAS_UCA)]

    def test_antennas_n_override_below_critical_order_exits_3(self, tmp_path, capsys):
        # the kernel's order is chosen at the base diameter 2, where N_D = 18
        cfg = write_cfg(tmp_path / "c.cfg", dict(ANTENNAS_UCA, n_override=5))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == "numerical error: truncation order N=5 below the critical order N_D=18 for radius 2.0\n"
        assert not out.exists()

    def test_antennas_huge_n_override_refused_at_once(self, tmp_path, capsys):
        # the shared kernel grid for N = 1e12 is sized and refused before any point
        cfg = write_cfg(tmp_path / "c.cfg", dict(ANTENNAS_UCA, n_override=1e12))
        out = tmp_path / "out.csv"
        start = time.perf_counter()
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert time.perf_counter() - start < 1.0
        assert "byte limit" in capsys.readouterr().err and not out.exists()


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

    def test_consecutive_calls_match_fresh_processes(self, tmp_path):
        # main parses with one parser per process: after a spectrum, a sweep, a
        # doppler table, a refused config and a refused argument list, each call
        # writes what a fresh process writes and exits with its code
        segment = {**UCA_CFG, "aperture": {"kind": "segment", "length": 2.0}}
        table = {"pas": {"kind": "isotropic"}, "doppler": {"nu_max": 1.0, "steps": 5}}
        no_length = {"aperture": {"kind": "segment"}, "pas": {"kind": "isotropic"}}
        calls = {
            "spectrum": (0, ["spectrum", "--config", write_cfg(tmp_path / "s.cfg", segment)]),
            "sweep": (0, ["sweep", "--config", str(SCENARIO_DIR / "fig6.cfg")]),
            "doppler": (0, ["doppler", "--config", write_cfg(tmp_path / "d.cfg", table)]),
            "refused": (2, ["sweep", "--config", write_cfg(tmp_path / "r.cfg", no_length)]),
            "no-config": (2, ["spectrum"]),
        }
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fresh = {}
        for name, (_, argv) in calls.items():
            out = tmp_path / f"{name}-fresh.csv"
            cmd = [sys.executable, "-m", "divspec.cli", *argv, "--out", str(out)]
            code = subprocess.run(cmd, env=env, capture_output=True, cwd=tmp_path).returncode
            fresh[name] = (code, out.read_bytes() if code == 0 else None)
        for name, (expected, argv) in list(calls.items()) * 2:
            out = tmp_path / f"{name}.csv"
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            assert code == expected and (code, out.read_bytes() if code == 0 else None) == fresh[name], name
