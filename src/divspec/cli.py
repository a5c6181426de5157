"""Config-driven command line front end.

Subcommands
-----------
spectrum   solve one scenario, write the eigenvalue spectrum as CSV
sweep      vary one parameter of a base scenario, write omega per point
doppler    tabulate the Doppler power density of a PAS

Configs are JSON; angles are degrees and lengths wavelengths there (the
library API itself is radians).  Output CSVs are byte-deterministic for a
fixed config: floats are printed with 17 significant digits and newline
endings are always ``\\n``.

Exit codes: 0 success, 2 configuration error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .aperture import (
    ArcPiece,
    Circle,
    DiscreteArray,
    Disk,
    LinePiece,
    ParallelLines,
    PiecewiseCurve,
    Rectangle,
    Segment,
    _as_point,
    build_quadrature,
    centering_transform,
    enclosing_radius,
)
from .pas import (
    DopplerSpec,
    IsotropicPas,
    TabulatedPas,
    UniformPas,
    VonMisesPas,
    doppler_spectrum,
    wrap_angle,
)
from .operators import _build, _rotated, build_truncated_operator
from .specfun import bessel_abs_tail_bound, series_order
from .spectrum import (
    discrete_correlation,
    discrete_diversity,
    nystrom_oracle,
    omega_corrected,
    solve_spectrum,
)

__all__ = ["main", "ConfigError"]

_RAD = math.pi / 180.0

#: Most points a sweep or a Doppler table may have.
_MAX_STEPS = 1_000_000


class ConfigError(ValueError):
    """Invalid or incomplete configuration; message names the field."""


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _require(cfg: dict, field: str, path: str):
    if field not in cfg:
        raise ConfigError(f"{path}.{field}: missing required field")
    return cfg[field]


def _number(cfg: dict, field: str, path: str, kind=float, default=None):
    """``cfg[field]`` converted by ``kind``; required unless ``default`` is given.

    An ``int`` field refuses a value that ``int`` would truncate.
    """
    value = _require(cfg, field, path) if default is None else cfg.get(field, default)
    try:
        number = kind(value)
        if kind is int and number != float(value):
            raise ValueError(f"{value!r} is not an integer")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}.{field}: {exc}")
    return number


def _check_values(value, path: str) -> None:
    # json accepts NaN, Infinity and overflowing literals such as 1e400, and
    # float(true) is 1.0; the format has no boolean field
    if isinstance(value, bool):
        raise ConfigError(f"{path}: {json.dumps(value)} is not a valid value")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}: {value} is not a finite number")
    if isinstance(value, dict):
        for key, item in value.items():
            _check_values(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_values(item, f"{path}[{i}]")


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    _check_values(cfg, "config")
    return cfg


def _read_two_column_csv(path: str, what: str) -> np.ndarray:
    try:
        data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    except OSError:
        raise ConfigError(f"{what}: file not found: {path}")
    except ValueError as exc:
        raise ConfigError(f"{what}: cannot parse {path}: {exc}")
    if data.shape[1] != 2:
        raise ConfigError(f"{what}: {path} must have exactly two columns")
    if not np.all(np.isfinite(data)):
        raise ConfigError(f"{what}: {path} has a non-finite entry")
    return data


def _piece(cfg: dict, path: str):
    ptype = str(_require(cfg, "type", path)).lower()
    if ptype == "line":
        return LinePiece(*(_number(cfg, field, path, _as_point) for field in ("start", "end")))
    if ptype == "arc":
        return ArcPiece(
            _number(cfg, "center", path, _as_point),
            _number(cfg, "radius", path),
            _number(cfg, "start_deg", path) * _RAD,
            _number(cfg, "stop_deg", path) * _RAD,
        )
    raise ConfigError(f"{path}.type: unknown piece type '{ptype}'")


def make_aperture(cfg: dict, path: str = "aperture"):
    kind = str(_require(cfg, "kind", path)).lower()

    def number(field, convert=float):
        return _number(cfg, field, path, convert)

    def angle():
        return _number(cfg, "angle_deg", path, default=0.0) * _RAD

    def center():
        return _number(cfg, "center", path, _as_point, (0.0, 0.0))

    try:
        if kind == "segment":
            return Segment(number("length"), angle(), center())
        if kind in ("circle", "disk"):
            return (Circle if kind == "circle" else Disk)(number("radius"), center())
        if kind == "rectangle":
            return Rectangle(number("width"), number("height"), angle(), center())
        if kind == "parallel_lines":
            count = number("count", int)
            return ParallelLines(count, number("length"), number("span"), angle(), center())
        if kind == "piecewise_curve":
            pieces = enumerate(_require(cfg, "pieces", path))
            return PiecewiseCurve(tuple(_piece(p, f"{path}.pieces[{i}]") for i, p in pieces))
        if kind == "discrete_array":
            if "csv" in cfg:
                pts = _read_two_column_csv(cfg["csv"], f"{path}.csv")
            else:
                pts = _number(cfg, "points", path, lambda v: np.asarray(v, dtype=float))
            return DiscreteArray(tuple(map(tuple, np.atleast_2d(pts).tolist())))
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # a constructor's refusal, a malformed list
        raise ConfigError(f"{path}: {exc}")
    raise ConfigError(f"{path}.kind: unknown aperture kind '{kind}'")


def make_pas(cfg: dict, path: str = "pas"):
    kind = str(_require(cfg, "kind", path)).lower()
    alpha0 = _number(cfg, "alpha0_deg", path, default=0.0) * _RAD
    try:
        if kind == "isotropic":
            return IsotropicPas()
        if kind == "uniform":
            return UniformPas(delta=_number(cfg, "delta_deg", path) * _RAD, alpha0=alpha0)
        if kind == "von_mises":
            return VonMisesPas(kappa=_number(cfg, "kappa", path), alpha0=alpha0)
        if kind == "tabulated":
            table = _read_two_column_csv(_require(cfg, "table", path), f"{path}.table")
            return TabulatedPas(table[:, 0] * _RAD, table[:, 1], alpha0=alpha0)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}")
    raise ConfigError(f"{path}.kind: unknown pas kind '{kind}'")


def _scenario(cfg: dict):
    """``(aperture, model, N)`` of a scenario config; ``N`` is ``None`` unless overridden."""
    aperture = make_aperture(_require(cfg, "aperture", "config"))
    model = make_pas(_require(cfg, "pas", "config"))
    N = None if cfg.get("n_override") is None else _number(cfg, "n_override", "config", int)
    return aperture, model, N


def _solve_scenario(cfg: dict):
    aperture, model, N = _scenario(cfg)
    op = build_truncated_operator(aperture, model, N)
    return aperture, model, op, solve_spectrum(op)


def _write_lines(out_path: str, lines: list[str]) -> None:
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _metadata_lines(spec) -> list[str]:
    return [
        f"# N = {spec.N}",
        f"# N_D = {spec.N_D}",
        f"# r1 = {_fmt(spec.r1)}",
        f"# rho_max = {_fmt(spec.rho_max)}",
        f"# eig_error_bound = {_fmt(spec.eig_error_bound)}",
        f"# omega = {_fmt(spec.omega)}",
        f"# hs_error_bound = {_fmt(spec.hs_error_bound)}",
    ]


def _dump_matrix(path: str, matrix: np.ndarray) -> None:
    lines = []
    for row in matrix:
        lines.append(",".join(f"{_fmt(v.real)}{v.imag:+.17g}j" for v in row))
    _write_lines(path, lines)


def cmd_spectrum(args) -> int:
    cfg = _load_config(args.config)
    aperture, model, op, spec = _solve_scenario(cfg)
    lines = _metadata_lines(spec)
    oracle = None
    if args.oracle:
        oracle = nystrom_oracle(aperture, model)
        lines.append("index,eigenvalue,cumulative,oracle_eigenvalue")
    else:
        lines.append("index,eigenvalue,cumulative")
    running = 0.0
    for i, lam in enumerate(spec.eigenvalues, start=1):
        running += lam
        row = f"{i},{_fmt(lam)},{_fmt(running)}"
        if oracle is not None:
            row += "," + (_fmt(oracle[i - 1]) if i - 1 < len(oracle) else "")
        lines.append(row)
    _write_lines(args.out, lines)
    if args.dump_matrices:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        _dump_matrix(stem + "_gram.csv", op.gram)
        _dump_matrix(stem + "_rtilde.csv", op.rtilde)
    return 0


def _steps(cfg: dict, path: str, default=None) -> int:
    steps = _number(cfg, "steps", path, int, default)
    if steps > _MAX_STEPS:  # before linspace allocates them
        raise ConfigError(f"{path}.steps: must be <= {_MAX_STEPS}")
    return steps


def _sweep_values(sweep: dict):
    kind = str(_require(sweep, "kind", "sweep")).lower()
    start = _number(sweep, "start", "sweep")
    stop = _number(sweep, "stop", "sweep")
    steps = _steps(sweep, "sweep")
    if steps < 2:
        raise ConfigError("sweep.steps: must be >= 2")
    if not start < stop:
        raise ConfigError("sweep.start: must be < sweep.stop")
    values = np.linspace(start, stop, steps)
    if kind == "antennas":
        values = np.unique(np.rint(values).astype(int))
        if values[0] < 1:
            raise ConfigError("sweep.start: antenna counts must be >= 1")
    return kind, values


def _antenna_positions(aperture, L: int) -> np.ndarray:
    if isinstance(aperture, Circle):
        return build_quadrature(aperture, L).nodes
    if isinstance(aperture, Segment):
        d = np.array([math.cos(aperture.angle), math.sin(aperture.angle)])
        c = np.asarray(aperture.center)
        if L == 1:
            return c[None, :]
        t = np.linspace(-0.5, 0.5, L)
        return c[None, :] + t[:, None] * aperture.length * d[None, :]
    raise ConfigError(
        "aperture.kind: antennas sweep places antennas uniformly and "
        "supports circle and segment bases only"
    )


#: Sweep kind -> {aperture kind: the field a sweep point sets}.
_SWEPT_FIELDS = {
    "radius": {"circle": "radius", "disk": "radius"},
    "length": {"segment": "length", "parallel_lines": "length", "rectangle": "width"},
}


def _apply_sweep(cfg: dict, kind: str, value: float) -> dict:
    """A copy of ``cfg`` with the one field a sweep point sets; ``cfg`` is left as it is."""
    ap = _require(cfg, "aperture", "config")
    ap_kind = str(_require(ap, "kind", "aperture")).lower()
    if kind == "direction":
        return dict(cfg, pas=dict(cfg.get("pas", {}), alpha0_deg=value))
    if kind not in _SWEPT_FIELDS:
        raise ConfigError(f"sweep.kind: unknown sweep kind '{kind}'")
    if ap_kind not in _SWEPT_FIELDS[kind]:
        bases = "a circle or disk" if kind == "radius" else "segment, lines, or rectangle"
        raise ConfigError(f"sweep.kind: {kind} sweep requires {bases}")
    return dict(cfg, aperture=dict(ap, **{_SWEPT_FIELDS[kind][ap_kind]: value}))


def _sweep_operators(cfg: dict, kind: str, values):
    """``operator(value)`` of a radius, length or direction sweep point.

    Only what the swept parameter changes is built per point.  A direction
    sweep builds and checks one operator, with the PAS at ``alpha0 = 0``,
    and rotates it to each point (``operators._rotated``); a refused build
    is tried again, and refused again, at every point.  Radius and length
    sweeps take the PAS model and ``N`` from the first point's config,
    build ``G`` per point, and share ``R`` and ``R^(1/2)`` among the
    points of each order through one table per sweep (``operators._build``).
    """
    if kind == "direction":
        aperture, model, N = _scenario(_apply_sweep(cfg, kind, 0.0))
        base = None

        def operator(value):
            nonlocal base
            if base is None:
                base = build_truncated_operator(aperture, model, N)
            return _rotated(base, wrap_angle(value * _RAD))

        return operator
    _, model, N = _scenario(_apply_sweep(cfg, kind, float(values[0])))
    pas_by_order = {}
    return lambda value: _build(
        make_aperture(_apply_sweep(cfg, kind, value)["aperture"]), model, N, pas_by_order
    )


def cmd_sweep(args) -> int:
    """Write one row per sweep value: ``param,omega,omega_corrected,error_bound``.

    Every point of a radius, length or direction sweep is solved by
    :func:`~divspec.spectrum.solve_spectrum` on an operator that shares
    the work its parameter leaves unchanged (see ``_sweep_operators``); an
    antennas sweep evaluates ``discrete_correlation`` per antenna count.
    A point that fails numerically writes a warning to stderr and a row
    of empty cells; a configuration error stops the sweep with exit 2.
    """
    cfg = _load_config(args.config)
    kind, values = _sweep_values(_require(cfg, "sweep", "config"))
    if kind == "doppler":
        return _doppler_csv(cfg, values, args.out)

    lines = [f"# sweep = {kind}", "param,omega,omega_corrected,error_bound"]
    if kind == "antennas":
        aperture = make_aperture(_require(cfg, "aperture", "config"))
        model = make_pas(_require(cfg, "pas", "config"))
        # one kernel order covers every antenna count: the maximal pairwise
        # distance never exceeds the base aperture diameter
        diameter = 2.0 * enclosing_radius(centering_transform(aperture)[0])
        N, _ = series_order(diameter)
        bound = bessel_abs_tail_bound(N, diameter)
        for L in values:
            try:
                R = discrete_correlation(_antenna_positions(aperture, int(L)), model, N)
                omega = discrete_diversity(R)
                lines.append(f"{int(L)},{_fmt(omega)},{_fmt(omega)},{_fmt(bound)}")
            except ConfigError:
                raise
            except (ValueError, ArithmeticError) as exc:
                print(f"warning: L={int(L)}: {exc}", file=sys.stderr)
                lines.append(f"{int(L)},,,")
    else:
        operator = _sweep_operators(cfg, kind, values)
        for value in values:
            try:
                spec = solve_spectrum(operator(float(value)))
                center, half_width = omega_corrected(spec)
                lines.append(
                    f"{_fmt(value)},{_fmt(spec.omega)},{_fmt(center)},{_fmt(half_width)}"
                )
            except ConfigError:
                raise
            except (ValueError, ArithmeticError, RuntimeError) as exc:
                print(f"warning: param={value}: {exc}", file=sys.stderr)
                lines.append(f"{_fmt(value)},,,")
    _write_lines(args.out, lines)
    return 0


def _nu_max(dop: dict, default=None) -> float:
    nu_max = _number(dop, "nu_max", "doppler", default=default)
    if not nu_max > 0.0:
        raise ConfigError("doppler.nu_max: must be > 0")
    return nu_max


def _doppler_csv(cfg: dict, nus, out_path: str) -> int:
    model = make_pas(_require(cfg, "pas", "config"))
    spec = DopplerSpec(nu_max=_nu_max(cfg.get("doppler", {}), default=1.0))
    lines = [f"# nu_max = {_fmt(spec.nu_max)}", "nu,S_doppler"]
    for nu in nus:
        try:
            lines.append(f"{_fmt(nu)},{_fmt(doppler_spectrum(model, spec, float(nu)))}")
        except ValueError as exc:
            print(f"warning: nu={nu}: {exc}", file=sys.stderr)
            lines.append(f"{_fmt(nu)},")
    _write_lines(out_path, lines)
    return 0


def cmd_doppler(args) -> int:
    cfg = _load_config(args.config)
    dop = _require(cfg, "doppler", "config")
    nu_max = _nu_max(dop)
    start = _number(dop, "start", "doppler", default=-0.99 * nu_max)
    stop = _number(dop, "stop", "doppler", default=0.99 * nu_max)
    steps = _steps(dop, "doppler", default=201)
    if steps < 2 or not start < stop:
        raise ConfigError("doppler: requires steps >= 2 and start < stop")
    return _doppler_csv(cfg, np.linspace(start, stop, steps), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divspec",
        description="Diversity spectra of planar apertures under multipath fading",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="solve one scenario and write its spectrum")
    p.add_argument("--config", required=True, help="JSON scenario config")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--dump-matrices", action="store_true", help="also write G and R as CSV")
    p.add_argument("--oracle", action="store_true", help="append an independent eigenvalue column")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("sweep", help="sweep one parameter of a base scenario")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("doppler", help="tabulate the Doppler power density")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_doppler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
