"""File-driven entry point: JSON configs in, JSON/CSV reports out.

Exit codes: 0 success, 2 invalid config or failed validation, 3 convergence
or numerical (LinAlgError) failure, or too many per-energy failures in a band
scan. All outputs are written atomically (temp file + rename) and carry the
sha256 fingerprint of the config file they were produced from. The file sets
every input of a run, and no flag overrides it, so a fingerprint determines
its artifacts: identical configs yield byte-identical artifacts. Each config
object takes only the keys its command reads; any other key exits 2.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from .bloch import (NonlocalPotential1D, band_scan, detect_interior_extrema,
                    validate_potential)
from .builtins import CATALOG
from .grid import GridError, PeriodicGrid, periodic_derivative
from .monodromy import ConvergenceError, floquet_spectrum, verify_floquet_form
from .perturbation import LimitCycle, NonlinearMemorySystem, linearize, stability_verdict
from .system import (InvalidSystemError, LinearMemorySystem, DelayTap, difference_kernel,
                     tabulated_coefficient, validate_system)

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_CONVERGENCE = 3
# stability refuses a cycle whose residual exceeds this share of max(1, max|y'|),
# and one whose last row differs from its first by more than this share of its scale
_CYCLE_TOL = 1e-3
_WRAP_TOL = 1e-6


class ConfigError(ValueError):
    pass


def _load_config(path: str, command: str, keys: tuple):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config root must be an object, got {type(cfg).__name__}")
    return _section(cfg, command, keys), hashlib.sha256(raw).hexdigest()


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"missing field '{key}' in {where}")
    return cfg[key]


def _integer(value, name: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """A JSON number: not a bool, not a string, and finite as a float."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # a JSON integer beyond float range
            pass
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return number


def _table(spec: dict, key: str, where: str, shape: tuple, rows: int = 1) -> np.ndarray:
    """spec[key]: finite JSON numbers nested as `shape`, at least `rows` along
    its k axis; 1x1 matrices may be plain numbers (a flat list, a number)."""
    value = _require(spec, key, where)
    num = lambda v: [num(e) for e in v] if isinstance(v, list) else _number(v, key)
    try:
        table = np.array(num(value))  # a non-number fails, as do rows of unequal length
    except ValueError:
        table = np.empty(0)
    if table.ndim == sum(s != 1 for s in shape) < len(shape):
        table = table.reshape(table.shape + (1,) * (len(shape) - table.ndim))
    if table.ndim != len(shape) or any(t < rows if s == "k" else t != s
                                       for s, t in zip(shape, table.shape)):
        raise ConfigError(f"{where}.{key} must be a table of finite numbers shaped "
                          f"({', '.join(map(str, shape))})" + f", k >= {rows}" * ("k" in shape))
    return table


def _section(value, name: str, keys: tuple = None, kind: type = dict):
    """A config section: a JSON array when kind is list, else a JSON object
    whose keys, when `keys` is given, are all among them."""
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be {'a list' if kind is list else 'an object'}, got {value!r}")
    unknown = sorted(set(value) - set(keys)) if keys is not None else ()
    if unknown:
        raise ConfigError(f"{name} takes no {', '.join(map(repr, unknown))}; "
                          f"it takes {', '.join(keys)}")
    return value


def _grid_size(cfg: dict, default: int) -> int:
    grid = _section(cfg.get("grid", {}), "grid", ("samples_per_period",))
    return _integer(grid.get("samples_per_period", default), "grid.samples_per_period", 8)


def _tolerance(cfg: dict, key: str, default: float) -> float:
    """The config's `key`, a positive finite number."""
    tol = _number(cfg.get(key, default), key)
    if not tol > 0:
        raise ConfigError(f"{key} must be positive and finite, got {tol!r}")
    return tol


def _atomic_write(out_dir: str, name: str, text: str):
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, prefix=f".{name}.")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(out_dir, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(out_dir: str, name: str, payload: dict):
    _atomic_write(out_dir, name, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _c2l(z):  # complex -> [re, im] for JSON, a non-finite part as null
    return [float(x) if np.isfinite(x) else None for x in (np.real(z), np.imag(z))]


def _builtin(spec: dict, where: str, expect):
    name = _require(_section(spec, where, ("builtin", "params")), "builtin", where)
    if name not in CATALOG:
        raise ConfigError(f"unknown builtin '{name}' in {where}; "
                          f"choose from {sorted(CATALOG)}")
    params = {key: _number(value, f"{where}.params.{key}") for key, value
              in _section(spec.get("params", {}), f"{where}.params").items()}
    try:
        obj, meta = CATALOG[name](**params)
    except TypeError as exc:
        raise ConfigError(f"bad params for builtin '{name}' in {where}: {exc}")
    if not isinstance(obj, expect):
        raise ConfigError(f"builtin '{name}' does not produce a {expect.__name__} "
                          f"(needed in {where})")
    return obj, meta


def _system_from_config(cfg: dict):
    spec = _section(_require(cfg, "system", "config"), "system")
    if "builtin" in spec:
        system, meta = _builtin(spec, "system", LinearMemorySystem)
        return system, meta["period"], meta["memory_depth"]
    _section(spec, "system", ("dimension", "period", "memory_depth", "coefficient",
                              "delay_taps", "kernel"))
    dim = _integer(_require(spec, "dimension", "system"), "system.dimension", 1)
    period = _number(_require(spec, "period", "system"), "system.period")
    depth = _number(spec.get("memory_depth", 0.0), "system.memory_depth")
    if period <= 0:
        raise ConfigError(f"period must be positive, got {period}")
    if depth < 0:
        raise ConfigError(f"memory_depth must be non-negative, got {depth}")
    table = _table(spec, "coefficient", "system", ("k", dim, dim))
    coefficient = tabulated_coefficient(table, period)
    taps = []
    for i, tap in enumerate(_section(spec.get("delay_taps", []), "system.delay_taps",
                                     kind=list)):
        where = f"system.delay_taps[{i}]"
        tap = _section(tap, where, ("delay", "coefficient"))
        d = _number(_require(tap, "delay", where), f"{where}.delay")
        tt = _table(tap, "coefficient", where, ("k", dim, dim))
        taps.append(DelayTap(d, tabulated_coefficient(tt, period)))
    kernel = None
    if spec.get("kernel") is not None:
        kspec = _section(spec["kernel"], "system.kernel", ("type", "amplitude", "theta"))
        ktype = _require(kspec, "type", "system.kernel")
        if ktype != "exponential":
            raise ConfigError(f"unsupported kernel type '{ktype}' (only 'exponential')")
        amp = _table(kspec, "amplitude", "system.kernel", (dim, dim))
        theta = _number(_require(kspec, "theta", "system.kernel"), "system.kernel.theta")
        if theta <= 0:
            raise ConfigError("kernel theta must be positive")
        kernel = difference_kernel(lambda u: np.exp(-np.asarray(u) / theta), scale=amp)
    return LinearMemorySystem(dim, coefficient, delay_taps=tuple(taps),
                              kernel=kernel), period, depth


def cmd_analyze(args) -> int:
    cfg, fingerprint = _load_config(args.config, "analyze",
                                    ("system", "grid", "modes", "tolerance", "quadrature"))
    system, period, depth = _system_from_config(cfg)
    grid = PeriodicGrid(period, _grid_size(cfg, 256), depth, cfg.get("quadrature", "trapezoid"))
    tol = _tolerance(cfg, "tolerance", 1e-4)
    modes = _integer(cfg.get("modes", 8), "modes", 0)
    report = validate_system(system, grid)
    if not report.passed:
        print("validation failed:", "; ".join(report.messages) or "residuals above bound",
              file=sys.stderr)
        return EXIT_INVALID
    dec = floquet_spectrum(system, grid, modes=modes, convergence_tol=tol)
    ver = verify_floquet_form(system, dec)
    _write_json(args.out, "spectrum.json", {
        "config_fingerprint": fingerprint,
        "grid": {"period": grid.period, "samples_per_period": grid.samples_per_period,
                 "memory_depth": grid.memory_depth},
        "multipliers": [_c2l(m) for m in dec.multipliers],
        "exponents": [_c2l(e) for e in dec.exponents],
        "converged": [bool(c) for c in dec.converged],
        "p_retained": dec.p_retained,
    })
    buf = io.StringIO()
    writer = csv.writer(buf)
    header = ["sigma"]
    for j in range(len(dec.modes)):
        for c in range(system.dimension):
            header += [f"mode{j}_re{c}", f"mode{j}_im{c}"]
    writer.writerow(header)
    sigmas = np.arange(grid.samples_per_period + 1) * grid.step
    for i, s in enumerate(sigmas):
        row = [f"{s:.12g}"]
        for mode in dec.modes:
            for c in range(system.dimension):
                row += [f"{mode.samples[i, c].real:.12g}",
                        f"{mode.samples[i, c].imag:.12g}"]
        writer.writerow(row)
    _atomic_write(args.out, "modes.csv", buf.getvalue())
    _write_json(args.out, "verify.json", {
        "config_fingerprint": fingerprint,
        "shift_residual": ver.shift_residual,
        "mode_periodicity_residuals": list(ver.mode_periodicity_residuals),
        "operator_residuals": list(ver.operator_residuals),
        "max_residual": ver.max_residual,
    })
    return EXIT_OK


def _read_cycle_csv(path: str, dim: int):
    if not isinstance(path, str):  # open() would take a number as a file descriptor
        raise ConfigError(f"cycle_file must be a path string, got {path!r}")
    try:
        with open(path, newline="") as fh:
            rows = [r for r in csv.reader(fh) if r]
    except OSError as exc:
        raise ConfigError(f"cannot read cycle file {path}: {exc}")
    try:
        [float(v) for v in rows[0]]
    except (IndexError, ValueError):
        rows = rows[1:]  # a first row that is not numeric is a header
    if len({len(r) for r in rows}) > 1:
        raise ConfigError(f"rows of cycle file {path} differ in length")
    try:
        data = np.asarray([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise ConfigError(f"non-numeric entry in cycle file {path}: {exc}")
    if data.ndim != 2 or data.shape[1] != dim + 1:
        raise ConfigError(f"cycle file {path} has {data.shape[1] if data.ndim == 2 else '?'} "
                          f"columns, expected t plus {dim} state columns")
    return data[:, 0], data[:, 1:]


def cmd_stability(args) -> int:
    cfg, fingerprint = _load_config(args.config, "stability", (
        "system", "cycle_file", "autonomous", "grid", "modes", "tolerance"))
    spec = _section(_require(cfg, "system", "config"), "system")
    nl, meta = _builtin(spec, "system", object)
    if not isinstance(nl, NonlinearMemorySystem):
        raise ConfigError("stability requires a nonlinear builtin (e.g. van_der_pol)")
    times, samples = _read_cycle_csv(_require(cfg, "cycle_file", "config"), nl.dimension)
    period = float(times[-1] - times[0])
    uniform = times[0] + np.arange(len(times)) * (period / max(len(times) - 1, 1))
    if not (period > 0 and np.all(np.abs(times - uniform) <= 1e-6 * period)):
        raise ConfigError("cycle times must be uniform and increasing")
    grid = PeriodicGrid(period, _grid_size(cfg, 256), nl.memory_depth)
    tol = _tolerance(cfg, "tolerance", 1e-4)
    modes = _integer(cfg.get("modes", 4), "modes", 0)
    autonomous = cfg.get("autonomous", meta.get("autonomous", False))
    if not isinstance(autonomous, bool):
        raise ConfigError(f"autonomous must be true or false, got {autonomous!r}")
    cycle = LimitCycle(period, samples, wrap_tol=_WRAP_TOL)
    residual = cycle.residual(nl, grid)
    bound = _CYCLE_TOL * max(1.0, float(np.abs(
        periodic_derivative(cycle.samples[:-1], period / (len(times) - 1))).max()))
    if not residual <= bound:
        raise ConfigError(
            f"limit cycle residual {residual:.3e} exceeds {bound:.3e} ({_CYCLE_TOL:g} x "
            "max(1, max|y'|)): supply a finer or more accurate cycle, or set the "
            "system's params to those the cycle solves")
    linear = linearize(nl, cycle)
    dec = floquet_spectrum(linear, grid, modes=modes, convergence_tol=tol)
    report = stability_verdict(dec, autonomous=autonomous)
    _write_json(args.out, "stability.json", {
        "config_fingerprint": fingerprint,
        "verdict": report.verdict,
        "trivial_multiplier": _c2l(report.trivial_multiplier)
        if report.trivial_multiplier is not None else None,
        "trivial_error": report.trivial_error,
        "decisive_magnitude": report.decisive_magnitude,
        "exponent_classes": [[{"exponent": _c2l(l), "multiplier": _c2l(m)}
                              for l, m in cls] for cls in report.exponent_classes],
        "cycle_period": period,
    })
    return EXIT_OK


def _potential_from_config(cfg: dict) -> NonlocalPotential1D:
    spec = _section(_require(cfg, "potential", "config"), "potential")
    if "builtin" in spec:
        pot, _ = _builtin(spec, "potential", NonlocalPotential1D)
        return pot
    _section(spec, "potential", ("lattice_constant", "local_table"))
    a = _number(_require(spec, "lattice_constant", "potential"), "potential.lattice_constant")
    local = None
    if "local_table" in spec:
        local = tabulated_coefficient(_table(spec, "local_table", "potential", ("k",), 4), a)
    return NonlocalPotential1D(a, local=local)


def cmd_bands(args) -> int:
    cfg, fingerprint = _load_config(args.config, "bands",
                                    ("potential", "energies", "grid", "unit_tol"))
    pot = _potential_from_config(cfg)
    grid = PeriodicGrid(pot.lattice_constant, _grid_size(cfg, 64), 0.0)
    unit_tol = _tolerance(cfg, "unit_tol", 1e-3)
    if pot.kernel is not None or pot.local is not None:
        rep = validate_potential(pot)
        if not rep.passed:
            print(f"potential validation failed: local {rep.local_residual:.2e}, "
                  f"kernel {rep.kernel_residual:.2e}, symmetry {rep.symmetry_residual:.2e}",
                  file=sys.stderr)
            return EXIT_INVALID
    espec = _section(_require(cfg, "energies", "config"), "energies", ("min", "max", "count"))
    count = _integer(_require(espec, "count", "energies"), "energies.count", 1)
    low = _number(_require(espec, "min", "energies"), "energies.min")
    high = _number(_require(espec, "max", "energies"), "energies.max")
    if low > high or (count > 1 and low == high):
        raise ConfigError("energy range must be ascending: energies.min must be below "
                          "energies.max, or equal to it with count 1")
    energies = np.linspace(low, high, count)
    diagram = band_scan(pot, energies, grid, unit_tol=unit_tol)
    failures = sum(r.failed for r in diagram.records)
    ambiguity = []
    extrema = detect_interior_extrema(diagram, ambiguity_log=ambiguity)
    buf = io.StringIO()
    writer = csv.writer(buf)
    pmax = max((r.p for r in diagram.records), default=0)
    writer.writerow(["E", "p"] + [f"k{i + 1}" for i in range(pmax)])
    for r in diagram.records:
        writer.writerow([f"{r.energy:.12g}", r.p]
                        + [f"{k:.12g}" for k in r.k_values]
                        + [""] * (pmax - len(r.k_values)))
    _atomic_write(args.out, "bands.csv", buf.getvalue())
    _write_json(args.out, "extrema.json", {
        "config_fingerprint": fingerprint,
        "extrema": [{"band_index": e.band_index, "k_star": e.k_star,
                     "energy_star": e.energy_star} for e in extrema],
        "tracing_ambiguities": [{"energy": e, "p": p} for e, p in ambiguity],
    })
    _write_json(args.out, "diagnostics.json", {
        "config_fingerprint": fingerprint,
        "failures": failures,
        "records": [{"energy": r.energy, "p": r.p, "failed": r.failed,
                     "message": r.message, "fine_pencil": r.fine_pencil}
                    for r in diagram.records],
    })
    if failures > 0.1 * len(diagram.records):
        print(f"{failures}/{len(diagram.records)} energies failed", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gfloquet",
        description="Floquet analysis of periodic systems with memory and "
                    "Bloch bands for nonlocal potentials.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("stability", cmd_stability),
                     ("bands", cmd_bands)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but not a config fault
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ConfigError, InvalidSystemError, GridError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
