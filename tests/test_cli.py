import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gfloquet.cli import ConfigError, _number, _read_cycle_csv, main


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def _read_json(out_dir, name):
    return json.loads((out_dir / name).read_text())


def test_analyze_scalar_cosine(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "scalar_cosine", "params": {"alpha": 0.3}},
        "grid": {"samples_per_period": 128}, "modes": 2,
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    spec = _read_json(out, "spectrum.json")
    mu = complex(*spec["multipliers"][0])
    assert abs(mu - np.exp(0.3)) < 1e-6
    assert spec["converged"][0] is True
    assert len(spec["config_fingerprint"]) == 64
    ver = _read_json(out, "verify.json")
    assert ver["max_residual"] < 1e-6
    with open(out / "modes.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "sigma"
    assert len(rows) == 1 + 128 + 1


def test_analyze_delay_dominant_pair(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "delay_pi_over_2"},
        "grid": {"samples_per_period": 96}, "modes": 4,
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    spec = _read_json(out, "spectrum.json")
    mus = np.array([complex(*m) for m in spec["multipliers"][:2]])
    assert np.min(np.abs(mus - 1j)) < 1e-3
    assert np.min(np.abs(mus + 1j)) < 1e-3


def test_analyze_table_system(tmp_path):
    ts = np.linspace(0.0, 1.0, 64, endpoint=False)
    cfg = _write(tmp_path / "c.json", {
        "system": {"dimension": 1, "period": 1.0,
                   "coefficient": (0.2 + np.cos(2 * np.pi * ts)).tolist()},
        "grid": {"samples_per_period": 64}, "modes": 1,
    })
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    mu = complex(*_read_json(out, "spectrum.json")["multipliers"][0])
    assert abs(mu - np.exp(0.2)) < 1e-4


def test_analyze_invalid_configs(tmp_path):
    bad_period = _write(tmp_path / "p.json", {
        "system": {"dimension": 1, "period": -2.0, "coefficient": [1, 2, 3, 4]}})
    assert main(["analyze", "--config", bad_period, "--out", str(tmp_path / "o1")]) == 2
    missing = _write(tmp_path / "m.json", {"grid": {}})
    assert main(["analyze", "--config", missing, "--out", str(tmp_path / "o2")]) == 2
    (tmp_path / "junk.json").write_text("{not json")
    assert main(["analyze", "--config", str(tmp_path / "junk.json"),
                 "--out", str(tmp_path / "o3")]) == 2
    assert main(["analyze", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o4")]) == 2


@pytest.mark.parametrize("system", [
    {"dimension": 1, "period": 1.0, "memory_depth": 1.0, "coefficient": [0.0] * 4,
     "delay_taps": [{"delay": 1.0, "coefficient": [-1.5] * 4}]},
    {"builtin": "scalar_cosine"},
])
def test_analyze_unknown_quadrature_exits_2(tmp_path, system):
    # neither system has a kernel, so no quadrature window is ever used
    cfg = _write(tmp_path / "c.json", {
        "system": system, "grid": {"samples_per_period": 32}, "quadrature": "gauss"})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_zero_multiplier_exponents_are_strict_json(tmp_path):
    # memory deeper than the only delay: the history nodes before the delay are
    # never read, so the monodromy has exactly-zero multipliers, whose
    # exponents (-inf + nan i) are written as null
    cfg = _write(tmp_path / "c.json", {
        "system": {"dimension": 1, "period": 1.0, "memory_depth": 0.5,
                   "coefficient": [-0.5] * 4,
                   "delay_taps": [{"delay": 0.25, "coefficient": [-1.0] * 4}]},
        "grid": {"samples_per_period": 32}, "modes": 2})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    spectrum, _ = (json.loads((out / name).read_text(), parse_constant=reject)
                   for name in ("spectrum.json", "verify.json"))
    zero = [e for m, e in zip(spectrum["multipliers"], spectrum["exponents"])
            if m == [0.0, 0.0]]
    assert zero and all(e == [None, None] for e in zero)
    assert all(None not in e for m, e in zip(spectrum["multipliers"], spectrum["exponents"])
               if m != [0.0, 0.0])


def test_analyze_numerical_failure_exits_3(tmp_path, monkeypatch):
    def failing_eigvals(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalue iteration did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing_eigvals)
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "scalar_cosine"}, "grid": {"samples_per_period": 32}})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("first, header", [
    ("+0.0,1.0,2.0", False), ("1E-3,1.0,2.0", False), ("t,y1,y2", True)])
def test_read_cycle_csv_header_only_if_not_numeric(tmp_path, first, header):
    path = tmp_path / "cycle.csv"
    path.write_text(first + "\n0.5,3.0,4.0\n1.0,1.0,2.0\n")
    times, samples = _read_cycle_csv(str(path), 2)
    assert len(times) == (2 if header else 3)
    assert times[-1] == 1.0 and samples.shape == (len(times), 2)
    if not header:
        assert times[0] == float(first.split(",")[0])


@pytest.mark.parametrize("value", [0, True, 5])
def test_stability_cycle_file_must_be_a_string(tmp_path, capsys, value):
    # open() takes an integer or a bool as a file descriptor: 0 would read
    # stdin, True would read fd 1 and close it
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"}, "cycle_file": value})
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "cycle_file must be a path string" in capsys.readouterr().err
    os.fstat(1)
    print("stdout still open")
    assert capsys.readouterr().out == "stdout still open\n"


def test_stability_cycle_rows_of_different_length_exit_2(tmp_path, capsys):
    (tmp_path / "cycle.csv").write_text("0.0,1.0,2.0\n0.5,3.0\n1.0,1.0,2.0\n")
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"}, "cycle_file": str(tmp_path / "cycle.csv")})
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "differ in length" in capsys.readouterr().err


def _cycle_csv(path, period, samples):
    ts = np.linspace(0.0, period, len(samples))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"y{i+1}" for i in range(samples.shape[1])])
        for t, row in zip(ts, samples):
            writer.writerow([f"{t:.12g}"] + [f"{v:.12g}" for v in row])


def test_stability_van_der_pol(tmp_path, vdp_cycle):
    period, samples = vdp_cycle
    _cycle_csv(tmp_path / "cycle.csv", period, samples)
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"},
        "cycle_file": str(tmp_path / "cycle.csv"), "autonomous": True,
        "grid": {"samples_per_period": 192},
    })
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    rep = _read_json(out, "stability.json")
    assert rep["verdict"] == "STABLE"
    assert abs(complex(*rep["trivial_multiplier"]) - 1.0) < 1e-3
    assert rep["decisive_magnitude"] < 1.0


@pytest.mark.parametrize("mu", [1.01, 1.2])
def test_stability_refuses_a_cycle_of_other_params(tmp_path, capsys, vdp_cycle, mu):
    # the mu = 1 cycle leaves a residual 6x (mu = 1.01) to 128x (mu = 1.2) the bound
    period, samples = vdp_cycle
    _cycle_csv(tmp_path / "cycle.csv", period, samples)
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol", "params": {"mu": mu}},
        "cycle_file": str(tmp_path / "cycle.csv"), "autonomous": True})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "limit cycle residual" in err and "finer or more accurate cycle" in err
    assert not out.exists()


def test_stability_accepts_an_exact_coarse_cycle(tmp_path, vdp_cycle):
    # every other node of the mu = 1 cycle: its 128-node derivative error is
    # the largest a legitimate cycle here brings, 4.6x below the bound
    period, samples = vdp_cycle
    _cycle_csv(tmp_path / "cycle.csv", period, samples[::2])
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"}, "cycle_file": str(tmp_path / "cycle.csv"),
        "autonomous": True})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out, "stability.json")["verdict"] == "STABLE"


@pytest.mark.parametrize("quadrature", ["gauss", "simpson"])
def test_stability_quadrature_exits_2(tmp_path, capsys, vdp_cycle, quadrature):
    # any value is refused, a name analyze accepts too
    period, samples = vdp_cycle
    _cycle_csv(tmp_path / "cycle.csv", period, samples)
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"}, "cycle_file": str(tmp_path / "cycle.csv"),
        "grid": {"samples_per_period": 192}, "quadrature": quadrature})
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert "stability takes no 'quadrature'" in capsys.readouterr().err
    assert not out.exists()


def test_stability_dimension_mismatch(tmp_path, vdp_cycle):
    period, samples = vdp_cycle
    _cycle_csv(tmp_path / "cycle.csv", period, samples[:, :1])  # drop a column
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"},
        "cycle_file": str(tmp_path / "cycle.csv"),
    })
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_stability_broken_cycle(tmp_path, vdp_cycle):
    period, samples = vdp_cycle
    broken = samples.copy()
    broken[-1] += 0.5  # wrap residual far above threshold
    _cycle_csv(tmp_path / "cycle.csv", period, broken)
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"},
        "cycle_file": str(tmp_path / "cycle.csv"),
    })
    assert main(["stability", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def _stability_rejects(tmp_path, capsys, times, samples, reason, **extra):
    with open(tmp_path / "cycle.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([f"{t:.17g}"] + [f"{v:.17g}" for v in row]
                                 for t, row in zip(times, samples))
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "van_der_pol"},
        "cycle_file": str(tmp_path / "cycle.csv"), **extra,
    })
    out = tmp_path / "out"
    assert main(["stability", "--config", cfg, "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_stability_rejects_nonuniform_cycle_times(tmp_path, capsys, vdp_cycle):
    period, samples = vdp_cycle
    times = np.linspace(0.0, period, len(samples))
    times[100] += 2e-6 * period  # just outside the 1e-6 relative rule
    _stability_rejects(tmp_path, capsys, times, samples, "uniform")


def test_stability_rejects_a_cycle_with_a_nan_sample(tmp_path, capsys, vdp_cycle):
    # refused as malformed input, not as a cycle whose residual is too large
    period, samples = vdp_cycle
    samples = samples.copy()
    samples[100, 1] = np.nan
    _stability_rejects(tmp_path, capsys, np.linspace(0.0, period, len(samples)), samples,
                       "limit cycle samples must be finite")


def test_stability_rejects_period_other_than_time_span(tmp_path, capsys, vdp_cycle):
    # the period is the cycle's time span, so a config cannot restate it,
    # whether it differs from the span or equals it
    period, samples = vdp_cycle
    times = np.linspace(0.0, period, len(samples))
    for value in (period * (1 + 2e-6), period):
        _stability_rejects(tmp_path, capsys, times, samples, "stability takes no 'period'",
                           period=value)


def test_bands_free_particle(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "potential": {"builtin": "kronig_penney", "params": {"strength": 0.0}},
        "energies": {"min": 0.5, "max": 4.0, "count": 8},
        "grid": {"samples_per_period": 64},
    })
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "bands.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:]:
        energy, p = float(row[0]), int(row[1])
        assert p == 2
        kmax = max(float(v) for v in row[2:2 + p])
        assert abs(kmax - np.sqrt(energy)) < 1e-6


def test_bands_nonlocal_extrema(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "potential": {"builtin": "separable_nonlocal"},
        "energies": {"min": -13.0, "max": 2.0, "count": 70},
        "grid": {"samples_per_period": 64},
    })
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    ext = _read_json(out, "extrema.json")
    assert len(ext["extrema"]) >= 1
    diag = _read_json(out, "diagnostics.json")
    assert diag["failures"] == 0
    assert len(diag["records"]) == 70


@pytest.mark.parametrize("potential, energies, fine_pencil", [
    # bands_nonlocal seed 15's E = 3.4165...: a multiplier within the sign
    # test's reach of k = 0 (tests/test_bloch.py) sends it to the fine pencil
    ({"builtin": "separable_nonlocal", "params": {"gamma": -79.61188633050163}},
     {"min": -5.0, "max": 3.4165181270383886, "count": 2}, [False, True]),
    ({"builtin": "kronig_penney"}, {"min": 5.0, "max": 30.0, "count": 3}, [False] * 3),
], ids=["nonlocal", "local"])
def test_bands_diagnostics_say_whether_the_fine_pencil_ran(tmp_path, potential, energies,
                                                          fine_pencil):
    cfg = _write(tmp_path / "c.json", {"potential": potential, "energies": energies,
                                       "grid": {"samples_per_period": 64}})
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    records = _read_json(out, "diagnostics.json")["records"]
    assert [r["fine_pencil"] for r in records] == fine_pencil
    assert records[0]["p"] > 0 and records[-1]["p"] > 0
    assert all("multiplier_magnitudes" not in r for r in records)


@pytest.mark.parametrize("energies", [
    {"min": 1.0, "max": 2.0, "count": 0},
    {"min": 5.0, "max": 1.0, "count": 1},
    {"min": 2.0, "max": 1.0, "count": 4},
], ids=["count_0", "descending_count_1", "descending_count_4"])
def test_bands_empty_range_rejected(tmp_path, energies):
    cfg = _write(tmp_path / "c.json", {"potential": {"builtin": "kronig_penney"},
                                       "energies": energies})
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "stability", "bands"])
def test_jobs_flag_is_refused_by_every_command(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"),
              "--jobs", "2"])
    assert exc.value.code == 2


def test_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path / "c.json", {
        "system": {"builtin": "scalar_cosine"},
        "grid": {"samples_per_period": 64}, "modes": 2,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
        outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outs[0] == outs[1]


_FIELD_BASES = {
    "analyze": {"system": {"dimension": 1, "period": 1.0, "coefficient": [0.1] * 4},
                "grid": {"samples_per_period": 32}, "modes": 1},
    "bands": {"potential": {"builtin": "kronig_penney"},
              "energies": {"min": 1.0, "max": 2.0, "count": 4}},
    "stability": {"system": {"builtin": "van_der_pol"}, "grid": {"samples_per_period": 192}},
}


def _run_with(tmp_path, vdp_cycle, command, base, path, value, *flags):
    """Exit code of `command` on a copy of base with the dotted path (list
    indices as numbers, missing objects made) set to value; a stability run
    reads the mu = 1 cycle."""
    cfg = json.loads(json.dumps(base))
    if command == "stability":
        _cycle_csv(tmp_path / "cycle.csv", *vdp_cycle)
        cfg["cycle_file"] = str(tmp_path / "cycle.csv")
    *parents, key = path.split(".")
    node = cfg
    for part in parents:
        node = node[int(part)] if isinstance(node, list) else node.setdefault(part, {})
    node[key] = value
    return main([command, "--config", _write(tmp_path / "c.json", cfg),
                 "--out", str(tmp_path / "out"), *flags])


@pytest.mark.parametrize("command", ["analyze", "bands"])
def test_zero_grid_is_rejected_not_ignored(tmp_path, capsys, command):
    assert _run_with(tmp_path, None, command, _FIELD_BASES[command],
                     "grid.samples_per_period", 0) == 2
    assert "samples_per_period" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "bands"])
@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_tol_must_be_positive_and_finite(tmp_path, capsys, command, tol):
    # the config writes the last two as NaN and Infinity, which Python's json reads
    key = "tolerance" if command == "analyze" else "unit_tol"
    assert _run_with(tmp_path, None, command, _FIELD_BASES[command], key, float(tol)) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, path, value", [
    ("analyze", "grid.samples_per_period", 64.5),
    ("analyze", "modes", -1),
    ("analyze", "tolerance", -1),
    ("analyze", "system.dimension", True),
    ("analyze", "system.dimension", 1.0),
    ("bands", "energies.count", 5.9),
    ("bands", "energies.count", True),
    ("bands", "unit_tol", -1),
    ("stability", "modes", 2.5),
    ("stability", "autonomous", "false"),
    # a section that is not a JSON object (or, for the taps, a list of objects)
    ("analyze", "system", 5),
    ("analyze", "system.delay_taps", 5),
    ("analyze", "system.delay_taps", [1.0]),
    ("analyze", "system.kernel", 3),
    ("bands", "energies", 3),
    ("bands", "potential", [1]),
    ("stability", "system", 5),
])
def test_malformed_field_exits_2_and_names_it(tmp_path, capsys, vdp_cycle, command, path,
                                               value):
    # a value of the wrong type or sign is rejected, never truncated or coerced
    assert _run_with(tmp_path, vdp_cycle, command, _FIELD_BASES[command], path, value) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MEMORY_BASE = {"system": {"dimension": 1, "period": 1.0, "memory_depth": 0.5,
                           "coefficient": [0.1] * 4,
                           "delay_taps": [{"delay": 0.5, "coefficient": [-0.1] * 4}],
                           "kernel": {"type": "exponential", "theta": 0.1, "amplitude": -0.5}},
                "grid": {"samples_per_period": 64}, "modes": 1}


@pytest.mark.parametrize("command, path, value, name", [
    ("analyze", "system.period", True, "system.period"),
    ("analyze", "system.period", "1.0", "system.period"),
    ("analyze", "system.memory_depth", "0.5", "system.memory_depth"),
    ("analyze", "system.delay_taps.0.delay", "0.5", "delay_taps[0].delay"),
    ("analyze", "system.delay_taps.0.delay", True, "delay_taps[0].delay"),
    ("analyze", "system.kernel.theta", True, "kernel.theta"),
    ("analyze", "grid", [64], "grid"),
    ("bands", "energies.min", "1.0", "energies.min"),
    ("bands", "energies.max", True, "energies.max"),
    ("bands", "grid", 64, "grid"),
    ("stability", "tolerance", True, "tolerance"),
    ("stability", "tolerance", "1e-4", "tolerance"),
    ("bands", "unit_tol", "1e-3", "unit_tol"),
    ("stability", "grid", [192], "grid"),
    # a table: a non-empty list of finite numbers, in its documented shape
    ("analyze", "system.coefficient", [], "system.coefficient"),
    ("analyze", "system.coefficient", [True, False, True, False], "system.coefficient"),
    ("analyze", "system.delay_taps.0.coefficient", [], "system.delay_taps[0].coefficient"),
    ("analyze", "system.delay_taps.0.coefficient", ["-0.5"] * 4,
     "system.delay_taps[0].coefficient"),
    ("analyze", "system.kernel.amplitude", [-9.0], "system.kernel.amplitude"),
    ("bands", "potential", {"lattice_constant": 1.0, "local_table": ["1", "2", "3", "4"]},
     "potential.local_table"),
    # a JSON integer beyond float range
    pytest.param("analyze", "system.period", 10 ** 400, "system.period",
                 id="analyze-system.period-1e400-system.period"),
    pytest.param("analyze", "system.coefficient", [10 ** 400] * 4, "system.coefficient",
                 id="analyze-system.coefficient-1e400-system.coefficient"),
    # each value of a builtin's params
    pytest.param("bands", "potential.params", {"strength": True}, "potential.params.strength",
                 id="bands-kronig_penney-strength-True"),
    pytest.param("bands", "potential.params", {"strength": float("nan")},
                 "potential.params.strength", id="bands-kronig_penney-strength-NaN"),
    pytest.param("bands", "potential", {"builtin": "separable_nonlocal", "params": {"gamma": "-80"}},
                 "potential.params.gamma", id="bands-separable_nonlocal-gamma-str"),
    pytest.param("analyze", "system", {"builtin": "exp_kernel", "params": {"a": True}},
                 "system.params.a", id="analyze-exp_kernel-a-True"),
    pytest.param("stability", "system.params", {"mu": "1.0"}, "system.params.mu",
                 id="stability-van_der_pol-mu-str"),
    # stability takes no period at all: it is the cycle's time span
    pytest.param("stability", "period", True, "stability takes no 'period'",
                 id="stability-period-True-period"),
])
def test_number_fields_take_json_numbers_only(tmp_path, capsys, vdp_cycle, command, path,
                                              value, name):
    # a bool or a string is not read as a number, a table is not reshaped, and
    # a grid that is not an object is an invalid config, not a crash
    base = _MEMORY_BASE if command == "analyze" else _FIELD_BASES[command]
    assert _run_with(tmp_path, vdp_cycle, command, base, path, value) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_MISSPELLED = [  # (command, path set, its value, the key refused)
    ("analyze", "tolerence", 1e-4, "tolerence"),
    ("analyze", "mode", 2, "mode"),
    ("stability", "mode", 4, "mode"),
    ("bands", "unit_toll", 1e-3, "unit_toll"),
    ("analyze", "grid.sample_per_period", 64, "sample_per_period"),
    ("analyze", "system.memory_dept", 0.5, "memory_dept"),
    ("analyze", "system", {"builtin": "scalar_cosine", "param": {"alpha": 0.3}}, "param"),
    ("stability", "system.parms", {"mu": 1.0}, "parms"),
    ("analyze", "system.delay_taps.0.dealy", 0.5, "dealy"),
    ("analyze", "system.kernel.tehta", 0.1, "tehta"),
    ("bands", "potential.param", {"strength": 3.0}, "param"),
    ("bands", "potential", {"lattice_constant": 1.0, "local_tabel": [0.0] * 4}, "local_tabel"),
    ("bands", "energies.cnt", 4, "cnt"),
]


@pytest.mark.parametrize("command, path, value, key", _MISSPELLED,
                         ids=[f"{case[0]}-{case[1]}-{case[3]}" for case in _MISSPELLED])
def test_misspelled_key_exits_2_and_names_it(tmp_path, capsys, vdp_cycle, command, path, value,
                                             key):
    # a key the object does not take is refused, never ignored in favour of a default
    base = _MEMORY_BASE if command == "analyze" else _FIELD_BASES[command]
    assert _run_with(tmp_path, vdp_cycle, command, base, path, value) == 2
    assert f"takes no '{key}'; it takes " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, path, value, flags, name", [
    *[(command, "grid.samples_per_period", 64, flag, flag[0])
      for command in ("analyze", "stability", "bands")
      for flag in (("--grid", "64"), ("--tol", "1e-1"))],
    ("stability", "wrap_tol", 1e-6, (), "'wrap_tol'"),
    ("stability", "fd_step", 1e-6, (), "'fd_step'"),
    ("analyze", "system", {"builtin": "delay_pi_over_2", "period": 1.0}, (), "'period'"),
    ("analyze", "system", {"builtin": "exp_kernel", "memory_depth": 2.0}, (), "'memory_depth'"),
], ids=["analyze--grid", "analyze--tol", "stability--grid", "stability--tol", "bands--grid",
        "bands--tol", "stability-wrap_tol", "stability-fd_step", "builtin-period",
        "builtin-memory_depth"])
def test_removed_input_exits_2(tmp_path, capsys, vdp_cycle, command, path, value, flags, name):
    # each input is set once, in the config: no flag overrides a key, stability
    # takes its period from the cycle and its wrap tolerance and difference
    # step as fixed, and a builtin's params set its period and memory depth
    base = _MEMORY_BASE if command == "analyze" else _FIELD_BASES[command]
    if flags:
        with pytest.raises(SystemExit) as exc:
            _run_with(tmp_path, vdp_cycle, command, base, path, value, *flags)
        assert exc.value.code == 2
    else:
        assert _run_with(tmp_path, vdp_cycle, command, base, path, value) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("system", [
    {"dimension": 1, "period": 1.0, "coefficient": [0.1] * 4,
     "kernel": {"type": "exponential", "theta": 0.1, "amplitude": -0.5}},
    {"builtin": "exp_kernel", "params": {"depth": 0}},
], ids=["table_without_memory_depth", "exp_kernel_depth_0"])
def test_kernel_without_memory_window_exits_2(tmp_path, capsys, system):
    # over a zero-width window the kernel's integral would be dropped
    cfg = _write(tmp_path / "c.json", {"system": system, "grid": {"samples_per_period": 32}})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    assert "memory_depth" in capsys.readouterr().err
    assert not out.exists()


def test_bands_kernel_wider_than_a_cell_exits_2(tmp_path, capsys):
    # no solve takes it, so the scan does not start
    cfg = _write(tmp_path / "c.json", {
        "potential": {"builtin": "separable_nonlocal", "params": {"range_fraction": 1.2}},
        "energies": {"min": 1.0, "max": 2.0, "count": 4}})
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 2
    assert "kernel range 1.2" in capsys.readouterr().err
    assert not out.exists()


def test_bands_local_table_constant_potential(tmp_path):
    # V = 2 everywhere: the free dispersion shifted up, k = +-sqrt(E - 2)
    cfg = _write(tmp_path / "c.json", {
        "potential": {"lattice_constant": 1.0, "local_table": [2.0] * 8},
        "energies": {"min": 2.5, "max": 6.0, "count": 8},
        "grid": {"samples_per_period": 64},
    })
    out = tmp_path / "out"
    assert main(["bands", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "bands.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 8
    for row in rows:
        energy, p = float(row[0]), int(row[1])
        assert p == 2
        ks = sorted(float(v) for v in row[2:2 + p])
        np.testing.assert_allclose(ks, [-np.sqrt(energy - 2.0), np.sqrt(energy - 2.0)],
                                   rtol=0, atol=1e-6)


def test_memory_base_config_runs(tmp_path):
    out = tmp_path / "out"
    assert main(["analyze", "--config", _write(tmp_path / "c.json", _MEMORY_BASE),
                 "--out", str(out)]) == 0
    assert (out / "spectrum.json").exists()


def test_json_integer_beyond_int64_is_read_as_a_float(tmp_path):
    assert _number(10 ** 23, "period") == 1e23
    with pytest.raises(ConfigError, match="period"):
        _number(10 ** 400, "period")
    cfg = _write(tmp_path / "c.json", {"system": {"builtin": "scalar_cosine"}, "modes": 1,
                                       "tolerance": 10 ** 23})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


_SCIPY_LOADED = ("import sys; from gfloquet.cli import main; code = main(sys.argv[1:]); "
                 "print(code, sorted({m.split('.')[0] for m in sys.modules} & {'scipy'}))")


def _run_fresh(code, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    res = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                         env=env, check=True)
    return res.stdout.strip()


def test_cli_import_leaves_unused_scipy_out():
    # nor the process pool, which only a nonlocal band scan starts
    assert _run_fresh("import sys, gfloquet.cli; print(sorted(m for m in sys.modules if "
                      "m.split('.')[0] in ('scipy', 'multiprocessing', 'concurrent')))") == "[]"


@pytest.mark.parametrize("command, cfg, loads_scipy", [
    ("analyze", {"system": {"builtin": "delay_pi_over_2"}, "grid": {"samples_per_period": 32}},
     False),
    ("stability", {"system": {"builtin": "van_der_pol"}, "grid": {"samples_per_period": 192}},
     False),
    ("bands", {"potential": {"builtin": "kronig_penney"},
               "energies": {"min": 1.0, "max": 2.0, "count": 4}}, False),
    # numpy has no generalized eigensolver for the nonlocal pencil
    ("bands", {"potential": {"builtin": "separable_nonlocal"},
               "energies": {"min": 1.0, "max": 2.0, "count": 2}}, True),
], ids=["delay_analyze", "stability", "local_bands", "nonlocal_bands"])
def test_only_the_nonlocal_pencil_loads_scipy(tmp_path, vdp_cycle, command, cfg, loads_scipy):
    if command == "stability":
        _cycle_csv(tmp_path / "cycle.csv", *vdp_cycle)
        cfg = dict(cfg, cycle_file=str(tmp_path / "cycle.csv"))
    out = _run_fresh(_SCIPY_LOADED, command, "--config", _write(tmp_path / "c.json", cfg),
                     "--out", str(tmp_path / "out"))
    assert out == ("0 ['scipy']" if loads_scipy else "0 []")
