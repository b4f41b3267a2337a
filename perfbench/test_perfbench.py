"""Self-tests of the benchmark's own code: oracles, generator, tracer.

Run from the repository root: python3 -m pytest -q perfbench
"""
import json
import os
import sys

import numpy as np
import pytest
from scipy.integrate import quad

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def test_lambert_oracle_hits_the_pi_over_2_pair():
    # W_0(-pi/2) = i pi/2, so the dominant multiplier is exactly i
    assert abs(oracles.delay_multiplier(np.pi / 2) - 1j) < 1e-14


def test_kronig_penney_without_deltas_is_free():
    for energy in (0.3, 2.0, 9.5):
        d = oracles.kronig_penney_discriminant(0.0, energy)
        assert np.arccos(d) == pytest.approx(np.sqrt(energy), abs=1e-12)


def test_nonlocal_symbol_vanishes_without_coupling():
    ks = np.linspace(-7.0, 7.0, 29)
    assert np.all(oracles.nonlocal_symbol(ks, 0.0) == 0.0)
    roots, slopes = oracles.nonlocal_roots(6.25, 0.0)
    assert roots == pytest.approx([-2.5, 2.5], abs=1e-12)
    assert slopes == pytest.approx([-5.0, 5.0], abs=1e-6)


def test_nonlocal_symbol_matches_quadrature():
    gamma, frac = -80.0, 0.9
    r = frac
    for k in (0.0, 1.3, 2.45, 6.0):
        integrand = lambda u: np.cos(2 * np.pi * u) * np.cos(np.pi * u / (2 * r)) ** 2 * np.cos(k * u)
        ref = gamma * quad(integrand, -r, r, epsabs=1e-13, epsrel=1e-13)[0]
        assert oracles.nonlocal_symbol(k, gamma, frac) == pytest.approx(ref, abs=1e-11)


def test_exp_kernel_oracle_is_expm_of_augmented_matrix():
    a, b, theta = 2.0, -9.0, 0.3
    lam = np.linalg.eigvals(np.array([[a, 1.0], [b, -1.0 / theta]]))
    got = oracles.exp_kernel_multipliers(a, b, theta)
    assert np.sort_complex(got) == pytest.approx(np.sort_complex(np.exp(lam)), abs=1e-13)


def _configs(jobs):
    out = []
    for job in jobs:
        with open(job["config"]) as fh:
            out.append(json.load(fh))
    return out


def _sizes(cfg):
    """Every size-like field of a config: grids, counts, tables, taps."""
    sizes = [cfg.get("grid", {}).get("samples_per_period"), cfg.get("modes")]
    if "energies" in cfg:
        sizes.append(cfg["energies"]["count"])
    system = cfg.get("system", {})
    if "coefficient" in system:
        sizes += [len(system["coefficient"]), len(system["delay_taps"]),
                  system["memory_depth"]]
    params = system.get("params", {})
    sizes += [params.get("depth"), params.get("theta")]
    pot = cfg.get("potential", {})
    sizes.append(len(pot.get("local_table", ())))
    return sizes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_keeps_sizes(workload, tmp_path):
    first = workloads.generate(workload, 3, str(tmp_path / "a"))
    again = workloads.generate(workload, 3, str(tmp_path / "b"))
    other = workloads.generate(workload, 4, str(tmp_path / "c"))
    strip = lambda jobs: [{k: v for k, v in j.items() if k not in ("config", "out")}
                          for j in jobs]
    assert strip(first) == strip(again)
    cfg_a, cfg_b, cfg_c = _configs(first), _configs(again), _configs(other)
    for cfg in cfg_a + cfg_b:  # the cycle file path names the run directory
        cfg.pop("cycle_file", None)
    assert cfg_a == cfg_b
    assert strip(first) != strip(other)
    assert [j["ops"] for j in first] == [j["ops"] for j in other]
    assert [_sizes(c) for c in cfg_a] == [_sizes(c) for c in cfg_c]


def test_self_times_sum_to_the_root_span():
    ticks = iter(range(100))
    tr = tracing.Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    def middle():
        return tr.wrap("leaf", leaf)() + tr.wrap("leaf", leaf)()

    def root():
        return middle() + tr.wrap("middle", middle)()

    assert tr.wrap("root", root)() == 4
    selfs = tracing.self_times(tr.spans)
    root_span = tr.spans[0]
    assert sum(selfs) == root_span[2] - root_span[1]
    assert all(s > 0 for s in selfs)


def test_traced_cli_run_accounts_for_its_wall_time(tmp_path):
    import gfloquet.cli as cli
    from gfloquet import integrate

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"system": {"builtin": "delay_pi_over_2"},
                               "grid": {"samples_per_period": 32}, "modes": 2}))
    original = integrate.propagate_history
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        code = tr.wrap("bench.repetition", lambda: cli.main(
            ["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]))()
    assert code == 0
    assert integrate.propagate_history is original
    assert cli.main.__module__ == "gfloquet.cli" and not hasattr(cli.main, "__wrapped__")
    root = tr.spans[0]
    assert sum(tracing.self_times(tr.spans)) == pytest.approx(root[2] - root[1], abs=1e-9)
    layers = tracing.layer_metrics(tr.spans)
    assert layers["integrate.propagate_history.calls"] >= 3
    assert layers["monodromy.operator_size"] == 33 and layers["monodromy.refined_size"] == 65
    assert layers["system.eval_tap.calls"] > 0 and layers["grid.interp_uniform.calls"] > 0
    assert 0 < layers["monodromy.retained_ratio"] <= 1


def test_artifact_mismatch_fails_every_operation_of_the_job():
    jobs = [{"name": "a", "ops": 5}, {"name": "b", "ops": 1}]
    rep = {"codes": {"a": 0, "b": 0}, "digests": {"a": {"x": ["1", 1]}, "b": {}}}
    moved = {"codes": {"a": 0, "b": 0}, "digests": {"a": {"x": ["2", 1]}, "b": {}}}
    crashed = {"codes": {"a": 0, "b": 3}, "digests": rep["digests"]}
    assert run._failed_ops(jobs, [rep, rep], {"a": 0, "b": 0}) == 0
    assert run._failed_ops(jobs, [rep, moved], {"a": 0, "b": 0}) == 5
    assert run._failed_ops(jobs, [rep, crashed], {"a": 1, "b": 0}) == 1 + 1 + 1


def test_traced_metrics_are_the_declared_per_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.layer_metrics([])) | {"cli.bytes_written", "trace.wall_s",
                                                 "trace.overhead_s"}
    assert produced == set(declared)
    assert {name: run._layer_unit(name) for name in produced} == declared


def test_digits_stay_finite():
    assert run._digits(0.0) == 16.0
    assert run._digits(1e-5) == pytest.approx(5.0)
    assert run._digits(float("inf")) == 0.0 and run._digits(float("nan")) == 0.0
