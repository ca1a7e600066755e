import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import squidsim as sq
from squidsim import ConfigError
from squidsim.cli import main as cli_main
from squidsim.config import format_config, parse_config
from conftest import critical_current


def test_parse_config_basics():
    text = """
    # a comment
    squid.capacitance_f = 5e-15   # trailing comment
    squid.inductance_h = 3e-10

    run.dim = 64
    """
    cfg = parse_config(text)
    assert cfg == {"squid.capacitance_f": "5e-15",
                   "squid.inductance_h": "3e-10",
                   "run.dim": "64"}


@pytest.mark.parametrize("bad", [
    "squid.capacitance_f 5e-15",
    "nodots = 3",
    "run.dim = 1\nrun.dim = 2",
])
def test_parse_config_errors(bad):
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_format_parse_round_trip():
    cfg = {"a.b": "1.5", "c.d": "hello"}
    assert parse_config(format_config(cfg)) == cfg


def test_spec_flat_round_trip():
    spec = sq.builtin_scenario("decohere-cat")
    again = sq.ScenarioSpec.from_flat(spec.to_flat())
    assert again == spec

    custom = sq.ScenarioSpec(
        name="custom", squid=sq.friedman_ring(),
        bath=sq.BathParams(temperature=0.5, damping=0.02, frequency=1e11),
        state=sq.StateRecipe(kind="coherent", alpha=0.3 - 0.2j),
        grid=sq.GridSpec(x_min=-8, x_max=8, x_points=65,
                         p_min=-9, p_max=9, p_points=33),
        sweep=sq.SweepSpec(start=0.4, stop=0.6, step=0.01, levels=4),
        run=sq.RunSettings(dim=72, dtau=0.002, tau_max=1.5,
                           record_stride=3, snapshot_stride=10))
    assert sq.ScenarioSpec.from_flat(custom.to_flat()) == custom


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        sq.ScenarioSpec.from_flat({"squid.capacitence_f": "5e-15"})


def test_critical_current_config_exclusivity():
    base = {"squid.capacitance_f": "1.03e-13", "squid.inductance_h": "2.38e-10"}
    spec = sq.ScenarioSpec.from_flat(base | {"squid.critical_current_a": "2.02e-6"})
    assert critical_current(spec.squid) == pytest.approx(2.02e-6, rel=1e-12)
    both = {"squid.critical_current_a": "2.02e-6",
            "squid.josephson_energy_j": "1e-22"}
    for mapping in (base | both, both):
        with pytest.raises(ConfigError):
            sq.ScenarioSpec.from_flat(mapping)


@pytest.mark.parametrize("key, text, read", [
    ("squid.josephson_energy_j", "1e-22", lambda s: s.squid.josephson_energy),
    ("squid.critical_current_a", "2.02e-6",
     lambda s: critical_current(s.squid)),
    ("bath.frequency_rad_s", "1e11", lambda s: s.bath.frequency),
])
def test_each_key_overrides_its_own_field(key, text, read):
    base = sq.builtin_scenario("decohere-cat")
    spec = sq.builtin_scenario("decohere-cat", {key: text})
    assert read(spec) == pytest.approx(float(text), rel=1e-12)
    # every other field keeps the scenario default
    assert spec.state == base.state and spec.run == base.run
    assert spec.squid.capacitance == base.squid.capacitance
    assert spec.squid.inductance == base.squid.inductance
    assert spec.squid.bias_flux == base.squid.bias_flux
    assert spec.bath.temperature == base.bath.temperature
    assert spec.bath.damping == base.bath.damping


def test_bath_key_creates_bath_with_defaults():
    spec = sq.ScenarioSpec.from_flat({"bath.frequency_rad_s": "1e11"})
    assert spec.bath == sq.BathParams(temperature=1.0, damping=0.0,
                                      frequency=1e11)


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError):
        sq.builtin_scenario("does-not-exist")


SMALL = {
    "run.dim": "120",
    "grid.x_min": "-12", "grid.x_max": "12", "grid.x_points": "65",
    "grid.p_min": "-12", "grid.p_max": "12", "grid.p_points": "65",
}


def test_metadata_reproduces_spec_and_scales(tmp_path):
    spec = sq.builtin_scenario("cat-049", SMALL)
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    meta = json.loads((tmp_path / "metadata.json").read_text())
    again = sq.ScenarioSpec.from_flat(meta["config"])
    assert again == spec
    scales = sq.derive_scales(again.squid)
    for name, stored in meta["derived_scales"].items():
        assert getattr(scales, name) == pytest.approx(stored, rel=1e-12)


def test_emitted_payloads_are_byte_identical(tmp_path):
    spec = sq.builtin_scenario("cat-049", SMALL)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    sq.emit_dataset(sq.run_scenario(spec), out_a)
    sq.emit_dataset(sq.run_scenario(spec), out_b)
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_level_sweep_scenario_periodicity(tmp_path):
    spec = sq.builtin_scenario("level-sweep", {
        "run.dim": "120", "sweep.step": "0.125", "sweep.levels": "4"})
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    rows = (tmp_path / "level_sweep.csv").read_text().splitlines()
    assert rows[0] == "phi_x,E0,E1,E2,E3"
    first = np.array(rows[1].split(","), dtype=float)
    last = np.array(rows[-1].split(","), dtype=float)
    assert np.max(np.abs(first[1:] - last[1:])) < 1e-9


def test_cat_phase_balanced_lobes(tmp_path):
    spec = sq.builtin_scenario("cat-phase", SMALL)
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    table = np.loadtxt(tmp_path / f"wigner_theta{math.pi / 2:.2f}.csv",
                       delimiter=",", skiprows=1)
    x, value = table[:, 0], table[:, 2]
    left = value[x < 0.0].sum()
    right = value[x > 0.0].sum()
    assert left == pytest.approx(right, rel=0.01)


def test_decohere_scenario_field_files(tmp_path):
    overrides = {
        "run.dim": "60", "run.tau_max": "0.06", "run.dtau": "0.002",
        "run.snapshot_stride": "10", "run.record_stride": "10",
        "grid.x_min": "-10", "grid.x_max": "10", "grid.x_points": "33",
        "grid.p_min": "-10", "grid.p_max": "10", "grid.p_points": "33",
    }
    spec = sq.builtin_scenario("decohere-cat", overrides)
    dataset = sq.run_scenario(spec)
    paths = sq.emit_dataset(dataset, tmp_path)
    taus = dataset.metadata["snapshot_taus"]
    assert len(taus) == 4  # 0.0, 0.02, 0.04, 0.06
    names = {os.path.basename(p) for p in paths}
    for tau in taus:
        assert f"wigner_tau{tau:07.2f}.csv" in names
        assert f"weyl_tau{tau:07.2f}.csv" in names
    wig_count = sum(n.startswith("wigner_tau") for n in names)
    wey_count = sum(n.startswith("weyl_tau") for n in names)
    assert wig_count == wey_count == len(taus)
    # each field records the imaginary residue the Wigner sum discarded
    for name, desc in dataset.metadata["fields"].items():
        residual = desc["imag_residual"]
        if name.startswith("weyl_tau"):
            assert residual == 0.0
        else:
            assert 0.0 <= residual < 1e-10


def test_squeeze_scenario_dips_below_half(tmp_path):
    spec = sq.builtin_scenario("squeeze", {
        "run.dim": "128", "run.tau_max": "1.5", "run.record_stride": "5"})
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    table = np.loadtxt(tmp_path / "trajectory_g0.csv", delimiter=",",
                       skiprows=1)
    header = (tmp_path / "trajectory_g0.csv").read_text().splitlines()[0]
    var_x = table[:, header.split(",").index("var_x")]
    assert var_x.min() < 0.5


def test_potential_wells_scenario(tmp_path):
    spec = sq.builtin_scenario("potential-wells", SMALL | {"sweep.levels": "4"})
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    for bias in ("0.00", "0.49", "0.50"):
        path = tmp_path / f"potential_wells_phix{bias}.csv"
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "x,potential,level0,level1,level2,level3"
    # offset densities sit at or above their eigenvalue baselines
    table = np.loadtxt(tmp_path / "potential_wells_phix0.50.csv",
                       delimiter=",", skiprows=1)
    assert table[:, 2].min() >= 0.0


def test_friedman_scenario(tmp_path):
    spec = sq.builtin_scenario("friedman", {
        "run.dim": "300",
        "grid.x_min": "-15", "grid.x_max": "15", "grid.x_points": "49",
        "grid.p_min": "-15", "grid.p_max": "15", "grid.p_points": "49"})
    dataset = sq.run_scenario(spec)
    sq.emit_dataset(dataset, tmp_path)
    assert dataset.metadata["pair_indices"] == [12, 13]
    assert dataset.metadata["pair_well_ordinals"] == {"0": 3, "1": 9}
    assert (tmp_path / "potential_wells.csv").exists()
    for theta in (0.0, math.pi / 2, math.pi):
        assert (tmp_path / f"wigner_theta{theta:.2f}.csv").exists()


def test_json_bundle_emission(tmp_path):
    spec = sq.builtin_scenario("level-sweep", {
        "run.dim": "80", "sweep.step": "0.25", "sweep.levels": "3"})
    dataset = sq.run_scenario(spec)
    paths = sq.emit_dataset(dataset, tmp_path, fmt="json-bundle")
    bundle = json.loads((tmp_path / "level-sweep.json").read_text())
    assert bundle["metadata"]["scenario"] == "level-sweep"
    assert bundle["tables"]["level_sweep.csv"]["columns"][0] == "phi_x"


def test_cli_scenario_success(tmp_path, capsys):
    cfg = tmp_path / "ring.cfg"
    cfg.write_text(
        "run.dim = 100\n"
        "grid.x_min = -12\ngrid.x_max = 12\ngrid.x_points = 33\n"
        "grid.p_min = -12\ngrid.p_max = 12\ngrid.p_points = 33\n")
    out = tmp_path / "data"
    code = cli_main(["scenario", "cat-049", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(out / "metadata.json") in printed
    assert (out / "wigner_cat_phix0.49.csv").exists()


def test_cli_dim_override(tmp_path):
    out = tmp_path / "data"
    code = cli_main(["scenario", "level-sweep", "--dim", "64", "--out",
                     str(out), "--config", _sweep_cfg(tmp_path)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["truncation_dim"] == 64


def _sweep_cfg(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("sweep.step = 0.25\nsweep.levels = 3\n")
    return str(cfg)


def test_cli_unknown_scenario_exit_code(tmp_path, capsys):
    assert cli_main(["scenario", "nope", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("squid.capacitance_f = banana\n")
    code = cli_main(["scenario", "cat-049", "--config", str(cfg),
                     "--out", str(tmp_path)])
    assert code == 2


def test_cli_io_error_exit_code(tmp_path, capsys):
    target = tmp_path / "blocked"
    target.write_text("a file, not a directory")
    code = cli_main(["scenario", "level-sweep", "--dim", "64",
                     "--config", _sweep_cfg(tmp_path), "--out", str(target)])
    assert code == 4


def test_cli_spectrum_and_eigenstates(tmp_path):
    out = tmp_path / "spec"
    code = cli_main(["spectrum", "--dim", "80", "--out", str(out),
                     "--config", _sweep_cfg(tmp_path)])
    assert code == 0
    assert (out / "level_sweep.csv").exists()

    out2 = tmp_path / "eig"
    cfg = tmp_path / "eig.cfg"
    cfg.write_text("squid.bias_flux_phi0 = 0.49\nsweep.levels = 2\n"
                   "grid.x_min = -12\ngrid.x_max = 12\ngrid.x_points = 41\n")
    code = cli_main(["eigenstates", "--dim", "120", "--config", str(cfg),
                     "--out", str(out2)])
    assert code == 0
    header = (out2 / "eigenstate_0.csv").read_text().splitlines()[0]
    assert header == "x,re_psi,im_psi,density"


def test_cli_wigner_weyl_and_evolve(tmp_path):
    cfg = tmp_path / "state.cfg"
    cfg.write_text(
        "state.kind = coherent\n"
        "state.alpha_im = 1.0\n"
        "grid.x_points = 33\n"
        "grid.p_points = 33\n"
        "grid.x_min = -8\ngrid.x_max = 8\n"
        "grid.p_min = -8\ngrid.p_max = 8\n"
        "bath.temperature_k = 1.0\n"
        "bath.damping = 0.05\n"
        "run.tau_max = 0.05\nrun.dtau = 0.005\n"
        "run.snapshot_stride = 5\nrun.record_stride = 5\n")
    for cmd, expect in (("wigner", "wigner.csv"), ("weyl", "weyl.csv"),
                        ("evolve", "trajectory.csv")):
        out = tmp_path / cmd
        code = cli_main([cmd, "--dim", "60", "--config", str(cfg),
                         "--out", str(out)])
        assert code == 0
        assert (out / expect).exists()
    # evolve also exports the snapshot density matrices as re/im pairs
    evolve_files = os.listdir(tmp_path / "evolve")
    assert any(n.startswith("rho_tau") and n.endswith("_re.csv")
               for n in evolve_files)
    assert any(n.startswith("rho_tau") and n.endswith("_im.csv")
               for n in evolve_files)


def test_thread_override_sets_environment(monkeypatch):
    from squidsim import _apply_thread_override
    monkeypatch.setenv("SQUIDSIM_THREADS", "1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    _apply_thread_override()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    assert os.environ["OMP_NUM_THREADS"] == "1"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")


def test_thread_override_precedes_numpy_import():
    # a meta-path finder records OPENBLAS_NUM_THREADS when numpy is first
    # looked up, i.e. before its BLAS pool starts
    probe = textwrap.dedent("""
        import os, sys
        seen = []
        class Probe:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        sys.meta_path.insert(0, Probe())
        import squidsim.cli
        print(seen)
    """)
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["SQUIDSIM_THREADS"] = "1"
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "['1']"


def test_module_entry_point_runs_without_warning():
    # the package must not import squidsim.cli before `-m` executes it
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "squidsim.cli",
         "--help"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert out.stderr == ""
    assert out.stdout.startswith("usage: squidsim")


def test_cli_reports_library_warnings_as_one_line(tmp_path, capsys):
    # the default +-16 grid reaches past the dim-60 basis support
    code = cli_main(["eigenstates", "--dim", "60", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "squidsim: warning: grid reaches" in err
    assert err.count("squidsim: warning:") == 1
    assert ".py:" not in err


def test_cli_reports_positivity_warning_once(tmp_path, capsys, monkeypatch):
    from squidsim import scenarios
    sweep = scenarios.spectrum_sweep

    def warning_sweep(*args, **kwargs):
        for _ in range(2):
            warnings.warn("density matrix has eigenvalue -1e-3",
                          sq.PositivityWarning)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(scenarios, "spectrum_sweep", warning_sweep)
    code = cli_main(["spectrum", "--dim", "40", "--config",
                     _sweep_cfg(tmp_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0
    assert err == ("squidsim: warning: density matrix has eigenvalue "
                   "-1e-3\n")


REGISTRY_CFG = (
    "run.dim = 80\nrun.tau_max = 0.05\nrun.dtau = 0.005\n"
    "run.record_stride = 5\nrun.snapshot_stride = 5\n"
    "sweep.step = 0.25\nsweep.levels = 3\n"
    "grid.x_min = -12\ngrid.x_max = 12\ngrid.x_points = 17\n"
    "grid.p_min = -12\ngrid.p_max = 12\ngrid.p_points = 17\n"
    "bath.temperature_k = 1.0\nbath.damping = 0.05\n")


@pytest.mark.parametrize("name", list(sq.SCENARIOS))
def test_every_registered_scenario_runs_from_the_cli(tmp_path, name):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(REGISTRY_CFG)
    out = tmp_path / "out"
    code = cli_main(["scenario", name, "--config", str(cfg),
                     "--out", str(out)])
    assert code == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario"] == name
    assert meta["config"]["scenario.name"] == name

    # the metadata's config echo reproduces every file bit for bit
    echo = tmp_path / "echo.cfg"
    echo.write_text(format_config(meta["config"]))
    again = tmp_path / "again"
    assert cli_main(["scenario", name, "--config", str(echo),
                     "--out", str(again)]) == 0
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for filename in os.listdir(out):
        assert ((again / filename).read_bytes()
                == (out / filename).read_bytes()), filename


def test_spectrum_json_bundle_is_named_after_the_command(tmp_path):
    code = cli_main(["spectrum", "--dim", "60", "--format", "json-bundle",
                     "--config", _sweep_cfg(tmp_path),
                     "--out", str(tmp_path / "out")])
    assert code == 0
    assert os.listdir(tmp_path / "out") == ["spectrum.json"]


def test_config_scenario_name_does_not_rename_a_subcommand(tmp_path):
    cfg = tmp_path / "named.cfg"
    cfg.write_text("scenario.name = friedman\ngrid.x_points = 17\n"
                   "grid.p_points = 17\n")
    out = tmp_path / "out"
    assert cli_main(["wigner", "--dim", "60", "--config", str(cfg),
                     "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["scenario"] == "wigner"
    assert meta["config"]["scenario.name"] == "wigner"
    assert meta["config"]["squid.bias_flux_phi0"] == "0.0"


def test_cat_049_draws_the_configured_state(tmp_path):
    cfg = tmp_path / "eigen.cfg"
    cfg.write_text("squid.bias_flux_phi0 = 0.49\n"
                   "state.kind = eigenstate\nstate.index = 1\n"
                   "grid.x_min = -12\ngrid.x_max = 12\ngrid.x_points = 33\n"
                   "grid.p_min = -12\ngrid.p_max = 12\ngrid.p_points = 33\n")
    for cmd in (["scenario", "cat-049"], ["wigner"]):
        assert cli_main([*cmd, "--dim", "100", "--config", str(cfg),
                         "--out", str(tmp_path / cmd[-1])]) == 0
    cat = (tmp_path / "cat-049" / "wigner_eigenstate1_phix0.49.csv").read_bytes()
    assert cat == (tmp_path / "wigner" / "wigner.csv").read_bytes()


@pytest.mark.parametrize("overrides, table", [
    ({}, "wigner_cat_phix0.49.csv"),
    ({"state.kind": "eigenstate", "state.index": "2"},
     "wigner_eigenstate2_phix0.49.csv"),
    ({"state.kind": "coherent", "squid.bias_flux_phi0": "0.3"},
     "wigner_coherent_phix0.30.csv"),
])
def test_cat_049_names_its_table_after_the_state_and_bias(overrides, table):
    spec = sq.builtin_scenario("cat-049", {
        "run.dim": "60", "grid.x_points": "9", "grid.p_points": "9",
        **overrides})
    assert list(sq.run_scenario(spec).tables) == [table]


def test_decohere_cat_starts_from_the_configured_eigenstate():
    first_rows = []
    for index in ("0", "1"):
        spec = sq.builtin_scenario("decohere-cat", {
            "run.dim": "80", "run.tau_max": "0.01", "run.record_stride": "1",
            "run.snapshot_stride": "2", "state.index": index,
            "grid.x_points": "9", "grid.p_points": "9"})
        _, rows = sq.run_scenario(spec).tables["trajectory.csv"]
        first_rows.append(rows[0])
    assert not np.array_equal(first_rows[0], first_rows[1])


def test_cli_zero_record_stride_exit_code(tmp_path, capsys):
    cfg = tmp_path / "stride.cfg"
    cfg.write_text("state.kind = coherent\nstate.alpha_im = 1.0\n"
                   "bath.temperature_k = 1.0\nbath.damping = 0.05\n"
                   "run.tau_max = 0.05\nrun.record_stride = 0\n")
    code = cli_main(["evolve", "--dim", "40", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 2
    assert "record" in capsys.readouterr().err


@pytest.mark.parametrize("cmd, text, needle", [
    ("wigner", "state.index = 500\n", "state.index"),
    ("wigner", "state.kind = superposition\nstate.pair_a = 70\n",
     "state.pair_a"),
    ("eigenstates", "sweep.levels = 500\n", "sweep.levels"),
    ("spectrum", "sweep.stop = -1\n", "sweep.stop"),
    ("spectrum", "sweep.step = nan\n", "sweep.step"),
    ("spectrum", "sweep.levels = -3\nsweep.step = 0.25\n", "sweep.levels"),
    ("evolve", "bath.damping = 0.05\nbath.frequency_rad_s = 0\n", "frequency"),
])
def test_cli_invalid_values_exit_code(tmp_path, capsys, cmd, text, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.dim = 60\n" + text)
    out = tmp_path / "out"
    code = cli_main([cmd, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_cli_truncation_exit_code(tmp_path, capsys):
    # |alpha|^2 = 25 exceeds dim/4 = 15, so the coherent state cannot be built
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("state.kind = coherent\nstate.alpha_re = 5\n")
    out = tmp_path / "out"
    code = cli_main(["wigner", "--dim", "60", "--config", str(cfg),
                     "--out", str(out)])
    assert code == 3
    assert "convergence failure" in capsys.readouterr().err
    assert not out.exists()


def test_propagation_health_in_metadata(tmp_path):
    spec = sq.builtin_scenario("squeeze", {
        "run.dim": "60", "run.tau_max": "0.1", "run.record_stride": "5"})
    meta = sq.run_scenario(spec).metadata
    assert meta["integrator"]["method"] == (
        "rk4-fixed-step-truncated-energy-eigenbasis")
    for key in ("max_trace_correction", "energy_levels_kept",
                "leaked_population", "min_snapshot_eigenvalue"):
        assert set(meta[key]) == {"0", "0.001", "0.01", "0.1"}
    assert all(1 <= k <= 60 for k in meta["energy_levels_kept"].values())

    cfg = tmp_path / "evolve.cfg"
    cfg.write_text("state.kind = coherent\nstate.alpha_im = 1.0\n"
                   "bath.temperature_k = 1.0\nbath.damping = 0.05\n"
                   "run.tau_max = 0.05\nrun.snapshot_stride = 5\n")
    assert cli_main(["evolve", "--dim", "40", "--config", str(cfg),
                     "--out", str(tmp_path / "evolve")]) == 0
    meta = json.loads((tmp_path / "evolve" / "metadata.json").read_text())
    assert 1 <= meta["energy_levels_kept"] <= 40
    assert abs(meta["leaked_population"]) < 1e-18
    assert meta["min_snapshot_eigenvalue"] > -1e-4
