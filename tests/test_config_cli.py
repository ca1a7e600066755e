import contextlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import squidsim as sq
from squidsim import ConfigError, GridResolutionWarning
from squidsim.cli import _build_parser, main as cli_main
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
        state=sq.StateRecipe(kind="coherent", alpha_re=0.3, alpha_im=-0.2),
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
    # the field's normalisation has one home, its descriptor
    assert "wigner_normalization" not in meta
    (desc,) = meta["fields"].values()
    assert desc["normalization"] == pytest.approx(1.0, abs=1e-4)


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
        "grid.x_min": "-10", "grid.x_max": "10", "grid.x_points": "65",
        "grid.p_min": "-10", "grid.p_max": "10", "grid.p_points": "65",
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
    # both kernels are real or complex by construction: nothing is discarded
    for name, desc in dataset.metadata["fields"].items():
        assert desc["imag_residual"] == 0.0
        assert ("normalization" in desc) == name.startswith("wigner_tau")


def test_decohere_wigner_descriptors_record_their_normalization():
    spec = sq.builtin_scenario("decohere-cat", {
        "run.dim": "150", "run.tau_max": "0.15", "run.record_stride": "5",
        "run.snapshot_stride": "15", "grid.x_points": "65",
        "grid.p_points": "65"})
    fields = sq.run_scenario(spec).metadata["fields"]
    norms = [desc["normalization"] for name, desc in fields.items()
             if name.startswith("wigner_tau")]
    assert len(norms) == 3
    for norm in norms:
        assert abs(norm - 1.0) <= 1e-4


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
        "grid.x_min": "-15", "grid.x_max": "15", "grid.x_points": "129",
        "grid.p_min": "-15", "grid.p_max": "15", "grid.p_points": "129"})
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
    dataset.tables["row.csv"] = (("a", "b"), [0.5, 2.0])   # a 1-D row
    paths = sq.emit_dataset(dataset, tmp_path, fmt="json-bundle")
    assert paths == [str(tmp_path / "level-sweep.json")]
    bundle = json.loads((tmp_path / "level-sweep.json").read_text())
    assert bundle["metadata"]["scenario"] == "level-sweep"
    assert bundle["tables"]["level_sweep.csv"]["columns"][0] == "phi_x"
    assert bundle["tables"]["row.csv"]["rows"] == [[0.5, 2.0]]

    # both formats come from one normalisation of the tables
    csv_dir = tmp_path / "csv"
    assert sq.emit_dataset(dataset, csv_dir) == [
        str(csv_dir / name) for name in ("level_sweep.csv", "row.csv",
                                         "metadata.json")]
    meta = json.loads((csv_dir / "metadata.json").read_text())
    assert meta["tables"] == {
        name: {"columns": table["columns"], "rows": len(table["rows"])}
        for name, table in bundle["tables"].items()}


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


def _run_fresh_python(*args):
    """`python *args` in a new interpreter that imports this squidsim."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_without_warning():
    # the package must not import squidsim.cli before `-m` executes it
    out = _run_fresh_python("-W", "error::RuntimeWarning", "-m", "squidsim.cli",
                            "--help")
    assert out.returncode == 0
    assert out.stderr == ""
    assert out.stdout.startswith("usage: squidsim")


def test_package_does_not_import_scipy_optimize():
    out = _run_fresh_python("-c", "import sys, squidsim, squidsim.cli; "
                            "print('scipy.optimize' in sys.modules)")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\n"


def test_cli_reports_library_warnings_as_one_line(tmp_path, capsys):
    # the default +-16 grid reaches past the dim-60 basis support
    code = cli_main(["eigenstates", "--dim", "60", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 0
    assert "squidsim: warning: grid reaches" in err
    assert err.count("squidsim: warning:") == 1
    assert ".py:" not in err


BIAS_HALF_CFG = "squid.bias_flux_phi0 = 0.5\n"
# the decohere-cat initial state's ring at dim 60 on a 33^2 grid over +-10:
# steps of 0.625 alias the p-sum of its coherences, which reach |z| ~ 15
COARSE_WIGNER_CFG = BIAS_HALF_CFG + (
    "run.dim = 60\n"
    "grid.x_min = -10\ngrid.x_max = 10\ngrid.x_points = 33\n"
    "grid.p_min = -10\ngrid.p_max = 10\ngrid.p_points = 33\n")


def _wigner_cli(tmp_path, text):
    """(exit code, stderr, wigner.csv descriptor) of `squidsim wigner`."""
    cfg = tmp_path / "wigner.cfg"
    cfg.write_text(text)
    code = cli_main(["wigner", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    return code, meta["fields"]["wigner.csv"]


def test_cli_warns_of_a_wigner_grid_too_coarse_for_the_state(tmp_path, capsys):
    code, desc = _wigner_cli(tmp_path, COARSE_WIGNER_CFG)
    err = capsys.readouterr().err
    assert code == 0
    assert (tmp_path / "out" / "wigner.csv").stat().st_size > 0
    assert err.count("squidsim: warning:") == 1
    assert "squidsim: warning: Wigner table wigner.csv: x-marginal error" in err
    assert desc["marginal_error"] == pytest.approx(4.7e-2, rel=0.05)


def test_cli_wigner_on_the_default_grid_is_silent(tmp_path, capsys):
    code, desc = _wigner_cli(tmp_path, BIAS_HALF_CFG)
    assert code == 0
    assert capsys.readouterr().err == ""
    # the kernel's z = 0 column is the exact density: only roundoff is left
    assert desc["marginal_error"] < 1e-12


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


def test_every_registered_scenario_is_a_subcommand_with_the_same_options():
    parser = _build_parser()
    for name in sq.SCENARIOS:
        args = parser.parse_args([name, "--config", "c.cfg", "--dim", "40",
                                  "--levels", "3", "--out", "o",
                                  "--format", "json-bundle"])
        assert (args.command, args.config, args.dim, args.levels, args.out,
                args.format) == (name, "c.cfg", 40, 3, "o", "json-bundle")


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
    # the 9-point grid only names the table; it is too coarse for its values
    with pytest.warns(GridResolutionWarning, match=table):
        assert list(sq.run_scenario(spec).tables) == [table]


def test_decohere_cat_starts_from_the_configured_eigenstate():
    first_rows = []
    for index in ("0", "1"):
        spec = sq.builtin_scenario("decohere-cat", {
            "run.dim": "80", "run.tau_max": "0.01", "run.record_stride": "1",
            "run.snapshot_stride": "2", "state.index": index,
            "grid.x_points": "9", "grid.p_points": "9"})
        # the 9-point field grid, too coarse for the state, is not checked
        with pytest.warns(GridResolutionWarning):
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
    ("wigner", "grid.x_points = 1\n", "grid.x_points"),
    ("spectrum", "grid.p_points = 1\nsweep.step = 0.25\n", "grid.p_points"),
    ("wigner", "grid.x_max = -20\n", "grid.x_max"),
    ("wigner", "grid.p_min = 16\n", "grid.p_max"),
    ("wigner", "run.dtau = -1\n", "run.dtau"),
    ("evolve", "bath.damping = 0.05\nrun.dtau = 0\n", "run.dtau"),
    ("evolve", "bath.damping = 0.05\nrun.tau_max = -1\n", "run.tau_max"),
    ("spectrum", "sweep.step = 0\n", "sweep.step"),
    # with two broken rules the earlier one in ScenarioSpec's list is named
    ("wigner", "state.kind = cat\ngrid.x_points = 1\n",
     "config error: state.kind = 'cat' must be one of eigenstate, coherent, "
     "superposition"),
    ("wigner", "grid.x_max = -20\nsweep.step = 0\n",
     "config error: grid.x_max = -20.0 must be > -16.0"),
    ("eigenstates", "sweep.levels = 0\nrun.dtau = 0\n",
     "config error: sweep.levels = 0 must be in [1, 60]"),
    ("evolve", "bath.damping = 0.05\nrun.tau_max = -1\nrun.record_stride = 0\n",
     "config error: run.tau_max = -1.0 must be in [0.0, inf]"),
    ("evolve", "bath.damping = 0.05\nrun.record_stride = 0\n"
     "run.snapshot_stride = 0\n",
     "config error: run.record_stride = 0 must be in [1, inf]"),
    ("evolve", "", "config error: evolve needs bath.* settings"),
    # a StepSizeError is a SquidSimError but not a ConfigError
    ("evolve", "bath.damping = 0.01\nrun.dtau = 1\nrun.tau_max = 2\n",
     "squidsim: error: dtau * spectral bound"),
    # a ring without a Josephson term has one well and no doublet
    ("friedman", "squid.josephson_energy_j = 0\n",
     "squidsim: error: no near-degenerate pair found below the barrier"),
])
def test_cli_invalid_values_exit_code(tmp_path, capsys, cmd, text, needle):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("run.dim = 60\n" + text)
    out = tmp_path / "out"
    code = cli_main([cmd, "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert needle in capsys.readouterr().err
    assert not out.exists()


def test_cli_basis_size_below_two_is_reported_under_run_dim(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_main(["wigner", "--dim", "1", "--out", str(out)]) == 2
    assert "config error: run.dim = 1 must be" in capsys.readouterr().err
    assert not out.exists()


def test_run_dim_is_reported_before_the_ranges_relative_to_it():
    with pytest.raises(ConfigError,
                       match=r"^run\.dim = 1 must be in \[2, inf\]$"):
        sq.ScenarioSpec.from_flat({"run.dim": "1", "state.index": "5"})


def _far_doublet_friedman(tmp_path, points, bias=0.25):
    """Run `squidsim scenario friedman`, which must exit 0, on the
    squeeze ring, by default at bias 0.25, whose doublet lies far from the
    origin and reaches n ~ 200, with a points x points grid over +-26."""
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        "squid.capacitance_f = 5e-15\nsquid.inductance_h = 3e-10\n"
        "squid.josephson_energy_j = 3.42074945834759e-21\n"
        f"squid.bias_flux_phi0 = {bias}\n"
        f"grid.x_min = -26\ngrid.x_max = 26\ngrid.x_points = {points}\n"
        f"grid.p_min = -26\ngrid.p_max = 26\ngrid.p_points = {points}\n")
    code = cli_main(["scenario", "friedman", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_friedman_on_a_far_doublet_prints_no_warning(tmp_path, capsys):
    """Classifying the far doublet must not warn about a grid beyond the
    basis support, and a step of 0.12 keeps every Wigner table's
    x-marginal exact and its integral at 1."""
    _far_doublet_friedman(tmp_path, 433)
    assert "squidsim: warning" not in capsys.readouterr().err


def test_cli_friedman_on_a_far_doublet_names_each_coarse_table(tmp_path,
                                                               capsys):
    """A step of 0.2 keeps the x-marginals within 1.6e-5, but the
    x-quadrature of the three tables reads 0.994, 0.976 and 0.957: one
    warning line names each of them."""
    _far_doublet_friedman(tmp_path, 257)
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 3
    for line, theta in zip(lines, ("0.00", "1.57", "3.14")):
        assert line.startswith(
            f"squidsim: warning: Wigner table wigner_theta{theta}.csv: ")
        assert "normalization 0.9" in line


def test_cli_friedman_joins_the_outer_wells_of_the_squeeze_ring(tmp_path):
    """At bias 0 the squeeze ring's wells lie at -11.559, 0 and 11.559, and
    its most nearly degenerate doublet lives in the outer two."""
    _far_doublet_friedman(tmp_path, 257, bias=0.0)
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["pair_indices"] == [27, 28]
    assert meta["pair_well_ordinals"] == {"0": 0, "2": 0}


def test_cli_levels_option_sets_sweep_levels(tmp_path):
    out = tmp_path / "out"
    assert cli_main(["eigenstates", "--dim", "60", "--levels", "2",
                     "--out", str(out)]) == 0
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["config"]["sweep.levels"] == "2"
    assert sorted(os.listdir(out)) == ["eigenstate_0.csv", "eigenstate_1.csv",
                                       "metadata.json"]


def test_cli_unreadable_config_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    code = cli_main(["wigner", "--config", str(tmp_path / "missing.cfg"),
                     "--out", str(out)])
    assert code == 2
    assert "config error: cannot read config" in capsys.readouterr().err
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


def test_cli_leak_past_kept_levels_exit_code(tmp_path, capsys):
    # a T = 20 K bath pumps 1.7e-5 of the population past the kept levels
    cfg = tmp_path / "hot.cfg"
    cfg.write_text("squid.josephson_energy_j = 0\nbath.temperature_k = 20\n"
                   "bath.damping = 0.05\nstate.kind = coherent\n"
                   "state.alpha_im = 1\nrun.dim = 48\nrun.tau_max = 10\n")
    out = tmp_path / "out"
    out.mkdir()
    code = cli_main(["evolve", "--config", str(cfg), "--out", str(out)])
    assert code == 3
    assert "kept energy levels" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_propagation_health_in_metadata(tmp_path):
    spec = sq.builtin_scenario("squeeze", {
        "run.dim": "60", "run.tau_max": "0.1", "run.record_stride": "5"})
    meta = sq.run_scenario(spec).metadata
    assert meta["integrator"]["method"] == (
        "rk4-fixed-step-truncated-energy-eigenbasis")
    for key in ("max_trace_correction", "max_hermiticity_defect",
                "energy_levels_kept", "leaked_population",
                "min_snapshot_eigenvalue"):
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
    assert 0.0 < meta["max_hermiticity_defect"] < 1e-9
    assert meta["min_snapshot_eigenvalue"] > -1e-4


@pytest.mark.parametrize("name", ["decohere-cat", "evolve", "squeeze"])
def test_propagating_scenarios_pass_the_snapshot_stride(monkeypatch, name):
    from squidsim import scenarios
    propagate, strides = scenarios.propagate, []

    def spy(*args, **kwargs):
        strides.append(kwargs["snapshot_stride"])
        return propagate(*args, **kwargs)

    monkeypatch.setattr(scenarios, "propagate", spy)
    spec = sq.builtin_scenario(name, {
        "run.dim": "40", "run.tau_max": "0.02", "run.snapshot_stride": "2",
        "bath.damping": "0.05", "grid.x_points": "9", "grid.p_points": "9"})
    # of the three, decohere-cat alone writes Wigner tables, on a 9-point
    # grid too coarse for its state
    with (pytest.warns(GridResolutionWarning) if name == "decohere-cat"
          else contextlib.nullcontext()):
        sq.run_scenario(spec)
    assert strides and set(strides) == {2}
