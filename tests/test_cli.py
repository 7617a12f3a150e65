import json
import re

import numpy as np
import pytest

from magschro import cli, mesh


MINIMAL_SIMULATE = """
kind = "simulate"
grid.dim = 1
grid.extents = 1.0
grid.n = 64
generator = "A0"
potential.preset = "zero"
T = 0.5
dt = 0.002
seed = 3
"""


def test_config_roundtrip():
    cfg = cli.ExperimentConfig.parse(MINIMAL_SIMULATE)
    text = cfg.emit()
    cfg2 = cli.ExperimentConfig.parse(text)
    assert cfg2.kind == cfg.kind
    assert cfg2.values == cfg.values


def test_config_json_alternative():
    doc = {"kind": "simulate", "grid": {"dim": 1, "n": 64, "extents": 1.0},
           "T": 0.5, "dt": 0.002}
    cfg = cli.ExperimentConfig.parse(json.dumps(doc))
    assert cfg.kind == "simulate"
    assert cfg.values["grid.n"] == 64
    assert cfg.values["T"] == 0.5


def test_config_rejects_unknown_kind():
    with pytest.raises(cli.ConfigError):
        cli.ExperimentConfig.parse('kind = "nonsense"\n')


def test_config_rejects_missing_kind():
    with pytest.raises(cli.ConfigError, match="kind"):
        cli.ExperimentConfig.parse('grid.n = 8\n')


def test_minimal_simulate_run(tmp_path):
    cfg = cli.ExperimentConfig.parse(MINIMAL_SIMULATE)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["kind"] == "simulate"
    assert manifest["verdicts"]["conservation"]["pass"]
    lines = (tmp_path / "energy.csv").read_text().splitlines()
    energies = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(energies - energies[0])) < 1e-9 * energies[0]


def test_a2_without_split_names_boundary_field(tmp_path):
    text = MINIMAL_SIMULATE.replace('generator = "A0"', 'generator = "A2"')
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match="boundary_split"):
        cli.run(cfg, out_dir=tmp_path)


@pytest.mark.parametrize("line", [
    "dt = NaN", "dt = -0.002", "dt = 0", "T = Infinity", "T = -1.0", 'T = "soon"',
    "snapshot_stride = 0", "snapshot_stride = NaN", "snapshot_stride = 0.5",
    'scheme = "expansion"',
])
def test_simulate_bad_numbers_are_config_errors(tmp_path, line):
    key = line.split()[0]
    text = "\n".join(l for l in MINIMAL_SIMULATE.splitlines()
                     if not l.startswith(key + " ")) + "\n" + line + "\n"
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=key):
        cli.run(cfg, out_dir=tmp_path / "run")
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "main")]) == 2


GRID_CONFIGS = {
    "hautus": """
kind = "hautus"
grid.dim = 1
grid.n = 32
omega = "all"
mu.count = 2
aleph0.grid = [0.0]
""",
    "resolvent-scan": """
kind = "resolvent-scan"
grid.dim = 1
grid.n = 32
generator = "A0"
mu.count = 4
""",
}


@pytest.mark.parametrize("kind, line", [
    ("hautus", "aleph0.grid = [NaN]"), ("hautus", "aleph0.grid = [-1.0]"),
    ("hautus", "aleph0.grid = []"), ("hautus", "mu.grid = [NaN]"),
    ("hautus", "mu.count = 0"), ("hautus", "mu.count = -3"),
    ("resolvent-scan", "mu.count = 0"), ("resolvent-scan", "mu.grid = [NaN, -5]"),
    ("resolvent-scan", "mu.grid = []"), ("resolvent-scan", "mu.start = Infinity"),
])
def test_bad_grids_are_config_errors(tmp_path, kind, line):
    key = line.split()[0]
    text = "\n".join(l for l in GRID_CONFIGS[kind].splitlines()
                     if not l.startswith(key + " ")) + "\n" + line + "\n"
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=re.escape(key)):
        cli.run(cfg, out_dir=tmp_path / "run")
    cfg_path = tmp_path / "grid.cfg"
    cfg_path.write_text(text)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "main")]) == 2


def test_byte_identical_reruns(tmp_path):
    cfg = cli.ExperimentConfig.parse(MINIMAL_SIMULATE)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    cli.run(cfg, out_dir=out1)
    cli.run(cfg, out_dir=out2)
    for name in ("energy.csv", "snapshots.bin", "snapshots.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("timings")
    m2.pop("timings")
    assert m1 == m2


def test_report_of_finished_run(tmp_path, capsys):
    cfg = cli.ExperimentConfig.parse(MINIMAL_SIMULATE)
    cli.run(cfg, out_dir=tmp_path)
    text = cli.report(tmp_path / "manifest.json")
    assert "conservation: PASS" in text


# the 2D stepping configs of the benchmark's stepping-2d workload, and an A1
# and a non-separable twin of the first
STEPPING_2D = {
    "simulate-a2-2d": ({
        "kind": "simulate", "grid.dim": 2, "grid.extents": 1.0, "grid.n": 64,
        "generator": "A2", "split.x0": [-0.3, 0.5], "damping.d_preset": "m-dot-nu",
        "T": 0.1, "dt": 5e-4}, "modes+schur"),
    "multiplier-check-2d": ({
        "kind": "multiplier-check", "grid.dim": 2, "grid.extents": 1.0, "grid.n": 33,
        "T": 0.05, "dt": 5e-4}, "modes"),
    "simulate-a1-2d": ({
        "kind": "simulate", "grid.dim": 2, "grid.n": 16, "generator": "A1",
        "damping.c_preset": "constant", "T": 0.01, "dt": 5e-4}, "superlu"),
    "simulate-a2-2d-curl": ({
        "kind": "simulate", "grid.dim": 2, "grid.n": 16, "generator": "A2",
        "split.x0": [-0.3, 0.5], "damping.d_preset": "m-dot-nu", "potential.preset": "tabulated",
        "T": 0.01, "dt": 5e-4}, "superlu"),
    "simulate-a1-1d": ({
        "kind": "simulate", "grid.dim": 1, "grid.n": 32, "generator": "A1",
        "damping.c_preset": "constant", "T": 0.01, "dt": 5e-4}, "band"),
}


@pytest.mark.parametrize("name", sorted(STEPPING_2D))
def test_stepping_manifest_names_the_crank_nicolson_route(tmp_path, monkeypatch, name):
    """The simulate and multiplier-check manifests name the Crank-Nicolson
    route, and ``report`` prints it.  stepping-2d's two 2D generators run in
    closed-form modes and factor nothing; A1 and a potential of nonzero curl
    make one SuperLU factor, 1D none."""
    import scipy.sparse.linalg as spla

    values, route = STEPPING_2D[name]
    values = dict(values)
    if values.get("potential.preset") == "tabulated":
        grid = mesh.build_grid(2, 1.0, 16)
        x, y = grid.coords.T
        values["potential.values"] = (3.0 * np.column_stack([-(y - 0.5), x - 0.5])).tolist()
    factors, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *args, **kw: factors.append(1) or splu(*args, **kw))
    assert cli.run(cli.ExperimentConfig(values.pop("kind"), values), out_dir=tmp_path) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["crank_nicolson_route"] == route
    assert f"crank-nicolson route: {route}" in cli.report(tmp_path / "manifest.json")
    assert len(factors) == (1 if route == "superlu" else 0)


def test_report_missing_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        cli.report(tmp_path / "nope.json")


def test_report_corrupt_manifest(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    with pytest.raises(ValueError, match="corrupt"):
        cli.report(bad)


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL_SIMULATE)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["report", str(out / "manifest.json")]) == 0
    # mismatched kind is a config error
    assert cli.main(["hautus", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert cli.main(["report", str(tmp_path / "missing.json")]) == 2


def test_gauge_check_run(tmp_path):
    text = """
kind = "gauge-check"
grid.dim = 1
grid.n = 48
potential.preset = "sine"
potential.amplitude = 0.4
potential.frequency = 2.0
"""
    cfg = cli.ExperimentConfig.parse(text)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code == 0
    doc = json.loads((tmp_path / "gauge.json").read_text())
    assert doc["conjugation_residual"] < 1e-12
    assert doc["reduction_residual"] < 1e-12


def test_gauge_check_spectra_can_disagree(tmp_path, monkeypatch):
    """spectra_agree compares against the directly assembled generator: a
    shifted potential with nonzero curl changes that spectrum and fails it."""
    from magschro import magop

    orig = magop.potential_plus_edge_gradient

    def with_curl(a, psi):
        p = orig(a, psi)
        field = magop.MagneticPotential.from_callable(
            a.grid, lambda x: 20.0 * np.column_stack([-x[:, 1], x[:, 0]]))
        edges = tuple(e + f for e, f in zip(p.edge_values, field.edge_values))
        return magop.MagneticPotential._finish(a.grid, p.values + field.values, edges)

    monkeypatch.setattr(magop, "potential_plus_edge_gradient", with_curl)
    text = """
kind = "gauge-check"
grid.dim = 2
grid.n = 10
potential.preset = "sine"
potential.amplitude = 0.3
"""
    assert cli.run(cli.ExperimentConfig.parse(text), out_dir=tmp_path) == 1
    verdicts = json.loads((tmp_path / "manifest.json").read_text())["verdicts"]
    assert verdicts["spectra_agree"]["pass"] is False
    assert json.loads((tmp_path / "gauge.json").read_text())["spectrum_residual"] > 1e-3


def test_resolvent_scan_run(tmp_path):
    text = """
kind = "resolvent-scan"
grid.dim = 1
grid.n = 48
generator = "A1"
damping.c_preset = "box"
damping.c0 = 4.0
damping.omega = [[0.0], [0.3]]
mu.start = -120.0
mu.stop = -5.0
mu.count = 8
"""
    cfg = cli.ExperimentConfig.parse(text)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["points"] >= 2
    products = summary["shift_invert_products"]
    assert len(products) == 8 and all(isinstance(p, int) and p > 0 for p in products)


@pytest.mark.parametrize("mu", ["mu.grid = [-5.0, 5.0]",
                                "mu.start = 5.0\nmu.stop = 5.0\nmu.count = 3"])
def test_resolvent_scan_at_one_abscissa_has_no_fit(tmp_path, mu):
    """Points at one |mu| are no growth law: the run reports no C, K or p
    instead of a rank-deficient least-squares fit."""
    text = f"""
kind = "resolvent-scan"
grid.dim = 1
grid.n = 16
generator = "A1"
damping.c_preset = "constant"
{mu}
"""
    assert cli.run(cli.ExperimentConfig.parse(text), out_dir=tmp_path) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["failures"] == [] and summary["points"] == 0
    assert all(summary[key] is None for key in ("C", "K", "p", "C_free", "K_free"))
    verdict = json.loads((tmp_path / "manifest.json").read_text())["verdicts"]["growth_fit"]
    assert verdict["K_hat"] is None and verdict["p_hat"] is None


def test_observability_run(tmp_path):
    text = """
kind = "observability"
grid.dim = 1
grid.n = 48
T = 1.0
observation.kind = "interior-l2"
observation.omega = [[0.0], [0.4]]
"""
    cfg = cli.ExperimentConfig.parse(text)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["C_obs"] > 0


OBSERVABILITY_CN = """
kind = "observability"
grid.dim = 1
grid.n = 32
observation.kind = "interior-l2"
observation.omega = [[0.0], [0.4]]
method = "cn"
T = 0.1
dt = 0.01
"""


@pytest.mark.parametrize("line", [
    'method = "foo"', "stride = 0", "T = NaN", "dt = 0", 'dt = "abc"', "T = 0.105",
])
def test_observability_bad_numbers_are_config_errors(tmp_path, line):
    key = line.split()[0]
    text = "\n".join(l for l in OBSERVABILITY_CN.splitlines()
                     if not l.startswith(key + " ")) + "\n" + line + "\n"
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=key):
        cli.run(cfg, out_dir=tmp_path / "run")
    cfg_path = tmp_path / "obs.cfg"
    cfg_path.write_text(text)
    assert cli.main(["observability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "main")]) == 2


BOUNDARY_OBSERVABILITY = """
kind = "observability"
grid.dim = 1
grid.n = 32
observation.kind = "boundary-conormal"
split.x0 = [-0.3]
T = 0.5
"""


@pytest.mark.parametrize("part, nodes", [("gamma0", 1), ("all", 2)])
def test_observation_part_picks_the_boundary_nodes(tmp_path, part, nodes):
    cfg = cli.ExperimentConfig.parse(BOUNDARY_OBSERVABILITY + f'observation.part = "{part}"\n')
    assert cli.run(cfg, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["observation"] == f"boundary-conormal[{nodes} nodes]"
    # the whole boundary needs no split; gamma0 does
    cfg = cli.ExperimentConfig.parse(BOUNDARY_OBSERVABILITY.replace("split.x0 = [-0.3]\n", "")
                                     + f'observation.part = "{part}"\n')
    if part == "all":
        assert cli.run(cfg, out_dir=tmp_path / "no-split") == 0
        doc = json.loads((tmp_path / "no-split" / "report.json").read_text())
        assert doc["observation"] == f"boundary-conormal[{nodes} nodes]"
    else:
        with pytest.raises(cli.ConfigError, match=r"^boundary_split: split\.x0 is required"):
            cli.run(cfg, out_dir=tmp_path / "no-split")


@pytest.mark.parametrize("part", ["gamma1", "gama0", "ALL", "none"])
def test_unknown_observation_part_is_a_config_error(tmp_path, part):
    text = BOUNDARY_OBSERVABILITY + f'observation.part = "{part}"\n'
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=r"^observation\.part: expected"):
        cli.run(cfg, out_dir=tmp_path / "run")
    assert not (tmp_path / "run" / "report.json").exists()
    cfg_path = tmp_path / "obs.cfg"
    cfg_path.write_text(text)
    assert cli.main(["observability", "--config", str(cfg_path),
                     "--out", str(tmp_path / "main")]) == 2


@pytest.mark.parametrize("kind, outputs", [("simulate", "energy.csv"),
                                           ("multiplier-check", "residuals.json")])
def test_horizon_off_the_step_is_a_config_error(tmp_path, kind, outputs):
    """T = 1 is not a whole number of dt = 0.3 steps: refused, not run to 1.2."""
    text = f'kind = "{kind}"\ngrid.dim = 1\ngrid.n = 32\nT = 1.0\ndt = 0.3\n'
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=r"^T: must be a whole multiple of dt"):
        cli.run(cfg, out_dir=tmp_path / "run")
    assert not (tmp_path / "run" / outputs).exists()
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "main")]) == 2


def test_simulate_default_step_ends_at_T(tmp_path):
    text = 'kind = "simulate"\ngrid.dim = 1\ngrid.n = 32\nT = 0.05\n'
    assert cli.run(cli.ExperimentConfig.parse(text), out_dir=tmp_path) == 0
    last = (tmp_path / "energy.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == pytest.approx(0.05, rel=1e-15)


def test_observability_reports_rank_bound(tmp_path):
    cfg = cli.ExperimentConfig.parse(OBSERVABILITY_CN.replace(
        'observation.omega = [[0.0], [0.4]]', 'observation.omega = [[0.0], [0.05]]'))
    cli.run(cfg, out_dir=tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    # one observed node, 11 time samples, 31 unknowns
    assert doc["rank_bound"] == 11
    assert doc["C_obs"] == float("inf")
    assert any("rank <= " in w for w in doc["warnings"])


def test_hautus_run(tmp_path):
    text = """
kind = "hautus"
grid.dim = 1
grid.n = 32
omega = "all"
mu.grid = [-40.0, -10.0]
aleph0.grid = [0.0]
"""
    cfg = cli.ExperimentConfig.parse(text)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "hautus.json").read_text())
    assert doc["global_aleph1"] == [1.0]


def test_carleman_certify_run(tmp_path):
    text = """
kind = "carleman-certify"
grid.dim = 1
grid.n = 33
weight.preset = "quadratic"
weight.x0 = [-1.0]
weight.lambda = 6.0
region = "all"
samples = 8
"""
    cfg = cli.ExperimentConfig.parse(text)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "certification.json").read_text())
    assert doc["pseudoconvexity_margin"] >= 2.0 - 1e-8


def test_multiplier_check_run(tmp_path):
    text = """
kind = "multiplier-check"
grid.dim = 1
grid.n = 33
T = 0.1
dt = 0.001
"""
    cfg = cli.ExperimentConfig.parse(text)
    assert cli.run(cfg, out_dir=tmp_path) == 0


@pytest.mark.parametrize("preset", ["zero", "tabulated"])
def test_multiplier_check_reports_the_magnetic_term(tmp_path, preset):
    """The tabulated a = 3 (-(y - 1/2), x - 1/2) has curl 6: its magnetic term
    is nonzero; the zero potential's is exactly 0."""
    values = {"grid.dim": 2, "grid.n": 9, "T": 0.01, "dt": 0.001, "potential.preset": preset}
    if preset == "tabulated":
        x, y = mesh.build_grid(2, 1.0, 9).coords.T
        values["potential.values"] = (3.0 * np.column_stack([0.5 - y, x - 0.5])).tolist()
    assert cli.run(cli.ExperimentConfig("multiplier-check", values), out_dir=tmp_path) == 0
    term = json.loads((tmp_path / "residuals.json").read_text())["terms"]["volume_magnetic"]
    assert (term != 0.0) if preset == "tabulated" else term == 0.0


def test_product_observability_run(tmp_path):
    text = """
kind = "product-observability"
grid.n1 = 12
grid.n2 = 12
T = 1.0
dt = 0.01
omega1 = [[0.0], [0.35]]
"""
    cfg = cli.ExperimentConfig.parse(text)
    assert cli.run(cfg, out_dir=tmp_path) == 0
    doc = json.loads((tmp_path / "comparison.json").read_text())
    assert doc["tensor_residual"] < 1e-12


def test_carleman_probe_run(tmp_path):
    text = """
kind = "carleman-probe"
grid.dim = 1
grid.n = 33
weight.preset = "quadratic"
weight.x0 = [-1.0]
weight.lambda = 0.4
weight.beta = 0.5
bumps = 6
"""
    cfg = cli.ExperimentConfig.parse(text)
    code = cli.run(cfg, out_dir=tmp_path)
    assert code in (0, 1)      # trend verdict is a measurement, not a given
    assert (tmp_path / "probe.csv").exists()


@pytest.mark.parametrize("dim, n", [(1, 8), (2, 10)])
def test_carleman_probe_default_taus_fit_a_coarse_window(tmp_path, dim, n):
    """Where the aliasing window 0.5/h ends below 5, the default tau grid is 8
    distinct values in it, not a config error."""
    text = f"""
kind = "carleman-probe"
grid.dim = {dim}
grid.n = {n}
weight.preset = "quadratic"
weight.x0 = {[-1.0] * dim}
weight.lambda = 0.4
bumps = 4
"""
    cfg_path = tmp_path / "probe.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["carleman-probe", "--config", str(cfg_path), "--out", str(out)]) in (0, 1)
    taus = np.loadtxt(out / "probe.csv", delimiter=",", skiprows=1, usecols=0)
    assert np.unique(taus).size == 8 and taus.min() > 0


BAD_NUMBER_BASES = {
    "product-observability": """
kind = "product-observability"
grid.n1 = 12
grid.n2 = 12
T = 1.0
dt = 0.01
""",
    "carleman-certify": """
kind = "carleman-certify"
grid.dim = 1
grid.n = 17
weight.preset = "quadratic"
weight.x0 = [-1.0]
weight.lambda = 6.0
samples = 4
""",
    "carleman-probe": """
kind = "carleman-probe"
grid.dim = 1
grid.n = 17
weight.preset = "quadratic"
weight.x0 = [-1.0]
weight.lambda = 0.4
bumps = 2
""",
    "gauge-check": """
kind = "gauge-check"
grid.dim = 1
grid.n = 16
potential.preset = "sine"
""",
    "simulate": """
kind = "simulate"
grid.dim = 1
grid.n = 16
generator = "A3"
split.x0 = [-0.3]
potential.preset = "constant"
potential.value = 0.5
damping.c_preset = "constant"
damping.d_preset = "constant"
u0.mode = 1
T = 0.01
dt = 0.005
""",
    "resolvent-scan": """
kind = "resolvent-scan"
grid.dim = 1
grid.n = 8
potential.preset = "tabulated"
potential.values = [0.0, 0.1, 0.2, 0.3, 0.3, 0.2, 0.1, 0.0]
mu.count = 2
""",
    "multiplier-check": """
kind = "multiplier-check"
grid.dim = 1
grid.n = 16
T = 0.01
dt = 0.005
tolerance = 0.1
""",
    "carleman-certify-linear": """
kind = "carleman-certify"
grid.dim = 2
grid.n = 9
weight.preset = "linear"
weight.offset = 2.0
samples = 4
""",
    "carleman-certify-collar": """
kind = "carleman-certify"
grid.dim = 1
grid.n = 17
weight.preset = "collar"
weight.collar = [[0.0], [0.2]]
weight.x0 = [-0.5]
samples = 4
""",
}


@pytest.mark.parametrize("kind, line", [
    ("product-observability", "grid.n1 = 2"),
    ("product-observability", "grid.n2 = 3.5"),
    ("product-observability", 'grid.extent1 = "wide"'),
    ("product-observability", 'T = "abc"'),
    ("product-observability", "dt = 0"),
    ("product-observability", 'tol = "loose"'),
    ("carleman-certify", "tau.grid = []"),
    ("carleman-certify", "tau.grid = [1.0, NaN]"),
    ("carleman-certify", "tau.grid = [0.0, 1.0]"),
    ("carleman-certify", 'weight.lambda = "big"'),
    ("carleman-certify", 'weight.beta = "x"'),
    ("carleman-certify", "cylinder.ns = 1"),
    ("carleman-certify", "samples = 0"),
    ("carleman-certify", 'seed = "abc"'),
    ("carleman-probe", 'bumps = "many"'),
    ("carleman-probe", "cylinder.ns = 3"),
    ("carleman-probe", "tau.grid = []"),
    ("carleman-probe", 'tau.grid = "fast"'),
    ("carleman-probe", "tau.grid = [1000.0]"),       # beyond the window 0.5/h
    ("carleman-probe", "tau.grid = [-1.0, 5.0]"),
    ("gauge-check", 'gauge.amplitude = "big"'),
    ("gauge-check", 'potential.amplitude = "abc"'),
    ("gauge-check", 'potential.frequency = "fast"'),
    ("gauge-check", 'potential.phase = "late"'),
    ("simulate", "grid.dim = 2.5"),
    ("simulate", 'potential.value = "x"'),
    ("simulate", "potential.value = [0.1, 0.2]"),
    ("simulate", 'damping.c0 = "abc"'),
    ("simulate", "damping.c0 = -1.0"),
    ("simulate", 'damping.d0 = "abc"'),
    ("simulate", 'u0.mode = "x"'),
    ("simulate", "u0.mode = 1.5"),
    ("simulate", "u0.mode = [1, 2]"),
    ("simulate", "split.x0 = [0.5, 0.5]"),
    ("resolvent-scan", 'potential.values = "x"'),
    ("resolvent-scan", "potential.values = [0.0, 1.0]"),
    ("multiplier-check", 'tolerance = "tight"'),
    ("multiplier-check", 'multiplier.x0 = "abc"'),
    ("carleman-certify-linear", 'weight.offset = "abc"'),
    ("carleman-certify-linear", "weight.offset = -5.0"),     # psi <= 0 somewhere
    ("carleman-certify-linear", "weight.direction = [1.0]"),
    ("carleman-certify-linear", "weight.direction = [1.0, 0.0, 0.0]"),
    ("carleman-certify", "weight.x0 = [-1.0, 0.5]"),
    ("carleman-probe", "weight.x0 = []"),
    ("carleman-certify-collar", "weight.x0 = [0.5]"),         # inside the domain
    ("carleman-certify-collar", "weight.x0 = [-0.5, 0.0]"),
    ("simulate", "grid.n = 16.7"),
    ("simulate", "grid.n = 3"),
    ("simulate", 'grid.n = "many"'),
    ("simulate", "grid.n = [16, 16]"),
    ("simulate", "grid.extents = 0.0"),
    ("simulate", "grid.extents = [1.0, NaN]"),
    ("simulate", "grid.extents = [1.0, 2.0]"),
])
def test_bad_numbers_are_config_errors(tmp_path, kind, line):
    key = line.split()[0]
    text = "\n".join(l for l in BAD_NUMBER_BASES[kind].splitlines()
                     if not l.startswith(key + " ")) + "\n" + line + "\n"
    cfg = cli.ExperimentConfig.parse(text)
    with pytest.raises(cli.ConfigError, match=key):
        cli.run(cfg, out_dir=tmp_path / "run")
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text)
    assert cli.main([cfg.kind, "--config", str(cfg_path), "--out", str(tmp_path / "main")]) == 2


@pytest.mark.parametrize("text", [None, '{"kind": "simulate", "grid": {"n": 16'])
def test_unreadable_config_files_are_config_errors(tmp_path, capsys, text):
    cfg_path = tmp_path / "run.cfg"
    if text is not None:
        cfg_path.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


# refused configs: (config text, the stderr line after "config error: ")
REFUSED = {
    "observability-eig": ("""
kind = "observability"
grid.dim = 2
grid.n = 67
method = "eig"
""", "grid.n: the modal eigendecomposition has dense order 4225, above the dense limit 4096"),
    # a 1D generator's closed-form modes are refused before their sine table
    "observability-1d": ("""
kind = "observability"
grid.dim = 1
grid.n = 4100
""", "grid.n: the modal eigendecomposition has dense order 4098, above the dense limit 4096"),
    # cn reads the modes eig does: refused at the order of the unknowns,
    # whatever the sampled rank m s (2210 rows x 5 samples here)
    "observability-cn-state": ("""
kind = "observability"
grid.dim = 2
grid.n = 67
method = "cn"
observation.omega = [[0.0, 0.0], [0.5, 1.0]]
T = 0.004
dt = 0.001
""", "grid.n: the modal eigendecomposition has dense order 4225, above the dense limit 4096"),
    # 2080 observed rows x 2 samples = 4160 < 4225 unknowns
    "observability-cn-snapshot": ("""
kind = "observability"
grid.dim = 2
grid.n = 67
method = "cn"
observation.omega = [[0.0, 0.0], [0.49, 1.0]]
T = 0.001
dt = 0.001
""", "grid.n: the modal eigendecomposition has dense order 4225, above the dense limit 4096"),
    # 36 observed rows x 5 samples = 180 < 4225 unknowns: a rank-deficient
    # Gramian is refused at order 4225 too
    "observability-cn-narrow": ("""
kind = "observability"
grid.dim = 2
grid.n = 67
method = "cn"
observation.omega = [[0.0, 0.0], [0.1, 0.1]]
T = 0.004
dt = 0.001
""", "grid.n: the modal eigendecomposition has dense order 4225, above the dense limit 4096"),
    "product-observability": ("""
kind = "product-observability"
grid.n1 = 100
grid.n2 = 100
""", "grid.n1, grid.n2: the product-space Gramian has dense order 9604, "
     "above the dense limit 4096"),
    "product-observability-omega1-off-state": ("""
kind = "product-observability"
grid.n1 = 12
grid.n2 = 12
omega1 = [[0.0], [0.0]]
""", "omega1: the box holds no state node of the generator"),
    "observability-omega-off-state": ("""
kind = "observability"
grid.dim = 2
grid.n = 12
observation.omega = [[0, 0], [0, 1]]
""", "observation.omega: the box holds no state node of the generator"),
    "hautus": ("""
kind = "hautus"
grid.dim = 2
grid.n = 67
omega = [[0.0, 0.0], [0.3, 1.0]]
mu.count = 2
""", "grid.n: the Hautus pencil has dense order 4225, above the dense limit 4096"),
    "gauge-check": ("""
kind = "gauge-check"
grid.dim = 2
grid.n = 67
""", "grid.n: the full spectrum has dense order 4225, above the dense limit 4096"),
    "carleman-certify-region-off-grid": ("""
kind = "carleman-certify"
grid.dim = 2
grid.n = 12
weight.x0 = [-0.3, 0.5]
region = [[2.0, 2.0], [3.0, 3.0]]
""", "region: the box [[2.0, 2.0], [3.0, 3.0]] holds no grid node"),
    "carleman-certify-region-inverted": ("""
kind = "carleman-certify"
grid.dim = 2
grid.n = 12
weight.x0 = [-0.3, 0.5]
region = [[0.8, 0.2], [0.2, 0.8]]
""", "region: the box [[0.8, 0.2], [0.2, 0.8]] holds no grid node"),
    # an empty box would run A1 with c = 0
    "simulate-damping-box-off-grid": ("""
kind = "simulate"
grid.dim = 1
grid.n = 16
generator = "A1"
damping.c_preset = "box"
damping.omega = [[2.0], [3.0]]
T = 0.05
dt = 0.01
""", "damping.omega: the box [[2.0], [3.0]] holds no grid node"),
    # 2D corners on an interval once damped [0, 0.3], the second coordinates ignored
    "simulate-damping-box-wrong-dim": ("""
kind = "simulate"
grid.dim = 1
grid.n = 16
generator = "A1"
damping.c_preset = "box"
damping.omega = [[0.0, 0.0], [0.3, 1.0]]
T = 0.05
dt = 0.01
""", "damping.omega: expected 'all' or [lo, hi] box, got [[0.0, 0.0], [0.3, 1.0]] "
     "(a 1D grid takes box corners of 1 coordinates, got 2 and 2)"),
    # exp(800 psi) overflows on the grid (and underflows at the cylinder ends)
    "carleman-certify-lambda-out-of-range": ("""
kind = "carleman-certify"
grid.dim = 2
grid.n = 12
weight.x0 = [-0.3, 0.5]
weight.lambda = 800
""", "weight.lambda: exp(lambda psi) over- or underflows at lambda = 800 "
     "(psi from 1.09 to 2.94)"),
    # exp(20 psi) is in range on the grid and underflows only at the cylinder
    # ends, where psi = -10 s^2 + |x - x0|^2 reaches -39: beta's doing
    "carleman-probe-beta-underflow": ("""
kind = "carleman-probe"
grid.dim = 1
grid.n = 12
weight.x0 = [-0.3]
weight.lambda = 20
weight.beta = 10
""", "weight.beta: exp(lambda psi) over- or underflows at lambda = 20 "
     "(psi from -38.9 to 2.36) with beta = 10"),
    # the grids are intervals and rectangles, though mesh builds any dimension
    "carleman-certify-grid-dim-3": ("""
kind = "carleman-certify"
grid.dim = 3
grid.n = 8
""", "grid.dim: must be 1 or 2, got 3"),
    # a stride of 2.5 once ran as stride 2
    "simulate-snapshot-stride-fraction": ("""
kind = "simulate"
grid.dim = 1
grid.n = 16
T = 0.05
dt = 0.01
snapshot_stride = 2.5
""", "snapshot_stride: must be a whole number >= 1, got 2.5"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_inputs_are_config_errors(tmp_path, capsys, name):
    """Inputs the handlers refuse (dense orders above the limit, boxes off the
    grid or the state, weights out of double range, named by the key that
    puts them there, fractional counts) end in exit 2 and one
    ``config error:`` line, not a traceback."""
    text, message = REFUSED[name]
    cfg_path = tmp_path / "refused.cfg"
    cfg_path.write_text(text)
    kind = cli.ExperimentConfig.parse(text).kind
    assert cli.main([kind, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_linalg_error_in_gramian_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    """Only the dense-limit refusal is relabelled: a LinAlgError (also a
    ValueError) raised inside the Gramian is a failed run (exit 1) whose
    manifest records it, not a config error."""
    from magschro import obsgram

    def diverged(*args):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(obsgram, "_extremes_from_modal", diverged)
    cfg_path = tmp_path / "obs.cfg"
    cfg_path.write_text("kind = \"observability\"\ngrid.dim = 1\ngrid.n = 16\n")
    out = tmp_path / "out"
    assert cli.main(["observability", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not any(line.startswith("config error:")
                   for line in capsys.readouterr().err.splitlines())
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "error"
    assert doc["error"] == {"type": "LinAlgError", "message": "eigenvalues did not converge"}
    assert doc["verdicts"] == {} and doc["outputs"] == []


def test_energy_increase_is_a_failed_run_with_a_manifest(tmp_path, monkeypatch, capsys):
    """A damped A1 run completes with status "ok"; made anti-damped, it trips
    simulate's energy guard, exits 1, leaves no partial snapshot record, the
    manifest names the error and ``report`` prints it."""
    import dataclasses

    cfg_path = tmp_path / "sim.cfg"
    cfg_path.write_text(MINIMAL_SIMULATE.replace('"A0"', '"A1"')
                        + 'damping.c_preset = "constant"\n')
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "manifest.json").read_text())["status"] == "ok"

    build = cli._build_generator

    def anti_damped(config, kind=None):
        gen = build(config, kind)
        return dataclasses.replace(gen, damping_c=gen.damping_c - 2.0)

    monkeypatch.setattr(cli, "_build_generator", anti_damped)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    doc = json.loads((out / "manifest.json").read_text())
    assert doc["status"] == "error"
    assert doc["error"]["type"] == "EnergyIncreaseError"
    assert doc["error"]["message"].startswith("energy rose by ")
    assert doc["verdicts"] == {} and doc["outputs"] == []
    assert not (out / "snapshots.bin").exists() and not (out / "snapshots.json").exists()
    assert cli.main(["report", str(out / "manifest.json")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed == ["experiment: simulate",
                       f"error: EnergyIncreaseError: {doc['error']['message']}"]
