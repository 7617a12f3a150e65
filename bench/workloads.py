"""Experiment configs of the four benchmark workloads.

Each workload is a fixed list of CLI experiments.  The only inputs that vary
with the benchmark seed are the random ones: the ``random-smooth`` initial
state of the A2 simulation and the Carleman probe bumps.  Everything else is
fixed, so seed-independent references apply to it on every seed.

Step counts, frequency counts and modal grids are kept small, so that each
experiment takes well under half a second and a run holds tens of samples of
it (NOTES.md, "Steadiness").  The reasons for each workload are in NOTES.md.
"""

# (experiment name, config values).  ``seed`` marks the configs whose random
# input takes the workload seed; they get ``seed = <workload seed>``.
SEEDED = "<workload-seed>"

WORKLOADS = {
    "stepping-1d": [
        ("simulate-a1-1d", {
            "kind": "simulate",
            "grid.dim": 1, "grid.extents": 1.0, "grid.n": 256,
            "generator": "A1",
            "potential.preset": "sine", "potential.amplitude": 0.3,
            "damping.c_preset": "box", "damping.c0": 5.0,
            "damping.omega": [[0.0], [0.3]],
            "T": 4.0, "dt": 2e-3,
        }),
        ("simulate-a2-1d", {
            "kind": "simulate",
            "grid.dim": 1, "grid.extents": 1.0, "grid.n": 256,
            "generator": "A2",
            "split.x0": [-0.3],
            "damping.d_preset": "constant", "damping.d0": 1.0,
            "u0.preset": "random-smooth", "seed": SEEDED,
            "T": 1.0, "dt": 5e-4,
        }),
    ],
    "stepping-2d": [
        ("simulate-a2-2d", {
            "kind": "simulate",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 64,
            "generator": "A2",
            "split.x0": [-0.3, 0.5],
            "damping.d_preset": "m-dot-nu",
            "T": 0.1, "dt": 5e-4,
        }),
        ("observability-cn-1d", {
            "kind": "observability",
            "grid.dim": 1, "grid.extents": 1.0, "grid.n": 256,
            "split.x0": [-0.3],
            "observation.kind": "boundary-conormal",
            "observation.part": "gamma0",
            "method": "cn", "T": 0.1, "dt": 1e-3,
        }),
        ("multiplier-check-2d", {
            "kind": "multiplier-check",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 33,
            "T": 0.05, "dt": 5e-4,
        }),
    ],
    "spectral-sweep": [
        ("resolvent-scan-a1-1d", {
            "kind": "resolvent-scan",
            "grid.dim": 1, "grid.extents": 1.0, "grid.n": 256,
            "generator": "A1",
            "potential.preset": "sine", "potential.amplitude": 0.3,
            "damping.c_preset": "box", "damping.c0": 5.0,
            "damping.omega": [[0.0], [0.3]],
            "mu.start": -400.0, "mu.stop": -5.0, "mu.count": 20,
        }),
        ("resolvent-scan-a3-2d", {
            "kind": "resolvent-scan",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 48,
            "generator": "A3",
            "split.x0": [-0.3, 0.5],
            "damping.d_preset": "m-dot-nu",
            "mu.start": -200.0, "mu.stop": -5.0, "mu.count": 10,
        }),
        ("hautus-1d", {
            "kind": "hautus",
            "grid.dim": 1, "grid.extents": 1.0, "grid.n": 128,
            "omega": [[0.0], [0.3]],
            "mu.start": -200.0, "mu.stop": -5.0, "mu.count": 2,
            "aleph0.grid": [0.0, 1e-4, 1e-2],
        }),
    ],
    "modal-dense": [
        ("observability-eig-2d", {
            "kind": "observability",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 24,
            "observation.kind": "interior-l2",
            "observation.omega": [[0.0, 0.0], [0.3, 1.0]],
            "method": "eig", "T": 1.0,
        }),
        ("product-observability", {
            "kind": "product-observability",
            "grid.n1": 24, "grid.n2": 24,
        }),
        ("gauge-check-a1-2d", {
            "kind": "gauge-check",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 16,
            "generator": "A1",
            "potential.preset": "sine", "potential.amplitude": 0.3,
            "damping.c_preset": "box", "damping.c0": 5.0,
            "damping.omega": [[0.0, 0.0], [0.3, 1.0]],
        }),
        ("carleman-certify-2d", {
            "kind": "carleman-certify",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 24,
            "weight.preset": "quadratic", "weight.x0": [-0.3, 0.5],
        }),
        ("carleman-probe-2d", {
            "kind": "carleman-probe",
            "grid.dim": 2, "grid.extents": 1.0, "grid.n": 24,
            "weight.preset": "quadratic", "weight.x0": [-0.3, 0.5],
            "seed": SEEDED,
        }),
    ],
}


def config_text(values, seed):
    """The experiment as the flat key-value text a CLI user would write."""
    import json

    lines = []
    for key, val in values.items():
        if val == SEEDED:
            val = int(seed)
        lines.append(f"{key} = {json.dumps(val)}")
    return "\n".join(lines) + "\n"


def seeded(values):
    """True when the experiment's random input takes the workload seed."""
    return SEEDED in values.values()


def work(values):
    """(throughput metric, units of work) of one experiment, or None.

    CN steps for ``simulate`` and ``multiplier-check``; steps times
    propagated columns for the ``method="cn"`` Gramian, whose columns are the
    A0 unknowns (the interior nodes); frequency points for resolvent scans;
    (mu, aleph0) cells for the Hautus sweep.
    """
    kind = values["kind"]
    if kind in ("simulate", "multiplier-check"):
        return "simulate_steps_per_s", round(values["T"] / values["dt"])
    if kind == "observability" and values.get("method") == "cn":
        columns = (values["grid.n"] - 2) ** values["grid.dim"]
        return "gramian_column_steps_per_s", round(values["T"] / values["dt"]) * columns
    if kind == "resolvent-scan":
        return "resolvent_points_per_s", values["mu.count"]
    if kind == "hautus":
        return "hautus_cells_per_s", values["mu.count"] * len(values["aleph0.grid"])
    return None
