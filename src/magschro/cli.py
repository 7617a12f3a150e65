"""Experiment orchestration: configs, dispatch, artifacts, and the CLI.

Configs are flat key-value text (dotted section keys, JSON-typed values),
with plain JSON accepted as an alternative input format.  Every run is
reproducible from its config and seed: all randomness flows from one
counter-based generator, and the data artifacts (CSV/JSON) are
byte-identical across reruns.  The manifest echoes the config, library
versions, the output file list, per-invariant verdicts, wall-clock timings
(timings are the one non-reproducible entry), and for the stepping kinds
(``simulate``, ``multiplier-check``) the Crank-Nicolson route that ran:
``band``, ``modes``, ``modes+schur`` or ``superlu`` (``GeneratorMatrix.cayley_route``).

Exit codes: 0 all verdicts pass, 1 invariant failure, 2 config error.  A
handler that raises anything but a config error exits 1 with a manifest whose
``status`` is ``"error"`` and whose ``error`` holds the exception's type and
message; a run that completes has ``status`` ``"ok"``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, magop, mesh, evolve, spectra, obsgram, multiplier, weights


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


KINDS = (
    "simulate", "resolvent-scan", "observability", "product-observability",
    "hautus", "multiplier-check", "carleman-certify", "carleman-probe",
    "gauge-check",
)


@dataclass(eq=False)
class ExperimentConfig:
    kind: str
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise ConfigError(f"{key}: required field missing")
        return self.values[key]

    # -- serialization ---------------------------------------------------

    def emit(self):
        lines = [f"kind = {json.dumps(self.kind)}"]
        for key in sorted(self.values):
            lines.append(f"{key} = {json.dumps(self.values[key], sort_keys=True)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text):
        text = text.strip()
        if text.startswith("{"):
            try:
                doc = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: invalid JSON: {exc}") from None
            flat = _flatten(doc)
        else:
            flat = {}
            for lineno, raw in enumerate(text.splitlines(), 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"line {lineno}: expected 'key = value'")
                key, _, val = line.partition("=")
                key = key.strip()
                val = val.strip()
                try:
                    flat[key] = json.loads(val)
                except json.JSONDecodeError:
                    flat[key] = val
        kind = flat.pop("kind", None)
        if kind is None:
            raise ConfigError("kind: required field missing")
        return cls(kind=kind, values=flat)

    @classmethod
    def from_file(cls, path):
        try:
            text = Path(path).read_text()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from None
        return cls.parse(text)


def _flatten(doc, prefix=""):
    out = {}
    for key, val in doc.items():
        name = f"{prefix}{key}"
        if isinstance(val, dict):
            out.update(_flatten(val, prefix=f"{name}."))
        else:
            out[name] = val
    return out


def _rng(config):
    return np.random.Generator(np.random.Philox(_whole(config, "seed", 0, least=0)))


# ---------------------------------------------------------------------------
# object builders


def _build_grid(config):
    dim = _whole(config, "grid.dim", 1)
    if dim not in (1, 2):
        raise ConfigError(f"grid.dim: must be 1 or 2, got {dim}")
    extents = _per_axis(config, "grid.extents", dim, 1.0)
    n = _per_axis(config, "grid.n", dim, 64)
    if np.any(extents <= 0):
        raise ConfigError(f"grid.extents: must be positive, got {extents.tolist()!r}")
    if np.any((n < 4) | (n != np.floor(n))):
        raise ConfigError(f"grid.n: must be whole numbers >= 4, got {n.tolist()!r}")
    return mesh.build_grid(dim, extents, n.astype(int))


def _build_potential(grid, config):
    preset = config.get("potential.preset", "zero")
    if preset == "zero":
        return magop.MagneticPotential.zero(grid)
    if preset == "constant":
        vals = _per_axis(config, "potential.value", grid.dim, 0.0)
        if vals.size == 1:
            vals = np.repeat(vals, grid.dim)
        return magop.MagneticPotential.from_samples(
            grid, np.tile(vals, (grid.num_nodes, 1)))
    if preset == "sine":
        amp = _finite(config, "potential.amplitude", 0.1)
        freq = _finite(config, "potential.frequency", 2.0)
        phase = _finite(config, "potential.phase", 0.0)

        def fn(pts):
            return amp * np.sin(freq * pts + phase)

        return magop.MagneticPotential.from_callable(grid, fn)
    if preset == "tabulated":
        vals = config.require("potential.values")
        try:
            arr = np.asarray(vals, dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError("values must be finite")
            return magop.MagneticPotential.from_samples(grid, arr)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"potential.values: {exc}") from None
    raise ConfigError(f"potential.preset: unknown preset {preset!r}")


def _box_nodes(grid, spec, key, state_idx=None):
    """The box's nodes, refused when it holds none; with ``state_idx``, also
    when it holds none of those."""
    if spec == "all":
        nodes = np.arange(grid.num_nodes)
    else:
        try:
            lo, hi = spec
            nodes = grid.box_nodes(lo, hi)
        except Exception as exc:
            raise ConfigError(
                f"{key}: expected 'all' or [lo, hi] box, got {spec!r} ({exc})") from exc
        if nodes.size == 0:
            raise ConfigError(f"{key}: the box {spec!r} holds no grid node")
    if state_idx is not None and not np.isin(nodes, state_idx).any():
        raise ConfigError(f"{key}: the box holds no state node of the generator")
    return nodes


def _build_split(grid, config, required=False):
    x0 = config.get("split.x0")
    if x0 is None:
        if required:
            raise ConfigError(
                "boundary_split: split.x0 is required for this experiment")
        return None
    try:
        return mesh.split_boundary(grid, x0)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"split.x0: {exc}") from None


def _build_damping(grid, config, split):
    """The interior and boundary damping (c, d) as fields over the grid nodes."""
    cpre = config.get("damping.c_preset", "none")
    dpre = config.get("damping.d_preset", "none")
    c = np.zeros(grid.num_nodes)
    if cpre == "constant":
        c[:] = _nonnegative(config, "damping.c0", 1.0)
    elif cpre == "box":
        c0 = _nonnegative(config, "damping.c0", 1.0)
        c[_box_nodes(grid, config.require("damping.omega"), "damping.omega")] = c0
    elif cpre != "none":
        raise ConfigError(f"damping.c_preset: unknown preset {cpre!r}")

    d = np.zeros(grid.num_nodes)
    if dpre != "none":
        if split is None or split.gamma0_empty:
            raise ConfigError("boundary_split: boundary damping needs a nonempty gamma0")
        if dpre == "constant":
            d[split.gamma0] = _nonnegative(config, "damping.d0", 1.0)
        elif dpre == "m-dot-nu":
            d[split.gamma0] = np.einsum("ij,ij->i", split.m[split.gamma0],
                                        grid.normals[split.gamma0])
        else:
            raise ConfigError(f"damping.d_preset: unknown preset {dpre!r}")
    return c, d


def _build_generator(config, kind=None):
    scheme = config.get("scheme", "link-phase")
    if scheme != "link-phase":
        raise ConfigError(f"scheme: only 'link-phase' is assembled, got {scheme!r}")
    grid = _build_grid(config)
    pot = _build_potential(grid, config)
    kind = kind or config.get("generator", "A0")
    split = _build_split(grid, config, required=kind in ("A2", "A3"))
    c, d = _build_damping(grid, config, split)
    try:
        gen = magop.assemble_generator(kind, grid, pot, c=c, d=d, split=split)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return gen


def _initial_state(gen, config, rng):
    preset = config.get("u0.preset", "sine-mode")
    grid = gen.grid
    coords = grid.coords[gen.state_idx]
    if preset == "sine-mode":
        k = _numbers(config, "u0.mode", 1)
        if k.size not in (1, grid.dim) or np.any(k < 1) or np.any(k != np.round(k)):
            raise ConfigError(f"u0.mode: expected 1 or {grid.dim} whole numbers >= 1, "
                              f"got {config.get('u0.mode')!r}")
        k = np.repeat(k.astype(int), grid.dim // k.size)
        u = np.ones(gen.size, dtype=complex)
        for ax in range(grid.dim):
            u *= np.sin(k[ax] * np.pi * (coords[:, ax] - grid.origin[ax])
                        / grid.extents[ax])
        u *= np.sqrt(2.0) ** grid.dim
        return u
    if preset == "random-smooth":
        u = np.zeros(gen.size, dtype=complex)
        for _ in range(4):
            kk = rng.integers(1, 4, size=grid.dim)
            amp = rng.normal() + 1j * rng.normal()
            mode = np.ones(gen.size)
            for ax in range(grid.dim):
                mode = mode * np.sin(kk[ax] * np.pi
                                     * (coords[:, ax] - grid.origin[ax])
                                     / grid.extents[ax])
            u = u + amp * mode
        return u
    raise ConfigError(f"u0.preset: unknown preset {preset!r}")


def _finite(config, key, default):
    """The config value as a finite float."""
    val = config.get(key, default)
    try:
        num = float(val)
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: expected a number, got {val!r}") from None
    if not np.isfinite(num):
        raise ConfigError(f"{key}: must be finite, got {val!r}")
    return num


def _positive(config, key, default):
    """The config value as a finite positive float."""
    num = _finite(config, key, default)
    if num <= 0:
        raise ConfigError(f"{key}: must be positive, got {num!r}")
    return num


def _nonnegative(config, key, default):
    """The config value as a finite float >= 0."""
    num = _finite(config, key, default)
    if num < 0:
        raise ConfigError(f"{key}: must be >= 0, got {num!r}")
    return num


def _whole(config, key, default, least=1):
    """The config value as a whole number >= least."""
    num = _finite(config, key, default)
    if num < least or num != int(num):
        raise ConfigError(f"{key}: must be a whole number >= {least}, got {num!r}")
    return int(num)


def _number_list(config, key, default, nonnegative=False):
    """The config value as a nonempty 1D array of finite floats."""
    val = config.get(key, default)
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError):
        arr = np.empty(0)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ConfigError(f"{key}: expected a nonempty list of finite numbers, got {val!r}")
    if nonnegative and np.any(arr < 0):
        raise ConfigError(f"{key}: values must be >= 0, got {val!r}")
    return arr


def _numbers(config, key, default):
    """The config value, one number or a list of them, as a 1D array of finite floats."""
    if isinstance(config.get(key, default), list):
        return _number_list(config, key, default)
    return np.array([_finite(config, key, default)])


def _per_axis(config, key, dim, default):
    """The config value as 1 or ``dim`` finite numbers."""
    vals = _numbers(config, key, default)
    if vals.size not in (1, dim):
        raise ConfigError(f"{key}: expected 1 or {dim} numbers, got {vals.size}")
    return vals


def _point(config, key, dim, default=None):
    """The config value as exactly ``dim`` finite numbers (a point or
    direction); required when there is no default."""
    vals = _numbers(config, key, config.require(key) if default is None else default)
    if vals.size != dim:
        raise ConfigError(f"{key}: expected {dim} numbers, got {vals.size}")
    return vals


def _whole_steps(T, dt):
    """The number of steps dt in the horizon T, refused unless whole."""
    try:
        return mesh.step_count(T, dt)
    except ValueError:
        raise ConfigError(f"T: must be a whole multiple of dt = {dt!r}, got {T!r}") from None


def _mu_grid(config):
    if config.get("mu.grid") is not None:
        return _number_list(config, "mu.grid", None)
    start = _finite(config, "mu.start", -200.0)
    stop = _finite(config, "mu.stop", -5.0)
    return np.linspace(start, stop, _whole(config, "mu.count", 40))


# ---------------------------------------------------------------------------
# experiment handlers (each returns (verdicts, outputs), and the stepping
# kinds the Crank-Nicolson route of ``GeneratorMatrix.cayley_route`` third)


def _run_simulate(config, out, rng):
    gen = _build_generator(config)
    u0 = _initial_state(gen, config, rng)
    T = _positive(config, "T", 1.0)
    dt = _positive(config, "dt", evolve.default_step(gen.grid, T))
    stride = _whole(config, "snapshot_stride", max(1, _whole_steps(T, dt) // 200))
    with evolve.SnapshotRecord(gen, out / "snapshots.bin", T, dt, stride) as record:
        trace = evolve.simulate(gen, u0, T, dt, sink=record)
    trace.export_csv(out / "energy.csv")
    verdicts = {}
    if gen.kind == "A0":
        drift = max(trace.conservation["mass_norm_relative_drift"],
                    trace.conservation["stiffness_norm_relative_drift"])
        verdicts["conservation"] = {
            "pass": bool(drift <= 1e-9), "max_drift": drift}
    else:
        increases = float(np.max(np.diff(trace.energy), initial=-np.inf))
        verdicts["monotone_decay"] = {
            "pass": bool(increases <= 1e-12 * trace.energy[0]),
            "worst_increase": increases}
        try:
            fit = evolve.fit_exponential(trace)
            verdicts["exponential_fit"] = {
                "pass": True, "rate": fit.rate, "r_squared": fit.r_squared}
        except ValueError:
            verdicts["exponential_fit"] = {"pass": True, "rate": None}
    res = float(np.max(trace.midpoint_residual, initial=0.0))
    verdicts["dissipation_identity"] = {
        "pass": bool(res <= 1e-9 * max(trace.energy[0], 1.0)), "max_residual": res}
    return verdicts, ["energy.csv", "snapshots.bin", "snapshots.json"], gen.cayley_route(dt)


def _run_resolvent_scan(config, out, rng):
    gen = _build_generator(config)
    scan = spectra.scan_resolvent(gen, _mu_grid(config))
    scan.export_csv(out / "scan.csv")
    summary = {
        "C": scan.fit_c, "K": scan.fit_k, "p": scan.fit_p,
        "C_free": scan.fit_c_free, "K_free": scan.fit_k_free,
        "points": scan.fit_points, "failures": scan.failures,
        "shift_invert_products": scan.products.tolist(),
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    finite = bool(np.all(np.isfinite(scan.norms[scan.ok]))) and not scan.failures
    verdicts = {"all_norms_finite": {"pass": finite,
                                     "failed_points": len(scan.failures)},
                "growth_fit": {"pass": True, "p_hat": scan.fit_p,
                               "K_hat": scan.fit_k}}
    return verdicts, ["scan.csv", "summary.json"]


def _run_observability(config, out, rng):
    gen = _build_generator(config, kind="A0")
    obs_kind = config.get("observation.kind", "interior-l2")
    if obs_kind == "boundary-conormal":
        part = config.get("observation.part", "gamma0")
        if part not in ("gamma0", "all"):
            raise ConfigError(f"observation.part: expected \"gamma0\" or \"all\", got {part!r}")
        nodes = (_build_split(gen.grid, config, required=True).gamma0 if part == "gamma0"
                 else gen.grid.boundary_idx)
    else:
        nodes = _box_nodes(gen.grid, config.get("observation.omega", "all"),
                           "observation.omega", gen.state_idx)
    try:
        obs = obsgram.Observation(obs_kind, nodes)
    except ValueError as exc:
        raise ConfigError(f"observation: {exc}") from exc
    method = config.get("method", "eig")
    if method not in ("eig", "cn"):
        raise ConfigError(f"method: expected \"eig\" or \"cn\", got {method!r}")
    T = _positive(config, "T", 1.0)
    dt = _positive(config, "dt", 0.01)
    stride = _whole(config, "stride", 1)
    if method == "cn":
        _whole_steps(T, dt)
    try:
        rep = obsgram.gramian(gen, obs, T, dt, stride=stride, method=method)
    except magop.DenseLimitError as exc:
        raise ConfigError(f"grid.n: {exc}") from exc
    (out / "report.json").write_text(rep.to_json())
    verdicts = {
        "gramian_psd": {"pass": bool(rep.lambda_min >= -1e-12 * max(rep.lambda_max, 1e-300)),
                        "lambda_min": rep.lambda_min},
        "quadrature": {"pass": bool(rep.quadrature_error_estimate <= 0.05),
                       "estimate": rep.quadrature_error_estimate},
    }
    return verdicts, ["report.json"]


def _run_product_observability(config, out, rng):
    n1 = _whole(config, "grid.n1", 24, least=4)
    n2 = _whole(config, "grid.n2", 24, least=4)
    L1 = _positive(config, "grid.extent1", 1.0)
    L2 = _positive(config, "grid.extent2", 1.0)
    g1 = mesh.build_grid(1, L1, n1)
    g2 = mesh.build_grid(1, L2, n2)
    gen1 = magop.assemble_generator("A0", g1, magop.MagneticPotential.zero(g1))
    gen2 = magop.assemble_generator("A0", g2, magop.MagneticPotential.zero(g2))
    omega1 = _box_nodes(g1, config.get("omega1", [[0.0], [0.3 * L1]]), "omega1",
                        gen1.state_idx)
    try:
        rep = obsgram.product_observability(
            gen1, gen2, omega1, T=_positive(config, "T", 1.0),
            dt=_positive(config, "dt", 0.005), tol=_finite(config, "tol", 0.05))
    except magop.DenseLimitError as exc:
        raise ConfigError(f"grid.n1, grid.n2: {exc}") from exc
    (out / "comparison.json").write_text(rep.to_json())
    verdicts = {
        "tensor_identity": {"pass": bool(rep.tensor_residual <= 1e-12),
                            "residual": rep.tensor_residual},
        "product_bound": {"pass": rep.satisfied, "C_1D": rep.c_1d,
                          "C_2D": rep.c_2d},
    }
    return verdicts, ["comparison.json"]


def _run_hautus(config, out, rng):
    gen = _build_generator(config, kind="A0")
    omega = _box_nodes(gen.grid, config.get("omega", "all"), "omega", gen.state_idx)
    aleph0 = _number_list(config, "aleph0.grid", [0.0, 1e-4, 1e-2], nonnegative=True)
    mu_grid = _mu_grid(config)
    try:
        rep = spectra.hautus_sweep(gen, omega, mu_grid, aleph0)
    except magop.DenseLimitError as exc:
        raise ConfigError(f"grid.n: {exc}") from exc
    doc = {
        "mus": rep.mus.tolist(),
        "aleph0_grid": rep.aleph0_grid.tolist(),
        "min_aleph1": [[None if not np.isfinite(v) else v for v in row]
                       for row in rep.min_aleph1],
        "global_aleph1": [None if not np.isfinite(v) else v
                          for v in rep.global_aleph1],
    }
    (out / "hautus.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    frontier_monotone = True
    for row in rep.min_aleph1:
        both = np.isfinite(row[:-1]) & np.isfinite(row[1:])
        rise = row[1:][both] - row[:-1][both]
        if rise.size and np.any(rise > 1e-6 * np.maximum(row[:-1][both], 1.0)):
            frontier_monotone = False
    verdicts = {"feasible": {"pass": rep.feasible_anywhere},
                "frontier_monotone": {"pass": frontier_monotone}}
    return verdicts, ["hautus.json"]


def _run_multiplier_check(config, out, rng):
    gen = _build_generator(config, kind="A0")
    u0 = _initial_state(gen, config, rng)
    T = _positive(config, "T", 0.25)
    dt = _positive(config, "dt", 5e-4)
    _whole_steps(T, dt)
    x0 = _point(config, "multiplier.x0", gen.grid.dim, [0.0] * gen.grid.dim)
    fld = multiplier.MultiplierField.radial(gen.grid, x0)
    rep = multiplier.multiplier_identity_residual(gen, u0, T, dt, fld)
    (out / "residuals.json").write_text(rep.to_json())
    tol = _finite(config, "tolerance", 0.1)
    verdicts = {"identity": {"pass": bool(rep.residual <= tol * rep.scale),
                             "residual": rep.residual, "scale": rep.scale}}
    return verdicts, ["residuals.json"], gen.cayley_route(dt)


def _weight_from_config(grid, config):
    preset = config.get("weight.preset", "quadratic")
    if preset == "quadratic":
        return weights.quadratic_weight(grid, _point(config, "weight.x0", grid.dim))
    if preset == "linear":
        direction = _point(config, "weight.direction", grid.dim, [1.0] * grid.dim)
        offset = _finite(config, "weight.offset", 2.0)
        try:
            return weights.linear_weight(grid, direction, offset=offset)
        except ValueError as exc:
            raise ConfigError(f"weight.offset: {exc}") from None
    if preset == "collar":
        omega = _box_nodes(grid, config.require("weight.collar"), "weight.collar")
        x0 = _point(config, "weight.x0", grid.dim)
        try:
            return weights.construct_psi_G(grid, omega, x0)
        except ValueError as exc:
            raise ConfigError(f"weight.x0: {exc}") from None
    raise ConfigError(f"weight.preset: unknown preset {preset!r}")


def _cylinder_weight(w, cyl, config):
    """The weight composed with weight.lambda, extended by -weight.beta s^2."""
    lam = _positive(config, "weight.lambda", 1.0)
    beta = _finite(config, "weight.beta", 1.0)
    try:
        spatial = w.with_lambda(lam)
    except ValueError as exc:
        raise ConfigError(f"weight.lambda: {exc}") from None
    try:
        return weights.cylinder_extend(spatial, cyl, beta)
    except ValueError as exc:       # exp(lambda psi) is in range on the grid
        raise ConfigError(f"weight.beta: {exc} with beta = {beta:g}") from None


def _run_carleman_certify(config, out, rng):
    grid = _build_grid(config)
    w = _weight_from_config(grid, config)
    region = _box_nodes(grid, config.get("region", "all"), "region")
    pc = weights.check_pseudoconvexity(w, region)
    cyl = weights.make_cylinder(grid, ns=_whole(config, "cylinder.ns", grid.n[0], least=2))
    wext = _cylinder_weight(w, cyl, config)
    region_cyl = np.concatenate([region + i * grid.num_nodes
                                 for i in range(cyl.n[0])])
    tau_grid = _number_list(config, "tau.grid", [1.0, 2.0, 4.0])
    if np.any(tau_grid <= 0):
        raise ConfigError(f"tau.grid: values must be positive, got {tau_grid.tolist()!r}")
    se = weights.check_subellipticity(wext, region_cyl, tau_grid,
                                      samples_per_node=_whole(config, "samples", 16),
                                      seed=_whole(config, "seed", 0, least=0))
    doc = {
        "min_grad": pc.min_grad,
        "pseudoconvexity_margin": pc.margin,
        "pseudoconvexity_certified": pc.certified,
        "subellipticity_min_bracket": se.min_bracket,
        "subellipticity_certified": se.certified,
        "failing_witnesses": ([] if se.witness is None else [se.witness]) + pc.failures,
    }
    (out / "certification.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    verdicts = {"pseudoconvexity": {"pass": bool(pc.margin > 0), "margin": pc.margin},
                "subellipticity": {"pass": se.certified, "min_bracket": se.min_bracket}}
    return verdicts, ["certification.json"]


def _run_carleman_probe(config, out, rng):
    grid = _build_grid(config)
    pot = _build_potential(grid, config)
    w = _weight_from_config(grid, config)
    cyl = weights.make_cylinder(grid, ns=_whole(config, "cylinder.ns", grid.n[0], least=4))
    tau_hi = 0.5 / min(cyl.h)
    tau_lo = 5.0 if tau_hi > 5.0 else tau_hi / 8       # 8 distinct taus in any window
    taus = _number_list(config, "tau.grid", np.linspace(tau_lo, tau_hi, 8).tolist())
    if np.any(taus <= 0) or np.any(taus > tau_hi + 1e-12):
        raise ConfigError(f"tau.grid: values must lie in the aliasing window "
                          f"(0, 0.5/h = {tau_hi:.6g}], got {taus.tolist()!r}")
    wext = _cylinder_weight(w, cyl, config)
    count = _whole(config, "bumps", 20)
    funcs = weights.bump_functions(cyl, count, seed=_whole(config, "seed", 0, least=0))
    rep = weights.carleman_probe(wext, pot, funcs, taus)
    rep.export_csv(out / "probe.csv")
    summary = {"trend_slope": rep.trend_slope, "trend_stderr": rep.trend_stderr,
               "bounded": rep.bounded, "samples": rep.samples_used}
    (out / "probe_summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2))
    verdicts = {"bounded_ratio": {"pass": rep.bounded, "slope": rep.trend_slope}}
    return verdicts, ["probe.csv", "probe_summary.json"]


def _run_gauge_check(config, out, rng):
    import scipy.sparse as sp

    gen = _build_generator(config, kind=config.get("generator", "A0"))
    grid = gen.grid
    psi = np.sin(2.0 * grid.coords[:, 0]) * _finite(config, "gauge.amplitude", 0.5)
    c, d = _build_damping(grid, config, gen.split)
    conj = magop.gauge_transform(gen, psi)
    shifted = magop.potential_plus_edge_gradient(gen.potential, psi)
    direct = magop.assemble_generator(gen.kind, grid, shifted, c=c, d=d, split=gen.split)
    res = float(sp.linalg.norm(conj - direct.matrix) / sp.linalg.norm(direct.matrix))
    try:
        e1 = spectra.eigenvalues_dense(gen)
        e2 = spectra.eigenvalues_dense(direct)
    except magop.DenseLimitError as exc:
        raise ConfigError(f"grid.n: {exc}") from exc
    e1 = e1[np.argsort(e1.imag)]
    e2 = e2[np.argsort(e2.imag)]
    spec_res = float(np.max(np.abs(e1 - e2)) / np.max(np.abs(e1)))
    doc = {"conjugation_residual": res, "spectrum_residual": spec_res}
    if grid.dim == 1:
        anti = magop.edge_antiderivative_1d(grid, gen.potential)
        red = magop.gauge_transform(gen, -anti)
        zero = magop.assemble_generator(
            gen.kind, grid, magop.MagneticPotential.zero(grid), c=c, d=d, split=gen.split)
        doc["reduction_residual"] = float(
            sp.linalg.norm(red - zero.matrix) / sp.linalg.norm(zero.matrix))
    (out / "gauge.json").write_text(json.dumps(doc, sort_keys=True, indent=2))
    verdicts = {
        "conjugation": {"pass": bool(res <= 1e-12), "residual": res},
        "spectra_agree": {"pass": bool(spec_res <= 1e-10), "residual": spec_res},
    }
    if "reduction_residual" in doc:
        verdicts["reduction"] = {"pass": bool(doc["reduction_residual"] <= 1e-12),
                                 "residual": doc["reduction_residual"]}
    return verdicts, ["gauge.json"]


_HANDLERS = {
    "simulate": _run_simulate,
    "resolvent-scan": _run_resolvent_scan,
    "observability": _run_observability,
    "product-observability": _run_product_observability,
    "hautus": _run_hautus,
    "multiplier-check": _run_multiplier_check,
    "carleman-certify": _run_carleman_certify,
    "carleman-probe": _run_carleman_probe,
    "gauge-check": _run_gauge_check,
}


def run(config, out_dir=None, jobs=1):
    """Run one experiment; write artifacts and manifest; return exit code.

    ``jobs`` is ignored: every kind runs serially.  The keyword stays because
    the benchmark's worker and reference recorder call ``run(..., jobs=1)``.
    """
    out = Path(out_dir if out_dir is not None else config.get("out_dir", "."))
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(config)
    t0 = time.perf_counter()
    status, route = {"status": "ok"}, []
    try:
        verdicts, outputs, *route = _HANDLERS[config.kind](config, out, rng)
    except ConfigError:
        raise
    except Exception as exc:  # a numerical failure is a failed run with a manifest
        verdicts, outputs = {}, []
        status = {"status": "error",
                  "error": {"type": type(exc).__name__, "message": str(exc)}}
    elapsed = time.perf_counter() - t0
    manifest = {
        "kind": config.kind,
        "config": dict(sorted(config.values.items())),
        "version": __version__,
        "outputs": outputs,
        "verdicts": verdicts,
        "timings": {"wall_seconds": elapsed},
        **status,
        **({"crank_nicolson_route": route[0]} if route else {}),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2))
    ok = "error" not in status and all(v.get("pass", False) for v in verdicts.values())
    return 0 if ok else 1


def report(manifest_path):
    """One-line verdicts of a finished run."""
    path = Path(manifest_path)
    if not path.exists():
        raise FileNotFoundError(f"manifest not found: {path}")
    try:
        doc = json.loads(path.read_text())
        verdicts = doc["verdicts"]
        kind = doc["kind"]
    except (json.JSONDecodeError, KeyError) as exc:
        raise ValueError(f"corrupt manifest {path}: {exc}") from exc
    lines = [f"experiment: {kind}"]
    if "crank_nicolson_route" in doc:
        lines.append(f"crank-nicolson route: {doc['crank_nicolson_route']}")
    if "error" in doc:
        lines.append(f"error: {doc['error']['type']}: {doc['error']['message']}")
    for name, v in sorted(verdicts.items()):
        status = "PASS" if v.get("pass") else "FAIL"
        detail = ", ".join(f"{k}={v[k]:.3g}" if isinstance(v[k], float) else f"{k}={v[k]}"
                           for k in sorted(v) if k != "pass")
        lines.append(f"{name}: {status}" + (f" ({detail})" if detail else ""))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="magschro",
        description="Damped magnetic Schrodinger laboratory experiments",
    )
    parser.add_argument("kind", choices=list(KINDS) + ["report"])
    parser.add_argument("target", nargs="?", default=None,
                        help="manifest path (report mode only)")
    parser.add_argument("--config", help="config file (flat key-value or JSON)")
    parser.add_argument("--out", help="output directory")
    args = parser.parse_args(argv)

    if args.kind == "report":
        target = args.target or args.config
        if target is None:
            parser.error("report needs a manifest path")
        try:
            print(report(target))
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0

    if args.config is None:
        parser.error("--config is required")
    try:
        config = ExperimentConfig.from_file(args.config)
        if config.kind != args.kind:
            raise ConfigError(
                f"kind: config says {config.kind!r}, command line says {args.kind!r}")
        return run(config, out_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
