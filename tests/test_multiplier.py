import tracemalloc

import numpy as np
import pytest

from magschro import evolve, magop, mesh, multiplier
from util_fields import trig_multiplier_field


def a0_trajectory(n, dt, T, u0_fn=None, pot_fn=None, seed=None):
    grid = mesh.build_grid(1, [1.0], n)
    if pot_fn is None:
        a = magop.MagneticPotential.zero(grid)
    else:
        a = magop.MagneticPotential.from_callable(grid, pot_fn)
    gen = magop.assemble_generator("A0", grid, a)
    x = grid.coords[gen.state_idx, 0]
    if u0_fn is None:
        u0 = np.sqrt(2) * np.sin(np.pi * x) + 0j
    else:
        u0 = u0_fn(x)
    _, traj = evolve.simulate(gen, u0, T, dt, snapshot_stride=1)
    return grid, a, traj


def test_identity_zero_state():
    grid = mesh.build_grid(1, [1.0], 17)
    a = magop.MagneticPotential.zero(grid)
    gen = magop.assemble_generator("A0", grid, a)
    times = np.linspace(0, 0.1, 5)
    states = np.zeros((5, gen.size), dtype=complex)
    traj = evolve.Trajectory(generator=gen, times=times, states=states)
    field = multiplier.MultiplierField.radial(grid, times, [0.0])
    rep = multiplier.multiplier_identity_residual(traj, field)
    assert rep.residual == 0.0


def test_identity_rellich_mode_closed_form():
    """Standing mode with the radial multiplier: both sides reduce to the
    flux identity; closed-form value pi^2 T."""
    T = 0.25
    grid, a, traj = a0_trajectory(129, dt=2e-4, T=T)
    field = multiplier.MultiplierField.radial(grid, traj.times, [0.0])
    rep = multiplier.multiplier_identity_residual(traj, field)
    want = np.pi**2 * T
    assert abs(rep.lhs - want) < 1e-3 * want
    assert abs(rep.rhs - want) < 1e-3 * want
    assert rep.residual < 1e-3 * want
    # per-term oracle: only flux and carrier terms survive on the boundary
    assert abs(rep.terms["boundary_divergence"]) < 1e-12
    assert abs(rep.terms["boundary_time"]) < 1e-12
    assert abs(rep.terms["boundary_flux_pairing"] - 2 * want) < 2e-3 * want
    assert abs(rep.terms["boundary_carrier"] + want) < 1e-3 * want


@pytest.mark.parametrize("seed", [5, 6, 7])
def test_identity_random_smooth_refinement(seed):
    rng0 = np.random.default_rng(seed)
    coeffs = [(rng0.normal(), rng0.normal()) for k in range(3)]

    def u0_fn(x):
        return sum(c * np.sin((k + 1) * np.pi * x) * np.exp(1j * p)
                   for k, (c, p) in enumerate(coeffs))

    residuals = []
    for n in (17, 33, 65):
        grid, a, traj = a0_trajectory(
            n, dt=2e-4, T=0.25, u0_fn=u0_fn,
            pot_fn=lambda p: 0.3 * np.sin(2.0 * p[:, 0] + 0.4))
        field = trig_multiplier_field(grid, traj.times, seed)
        rep = multiplier.multiplier_identity_residual(traj, field)
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 1.8
    assert residuals[1] / residuals[2] >= 1.8


def test_radial_field_consistency():
    grid = mesh.build_grid(2, [1.0, 1.0], 9)
    times = np.linspace(0, 0.1, 3)
    field = multiplier.MultiplierField.radial(grid, times, [0.2, -0.1])
    assert field.consistency_residual() < 1e-12
    assert np.all(field.divergence == 2.0)


def _materialized_radial(grid, times, x0):
    """The radial field copied out to (nt, N, ...) arrays, as first written."""
    nt, N, d = times.size, grid.num_nodes, grid.dim
    m = grid.coords - np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
    return multiplier.MultiplierField(
        grid=grid, times=times,
        values=np.broadcast_to(m, (nt, N, d)).copy(),
        jacobian=np.broadcast_to(np.eye(d), (nt, N, d, d)).copy(),
        divergence=np.full((nt, N), float(d)),
        grad_div=np.zeros((nt, N, d)), time_deriv=np.zeros((nt, N, d)))


def _materialized_terms(traj, a, field, forcing=None):
    """The ten multiplier terms from full (nt, N, ...) temporaries: the oracle."""
    grid = traj.generator.grid
    times = traj.times
    nt, N, d = times.size, grid.num_nodes, grid.dim
    u = np.zeros((nt, N), dtype=complex)
    u[:, traj.generator.state_idx] = traj.states
    ut = np.gradient(u, times, axis=0)
    wt = np.zeros(nt)
    wt[:-1] += 0.5 * np.diff(times)
    wt[1:] += 0.5 * np.diff(times)
    wv = grid.volume_weights
    b = grid.boundary_idx
    ws = grid.surface_weights[b]
    nu = grid.normals[b]
    gu = np.empty((nt, N, d), dtype=complex)
    for it in range(nt):
        for ax in range(d):
            gu[it, :, ax] = grid.gradients[ax] @ u[it] + 1j * a.values[:, ax] * u[it]
    X = field.values
    f = np.zeros((nt, N), dtype=complex) if forcing is None else forcing
    gu_b = gu[:, b, :]
    conormal = np.einsum("tnj,nj->tn", gu_b, nu)
    X_nu = np.einsum("tnj,nj->tn", X[:, b, :], nu)
    X_gu_b = np.einsum("tnj,tnj->tn", X[:, b, :], gu_b)
    sig = wt[:, None] * ws[None, :]
    vol = wt[:, None] * wv[None, :]
    u_b, ut_b = u[:, b], ut[:, b]
    brk = [np.sum(wv * np.einsum("nj,nj->n", u[i, :, None] * X[i], np.conj(gu[i])))
           for i in (0, -1)]
    return {
        "boundary_flux_pairing": np.sum(sig * np.real(conormal * np.conj(X_gu_b))),
        "boundary_carrier": -0.5 * np.sum(sig * (np.sum(np.abs(gu_b) ** 2, axis=2) * X_nu)),
        "boundary_divergence": 0.5 * np.sum(
            sig * np.real(field.divergence[:, b] * u_b * np.conj(conormal))),
        "boundary_time": np.real(-0.5j * np.sum(sig * (u_b * X_nu * np.conj(ut_b)))),
        "volume_jacobian": np.sum(vol * np.real(
            np.einsum("tnjk,tnj,tnk->tn", field.jacobian, gu, np.conj(gu)))),
        "volume_grad_div": 0.5 * np.sum(vol * np.real(
            u[:, :, None] * field.grad_div * np.conj(gu)).sum(axis=2)),
        "volume_time_deriv": np.real(0.5j * np.sum(vol * np.einsum(
            "tnj,tnj->tn", u[:, :, None] * field.time_deriv, np.conj(gu)))),
        "endpoint_bracket": np.real(-0.5j * (brk[1] - brk[0])),
        "volume_forcing": np.sum(vol * np.real(
            np.einsum("tnj,tnj->tn", f[:, :, None] * X, np.conj(gu)))),
        "volume_div_forcing": 0.5 * np.sum(vol * np.real(field.divergence * u * np.conj(f))),
    }


def _random_case(seed):
    """A random grid, potential, A0 trajectory, x0 and (odd seeds) forcing,
    with a random time-dependent field whose jacobian is full: it exercises
    every contraction (its derived fields need not be consistent here)."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    n = int(rng.integers(9, 40)) if dim == 1 else int(rng.integers(5, 14))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq = rng.uniform(0.0, 1.0, 2), rng.uniform(0.5, 4.0)
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: amp[:dim] * np.sin(freq * p + 0.3))
    gen = magop.assemble_generator("A0", grid, a)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    _, traj = evolve.simulate(gen, u0, 0.01 * rng.integers(1, 4), 2e-3)
    x0 = rng.uniform(-0.5, 1.5, dim)
    forcing = None
    if seed % 2:
        shape = (traj.times.size, grid.num_nodes)
        forcing = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    nt, N = traj.times.size, grid.num_nodes
    general = multiplier.MultiplierField(
        grid=grid, times=traj.times, values=rng.normal(size=(nt, N, dim)),
        jacobian=rng.normal(size=(nt, N, dim, dim)), divergence=rng.normal(size=(nt, N)),
        grad_div=rng.normal(size=(nt, N, dim)), time_deriv=rng.normal(size=(nt, N, dim)))
    return grid, a, traj, x0, forcing, general


@pytest.mark.parametrize("seed", range(8))
def test_terms_match_materialized_field(seed):
    """The broadcast radial field and the one-pass contractions give the ten
    terms of the materialized field, on random grids, x0, potentials,
    states and forcings."""
    grid, a, traj, x0, forcing, general = _random_case(seed)
    for field, oracle in ((multiplier.MultiplierField.radial(grid, traj.times, x0),
                           _materialized_radial(grid, traj.times, x0)),
                          (general, general)):
        rep = multiplier.multiplier_identity_residual(traj, field, forcing)
        want = _materialized_terms(traj, a, oracle, forcing)
        scale = max(abs(v) for v in want.values())
        assert rep.terms.keys() == want.keys()
        for name, value in want.items():
            assert abs(rep.terms[name] - value) <= 1e-12 * scale, name
        assert rep.scale == pytest.approx(scale, rel=1e-12)


def _with_block(samples, grid, fn):
    """fn() with the identity taking ``samples`` time samples per block: it
    takes _BLOCK_ENTRIES // ((dim + 3) N) of them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_BLOCK_ENTRIES", samples * (grid.dim + 3) * grid.num_nodes)
        return fn()


@pytest.mark.parametrize("seed", range(8))
def test_blocked_identity_matches_one_block(seed):
    """Summed over time blocks of 1, 2 and 3 samples, the identity gives every
    term, both sides and the residual of the one-block evaluation to 1e-13
    scale, with the general field and (odd seeds) forcing; the boundary terms,
    gathered row by row for all times, agree exactly."""
    grid, a, traj, x0, forcing, general = _random_case(seed)
    nt = traj.times.size
    assert nt >= 6
    for field in (general, multiplier.MultiplierField.radial(grid, traj.times, x0)):
        one = _with_block(nt + 5, grid, lambda: multiplier.multiplier_identity_residual(
            traj, field, forcing))
        for samples in (1, 2, 3):
            rep = _with_block(samples, grid, lambda: multiplier.multiplier_identity_residual(
                traj, field, forcing))
            tol = 1e-13 * one.scale
            for name, value in one.terms.items():
                if name.startswith("boundary_"):
                    assert rep.terms[name] == value, (samples, name)
                assert abs(rep.terms[name] - value) <= tol, (samples, name)
            assert abs(rep.lhs - one.lhs) <= tol and abs(rep.rhs - one.rhs) <= tol
            assert abs(rep.residual - one.residual) <= tol
            assert rep.scale == pytest.approx(one.scale, rel=1e-13)


def _identity_peak(dim, n, nt):
    """Traced peak of the identity on an nt-sample A0 trajectory (the states
    are made before the trace starts), and the boundary node count."""
    grid = mesh.build_grid(dim, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.3 * np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    rng = np.random.default_rng(0)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    _, traj = evolve.simulate(gen, u0, (nt - 1) * 1e-4, 1e-4)
    field = multiplier.MultiplierField.radial(grid, traj.times, [0.1] * dim)
    tracemalloc.start()
    multiplier.multiplier_identity_residual(traj, field)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak, grid.boundary_idx.size


BLOCK_BYTES = 16 * evolve._BLOCK_ENTRIES


@pytest.mark.parametrize("nt", [101, 801, 3201])
def test_identity_memory_is_one_block_in_1d(nt):
    """Beyond the trajectory, the 1D identity (two boundary nodes) holds one
    block of samples: a peak under 2 MiB for every nt.  The whole-trajectory
    evaluation took 2.9 MB at 801 samples on this grid."""
    peak, _ = _identity_peak(1, 64, nt)
    assert peak <= 2 * BLOCK_BYTES, peak


@pytest.mark.parametrize("nt", [101, 801])
def test_identity_memory_is_block_plus_boundary_rows_in_2d(nt):
    """In 2D the identity also keeps its boundary rows for every sample:
    about ten (nt, nb) complex arrays, for u_t and the boundary terms.  The
    volume terms add one block, whatever nt (the whole-trajectory evaluation
    took 48 MB at 801 samples on this grid)."""
    peak, nb = _identity_peak(2, 24, nt)
    assert peak <= 2 * BLOCK_BYTES + 16 * nt * nb * 16, peak
