import tracemalloc

import numpy as np
import pytest

from magschro import evolve, magop, mesh, multiplier
from util_fields import Keep


def a0_run(n, x0, dt, T, u0_fn=None, pot_fn=None):
    """The identity with the radial multiplier at x0 on a 1D A0 run."""
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
    field = multiplier.MultiplierField.radial(grid, x0)
    return multiplier.multiplier_identity_residual(gen, u0, T, dt, field)


def test_identity_zero_state():
    rep = a0_run(17, [0.0], 0.025, 0.1, u0_fn=lambda x: np.zeros(x.size, dtype=complex))
    assert rep.residual == 0.0


def test_identity_rellich_mode_closed_form():
    """Standing mode with the radial multiplier: both sides reduce to the
    flux identity; closed-form value pi^2 T."""
    T = 0.25
    rep = a0_run(129, [0.0], dt=2e-4, T=T)
    want = np.pi**2 * T
    assert abs(rep.lhs - want) < 1e-3 * want
    assert abs(rep.rhs - want) < 1e-3 * want
    assert rep.residual < 1e-3 * want
    # per-term oracle: a 1D potential has no curl
    assert rep.terms["volume_magnetic"] == 0.0
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
        rep = a0_run(n, [-0.3], dt=2e-4, T=0.25, u0_fn=u0_fn,
                     pot_fn=lambda p: 0.3 * np.sin(2.0 * p[:, 0] + 0.4))
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 1.8
    assert residuals[1] / residuals[2] >= 1.8


def test_radial_field_consistency():
    """The node gradients of m = x - x0 are the identity matrix, the DX = I
    the identity's volume term rests on, and its divergence is dim."""
    grid = mesh.build_grid(2, [1.0, 1.0], 9)
    field = multiplier.MultiplierField.radial(grid, [0.2, -0.1])
    np.testing.assert_array_equal(field.values, grid.coords - [0.2, -0.1])
    for j, G in enumerate(grid.gradients):
        for k in range(grid.dim):
            np.testing.assert_allclose(G @ field.values[:, k], float(j == k), atol=1e-12)


def test_identity_refuses_other_generators_and_grids():
    """Without forcing the identity holds for A0 only, and the field must sit
    on the generator's grid."""
    grid = mesh.build_grid(1, [1.0], 17)
    a = magop.MagneticPotential.zero(grid)
    gen = magop.assemble_generator("A1", grid, a, c=np.ones(grid.num_nodes))
    u0 = np.zeros(gen.size, dtype=complex)
    with pytest.raises(ValueError, match="A0"):
        multiplier.multiplier_identity_residual(
            gen, u0, 0.01, 1e-3, multiplier.MultiplierField.radial(grid, [0.0]))
    gen = magop.assemble_generator("A0", grid, a)
    other = mesh.build_grid(1, [1.0], 33)
    with pytest.raises(ValueError, match="grid"):
        multiplier.multiplier_identity_residual(
            gen, u0, 0.01, 1e-3, multiplier.MultiplierField.radial(other, [0.0]))


def _materialized_terms(case):
    """The five multiplier terms of the radial field on an A0 run, from its
    kept states and full (nt, N, dim) temporaries: the oracle."""
    grid, a, gen, u0, T, dt, x0 = case
    kept = Keep()
    evolve.simulate(gen, u0, T, dt, sink=kept)
    times = dt * np.array(kept.steps)
    nt, N, d = times.size, grid.num_nodes, grid.dim
    u = np.zeros((nt, N), dtype=complex)
    u[:, gen.state_idx] = kept.states
    wt = np.zeros(nt)
    wt[:-1] += 0.5 * np.diff(times)
    wt[1:] += 0.5 * np.diff(times)
    wv = grid.volume_weights
    b = grid.boundary_idx
    ws = grid.surface_weights[b]
    nu = grid.normals[b]
    G = grid.gradients
    gu = np.empty((nt, N, d), dtype=complex)
    for it in range(nt):
        for ax in range(d):
            gu[it, :, ax] = G[ax] @ u[it] + 1j * a.values[:, ax] * u[it]
    X = grid.coords - np.asarray(x0)[None, :]
    gu_b = gu[:, b, :]
    conormal = np.einsum("tnj,nj->tn", gu_b, nu)
    X_nu = np.einsum("nj,nj->n", X[b], nu)
    X_gu_b = np.einsum("nj,tnj->tn", X[b], gu_b)
    sig = wt[:, None] * ws[None, :]
    vol = wt[:, None] * wv[None, :]
    brk = [np.sum(wv * np.einsum("nj,nj->n", u[i, :, None] * X, np.conj(gu[i])))
           for i in (0, -1)]
    mag = np.zeros((nt, N), dtype=complex)
    for j in range(d):
        for k in range(d):          # B antisymmetric: the sum over j < k, twice
            B = G[j] @ a.values[:, k] - G[k] @ a.values[:, j]
            mag += 0.5 * B * (X[:, k] * gu[:, :, j] - X[:, j] * gu[:, :, k])
    return {
        "boundary_flux_pairing": np.sum(sig * np.real(conormal * np.conj(X_gu_b))),
        "boundary_carrier": -0.5 * np.sum(sig * (np.sum(np.abs(gu_b) ** 2, axis=2) * X_nu)),
        "volume_jacobian": np.sum(vol * np.sum(np.abs(gu) ** 2, axis=2)),
        "endpoint_bracket": np.real(-0.5j * (brk[1] - brk[0])),
        "volume_magnetic": np.sum(vol * np.imag(mag * np.conj(u))),
    }


def _random_case(seed):
    """A random grid, potential, A0 generator, initial state, horizon, step
    and x0.  The potential's components are sines of the other coordinate,
    so a 2D one has a curl that varies over the grid."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 3))
    n = int(rng.integers(9, 40)) if dim == 1 else int(rng.integers(5, 14))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq = rng.uniform(0.5, 3.0, 2), rng.uniform(0.5, 4.0)
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: amp[:dim] * np.sin(freq * p[:, ::-1] + 0.3))
    gen = magop.assemble_generator("A0", grid, a)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    x0 = rng.uniform(-0.5, 1.5, dim)
    return grid, a, gen, u0, 0.01 * int(rng.integers(1, 4)), 2e-3, x0


def _identity(case):
    grid, _, gen, u0, T, dt, x0 = case
    return multiplier.multiplier_identity_residual(
        gen, u0, T, dt, multiplier.MultiplierField.radial(grid, x0))


@pytest.mark.parametrize("seed", range(8))
def test_terms_match_materialized_field(seed):
    """The blocked contractions give the five terms of the materialized
    oracle on random grids, x0, potentials (with curl in 2D) and states."""
    case = _random_case(seed)
    rep = _identity(case)
    want = _materialized_terms(case)
    scale = max(abs(v) for v in want.values())
    assert rep.terms.keys() == want.keys()
    for name, value in want.items():
        assert abs(rep.terms[name] - value) <= 1e-12 * scale, name
    assert rep.scale == pytest.approx(scale, rel=1e-12)
    # the magnetic term is small beside the gradient terms: hold it to its own size
    mag = want["volume_magnetic"]
    assert (mag != 0.0) == (case[0].dim == 2)
    assert abs(rep.terms["volume_magnetic"] - mag) <= 1e-12 * abs(mag)


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
    scale.  The boundary terms are summed per block like the volume terms,
    so they share that bound (no longer bitwise equal)."""
    case = _random_case(seed)
    grid, _, _, _, T, dt, _ = case
    nt = round(T / dt) + 1
    assert nt >= 6
    one = _with_block(nt + 5, grid, lambda: _identity(case))
    for samples in (1, 2, 3):
        rep = _with_block(samples, grid, lambda: _identity(case))
        tol = 1e-13 * one.scale
        for name, value in one.terms.items():
            assert abs(rep.terms[name] - value) <= tol, (samples, name)
        assert abs(rep.lhs - one.lhs) <= tol and abs(rep.rhs - one.rhs) <= tol
        assert abs(rep.residual - one.residual) <= tol
        assert rep.scale == pytest.approx(one.scale, rel=1e-13)


def _identity_peak(dim, n, nt):
    """Traced peak of a whole identity run of nt samples, its stepping
    included; the Crank-Nicolson factor and the gradient matrices are made
    before the trace starts."""
    grid = mesh.build_grid(dim, 1.0, n)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.3 * np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    rng = np.random.default_rng(0)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    field = multiplier.MultiplierField.radial(grid, [0.1] * dim)
    gen.cayley_solver(1e-4)
    grid.gradients, a.gradient, a.conormal
    tracemalloc.start()
    multiplier.multiplier_identity_residual(gen, u0, (nt - 1) * 1e-4, 1e-4, field)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


BLOCK_BYTES = 16 * evolve._BLOCK_ENTRIES


@pytest.mark.parametrize("nt", [101, 801, 3201])
def test_identity_memory_is_one_block_in_1d(nt):
    """A whole 1D identity run holds the stepper's block of states and the
    identity's block of samples: a peak under 3 MiB for every nt (2.2 MiB at
    3201 samples, whose states alone are 3.2 MB; holding them all the run
    peaked at 5.2 MiB)."""
    peak = _identity_peak(1, 64, nt)
    assert peak <= 3 * BLOCK_BYTES, peak


@pytest.mark.parametrize("nt", [101, 801])
def test_identity_memory_is_one_block_in_2d(nt):
    """The 2D identity sums its boundary terms per block too, so a whole run
    holds the stepper's block of states and the identity's block of samples:
    a peak under 3 MiB whatever nt (2.3 MiB at 101 and 801 samples on this
    grid; keeping the boundary rows of every sample took 12.3 MiB at 801
    samples, the whole-trajectory evaluation 48 MB)."""
    peak = _identity_peak(2, 24, nt)
    assert peak <= 3 * BLOCK_BYTES, peak


def test_identity_run_memory_is_flat_in_samples():
    """The identity sums each block of states as the stepper makes it, so the
    traced peak of a whole 2D run at 801 samples is within 10 % of that at
    101 (2.3 MiB each on this grid; holding every state it was 3.3 and
    8.8 MiB)."""
    peaks = [_identity_peak(2, 24, nt) for nt in (101, 801)]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_identity_converges_with_a_magnetic_field():
    """The uniform field B = 6, a = B (-(y - 1/2), x - 1/2) / 2: with the
    magnetic term the residual falls at least 1.8x per refinement.  Without
    it the residual rose towards that term's value (0.0025, 0.0067 and 0.0079
    on 17, 33 and 65 nodes a side; the term is about -0.0083)."""
    B = 6.0
    residuals = []
    for n in (17, 33, 65):
        grid = mesh.build_grid(2, 1.0, n)
        a = magop.MagneticPotential.from_callable(
            grid, lambda p: 0.5 * B * np.column_stack([0.5 - p[:, 1], p[:, 0] - 0.5]))
        gen = magop.assemble_generator("A0", grid, a)
        x, y = grid.coords[gen.state_idx].T
        u0 = np.sin(np.pi * x) * np.sin(np.pi * y) + 0.5j * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
        rep = multiplier.multiplier_identity_residual(
            gen, u0, 0.02, 5e-5, multiplier.MultiplierField.radial(grid, [-0.3, 0.4]))
        assert abs(rep.terms["volume_magnetic"] + 0.0083) < 2e-4
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 1.8
    assert residuals[1] / residuals[2] >= 1.8
