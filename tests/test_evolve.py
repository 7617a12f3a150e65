import dataclasses
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from magschro import evolve, magop, mesh
from util_fields import Keep


@pytest.fixture(scope="module")
def grid():
    return mesh.build_grid(1, [1.0], 128)


@pytest.fixture(scope="module")
def a_zero(grid):
    return magop.MagneticPotential.zero(grid)


@pytest.fixture(scope="module")
def gen_a0(grid, a_zero):
    return magop.assemble_generator("A0", grid, a_zero)


def first_mode(gen):
    x = gen.grid.coords[gen.state_idx, 0]
    return np.sqrt(2) * np.sin(np.pi * x) + 0j


def test_step_norm_preserving(gen_a0):
    rng = np.random.default_rng(0)
    u = rng.normal(size=gen_a0.size) + 1j * rng.normal(size=gen_a0.size)
    for dt in (1e-3, 0.05, 0.7):
        up = evolve.step(gen_a0, u, dt)
        assert abs(gen_a0.norm(up) - gen_a0.norm(u)) < 1e-12 * gen_a0.norm(u)


def test_step_zero_dt(gen_a0):
    u = first_mode(gen_a0)
    up = evolve.step(gen_a0, u, 0.0)
    assert np.array_equal(up, u)
    assert up is not u


def test_step_negative_dt_rejected(gen_a0):
    with pytest.raises(ValueError):
        evolve.step(gen_a0, first_mode(gen_a0), -0.1)


def test_step_scalar_mode_contraction(grid, a_zero):
    """Per-mode Cayley factor |(1 - c dt/2 + i th)/(1 + c dt/2 - i th)|."""
    c0 = 1.0
    gen = magop.assemble_generator("A1", grid, a_zero, c=np.full(grid.num_nodes, c0))
    u = first_mode(gen)
    # the discrete first mode is an eigenvector: extract its frequency
    lam = np.vdot(u, gen.stiffness @ u).real / np.vdot(u, gen.mass_diag * u).real
    dt = 1e-2
    up = evolve.step(gen, u, dt)
    got = gen.norm(up) / gen.norm(u)
    z = 1j * (-lam * dt / 2)
    want = abs((1 - c0 * dt / 2 + z) / (1 + c0 * dt / 2 - z))
    assert abs(got - want) < 1e-12


def test_step_contraction_all_dissipative(grid, a_zero):
    split = mesh.split_boundary(grid, [-0.3])
    mn = np.einsum("ij,ij->i", split.m[split.gamma0], grid.normals[split.gamma0])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = mn
    rng = np.random.default_rng(5)
    for kind in ("A2", "A3"):
        gen = magop.assemble_generator(kind, grid, a_zero, d=d, split=split)
        u = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
        for dt in (1e-3, 0.1, 2.0):
            up = evolve.step(gen, u, dt)
            assert gen.norm(up) <= gen.norm(u) * (1 + 1e-12)


def test_simulate_conservation(gen_a0):
    trace = evolve.simulate(gen_a0, first_mode(gen_a0), T=2.0, dt=1e-3)
    assert trace.conservation["mass_norm_relative_drift"] < 1e-10
    assert trace.conservation["stiffness_norm_relative_drift"] < 1e-10
    assert np.max(np.abs(trace.energy - trace.energy[0])) < 1e-10 * trace.energy[0]


def test_simulate_constant_damping_rate(grid, a_zero):
    gen = magop.assemble_generator("A1", grid, a_zero, c=np.ones(grid.num_nodes))
    trace = evolve.simulate(gen, first_mode(gen), T=2.0, dt=1e-3)
    fit = evolve.fit_exponential(trace)
    assert abs(fit.rate - 2.0) < 1e-3


def test_simulate_localized_damping_decays(grid, a_zero):
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    gen = magop.assemble_generator("A1", grid, a_zero, c=c)
    trace = evolve.simulate(gen, first_mode(gen), T=4.0, dt=2e-3)
    assert np.all(np.diff(trace.energy) <= 1e-12 * trace.energy[0])
    fit = evolve.fit_exponential(trace, window=(1.0, 4.0))
    assert fit.rate > 0


def test_simulate_dissipation_identity_exact(grid, a_zero):
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    gen = magop.assemble_generator("A1", grid, a_zero, c=c)
    trace = evolve.simulate(gen, first_mode(gen), T=0.5, dt=1e-3)
    assert np.max(trace.midpoint_residual) < 1e-10 * trace.energy[0]
    assert np.all(trace.dissipation <= 0)


def test_endpoint_dissipation_second_order(grid, a_zero):
    c = np.where(grid.coords[:, 0] < 0.3, 5.0, 0.0)
    gen = magop.assemble_generator("A1", grid, a_zero, c=c)
    u0 = first_mode(gen)
    res = []
    for dt in (4e-3, 2e-3, 1e-3):
        trace = evolve.simulate(gen, u0, T=0.2, dt=dt)
        res.append(np.max(trace.endpoint_residual))
    assert res[0] / res[1] > 3.0
    assert res[1] / res[2] > 3.0


def test_simulate_rejects_bad_args(gen_a0, tmp_path):
    with pytest.raises(ValueError):
        evolve.simulate(gen_a0, first_mode(gen_a0), T=0.0, dt=1e-3)
    for T, dt in ((np.nan, 1e-3), (1.0, np.nan), (np.inf, 1e-3), (1.0, -1e-3)):
        with pytest.raises(ValueError, match="finite"):
            evolve.simulate(gen_a0, first_mode(gen_a0), T=T, dt=dt)
    with pytest.raises(ValueError, match="stride"):
        evolve.SnapshotRecord(gen_a0, tmp_path / "s.bin", 1.0, 1e-3, 0)
    with pytest.raises(ValueError):
        evolve.simulate(gen_a0, first_mode(gen_a0)[:-3], T=1.0, dt=1e-3)


def test_energy_increase_detected(grid, a_zero):
    # an anti-damped operator must trip the monotonicity guard
    gen = magop.assemble_generator("A1", grid, a_zero, c=np.ones(grid.num_nodes))
    import scipy.sparse as sp

    bad = magop.GeneratorMatrix(
        kind="A1", matrix=(gen.matrix + 2.0 * sp.identity(gen.size)).tocsr(),
        grid=gen.grid, state_idx=gen.state_idx, mass_diag=gen.mass_diag,
        stiffness=gen.stiffness, lap_matrix=gen.lap_matrix, damping_c=gen.damping_c)
    with pytest.raises(evolve.EnergyIncreaseError):
        evolve.simulate(bad, first_mode(gen), T=1.0, dt=1e-2)


def test_fit_exponential_exact_data():
    t = np.linspace(0, 5, 201)
    trace = evolve.EnergyTrace(kind="A1", times=t, energy=np.exp(-3.0 * t),
                               dissipation=np.zeros(t.size - 1),
                               midpoint_residual=np.zeros(t.size - 1),
                               endpoint_residual=np.zeros(t.size - 1), dt=t[1])
    fit = evolve.fit_exponential(trace)
    assert abs(fit.rate - 3.0) < 1e-10
    assert fit.r_squared > 1 - 1e-12


def test_fit_exponential_constant_data():
    t = np.linspace(0, 5, 101)
    trace = evolve.EnergyTrace(kind="A0", times=t, energy=np.ones(t.size),
                               dissipation=np.zeros(t.size - 1),
                               midpoint_residual=np.zeros(t.size - 1),
                               endpoint_residual=np.zeros(t.size - 1), dt=t[1])
    fit = evolve.fit_exponential(trace)
    assert abs(fit.rate) < 1e-12


def test_fit_exponential_rejects_nonpositive():
    t = np.linspace(0, 5, 11)
    e = np.ones(t.size)
    e[5] = -1.0
    trace = evolve.EnergyTrace(kind="A1", times=t, energy=e,
                               dissipation=np.zeros(t.size - 1),
                               midpoint_residual=np.zeros(t.size - 1),
                               endpoint_residual=np.zeros(t.size - 1), dt=t[1])
    with pytest.raises(ValueError):
        evolve.fit_exponential(trace)


def test_prepare_smooth_initial_inverts(gen_a0):
    rng = np.random.default_rng(2)
    v = rng.normal(size=gen_a0.size) + 1j * rng.normal(size=gen_a0.size)
    u = evolve.prepare_smooth_initial(gen_a0, v, k=2)
    w = gen_a0.matrix @ (gen_a0.matrix @ u)
    assert np.linalg.norm(w - v) < 1e-8 * np.linalg.norm(v)
    with pytest.raises(ValueError):
        evolve.prepare_smooth_initial(gen_a0, v, k=0)


def test_trace_export_csv(tmp_path, gen_a0):
    trace = evolve.simulate(gen_a0, first_mode(gen_a0), T=0.05, dt=1e-2)
    path = tmp_path / "energy.csv"
    trace.export_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,energy,dissipation,cum_residual"
    assert len(lines) == trace.times.size + 1


def test_trace_export_csv_matches_per_row_writer(tmp_path):
    """The one-format writer gives the bytes of the per-row f-string writer,
    on -0.0, subnormals, values needing 17 digits and infinities."""
    times = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1e300])
    energy = np.array([1 / 3, -0.0, 5e-324, 2.2250738585072014e-308, np.inf])
    trace = evolve.EnergyTrace(
        kind="A1", times=times, energy=energy,
        dissipation=np.array([-0.0, 0.1 + 0.2, 1e-320, -np.inf]),
        midpoint_residual=np.array([5e-324, 2.0**-1074 * 3, 1 / 7, 1e16 + 2]),
        endpoint_residual=np.zeros(4), dt=0.1)
    path = tmp_path / "energy.csv"
    trace.export_csv(path)

    diss = np.append(trace.dissipation, 0.0)
    cum = np.concatenate([[0.0], np.cumsum(trace.midpoint_residual)])
    expected = "t,energy,dissipation,cum_residual\n" + "".join(
        f"{t:.17g},{e:.17g},{d:.17g},{c:.17g}\n"
        for t, e, d, c in zip(times.tolist(), energy.tolist(), diss.tolist(), cum.tolist()))
    assert path.read_bytes() == expected.encode()
    assert ",-0," in expected and "e-324," in expected and ",0.30000000000000004," in expected


def test_snapshot_export_roundtrip(tmp_path, gen_a0):
    """The streamed record reads back, through its sidecar, as the times and
    full-grid states (``embed`` of a block) of steps 0, 2, 4 and 5."""
    kept = Keep()
    evolve.simulate(gen_a0, first_mode(gen_a0), T=0.05, dt=1e-2, sink=kept)
    pbin = tmp_path / "snaps.bin"
    with evolve.SnapshotRecord(gen_a0, pbin, 0.05, 1e-2, 2) as record:
        trace = evolve.simulate(gen_a0, first_mode(gen_a0), T=0.05, dt=1e-2, sink=record)
    side = json.loads((tmp_path / "snaps.json").read_text())
    assert side["rows"] == 4 and side["generator_kind"] == "A0"
    rec = np.frombuffer(pbin.read_bytes()).reshape(side["rows"], side["row_length"])
    np.testing.assert_array_equal(rec[:, 0], trace.times[[0, 2, 4, 5]])
    full = gen_a0.embed(kept.states[[0, 2, 4, 5]].T)
    assert full.shape == (gen_a0.grid.num_nodes, 4)
    np.testing.assert_array_equal(rec[:, 1::2] + 1j * rec[:, 2::2], full.T)


def test_simulate_default_dt_is_h_squared_over_four(gen_a0):
    h = gen_a0.grid.h[0]
    trace = evolve.simulate(gen_a0, first_mode(gen_a0), T=100 * h * h)
    assert abs(trace.dt - h * h / 4.0) < 1e-15


def test_default_step_ends_the_run_at_T():
    """The default step is T / ceil(T / (h^2/4)): whole steps, none past T."""
    grid = mesh.build_grid(1, [1.0], 32)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    h = grid.h[0]
    trace = evolve.simulate(gen, first_mode(gen), T=0.05)
    assert trace.times.size == 194                   # ceil(0.05 / (h^2/4)) = 193 steps
    assert trace.dt <= h * h / 4.0
    assert trace.times[-1] == pytest.approx(0.05, rel=1e-15)


@pytest.mark.parametrize("n", [32, 256])
def test_default_step_rounding_adds_no_step(n):
    """T = 100 h^2 is 400 steps of h^2/4, although T / (h^2/4) reads
    400.00000000000006 on 32 nodes and 399.99999999999994 on 256."""
    grid = mesh.build_grid(1, [1.0], n)
    h = grid.h[0]
    dt = evolve.default_step(grid, 100 * h * h)
    assert mesh.step_count(100 * h * h, dt) == 400
    assert dt == pytest.approx(h * h / 4.0, rel=1e-15)


def test_simulate_refuses_a_step_that_does_not_divide_T(gen_a0):
    for T, dt in ((1.0, 0.3), (0.05, 0.02), (1e-3, 1e-2)):
        with pytest.raises(ValueError, match="whole multiple of dt"):
            evolve.simulate(gen_a0, first_mode(gen_a0), T=T, dt=dt)


# ---------------------------------------------------------------------------
# property tests: the blocked stepper against a per-step reference loop
#
# Random small grids, generators, potentials and damping; the block length is
# shrunk so that runs span several blocks and end in a partial one.

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(8, 40) if dim == 1 else st.integers(6, 12))
    grid = mesh.build_grid(dim, 1.0, n)
    amp, freq, phase = (draw(st.floats(0.0, 1.0)), draw(st.floats(0.5, 4.0)),
                        draw(st.floats(0.0, 3.0)))
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: amp * np.sin(freq * p + phase))
    kind = draw(st.sampled_from(["A0", "A1", "A2", "A3"]))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    c, d, split = None, None, None
    if kind == "A1":
        c = np.where(grid.coords[:, 0] < draw(st.floats(0.2, 1.0)),
                     draw(st.floats(0.1, 20.0)), 0.0) * rng.random(grid.num_nodes)
    elif kind in ("A2", "A3"):
        x0 = [-0.3] if dim == 1 else [-0.3, draw(st.floats(-0.5, 1.5))]
        split = mesh.split_boundary(grid, x0)
        d = np.zeros(grid.num_nodes)
        d[split.gamma0] = draw(st.floats(0.1, 5.0)) * (0.5 + rng.random(split.gamma0.size))
    gen = magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    dt = draw(st.sampled_from([1e-4, 5e-4, 2e-3, 1e-2]))
    width = draw(st.integers(2, 6))
    nsteps = draw(st.integers(width + 1, 4 * width).filter(lambda k: k % width))
    return gen, u0, dt, width, nsteps


def reference_loop(gen, u0, dt, nsteps, increase_tol=None):
    """Step by step with ``step``, ``energy`` and ``dissipation``."""
    u = u0.copy()
    energy, diss, first_rise = [gen.energy(u)], [], None
    for k in range(nsteps):
        u_next = evolve.step(gen, u, dt)
        diss.append(gen.dissipation(0.5 * (u + u_next)))
        energy.append(gen.energy(u_next))
        if (first_rise is None and increase_tol is not None
                and energy[-1] > energy[-2] + increase_tol):
            first_rise = k
        u = u_next
    return np.array(energy), np.array(diss), u, first_rise


def blocked(gen, u0, dt, width, nsteps, tridiagonal=True, **kw):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_BLOCK_ENTRIES", width * gen.size)
        if not tridiagonal:
            mp.setattr(magop, "_tridiagonal_solver", lambda M: None)
        return evolve.simulate(gen, u0, nsteps * dt, dt, **kw)


@PROPERTY
@given(cases())
def test_blocked_simulate_matches_reference_loop(case):
    gen, u0, dt, width, nsteps = case
    kept = Keep()
    trace = blocked(gen, u0, dt, width, nsteps, sink=kept)
    energy, diss, u_end, _ = reference_loop(gen, u0, dt, nsteps)
    e0 = energy[0]
    assert trace.energy.shape == (nsteps + 1,)
    np.testing.assert_allclose(trace.energy, energy, rtol=1e-12, atol=1e-12 * e0)
    np.testing.assert_allclose(trace.dissipation, diss, rtol=1e-9,
                               atol=1e-12 * max(np.max(np.abs(diss)), e0))
    assert np.max(trace.midpoint_residual) <= 1e-9 * max(e0, 1.0)
    scale = np.max(np.abs(u0))
    assert kept.steps == list(range(nsteps + 1))
    np.testing.assert_allclose(kept.states[-1], u_end, rtol=0, atol=1e-12 * scale)

    # every 1D generator is tridiagonal and takes the LAPACK path
    cn = sp.identity(gen.size, dtype=complex, format="csc") - (dt / 2.0) * gen.matrix
    assert (magop._tridiagonal_solver(cn) is not None) == (gen.grid.dim == 1)
    # a copy starts with no factor, so it is factored again, here by SuperLU
    gen_lu = dataclasses.replace(gen)
    kept_lu = Keep()
    trace_lu = blocked(gen_lu, u0, dt, width, nsteps, tridiagonal=False, sink=kept_lu)
    np.testing.assert_allclose(trace.energy, trace_lu.energy, rtol=1e-13, atol=1e-13 * e0)
    np.testing.assert_allclose(kept.states, kept_lu.states, rtol=0, atol=1e-13 * scale)


def anti_damped(gen, shift):
    """gen.matrix + shift I under a damped label, so the energy check applies."""
    parts = {f.name: getattr(gen, f.name) for f in dataclasses.fields(gen)}
    parts["matrix"] = (gen.matrix + shift * sp.identity(gen.size)).tocsr()
    if gen.kind == "A0":
        parts.update(kind="A1", damping_c=np.zeros(gen.size))
    return magop.GeneratorMatrix(**parts)


@PROPERTY
@given(cases(), st.floats(0.01, 0.2), st.integers(0, 100))
def test_energy_increase_reports_reference_step(case, shift_dt, pick):
    gen, u0, dt, width, nsteps = case
    bad = anti_damped(gen, shift_dt / dt)
    energy, _, _, _ = reference_loop(bad, u0, dt, nsteps)
    rises = np.diff(energy)
    tol = rises[pick % nsteps] * (1 - 1e-6)
    assume(tol > 0)
    # no rise within rounding of the tolerance, so both loops see the same steps
    assume(np.min(np.abs(energy[1:] - (energy[:-1] + tol))) > 1e-9 * tol)
    _, _, _, first = reference_loop(bad, u0, dt, nsteps, increase_tol=tol)
    with pytest.raises(evolve.EnergyIncreaseError,
                       match=re.escape(f"at step {first} (tolerance {tol:.3e})")):
        blocked(bad, u0, dt, width, nsteps, increase_tol=tol)


@pytest.mark.parametrize("dim", [1, 2])
def test_gauge_conjugate_steps_with_its_own_factor(dim):
    grid = mesh.build_grid(dim, 1.0, 24 if dim == 1 else 9)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.3 + np.sin(2.0 * p))
    gen = magop.assemble_generator("A0", grid, a)
    rng = np.random.default_rng(5)
    u = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    dt = 1e-3
    evolve.step(gen, u, dt)             # gen now holds its factor for dt
    psi = 1.5 * np.cos(3.0 * grid.coords[:, 0])
    conj = magop.assemble_generator("A0", grid, magop.potential_plus_edge_gradient(a, psi))
    phase = np.exp(1j * psi[gen.state_idx])
    want = np.conj(phase) * evolve.step(gen, phase * u, dt)
    np.testing.assert_allclose(evolve.step(conj, u, dt), want, rtol=0,
                               atol=1e-13 * np.max(np.abs(u)))


@pytest.mark.parametrize("kind", ["A0", "A1", "A2", "A3"])
def test_gauged_generator_is_the_conjugate(kind):
    """On a 2D grid with a potential of nonzero curl, the generator assembled
    from a + grad psi is D^-1 A D for D = exp(i psi) in every part the
    dynamics reads: it steps as D^-1 step(gen, D u), its energies are gen's
    on D u (for A2 through its own stiffness), and its midpoint energy law
    holds."""
    grid = mesh.build_grid(2, 1.0, 12)
    a = magop.MagneticPotential.from_callable(
        grid, lambda p: 3.0 * np.column_stack([-p[:, 1], p[:, 0]]) + 0.5 * np.sin(2.0 * p))
    psi = 1.5 * np.cos(grid.coords @ np.array([3.0, -2.0]))
    c = np.where(grid.coords[:, 0] < 0.4, 3.0, 0.0)
    split = mesh.split_boundary(grid, [-0.3, 0.5])
    d = np.zeros(grid.num_nodes)
    d[split.gamma0] = 1.5
    gen = magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)
    gauged = magop.assemble_generator(kind, grid, magop.potential_plus_edge_gradient(a, psi),
                                      c=c, d=d, split=split)
    phase = np.exp(1j * psi[gen.state_idx])[:, None]
    rng = np.random.default_rng(8)
    U = rng.normal(size=(gen.size, 4)) + 1j * rng.normal(size=(gen.size, 4))
    dt = 1e-3
    np.testing.assert_allclose(evolve.step(gauged, U, dt),
                               np.conj(phase) * evolve.step(gen, phase * U, dt),
                               rtol=0, atol=1e-12 * np.max(np.abs(U)))
    np.testing.assert_allclose(gauged.energies(U), gen.energies(phase * U), rtol=1e-12, atol=0)
    trace = evolve.simulate(gauged, U[:, 0], 50 * dt, dt)
    assert np.max(trace.midpoint_residual) <= 1e-9 * trace.energy[0]


def reference_states(gen, u0, dt, nsteps):
    """States 0..nsteps of the ``step`` loop, one row per step."""
    states = [np.asarray(u0, dtype=complex)]
    for _ in range(nsteps):
        states.append(evolve.step(gen, states[-1], dt))
    return np.array(states)


def _one_buffer_record(gen, dt, states, stride):
    """The snapshot record as first written: one zeroed (rows, 1 + 2N) array
    of every ``stride``-th state and the last."""
    keep = sorted(set(range(0, len(states), stride)) | {len(states) - 1})
    rec = np.zeros((len(keep), 1 + 2 * gen.grid.num_nodes))
    rec[:, 0] = dt * np.array(keep)
    rec[:, 1:].view(complex)[:, gen.state_idx] = states[keep]
    return rec.tobytes()


def _small_generator(kind, dim):
    grid = mesh.build_grid(dim, 1.0, 24 if dim == 1 else 7)
    a = magop.MagneticPotential.from_callable(grid, lambda p: 0.5 * np.sin(2.0 * p + 0.3))
    c = np.where(grid.coords[:, 0] < 0.4, 3.0, 0.0)
    split, d = None, None
    if kind in ("A2", "A3"):
        split = mesh.split_boundary(grid, [-0.3] * dim)
        d = np.zeros(grid.num_nodes)
        d[split.gamma0] = 1.5
    return magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)


# 20 steps: blocks of 3 and 7 end short, one of 20 or 25 holds them all
WIDTHS = (1, 2, 3, 7, 20, 25)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("kind", ["A0", "A2"])
def test_sink_sees_every_step_once_in_order(kind, width):
    """Whatever the block width, a last block shorter than the others
    included, the sink is given steps 0..20 once each, in order, with the
    states of the ``step`` loop, bit for bit."""
    gen = _small_generator(kind, 2)
    rng = np.random.default_rng(11)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    kept = Keep()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_BLOCK_ENTRIES", width * gen.size)
        evolve.simulate(gen, u0, 0.04, 2e-3, sink=kept)
    assert kept.steps == list(range(21))
    assert len(kept.blocks) == -(-20 // width)
    assert kept.states.tobytes() == reference_states(gen, u0, 2e-3, 20).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["A0", "A1", "A2", "A3"])
def test_snapshot_bytes_match_one_buffer_writer(tmp_path, kind, dim):
    """The record streamed block by block gives the bytes of the one-buffer
    record of the ``step`` loop's states, for every stride and block height,
    a last block shorter than the others included, and leaves the trace as
    it is."""
    gen = _small_generator(kind, dim)
    rng = np.random.default_rng(7)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    states = reference_states(gen, u0, 2e-3, 20)
    path = tmp_path / "s.bin"
    for stride in (1, 2, 3, 7):
        want = _one_buffer_record(gen, 2e-3, states, stride)
        for width in WIDTHS:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evolve, "_BLOCK_ENTRIES", width * gen.size)
                trace = evolve.simulate(gen, u0, 0.04, 2e-3)
                with evolve.SnapshotRecord(gen, path, 0.04, 2e-3, stride) as record:
                    streamed = evolve.simulate(gen, u0, 0.04, 2e-3, sink=record)
            assert path.read_bytes() == want, (stride, width)
            np.testing.assert_array_equal(streamed.energy, trace.energy)
            np.testing.assert_array_equal(streamed.dissipation, trace.dissipation)
            side = json.loads((tmp_path / "s.json").read_text())
            assert side == {"format": "float64 rows of (t, node0_re, node0_im, ...)",
                            "rows": len(want) // (8 * (1 + 2 * gen.grid.num_nodes)),
                            "row_length": 1 + 2 * gen.grid.num_nodes,
                            "nodes": gen.grid.num_nodes, "generator_kind": kind}


@pytest.mark.parametrize("dim", [1, 2])
def test_failed_run_leaves_no_record(tmp_path, dim):
    """A run stopped by the energy guard after several blocks have been
    appended removes its record and writes no sidecar."""
    bad = anti_damped(_small_generator("A1", dim), 5.0)
    rng = np.random.default_rng(3)
    u0 = rng.normal(size=bad.size) + 1j * rng.normal(size=bad.size)
    energy, _, _, _ = reference_loop(bad, u0, 2e-3, 20)
    rises = np.diff(energy)
    tol = 0.5 * (np.max(rises[:12]) + np.max(rises))   # first passed after step 11
    first = int(np.flatnonzero(rises > tol)[0])
    assert first >= 12
    path = tmp_path / "s.bin"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_BLOCK_ENTRIES", 2 * bad.size)
        with pytest.raises(evolve.EnergyIncreaseError, match=f"at step {first} "):
            with evolve.SnapshotRecord(bad, path, 0.04, 2e-3, 1) as record:
                evolve.simulate(bad, u0, 0.04, 2e-3, increase_tol=tol, sink=record)
    assert not path.exists() and not (tmp_path / "s.json").exists()


def test_streamed_simulate_memory_does_not_grow_with_steps(tmp_path):
    """A streamed stride-1 2D run holds one block of states and record rows:
    its traced peak at 800 steps (12 blocks of 68 states) is within 10 % of
    that at 100 steps (2 blocks).  The in-memory record of 800 states alone
    would be 12 MB, a block 1 MiB."""
    grid = mesh.build_grid(2, 1.0, 32)
    gen = magop.assemble_generator("A0", grid, magop.MagneticPotential.zero(grid))
    u0 = np.random.default_rng(0).normal(size=gen.size) + 0j
    dt = 1e-4
    gen.cayley_solver(dt)                       # the factor is made outside the trace
    peaks = []
    for nsteps in (100, 800):
        tracemalloc.start()
        with evolve.SnapshotRecord(gen, tmp_path / "s.bin", nsteps * dt, dt, 1) as record:
            evolve.simulate(gen, u0, nsteps * dt, dt, sink=record)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# ---------------------------------------------------------------------------
# the energy law on seeded random damped problems


def random_damped_problem(kind, dim, seed):
    """A random grid, potential and damping for a damped kind; for A1 the
    damping support is empty (seed 0), a box (seed 1) or every node (seed 2)."""
    rng = np.random.default_rng(1000 * dim + seed)
    grid = mesh.build_grid(dim, 1.0, int(rng.integers(10, 60) if dim == 1
                                         else rng.integers(6, 13)))
    amp, freq, phase = rng.uniform(0.0, 2.0), rng.uniform(0.5, 4.0), rng.uniform(0.0, 3.0)
    a = magop.MagneticPotential.from_callable(grid, lambda p: amp * np.sin(freq * p + phase))
    c, d, split = None, None, None
    if kind == "A1":
        box = grid.coords[:, 0] < rng.uniform(0.2, 0.6)
        c = (rng.uniform(0.1, 20.0) * rng.uniform(0.5, 1.0, grid.num_nodes)
             * (0.0, box, 1.0)[seed])
    else:
        split = mesh.split_boundary(grid, [-0.3] + [rng.uniform(-0.5, 1.5)] * (dim - 1))
        d = np.zeros(grid.num_nodes)
        d[split.gamma0] = rng.uniform(0.1, 5.0) * rng.uniform(0.5, 1.5, split.gamma0.size)
    gen = magop.assemble_generator(kind, grid, a, c=c, d=d, split=split)
    u0 = rng.normal(size=gen.size) + 1j * rng.normal(size=gen.size)
    dt = float(rng.choice([1e-4, 1e-3, 1e-2]))
    return gen, u0, dt, int(rng.integers(5, 60))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["A1", "A2", "A3"])
def test_energy_law_on_random_damped_problems(kind, dim, seed):
    """The midpoint energy law holds to 1e-9 max(E0, 1), a damped energy never
    rises beyond the verdict's 1e-12 E0, and a run checked one state per block
    matches the default run (one block here) to rounding: the per-block
    bookkeeping does not depend on how the steps are blocked."""
    gen, u0, dt, nsteps = random_damped_problem(kind, dim, seed)
    if kind == "A1":
        assert (gen._damping_support[0].size == 0) == (seed == 0)
    kept = Keep()
    trace = evolve.simulate(gen, u0, nsteps * dt, dt, sink=kept)
    e0 = trace.energy[0]
    assert np.max(trace.midpoint_residual) <= 1e-9 * max(e0, 1.0)
    assert np.max(np.diff(trace.energy)) <= 1e-12 * e0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve, "_BLOCK_ENTRIES", gen.size)
        kept_single = Keep()
        single = evolve.simulate(gen, u0, nsteps * dt, dt, sink=kept_single)
    assert kept_single.states.tobytes() == kept.states.tobytes()
    np.testing.assert_allclose(single.energy, trace.energy, rtol=1e-14, atol=0)
    scale = max(np.max(np.abs(trace.dissipation)), e0)
    np.testing.assert_allclose(single.dissipation, trace.dissipation, rtol=1e-12,
                               atol=1e-14 * scale)
