import numpy as np
import pytest

from magschro import evolve, magop, mesh, multiplier


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
    rep = multiplier.multiplier_identity_residual(traj, a, field)
    assert rep.residual == 0.0


def test_identity_rellich_mode_closed_form():
    """Standing mode with the radial multiplier: both sides reduce to the
    flux identity; closed-form value pi^2 T."""
    T = 0.25
    grid, a, traj = a0_trajectory(129, dt=2e-4, T=T)
    field = multiplier.MultiplierField.radial(grid, traj.times, [0.0])
    rep = multiplier.multiplier_identity_residual(traj, a, field)
    want = np.pi**2 * T
    assert abs(rep.lhs - want) < 1e-3 * want
    assert abs(rep.rhs - want) < 1e-3 * want
    assert rep.residual < 1e-3 * want
    # per-term oracle: only flux and carrier terms survive on the boundary
    assert abs(rep.terms["boundary_divergence"]) < 1e-12
    assert abs(rep.terms["boundary_time"]) < 1e-12
    assert abs(rep.terms["boundary_flux_pairing"] - 2 * want) < 2e-3 * want
    assert abs(rep.terms["boundary_carrier"] + want) < 1e-3 * want


def _analytic_field(grid, times, rng):
    """Random trig multiplier with hand-derived exact derivative fields."""
    al, be = rng.normal(), 0.5 * rng.normal()
    pf, ph, gr = 2.0, rng.normal(), 0.3
    xs = grid.coords[:, 0]
    base = al + be * np.sin(pf * xs + ph)
    dbase = be * pf * np.cos(pf * xs + ph)
    ddbase = -be * pf**2 * np.sin(pf * xs + ph)
    nt = times.size
    vals = np.empty((nt, grid.num_nodes, 1))
    jac = np.empty((nt, grid.num_nodes, 1, 1))
    div = np.empty((nt, grid.num_nodes))
    gdiv = np.empty((nt, grid.num_nodes, 1))
    tdv = np.empty((nt, grid.num_nodes, 1))
    for it, t in enumerate(times):
        s = 1 + gr * t
        vals[it, :, 0] = s * base
        jac[it, :, 0, 0] = s * dbase
        div[it] = s * dbase
        gdiv[it, :, 0] = s * ddbase
        tdv[it, :, 0] = gr * base
    return multiplier.MultiplierField(grid=grid, times=times, values=vals,
                                      jacobian=jac, divergence=div,
                                      grad_div=gdiv, time_deriv=tdv)


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
        field = _analytic_field(grid, traj.times, np.random.default_rng(seed))
        rep = multiplier.multiplier_identity_residual(traj, a, field)
        residuals.append(rep.residual)
    assert residuals[0] / residuals[1] >= 1.8
    assert residuals[1] / residuals[2] >= 1.8


def test_radial_field_consistency():
    grid = mesh.build_grid(2, [1.0, 1.0], 9)
    times = np.linspace(0, 0.1, 3)
    field = multiplier.MultiplierField.radial(grid, times, [0.2, -0.1])
    assert field.consistency_residual() < 1e-12
    assert np.all(field.divergence == 2.0)
