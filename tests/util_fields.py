"""Shared builders for randomized multiplier-identity runs."""

import numpy as np

from magschro import evolve, magop, mesh, multiplier


def trig_multiplier_field(grid, times, seed):
    """Random 1D trig multiplier with hand-derived exact derivative fields."""
    rng = np.random.default_rng(seed)
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


def random_mode_initial(seed, x):
    rng = np.random.default_rng(seed)
    coeffs = [(rng.normal(), rng.normal()) for _ in range(3)]
    return sum(c * np.sin((k + 1) * np.pi * x) * np.exp(1j * p)
               for k, (c, p) in enumerate(coeffs))


def identity_residuals_over_grids(seed, grids=(17, 33, 65), dt=2e-4, T=0.25):
    """Multiplier identity residual per grid for one randomized setup."""
    out = []
    for n in grids:
        grid = mesh.build_grid(1, [1.0], n)
        a = magop.MagneticPotential.from_callable(
            grid, lambda p: 0.3 * np.sin(2.0 * p[:, 0] + 0.4))
        gen = magop.assemble_generator("A0", grid, a)
        x = grid.coords[gen.state_idx, 0]
        _, traj = evolve.simulate(gen, random_mode_initial(seed, x), T, dt,
                                  snapshot_stride=1)
        field = trig_multiplier_field(grid, traj.times, seed)
        rep = multiplier.multiplier_identity_residual(traj, field)
        out.append(rep.residual)
    return np.array(out)
