"""Shared builders for randomized multiplier-identity runs."""

import numpy as np

from magschro import evolve, magop, mesh, multiplier


def random_mode_initial(seed, x):
    rng = np.random.default_rng(seed)
    coeffs = [(rng.normal(), rng.normal()) for _ in range(3)]
    return sum(c * np.sin((k + 1) * np.pi * x) * np.exp(1j * p)
               for k, (c, p) in enumerate(coeffs))


def identity_residuals_over_grids(seed, grids=(17, 33, 65), dt=2e-4, T=0.25):
    """Multiplier identity residual per grid for one randomized initial state,
    with the radial multiplier x + 0.3."""
    out = []
    for n in grids:
        grid = mesh.build_grid(1, [1.0], n)
        a = magop.MagneticPotential.from_callable(
            grid, lambda p: 0.3 * np.sin(2.0 * p[:, 0] + 0.4))
        gen = magop.assemble_generator("A0", grid, a)
        x = grid.coords[gen.state_idx, 0]
        _, traj = evolve.simulate(gen, random_mode_initial(seed, x), T, dt,
                                  snapshot_stride=1)
        field = multiplier.MultiplierField.radial(grid, [-0.3])
        rep = multiplier.multiplier_identity_residual(traj, field)
        out.append(rep.residual)
    return np.array(out)
