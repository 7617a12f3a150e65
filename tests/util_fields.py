"""Shared builders for streamed runs, randomized multiplier-identity runs and
potentials with no magnetic field."""

import numpy as np

from magschro import magop, mesh, multiplier


class Keep:
    """A ``simulate`` sink that keeps every step it is given and a copy of
    its state: the in-memory oracle of the streamed consumers."""

    def __init__(self):
        self.steps, self.blocks = [], []

    def __call__(self, steps, U):
        assert isinstance(steps, range) and U.shape[1] == len(steps)
        self.steps += steps
        self.blocks.append(U.T.copy())

    @property
    def states(self):
        """The kept states, one row per step."""
        return np.vstack(self.blocks)


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
        field = multiplier.MultiplierField.radial(grid, [-0.3])
        rep = multiplier.multiplier_identity_residual(
            gen, random_mode_initial(seed, x), T, dt, field)
        out.append(rep.residual)
    return np.array(out)


def sine_part(p):
    return 0.6 * np.sin(2.3 * p + 0.4)


def with_random_gradient(grid, seed, fn=sine_part):
    """fn sampled on the grid plus the edge gradient of a random node psi: the
    field of fn (none for the default sine part), and link phases that change
    across every axis."""
    rng = np.random.default_rng(seed)
    smooth = magop.MagneticPotential.from_callable(grid, fn)
    return magop.potential_plus_edge_gradient(smooth, rng.uniform(-np.pi, np.pi, grid.num_nodes))
