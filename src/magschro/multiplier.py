"""Discrete verification of the multiplier identity.

The identity is the multiplier method's for the magnetic Schroedinger
equation i u_t + Delta_a u = 0 in Q = Omega x (0, T), u = 0 on
Sigma = boundary x (0, T), with the radial multiplier m(x) = x - x0
(Lions 1988; Machtyngier 1994).  With D = grad_a = grad + i a and
D_nu u = D u . nu its conormal trace,

    Re< D_nu u | m . D u >_Sigma - 1/2 ( |D u|^2 | m . nu )_Sigma
    =
    ( |D u|^2 )_Q
      - Re[ i/2 [ ( u m | D u )_Omega ]_0^T ]
      + Im( sum_{j<k} B_jk (m_k D_j u - m_j D_k u) | u )_Q,

with ( f | g ) the integral of f conj(g) and < | > its real part.  The
first volume term is Re< Dm D u | D u >_Q with Dm = I.  The last is the
magnetic one: D_j and D_k do not commute, D_j D_k - D_k D_j = i B_jk with
B_jk = d_j a_k - d_k a_j, and moving D_j past m . D u in the integration by
parts of Re( Delta_a u | m . D u )_Q leaves it.  It vanishes in 1D and for
curl-free potentials.

Six terms of the identity for a general field X(x, t) and forcing f vanish
here and are not computed: the two boundary terms carrying u (u = 0 on
Sigma: the A0 state is the interior nodes), the one carrying grad div X
(div m = dim), the one carrying X_t (m does not depend on t) and the two
carrying f (f = 0 on A0 trajectories).

All space-time integrals use the trapezoid quadratures of the grid; D and
the conormal trace are the potential's operators (``MagneticPotential.gradient``
and ``.conormal``), B comes from the grid's node gradients, so the residual
vanishes at second order in (h, dt) for smooth data.

The identity runs its own Crank-Nicolson trajectory: it is a sink of
``evolve.simulate`` and adds every term over each block of states as the
stepper makes it, so no trajectory is kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import evolve
from .mesh import step_count, trapezoid_weights


@dataclass(frozen=True, eq=False)
class MultiplierField:
    """The radial multiplier m(x) = x - x0 at the grid nodes, (N, dim)."""

    grid: object
    values: np.ndarray

    @classmethod
    def radial(cls, grid, x0):
        x0 = np.atleast_1d(np.asarray(x0, dtype=float))
        return cls(grid=grid, values=grid.coords - x0[None, :])


@dataclass(eq=False)
class MultiplierIdentityReport:
    residual: float
    lhs: float
    rhs: float
    terms: dict
    scale: float

    def to_json(self):
        doc = {"residual": self.residual, "lhs": self.lhs, "rhs": self.rhs,
               "scale": self.scale, "terms": self.terms}
        return json.dumps(doc, sort_keys=True)


def _re_pair(z, w):
    """Re(z conj(w)), elementwise."""
    return (z * np.conj(w)).real


def multiplier_identity_residual(gen, u0, T, dt, field):
    """|LHS - RHS| of the multiplier identity on the A0 run from u0 over
    [0, T] in steps of dt.

    ``gen`` is the A0 generator (ValueError for another: the identity would
    miss its forcing) and ``field`` the radial multiplier on its grid.
    Returns per-term values so a failing term is identifiable.

    Memory: the identity is a sink of ``evolve.simulate`` and sums every term
    over each block of states as the stepper makes it, in sub-blocks of
    samples.  Each sub-block scatters its states to the full grid
    (``GeneratorMatrix.embed``), applies D once and adds its volume and
    boundary contributions, its live (N, samples) arrays together about one
    ``evolve._BLOCK_ENTRIES`` buffer; so the run holds O(block), whatever the
    number of steps.
    """
    if gen.kind != "A0":
        raise ValueError(f"the multiplier identity needs an A0 generator, got {gen.kind}")
    grid, a = gen.grid, gen.potential
    if not np.array_equal(field.grid.coords, grid.coords):
        raise ValueError("multiplier field must be built on the generator's grid")
    nsteps = step_count(T, dt)
    N, dim = grid.num_nodes, grid.dim
    wt = trapezoid_weights(dt * np.arange(nsteps + 1))
    wv = grid.volume_weights
    b = grid.boundary_idx
    ws = grid.surface_weights[b]
    m = field.values
    m_b = m[b]
    w_carrier = -0.5 * ws * np.sum(m_b * grid.normals[b], axis=1)
    curls = [(j, k, grid.gradients[j] @ a.values[:, k] - grid.gradients[k] @ a.values[:, j])
             for j in range(dim) for k in range(j + 1, dim)]

    # the state, its dim gradients and about three (N, k) temporaries of the
    # products are live at once
    width = max(1, evolve._BLOCK_ENTRIES // ((dim + 3) * N))
    t_flux = t_carrier = t_jac = t_mag = 0.0
    brackets = [0.0, 0.0]

    def add(steps, U):
        nonlocal t_flux, t_carrier, t_jac, t_mag
        for start in range(0, len(steps), width):
            blk = steps[start:start + width]
            w = wt[blk.start:blk.stop]
            # node-major (N, k): the states on the full grid and their
            # magnetic gradients, one sparse product per axis
            u = gen.embed(U[:, start:start + width])
            gu = [G @ u for G in a.gradient]
            gu_b = [g[b] for g in gu]

            m_gu_b = sum(m_b[:, j, None] * g for j, g in enumerate(gu_b))
            t_flux += ws @ _re_pair(a.conormal @ u, m_gu_b) @ w
            t_carrier += w_carrier @ sum(_re_pair(g, g) for g in gu_b) @ w
            t_jac += sum(wv @ _re_pair(g, g) @ w for g in gu)
            for j, k, B in curls:
                z = m[:, k, None] * gu[j]
                z -= m[:, j, None] * gu[k]
                z *= u.conj()
                t_mag += (wv * B) @ z.imag @ w
            for e, i in enumerate((0, nsteps)):
                if i in blk:
                    c = i - blk.start
                    brackets[e] += sum((wv * m[:, j]) @ (u[:, c] * g[:, c].conj())
                                       for j, g in enumerate(gu))

    evolve.simulate(gen, u0, T, dt, sink=add)
    t_bracket = np.real(-0.5j * (brackets[1] - brackets[0]))
    lhs = t_flux + t_carrier
    rhs = t_jac + t_bracket + t_mag

    terms = {
        "boundary_flux_pairing": t_flux,
        "boundary_carrier": t_carrier,
        "volume_jacobian": t_jac,
        "endpoint_bracket": t_bracket,
        "volume_magnetic": t_mag,
    }
    scale = max(abs(v) for v in terms.values())
    return MultiplierIdentityReport(
        residual=float(abs(lhs - rhs)), lhs=float(lhs), rhs=float(rhs),
        terms={k: float(v) for k, v in terms.items()}, scale=float(max(scale, 1e-300)),
    )
