"""Discrete verification of the multiplier identities.

The central object is the space-time balance obtained by pairing the
evolution equation with a vector-field multiplier: for f = i u_t + Delta_a u
and a C^2 field X(x, t),

    Re< grad_a u . nu | X . grad_a u >_Sigma
      - 1/2 ( |grad_a u|^2 | X . nu )_Sigma
      + 1/2 Re( div(X) u | grad_a u . nu )_Sigma
      - Re[ i/2 ( u (X . nu) | u_t )_Sigma ]
    =
    Re< DX grad_a u | grad_a u >_Q
      + 1/2 Re( u grad div(X) | grad_a u )_Q
      + Re[ i/2 ( u X_t | grad_a u )_Q ]
      - Re[ i/2 [ ( u X | grad_a u )_Omega ]_0^T ]
      + Re< f X | grad_a u >_Q
      + 1/2 Re( div(X) u | f )_Q,

with every pairing taken through its real part (the derivation extracts
real parts throughout).  All space-time integrals use the trapezoid
quadratures of the grid; traces and gradients use the second-order node
stencils, so the residual vanishes at second order in (h, dt) for smooth
data.

The potential is that of the trajectory's generator, and grad_a and the
conormal trace grad_a u . nu are its operators (``MagneticPotential.gradient``
and ``.conormal``).  The field supplied is the radial multiplier
m(x) = x - x0, with its derived fields in closed form.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import evolve
from .mesh import trapezoid_weights


@dataclass(eq=False)
class MultiplierField:
    """Vector multiplier X on the space-time grid with derived fields.

    values:     (nt, N, dim)
    jacobian:   (nt, N, dim, dim), jacobian[..., j, k] = d_j X_k
    divergence: (nt, N)
    grad_div:   (nt, N, dim)
    time_deriv: (nt, N, dim)

    A field that does not depend on t may hold read-only broadcast views of
    one (N, ...) array for these (``radial``).
    """

    grid: object
    times: np.ndarray
    values: np.ndarray
    jacobian: np.ndarray
    divergence: np.ndarray
    grad_div: np.ndarray
    time_deriv: np.ndarray

    @classmethod
    def radial(cls, grid, times, x0):
        """The field m(x) = x - x0, static: jacobian I, divergence dim.

        Each field is stored once and broadcast over t (read-only views), so
        no (nt, N, ...) copy is made.
        """
        times = np.asarray(times, dtype=float)
        nt, N, d = times.size, grid.num_nodes, grid.dim
        m = grid.coords - np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
        return cls(grid=grid, times=times,
                   values=np.broadcast_to(m, (nt, N, d)),
                   jacobian=np.broadcast_to(np.eye(d), (nt, N, d, d)),
                   divergence=np.broadcast_to(float(d), (nt, N)),
                   grad_div=np.broadcast_to(0.0, (nt, N, d)),
                   time_deriv=np.broadcast_to(0.0, (nt, N, d)))

    def consistency_residual(self):
        """Round-trip check of the derived fields against finite differences."""
        grads = self.grid.gradients
        worst = 0.0
        for it in range(self.times.size):
            div_fd = np.zeros(self.grid.num_nodes)
            for j in range(self.grid.dim):
                div_fd += grads[j] @ self.values[it, :, j]
            worst = max(worst, float(np.max(np.abs(div_fd - self.divergence[it]))))
        return worst


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


def multiplier_identity_residual(traj, field, forcing=None):
    """|LHS - RHS| of the space-time multiplier balance on a trajectory.

    ``traj`` must provide snapshots on the full grid (conservative runs have
    forcing = 0; otherwise supply f = i u_t + Delta_a u on the snapshot
    grid).  The potential is that of the trajectory's generator.  Returns
    per-term magnitudes so a failing term is identifiable.

    Memory: the volume terms are summed over blocks of time samples.  Each
    block scatters its states to the full grid, applies grad_a once and adds
    its contributions, its live (N, samples) arrays together about one
    ``evolve._BLOCK_ENTRIES`` buffer; only the boundary rows (u, the conormal
    trace and grad_a u on the boundary nodes) are kept for every sample, for
    u_t and the boundary terms.  Beyond the trajectory itself the identity
    holds O(block + nt * boundary nodes), not O(nt * N).
    """
    gen = traj.generator
    grid, a = gen.grid, gen.potential
    times = traj.times
    if not np.array_equal(field.times, times):
        raise ValueError("multiplier field must be sampled at the snapshot times")
    nt, N, dim = times.size, grid.num_nodes, grid.dim
    wt = trapezoid_weights(times)
    wv = grid.volume_weights
    b = grid.boundary_idx
    ws = grid.surface_weights[b]
    nu = grid.normals[b]
    X = field.values
    f_all = None if forcing is None else np.asarray(forcing)

    def vol_int(vals, w):
        return wv @ vals @ w

    def re_pair(z, w):
        """Re(z conj(w)), elementwise."""
        return (z * np.conj(w)).real

    # boundary rows (nt, nb), gathered block by block; u_t is needed there only
    u_b = np.empty((nt, b.size), dtype=complex)
    conormal = np.empty((nt, b.size), dtype=complex)
    gu_b = np.empty((nt, b.size, dim), dtype=complex)

    # volume terms over blocks of samples: the state, its dim gradients and
    # about three (N, k) temporaries of the products are live at once
    width = max(1, evolve._BLOCK_ENTRIES // ((dim + 3) * N))
    t_jac = t_graddiv = t_xt = t_forcing = t_div_f = 0.0
    brackets = [0.0, 0.0]
    for start in range(0, nt, width):
        blk = slice(start, min(start + width, nt))
        w = wt[blk]
        # node-major (N, k): the snapshots on the full grid and their
        # magnetic gradients, one sparse product per axis
        u = np.zeros((N, w.size), dtype=complex)
        u[gen.state_idx] = traj.states[blk].T
        gu = [G @ u for G in a.gradient]
        u_b[blk] = u[b].T
        conormal[blk] = (a.conormal @ u).T
        for j, g in enumerate(gu):
            gu_b[blk, :, j] = g[b].T

        # field slices may be broadcast views of a static field
        t_jac += sum(vol_int(field.jacobian[blk, :, j, k].T * re_pair(gu[j], gu[k]), w)
                     for j in range(dim) for k in range(dim))
        for j, g in enumerate(gu):
            p = u * g.conj()                    # u conj(grad_a u) along axis j
            t_graddiv += 0.5 * vol_int(field.grad_div[blk, :, j].T * p.real, w)
            t_xt -= 0.5 * vol_int(field.time_deriv[blk, :, j].T * p.imag, w)  # Re(i/2 z) = -Im(z)/2
            for e, i in enumerate((0, nt - 1)):
                if blk.start <= i < blk.stop:
                    brackets[e] += (wv * X[i, :, j]) @ p[:, i - blk.start]
        if f_all is not None:                   # f = 0: both forcing terms vanish
            f = f_all[blk].T
            t_forcing += sum(vol_int(X[blk, :, j].T * re_pair(f, g), w)
                             for j, g in enumerate(gu))
            t_div_f += 0.5 * vol_int(field.divergence[blk].T * re_pair(u, f), w)
    t_bracket = np.real(-0.5j * (brackets[1] - brackets[0]))
    rhs = t_jac + t_graddiv + t_xt + t_bracket + t_forcing + t_div_f

    X_b = X[:, b, :]
    X_nu = np.einsum("tnj,nj->tn", X_b, nu)
    X_gu_b = np.einsum("tnj,tnj->tn", X_b, gu_b)
    div_b = field.divergence[:, b]
    ut_b = np.gradient(u_b, times, axis=0)

    def sigma_int(vals):
        return np.sum(wt[:, None] * ws[None, :] * vals)

    t_flux = sigma_int(np.real(conormal * np.conj(X_gu_b)))
    t_carrier = -0.5 * sigma_int(np.sum(np.abs(gu_b) ** 2, axis=2) * X_nu)
    t_div_b = 0.5 * sigma_int(np.real(div_b * u_b * np.conj(conormal)))
    t_time_b = np.real(-0.5j * np.sum(
        wt[:, None] * ws[None, :] * (u_b * X_nu * np.conj(ut_b))))
    lhs = t_flux + t_carrier + t_div_b + t_time_b

    terms = {
        "boundary_flux_pairing": t_flux,
        "boundary_carrier": t_carrier,
        "boundary_divergence": t_div_b,
        "boundary_time": t_time_b,
        "volume_jacobian": t_jac,
        "volume_grad_div": t_graddiv,
        "volume_time_deriv": t_xt,
        "endpoint_bracket": t_bracket,
        "volume_forcing": t_forcing,
        "volume_div_forcing": t_div_f,
    }
    scale = max(abs(v) for v in terms.values())
    return MultiplierIdentityReport(
        residual=float(abs(lhs - rhs)), lhs=float(lhs), rhs=float(rhs),
        terms={k: float(v) for k, v in terms.items()}, scale=float(max(scale, 1e-300)),
    )
