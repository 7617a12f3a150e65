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

The module also evaluates the auxiliary boundary-damping functional
Im(u | m . grad u) with its derivative balance, and the stationary
integration-by-parts identity behind the radial-multiplier estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import magop
from .mesh import poincare_constant, trapezoid_weights
from .weights import _smoothstep


@dataclass(eq=False)
class MultiplierField:
    """Vector multiplier X on the space-time grid with derived fields.

    values:     (nt, N, dim)
    jacobian:   (nt, N, dim, dim), jacobian[..., j, k] = d_j X_k
    divergence: (nt, N)
    grad_div:   (nt, N, dim)
    time_deriv: (nt, N, dim)
    """

    grid: object
    times: np.ndarray
    values: np.ndarray
    jacobian: np.ndarray
    divergence: np.ndarray
    grad_div: np.ndarray
    time_deriv: np.ndarray
    derived_numerically: bool = False

    @classmethod
    def radial(cls, grid, times, x0):
        """The field m(x) = x - x0, static: jacobian I, divergence dim."""
        times = np.asarray(times, dtype=float)
        nt, N, d = times.size, grid.num_nodes, grid.dim
        m = grid.coords - np.atleast_1d(np.asarray(x0, dtype=float))[None, :]
        vals = np.broadcast_to(m, (nt, N, d)).copy()
        jac = np.broadcast_to(np.eye(d), (nt, N, d, d)).copy()
        return cls(grid=grid, times=times, values=vals, jacobian=jac,
                   divergence=np.full((nt, N), float(d)),
                   grad_div=np.zeros((nt, N, d)),
                   time_deriv=np.zeros((nt, N, d)))

    @classmethod
    def normal_extension(cls, grid, times, T, collar, delta=0.1, margin=None):
        """The cutoff normal-extension multiplier phi(t) psi(x) nu_e(x).

        nu_e is the affine field matching the outward normal component on
        every face; psi is a per-axis quintic cutoff equal to 1 inside the
        ``collar`` box and 0 beyond the ``margin`` (default: one collar
        width); phi(t) ramps 0 -> 1 -> 0 over [0, delta] and [T - delta, T].
        Values, Jacobian, divergence and the time derivative are analytic;
        the divergence gradient falls back to finite differences of the
        analytic divergence.
        """
        times = np.asarray(times, dtype=float)
        lo = np.asarray(collar[0], dtype=float)
        hi = np.asarray(collar[1], dtype=float)
        if margin is None:
            margin = float(np.max(hi - lo))
        d = grid.dim
        N = grid.num_nodes
        xs = grid.coords

        def dramp(s):
            inside = (s > 0.0) & (s < 1.0)
            s = np.clip(s, 0.0, 1.0)
            return np.where(inside, 30.0 * s**2 * (1.0 - s) ** 2, 0.0)

        # per-axis cutoff: 1 inside [lo, hi], quintic decay over `margin`
        ax_val = np.ones((N, d))
        ax_der = np.zeros((N, d))
        for ax in range(d):
            x = xs[:, ax]
            below = (lo[ax] - x) / margin
            above = (x - hi[ax]) / margin
            ax_val[:, ax] = _smoothstep(1.0 - below) * _smoothstep(1.0 - above)
            ax_der[:, ax] = (dramp(1.0 - below) / margin * _smoothstep(1.0 - above)
                             - _smoothstep(1.0 - below) * dramp(1.0 - above) / margin)
        psi = np.prod(ax_val, axis=1)
        dpsi = np.empty((N, d))
        for ax in range(d):
            others = np.prod(np.delete(ax_val, ax, axis=1), axis=1) if d > 1 else 1.0
            dpsi[:, ax] = ax_der[:, ax] * others

        origin = np.asarray(grid.origin)
        extents = np.asarray(grid.extents)
        nu_e = 2.0 * (xs - origin) / extents - 1.0
        dnu = np.diag(2.0 / extents)

        phi_t = _smoothstep(times / delta) * _smoothstep((T - times) / delta)
        dphi_t = (dramp(times / delta) / delta * _smoothstep((T - times) / delta)
                  - _smoothstep(times / delta) * dramp((T - times) / delta) / delta)

        base = psi[:, None] * nu_e                      # (N, d)
        base_jac = np.empty((N, d, d))
        for j in range(d):
            for k in range(d):
                base_jac[:, j, k] = dpsi[:, j] * nu_e[:, k] + psi * dnu[j, k]
        base_div = np.einsum("njj->n", base_jac)

        nt = times.size
        vals = phi_t[:, None, None] * base[None, :, :]
        jac = phi_t[:, None, None, None] * base_jac[None, :, :, :]
        div = phi_t[:, None] * base_div[None, :]
        tdv = dphi_t[:, None, None] * base[None, :, :]
        grads = grid.gradients
        gd_base = np.column_stack([grads[ax] @ base_div for ax in range(d)])
        gdiv = phi_t[:, None, None] * gd_base[None, :, :]
        return cls(grid=grid, times=times, values=vals, jacobian=jac,
                   divergence=div, grad_div=gdiv, time_deriv=tdv)

    @classmethod
    def from_values(cls, grid, times, values, jacobian=None, divergence=None,
                    grad_div=None, time_deriv=None):
        """Build from samples; missing derived fields are filled by finite
        differences (flagged, since certification-grade runs should supply
        them analytically)."""
        import warnings as _w

        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        nt, N, d = values.shape
        grads = grid.gradients
        numeric = False
        if jacobian is None:
            numeric = True
            jacobian = np.empty((nt, N, d, d))
            for it in range(nt):
                for k in range(d):
                    for j in range(d):
                        jacobian[it, :, j, k] = grads[j] @ values[it, :, k]
        if divergence is None:
            numeric = True
            divergence = np.einsum("tnjj->tn", jacobian)
        if grad_div is None:
            numeric = True
            grad_div = np.empty((nt, N, d))
            for it in range(nt):
                for j in range(d):
                    grad_div[it, :, j] = grads[j] @ divergence[it]
        if time_deriv is None:
            numeric = True
            time_deriv = np.gradient(values, times, axis=0) if nt > 1 else np.zeros_like(values)
        if numeric:
            _w.warn("multiplier derived fields computed by finite differences",
                    stacklevel=2)
        return cls(grid=grid, times=times, values=values, jacobian=jacobian,
                   divergence=divergence, grad_div=grad_div,
                   time_deriv=time_deriv, derived_numerically=numeric)

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


def multiplier_identity_residual(traj, a, field, forcing=None):
    """|LHS - RHS| of the space-time multiplier balance on a trajectory.

    ``traj`` must provide snapshots on the full grid (conservative runs have
    forcing = 0; otherwise supply f = i u_t + Delta_a u on the snapshot
    grid).  Returns per-term magnitudes so a failing term is identifiable.
    """
    grid = traj.generator.grid
    times = traj.times
    if not np.array_equal(field.times, times):
        raise ValueError("multiplier field must be sampled at the snapshot times")
    nt = times.size
    N = grid.num_nodes
    d = grid.dim
    u = traj.full_fields()                      # (nt, N)
    ut = np.gradient(u, times, axis=0)
    wt = trapezoid_weights(times)
    wv = grid.volume_weights
    b = grid.boundary_idx
    ws = grid.surface_weights[b]
    nu = grid.normals[b]

    grads = grid.gradients
    gu = np.empty((nt, N, d), dtype=complex)    # magnetic gradient per snapshot
    for it in range(nt):
        for ax in range(d):
            gu[it, :, ax] = grads[ax] @ u[it] + 1j * a.values[:, ax] * u[it]

    X = field.values
    f = np.zeros((nt, N), dtype=complex) if forcing is None else np.asarray(forcing)

    # boundary quantities
    gu_b = gu[:, b, :]
    conormal = np.einsum("tnj,nj->tn", gu_b, nu)
    X_b = X[:, b, :]
    X_nu = np.einsum("tnj,nj->tn", X_b, nu)
    X_gu_b = np.einsum("tnj,tnj->tn", X_b, gu_b)
    div_b = field.divergence[:, b]
    u_b = u[:, b]
    ut_b = ut[:, b]

    def sigma_int(vals):
        return np.sum(wt[:, None] * ws[None, :] * vals)

    def vol_int(vals):
        return np.sum(wt[:, None] * wv[None, :] * vals)

    t_flux = sigma_int(np.real(conormal * np.conj(X_gu_b)))
    t_carrier = -0.5 * sigma_int(np.sum(np.abs(gu_b) ** 2, axis=2) * X_nu)
    t_div_b = 0.5 * sigma_int(np.real(div_b * u_b * np.conj(conormal)))
    t_time_b = np.real(-0.5j * np.sum(
        wt[:, None] * ws[None, :] * (u_b * X_nu * np.conj(ut_b))))
    lhs = t_flux + t_carrier + t_div_b + t_time_b

    jac_term = np.einsum("tnjk,tnj,tnk->tn", field.jacobian, gu, np.conj(gu))
    t_jac = vol_int(np.real(jac_term))
    t_graddiv = 0.5 * vol_int(np.real(
        u[:, :, None] * field.grad_div * np.conj(gu)).sum(axis=2))
    t_xt = np.real(0.5j * np.sum(
        wt[:, None] * wv[None, :]
        * np.einsum("tnj,tnj->tn", u[:, :, None] * field.time_deriv, np.conj(gu))))
    bracket_T = np.sum(wv * np.einsum("nj,nj->n", u[-1, :, None] * X[-1], np.conj(gu[-1])))
    bracket_0 = np.sum(wv * np.einsum("nj,nj->n", u[0, :, None] * X[0], np.conj(gu[0])))
    t_bracket = np.real(-0.5j * (bracket_T - bracket_0))
    t_forcing = vol_int(np.real(
        np.einsum("tnj,tnj->tn", f[:, :, None] * X, np.conj(gu))))
    t_div_f = 0.5 * vol_int(np.real(field.divergence * u * np.conj(f)))
    rhs = t_jac + t_graddiv + t_xt + t_bracket + t_forcing + t_div_f

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


# ---------------------------------------------------------------------------
# boundary-damping auxiliary functional


@dataclass(eq=False)
class AuxiliaryFunctionalReport:
    times: np.ndarray
    values: np.ndarray              # Im (u | m . grad u)
    derivative: np.ndarray          # centered differences of the values
    balance: np.ndarray             # the identity's right-hand side per time
    residual: float                 # max |derivative - balance| on interior times
    scale: float


def functional_script_E2(traj, x0):
    """Im(u | m . grad u) along a boundary-damped trajectory and its balance.

    The time derivative must match
        2 Re(Delta_a u | m . grad u) - n ||grad_a u||^2
        - Re((n + i)(m . nu) u | u')_gamma0
    up to O(h + dt^2).  Only trajectories of the boundary-damped flow with
    the flux-of-Laplacian condition are accepted.
    """
    gen = traj.generator
    if gen.kind != "A2":
        raise ValueError(f"auxiliary functional needs an A2 trajectory, got {gen.kind}")
    grid = gen.grid
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    m = grid.coords - x0[None, :]
    n_dim = grid.dim
    times = traj.times
    u_full = traj.full_fields()
    nt = times.size
    grads = grid.gradients
    wv = grid.volume_weights

    g0 = gen.split.gamma0
    sigma = grid.surface_weights[g0]
    m_nu = np.einsum("nj,nj->n", m[g0], grid.normals[g0])

    vals = np.empty(nt)
    balance = np.empty(nt)
    gross = 0.0
    for it in range(nt):
        uf = u_full[it]
        mgrad = np.zeros(grid.num_nodes, dtype=complex)
        for ax in range(n_dim):
            mgrad += m[:, ax] * (grads[ax] @ uf)
        vals[it] = np.sum(wv * uf * np.conj(mgrad)).imag

        state = traj.states[it]
        lap = gen.laplacian_apply(state)
        lap_full = gen.embed(lap)
        uprime = gen.embed(1j * lap)
        grad2 = np.vdot(state, gen.stiffness @ state).real
        term1 = 2.0 * np.sum(wv * lap_full * np.conj(mgrad)).real
        term3 = np.sum(sigma * ((n_dim + 1j) * m_nu * uf[g0])
                       * np.conj(uprime[g0])).real
        balance[it] = term1 - n_dim * grad2 - term3
        gross = max(gross, abs(term1) + n_dim * grad2 + abs(term3))

    deriv = np.gradient(vals, times)
    inner = slice(1, -1) if nt > 2 else slice(None)
    residual = float(np.max(np.abs(deriv[inner] - balance[inner])))
    scale = float(max(gross, 1e-300))
    return AuxiliaryFunctionalReport(times=times, values=vals, derivative=deriv,
                                     balance=balance, residual=residual,
                                     scale=scale)


# ---------------------------------------------------------------------------
# stationary integration-by-parts identity


def ibp_identity_radial(grid, u, x0):
    """Residual of Re(grad u | grad(m . grad u)) + (n-2)/2 ||grad u||^2
    - 1/2 (|grad u|^2 | m . nu)_Gamma for a single field."""
    u = np.asarray(u, dtype=complex)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    m = grid.coords - x0[None, :]
    grads = grid.gradients
    d = grid.dim
    gu = np.column_stack([grads[ax] @ u for ax in range(d)])
    mgrad = np.einsum("nj,nj->n", m, gu)
    g_mgrad = np.column_stack([grads[ax] @ mgrad for ax in range(d)])
    wv = grid.volume_weights
    t1 = np.sum(wv * np.einsum("nj,nj->n", gu, np.conj(g_mgrad))).real
    t2 = (d - 2) / 2.0 * np.sum(wv * np.sum(np.abs(gu) ** 2, axis=1)).real
    b = grid.boundary_idx
    m_nu = np.einsum("nj,nj->n", m[b], grid.normals[b])
    t3 = 0.5 * np.sum(grid.surface_weights[b]
                      * np.sum(np.abs(gu[b]) ** 2, axis=1) * m_nu)
    return float(abs(t1 + t2 - t3)), {"volume_pairing": float(t1),
                                      "gradient_energy": float(t2),
                                      "boundary_flux": float(t3)}


@dataclass(frozen=True, eq=False)
class RadialEstimateSlack:
    delta0: float                   # 4 (2 kappa1 + kappa1^2) ||a||_inf
    kappa1: float
    measured_delta: float           # slack actually needed by the sample
    lhs: float
    bound_without_delta: float


def radial_estimate_slack(grid, a, u, x0, split):
    """Measured slack in the radial-multiplier estimate for one field.

    Reports delta0 = 4 (2 kappa1 + kappa1^2) ||a||_inf together with the
    delta that would make the estimate tight for this sample; no specific
    delta is asserted since the remainder term has no closed form.
    """
    u = np.asarray(u, dtype=complex)
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    m = grid.coords - x0[None, :]
    d = grid.dim
    grads = grid.gradients
    kappa1 = poincare_constant(grid, split.gamma1).kappa
    delta0 = 4.0 * (2.0 * kappa1 + kappa1**2) * a.sup_norm

    gu = np.column_stack([grads[ax] @ u for ax in range(d)])
    mgrad = np.einsum("nj,nj->n", m, gu)
    lap = magop.laplacian_stencil_full(grid, a) @ u
    wv = grid.volume_weights
    lhs = np.sum(wv * lap * np.conj(mgrad)).real

    gmag = magop.magnetic_gradient(grid, a, u)
    grad2 = np.sum(wv * np.sum(np.abs(gmag) ** 2, axis=1)).real
    g0 = split.gamma0
    sigma = grid.surface_weights[g0]
    m_nu = np.einsum("nj,nj->n", m[g0], grid.normals[g0])
    dnu = np.zeros(grid.num_nodes, dtype=complex)
    for ax in range(d):
        sel = grid.normals[g0, ax] != 0
        dnu[g0[sel]] = grid.normals[g0[sel], ax] * gu[g0[sel], ax]
    bterm = np.sum(sigma * dnu[g0] * np.conj(mgrad[g0])).real
    bterm2 = 0.5 * np.sum(sigma * np.sum(np.abs(gu[g0]) ** 2, axis=1) * m_nu)
    base = (d - 2) / 2.0 * grad2 + bterm - bterm2
    if grad2 > 0:
        measured = (lhs - base) / ((d - 2) / 2.0 * grad2) if d != 2 else float("nan")
    else:
        measured = 0.0
    return RadialEstimateSlack(delta0=float(delta0), kappa1=float(kappa1),
                               measured_delta=float(measured), lhs=float(lhs),
                               bound_without_delta=float(base))
