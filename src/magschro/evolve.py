"""Time integration of u' = A u with energy bookkeeping and decay-law fitting.

The stepper is the implicit midpoint (Crank-Nicolson) rule

    (I - dt/2 A) u+ = (I + dt/2 A) u,

a Cayley transform of A, taken as u+ = 2 (I - dt/2 A)^-1 u - u.  It is
exactly norm-preserving in the generator's inner product when A is
skew-adjoint there and exactly contractive when A is dissipative, so
conservation and monotonicity are rounding-level statements.  The solve is
the generator's own ``cayley_solver(dt)``, b -> 2 (I - dt/2 A)^-1 b with the
factor of two folded into the factor, so a step is ``solve(u) - u``.  It is
factored once per dt by ``magop.factorize`` (zgttrf in 1D, SuperLU otherwise)
and kept on the generator, so the factor is freed with it.

The discrete energy increment satisfies

    (E(u+) - E(u)) / dt = Re (A um | um)_L,   um = (u + u+)/2,

with no discretization remainder; the recorded per-step dissipation is that
midpoint value, and the trapezoid average of the endpoint dissipations is
kept alongside as an O(dt^2) cross-check.

Memory is held per block, not per trajectory: the stepper fills a buffer of
about ``_BLOCK_ENTRIES`` complex entries, checks the energy law on it, and
streams its retained states to the snapshot record when ``simulate`` is given
one.  Only callers that need the states themselves (the multiplier identity,
the tests) keep them, in an in-memory Trajectory.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import magop
from .mesh import retained_steps, step_count


class EnergyIncreaseError(RuntimeError):
    """The discrete energy rose beyond tolerance; the assembly is suspect."""


def step(gen, u, dt):
    """One Crank-Nicolson step of u' = A u, by the Cayley identity."""
    if dt < 0:
        raise ValueError("dt must be nonnegative")
    u = np.asarray(u, dtype=complex)
    if dt == 0:
        return u.copy()
    return gen.cayley_solver(dt)(u) - u


@dataclass(eq=False)
class Trajectory:
    """Snapshots of a simulation, on the generator's state space."""

    generator: object
    times: np.ndarray
    states: np.ndarray        # (n_snap, n_state)

    def full_field(self, i):
        """Snapshot i zero-extended to the full grid."""
        return self.generator.embed(self.states[i])


@dataclass(eq=False)
class EnergyTrace:
    """Energy/dissipation time series of one run."""

    kind: str
    times: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray           # midpoint values at t_(n+1/2)
    midpoint_residual: np.ndarray     # |dE/dt - midpoint dissipation|, rounding level
    endpoint_residual: np.ndarray     # |dE/dt - trapezoid endpoint dissipation|, O(dt^2)
    dt: float
    conservation: dict = field(default_factory=dict)

    def export_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,energy,dissipation,cum_residual\n")
            diss = np.append(self.dissipation, 0.0)
            cum = np.concatenate([[0.0], np.cumsum(self.midpoint_residual)])
            rows = np.column_stack([self.times, self.energy, diss, cum])
            fh.write(("%.17g,%.17g,%.17g,%.17g\n" * len(rows)) % tuple(rows.ravel().tolist()))


# States buffered between two checks of the energy law, counted in complex
# entries (1 MiB): about 256 states of a 1D grid, 17 of a 64 x 64 grid.
_BLOCK_ENTRIES = 1 << 16


class _SnapshotRecord:
    """The binary snapshot record (t, re/im per node) and its JSON sidecar.

    Rows are appended once per block of states from one reused buffer, as
    tall as the most retained states any block holds, whose nodes off the
    state stay zero: only the times and the state entries are filled.  The
    sidecar is written next to the record (same name, ``.json``) when the run
    completes; a run that raises removes the partial record.
    """

    def __init__(self, gen, path, steps, width):
        self.gen, self.path, self.rows = gen, Path(path), steps.size
        nodes = gen.grid.num_nodes
        # block b holds steps b*width+1 .. (b+1)*width, the first also step 0
        height = int(np.bincount(np.maximum(steps - 1, 0) // width).max())
        self.buf = np.zeros((height, 1 + 2 * nodes))
        self.nodes = self.buf[:, 1:].view(complex)

    def __enter__(self):
        self.fh = open(self.path, "wb")
        return self

    def append(self, times, cols):
        """Append the states ``cols`` (n, k) at ``times`` (k,) as k rows."""
        k = times.size
        self.buf[:k, 0] = times
        self.nodes[:k, self.gen.state_idx] = cols.T
        self.buf[:k].tofile(self.fh)

    def __exit__(self, exc_type, exc, tb):
        self.fh.close()
        if exc_type is not None:
            self.path.unlink()
            return
        sidecar = {
            "format": "float64 rows of (t, node0_re, node0_im, ...)",
            "rows": int(self.rows),
            "row_length": int(self.buf.shape[1]),
            "nodes": int(self.gen.grid.num_nodes),
            "generator_kind": self.gen.kind,
        }
        with open(self.path.with_suffix(".json"), "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)


def default_step(grid, T):
    """T / n for the fewest whole n steps no longer than h^2/4, h the
    grid's finest spacing: the run ends at T.  A quotient T / (h^2/4) within
    1e-9 relative of a whole number (``mesh.step_count``'s tolerance) counts
    as that number, so its rounding cannot add a step."""
    return T / np.ceil(T / (float(min(grid.h)) ** 2 / 4.0) * (1.0 - 1e-9))


def simulate(gen, u0, T, dt=None, snapshot_stride=1, increase_tol=None, record=None):
    """Integrate u' = A u over [0, T] and record the energy law.

    T must be a whole multiple of dt (ValueError otherwise).  The default
    step is ``default_step``, at most h^2/4 (to 1e-9), which keeps the
    implicit solve conditioned like a parabolic problem.  Returns (EnergyTrace,
    Trajectory), the Trajectory None when the states go to ``record``.  Raises
    EnergyIncreaseError when the energy of a damped generator rises beyond
    ``increase_tol`` (default: ten times dt^2 times the initial energy, plus
    rounding headroom).

    The time loop only advances the state, by the Cayley identity
    u+ = 2 (I - dt/2 A)^-1 u - u (``solve(u) - u``), into a buffer of states.
    Once per full buffer, one pass over its states gives their energies (half
    the generator's quadratic form), the endpoint and midpoint dissipations
    from the damped traces, and for A0 the mass and stiffness drifts, the mass
    norm read off the energy as sqrt(2 E); then the retained states of the
    block (every ``snapshot_stride``-th step, and the last) are taken out.

    Memory: without ``record`` the retained states are kept in the returned
    Trajectory, an (n_snap, n) array.  With ``record`` (a path) they are
    appended block by block to the binary snapshot record there, with its
    JSON sidecar next to it (``_SnapshotRecord``), and the Trajectory is
    None: the run then holds one block of states and one block of record
    rows, about ``_BLOCK_ENTRIES`` complex entries each, whatever the number
    of steps.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"need finite T > 0, got T={T!r}")
    if dt is None:
        dt = default_step(gen.grid, T)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need finite dt > 0, got dt={dt!r}")
    if snapshot_stride < 1:
        raise ValueError(f"snapshot_stride must be at least 1, got {snapshot_stride!r}")
    u = np.asarray(u0, dtype=complex).copy()
    n = gen.size
    if u.shape[0] != n:
        raise ValueError(f"initial state has size {u.shape[0]}, generator {n}")
    nsteps = step_count(T, dt)
    times = dt * np.arange(nsteps + 1)

    conservative = gen.kind == "A0"
    e0 = gen.energy(u)
    if increase_tol is None:
        increase_tol = max(dt * dt * e0, 1e-13 * max(e0, 1.0)) * 10.0

    energy = np.empty(nsteps + 1)
    diss = np.zeros(nsteps)
    res_mid = np.zeros(nsteps)
    res_end = np.zeros(nsteps)
    energy[0] = e0
    mass0 = gen.mass_norm(u)
    stiff0 = gen.stiffness_norm(u)
    mass_drift = 0.0
    stiff_drift = 0.0

    solve = gen.cayley_solver(dt)
    # column 0 holds the last state of the previous block
    width = max(1, _BLOCK_ENTRIES // n)
    buf = np.empty((n, width + 1), dtype=complex)
    buf[:, 0] = u
    snap_steps = retained_steps(nsteps, snapshot_stride)
    if record is None:
        states = np.empty((snap_steps.size, n), dtype=complex)
        sink = contextlib.nullcontext()
    else:
        sink = _SnapshotRecord(gen, record, snap_steps, width)
    kept = 0
    done = 0
    with sink:
        while done < nsteps:
            m = min(width, nsteps - done)
            for j in range(1, m + 1):
                u_next = solve(u)
                u_next -= u
                buf[:, j] = u = u_next

            # a full buffer is C-contiguous, so sparse products take it uncopied
            U = buf[:, :m + 1]
            steps = slice(done, done + m)
            energy[done + 1:done + m + 1] = gen.energies(U)[1:]
            e_old, e_new = energy[done:done + m], energy[done + 1:done + m + 1]
            bad = np.flatnonzero(e_new > e_old + increase_tol)
            if not conservative and bad.size:
                k = int(bad[0])
                raise EnergyIncreaseError(
                    f"energy rose by {e_new[k] - e_old[k]:.3e} at step {done + k} "
                    f"(tolerance {increase_tol:.3e}); generator assembly is suspect"
                )
            rate = (e_new - e_old) / dt
            d_end, diss[steps] = gen.step_dissipations(U)
            res_mid[steps] = np.abs(rate - diss[steps])
            res_end[steps] = np.abs(rate - 0.5 * (d_end[:-1] + d_end[1:]))
            if conservative:
                # A0 lives in the mass metric: 2 E is its mass form, bitwise
                mass_drift = max(mass_drift, np.max(np.abs(np.sqrt(2.0 * e_new) - mass0)))
                stiff_drift = max(stiff_drift,
                                  np.max(np.abs(gen.stiffness_norms(U)[1:] - stiff0)))

            # the retained steps of this block; the first block also holds step 0
            stop = int(np.searchsorted(snap_steps, done + m, side="right"))
            taken = snap_steps[kept:stop]
            if record is None:
                states[kept:stop] = U[:, taken - done].T
            else:
                sink.append(times[taken], U[:, taken - done])
            kept = stop
            buf[:, 0] = u
            done += m

    conservation = {}
    if conservative:
        conservation = {
            "mass_norm_initial": mass0,
            "stiffness_norm_initial": stiff0,
            "mass_norm_drift": mass_drift,
            "stiffness_norm_drift": stiff_drift,
            "mass_norm_relative_drift": mass_drift / mass0 if mass0 else 0.0,
            "stiffness_norm_relative_drift": stiff_drift / stiff0 if stiff0 else 0.0,
        }

    trace = EnergyTrace(
        kind=gen.kind, times=times, energy=energy, dissipation=diss,
        midpoint_residual=res_mid, endpoint_residual=res_end, dt=dt,
        conservation=conservation,
    )
    traj = None
    if record is None:
        traj = Trajectory(generator=gen, times=times[snap_steps], states=states)
    return trace, traj


# ---------------------------------------------------------------------------
# decay-law fitting


@dataclass(frozen=True, eq=False)
class ExponentialFit:
    rate: float                 # rho in E ~ E0 exp(-rho t)
    r_squared: float


def fit_exponential(trace, window=None):
    """Least-squares slope of ln E against t over the window."""
    t = trace.times
    e = trace.energy
    if window is not None:
        mask = (t >= window[0]) & (t <= window[1])
        t, e = t[mask], e[mask]
    if t.size < 2:
        raise ValueError("window contains fewer than two samples")
    if np.any(e <= 0):
        raise ValueError("window contains non-positive energies")
    y = np.log(e)
    A = np.column_stack([t, np.ones_like(t)])
    coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
    ss_res = float(np.sum((y - A @ coef) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ExponentialFit(rate=-float(coef[0]), r_squared=r2)


def prepare_smooth_initial(gen, v, k=1):
    """Apply the discrete inverse k times: the result lies in D(A^k)."""
    if int(k) < 1:
        raise ValueError("k must be at least 1")
    solve = magop.factorize(gen.matrix)["N"]
    u = np.asarray(v, dtype=complex)
    for _ in range(int(k)):
        u = solve(u)
    return u
