"""Time integration of u' = A u with energy bookkeeping and decay-law fitting.

The stepper is the implicit midpoint (Crank-Nicolson) rule

    (I - dt/2 A) u+ = (I + dt/2 A) u,

a Cayley transform of A, taken as u+ = 2 (I - dt/2 A)^-1 u - u.  It is
exactly norm-preserving in the generator's inner product when A is
skew-adjoint there and exactly contractive when A is dissipative, so
conservation and monotonicity are rounding-level statements.  The solve is
the generator's own ``cayley_solver(dt)``, b -> 2 (I - dt/2 A)^-1 b with the
factor of two folded into the system, so a step is ``solve(u) - u``.  It is
set up once per dt and kept on the generator, so it is freed with it, by one
of the routes ``cayley_route(dt)`` names: ``band``, zgttrf of (I - dt/2 A)/2
in 1D; otherwise the weighted system W (I - dt/2 A)/2, W = M + i sigma d [A2],
applied to W b, in A0's closed-form axis modes where the link phases separate
by axis (``modes`` for A0, ``modes+schur`` for A2 and A3, whose gamma0
unknowns a dense Schur complement eliminates), else factored by SuperLU
(``superlu``: A1 and potentials whose phases do not separate).  That system
is strictly column diagonally dominant, so partial pivoting keeps its
diagonal and the minimum-degree fill, which I - dt/2 A itself loses on A2
from about 128^2 on (CHANGES.md).

The discrete energy increment satisfies

    (E(u+) - E(u)) / dt = Re (A um | um)_L,   um = (u + u+)/2,

with no discretization remainder; the recorded per-step dissipation is that
midpoint value, and the trapezoid average of the endpoint dissipations is
kept alongside as an O(dt^2) cross-check.

Memory is held per block, not per trajectory: the stepper fills a buffer of
about ``_BLOCK_ENTRIES`` complex entries, checks the energy law on it, and
hands the block to the caller's sink, which consumes it before the buffer is
reused.  The ``simulate`` kind's sink is the snapshot record
(``SnapshotRecord``); the multiplier identity sums its terms in another.
"""

from __future__ import annotations

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


def _block_width(n):
    """Steps per block of ``simulate`` on n unknowns."""
    return max(1, _BLOCK_ENTRIES // n)


class SnapshotRecord:
    """The binary snapshot record (t, re/im per node) and its JSON sidecar: a
    ``simulate`` sink.

    It keeps every ``stride``-th step of the run over [0, T] in steps of dt,
    and the last.  The retained states of each block are appended as rows
    from one reused buffer, as tall as the most any block retains, whose
    nodes off the state stay zero: only the times and the state entries are
    filled.  The sidecar is written next to the record (same name, ``.json``)
    when the run completes; a run that raises removes the partial record.
    """

    def __init__(self, gen, path, T, dt, stride):
        if stride < 1:
            raise ValueError(f"snapshot stride must be at least 1, got {stride!r}")
        self.gen, self.path, self.dt, self.stride = gen, Path(path), dt, stride
        self.steps = retained_steps(step_count(T, dt), stride)
        # block b holds steps b*width+1 .. (b+1)*width, the first also step 0
        width = _block_width(gen.size)
        height = int(np.bincount(np.maximum(self.steps - 1, 0) // width).max())
        self.buf = np.zeros((height, 1 + 2 * gen.grid.num_nodes))

    def __enter__(self):
        self.fh = open(self.path, "wb")
        return self

    def __call__(self, steps, U):
        """Append the retained ones of the states U (n, k) at ``steps``.  They
        are every stride-th column from the first, but for the run's last
        step, which the stride may not reach: each run is read as a slice."""
        lo, hi = np.searchsorted(self.steps, (steps[0], steps[-1] + 1))
        taken = self.steps[lo:hi]
        k = taken.size
        self.buf[:k, 0] = self.dt * taken
        rows = self.buf[:k, 1:].view(complex)
        cols = taken - steps[0]
        run = k if k < 2 or cols[-1] - cols[-2] == self.stride else k - 1
        if run:
            rows[:run, self.gen.state_idx] = U[:, cols[0]:cols[run - 1] + 1:self.stride].T
        if run < k:
            rows[run, self.gen.state_idx] = U[:, cols[-1]]
        self.buf[:k].tofile(self.fh)

    def __exit__(self, exc_type, exc, tb):
        self.fh.close()
        if exc_type is not None:
            self.path.unlink()
            return
        sidecar = {
            "format": "float64 rows of (t, node0_re, node0_im, ...)",
            "rows": int(self.steps.size),
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


def simulate(gen, u0, T, dt=None, increase_tol=None, sink=None):
    """Integrate u' = A u over [0, T] and record the energy law.

    T must be a whole multiple of dt (ValueError otherwise).  The default
    step is ``default_step``, at most h^2/4 (to 1e-9), which keeps the
    implicit solve conditioned like a parabolic problem.  Returns the
    EnergyTrace.  Raises EnergyIncreaseError when the energy of a damped
    generator rises beyond ``increase_tol`` (default: ten times dt^2 times
    the initial energy, plus rounding headroom).

    The time loop only advances the state, by the Cayley identity
    u+ = 2 (I - dt/2 A)^-1 u - u (``solve(u) - u``), into a buffer of states.
    Once per block, one pass over its states gives their energies (half
    the generator's quadratic form), the endpoint and midpoint dissipations
    from the damped traces, and for A0 the mass and stiffness drifts, the mass
    norm read off the energy as sqrt(2 E); then the block goes to
    ``sink(steps, U)``: U (n, k) holds the states of the steps in the range
    ``steps``, and steps 0..nsteps each arrive once, in order.  U is a view of
    the reused buffer, valid during the call only, so the run holds one block
    of about ``_BLOCK_ENTRIES`` complex entries whatever the number of steps.
    """
    if not (np.isfinite(T) and T > 0):
        raise ValueError(f"need finite T > 0, got T={T!r}")
    if dt is None:
        dt = default_step(gen.grid, T)
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"need finite dt > 0, got dt={dt!r}")
    u = np.asarray(u0, dtype=complex).copy()
    n = gen.size
    if u.shape[0] != n:
        raise ValueError(f"initial state has size {u.shape[0]}, generator {n}")
    nsteps = step_count(T, dt)

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
    width = _block_width(n)
    U = np.empty((n, width + 1), dtype=complex)
    done = 0
    while done < nsteps:
        m = min(width, nsteps - done)
        if m < width:
            # the last, short block views the buffer's head as (n, m + 1), so
            # the block stays C-contiguous and sparse products take it uncopied
            U = U.reshape(-1)[:n * (m + 1)].reshape(n, m + 1)
        # column 0 holds the last state of the previous block, step 0 first
        U[:, 0] = u
        for j in range(1, m + 1):
            u_next = solve(u)
            u_next -= u
            U[:, j] = u = u_next

        span = slice(done, done + m)
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
        d_end, diss[span] = gen.step_dissipations(U)
        res_mid[span] = np.abs(rate - diss[span])
        res_end[span] = np.abs(rate - 0.5 * (d_end[:-1] + d_end[1:]))
        if conservative:
            # A0 lives in the mass metric: 2 E is its mass form, bitwise
            mass_drift = max(mass_drift, np.max(np.abs(np.sqrt(2.0 * e_new) - mass0)))
            stiff_drift = max(stiff_drift,
                              np.max(np.abs(gen.stiffness_norms(U)[1:] - stiff0)))

        if sink is not None:
            # column 0 is the previous block's last step, except step 0
            first = 1 if done else 0
            sink(range(done + first, done + m + 1), U[:, first:])
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

    return EnergyTrace(
        kind=gen.kind, times=dt * np.arange(nsteps + 1), energy=energy, dissipation=diss,
        midpoint_residual=res_mid, endpoint_residual=res_end, dt=dt,
        conservation=conservation,
    )


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
