"""Output checks: references recorded at the benchmark's first commit.

An experiment counts as failed when it raised, when its exit code or any
verdict's ``pass`` flag differs from the reference, when a reported scalar
is outside tolerance of the reference, or when a structural invariant is
violated.

* Invariants (dissipation residual, energy monotonicity, Gramian PSD,
  tensor and gauge residuals, finite resolvent points) do not depend on the
  seed and are checked on every run.
* Scalars of seed-independent experiments are compared with the reference
  on every seed.  Scalars of experiments whose random input takes the
  workload seed are compared only when references were recorded for that
  seed (record_references.py records a range of seeds).
* Rounding-level residuals are checked only as invariants: their digits are
  noise and change with any reordering of the arithmetic.

Comparisons are relative, not byte identity, so a later change that keeps
the numerics to rounding level passes.
"""

import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

RTOL = 1e-6
# Per-scalar relative tolerances that differ from RTOL, with the reason.
TOLERANCES = {
    # the Hautus frontier is found by 16 bisection steps on a bracket
    # [h/2, h]; an exact threshold may sit one bracket width 2^-17 below
    "global_aleph1": 1e-4,
}
# Compared against the reference with an absolute tolerance: the value is
# rounding noise around zero for a PSD Gramian, scaled by lambda_max.
ABSOLUTE_OF = {"lambda_min": ("lambda_max", 1e-10)}

# Rounding-level quantities: checked by the invariants below only.
NOT_COMPARED = {"max_residual", "worst_increase", "tensor_residual",
                "conjugation_residual", "spectrum_residual"}

INVARIANTS = {
    "simulate": [
        ("midpoint dissipation residual <= 1e-9 max(E0, 1)",
         lambda v: v["max_residual"] <= 1e-9 * max(v["e0"], 1.0)),
        ("energy never rises by more than 1e-12 E0",
         lambda v: v["worst_increase"] <= 1e-12 * v["e0"]),
    ],
    "observability": [
        ("Gramian PSD: lambda_min >= -1e-12 lambda_max",
         lambda v: _f(v["lambda_min"]) >= -1e-12 * _f(v["lambda_max"])),
    ],
    "product-observability": [
        ("tensor residual <= 1e-12", lambda v: v["tensor_residual"] <= 1e-12),
    ],
    "gauge-check": [
        ("conjugation residual <= 1e-12", lambda v: v["conjugation_residual"] <= 1e-12),
        ("spectrum residual <= 1e-10", lambda v: v["spectrum_residual"] <= 1e-10),
    ],
    "resolvent-scan": [
        ("every frequency point solved", lambda v: v["failed_points"] == 0),
    ],
    "multiplier-check": [
        ("multiplier residual <= 0.1 scale", lambda v: v["residual"] <= 0.1 * v["scale"]),
    ],
}


def _f(x):
    return float(x) if isinstance(x, str) else x


def load_references(path=REFERENCES):
    with open(path) as fh:
        return json.load(fh)


def _close(name, got, ref, ref_values):
    if "nan" in (got, ref):
        return False
    if isinstance(ref, (str, bool)) or ref is None or isinstance(got, (str, bool)) or got is None:
        return got == ref
    base = name.split("[", 1)[0]
    if base in ABSOLUTE_OF:
        other, scale = ABSOLUTE_OF[base]
        return abs(got - ref) <= scale * abs(_f(ref_values[other]))
    rtol = TOLERANCES.get(base, RTOL)
    return math.isclose(got, ref, rel_tol=rtol, abs_tol=0.0)


def _compare(got, ref):
    problems = []
    if "exit_code" in ref and got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']}, reference {ref['exit_code']}")
    values = got["values"]
    for name, want in ref["values"].items():
        if name.split("[", 1)[0] in NOT_COMPARED:
            continue
        have = values.get(name, "<missing>")
        if not _close(name, have, want, ref["values"]):
            problems.append(f"{name} = {have!r}, reference {want!r}")
    return problems


def failures(kind, experiment, record, refs, seed):
    """Why one experiment's run is wrong; an empty list when it is right."""
    if record.get("error"):
        return [f"raised {record['error']}"]
    problems = []
    for label, holds in INVARIANTS.get(kind, ()):
        try:
            ok = holds(record["values"])
        except (KeyError, TypeError) as exc:
            ok, label = False, f"{label} ({type(exc).__name__}: {exc})"
        if not ok:
            problems.append(f"invariant violated: {label}")
    fixed = refs["fixed"].get(experiment)
    if fixed is not None:
        problems += _compare(record, fixed)
    per_seed = refs["seeded"].get(experiment)
    if per_seed is not None:
        problems += _compare(record, per_seed["every_seed"])
        ref = per_seed["seeds"].get(str(seed))
        if ref is not None:
            problems += _compare(record, ref)
    if fixed is None and per_seed is None:
        problems.append("no reference recorded for this experiment")
    return problems
