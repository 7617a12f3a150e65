"""magschro benchmark: time to a checked verdict, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Standard library only; the
numerics run in child processes (worker.py) that import the package from
``src/``, with BLAS threads fixed to one:

1. set-up: five fresh interpreters each import ``magschro.cli`` and parse
   the workload's configs; ``setup_s`` is the median time to that point;
2. one worker process makes an untimed warm-up pass over the workload's
   experiments, then passes for S seconds (closed loop, one client,
   ``jobs=1``); with ``--trace 1`` passes alternate untraced and traced;
   ``wall_s`` and ``cpu_s`` sum each experiment's median time over the passes,
   and ``wall_ref_s`` scales ``wall_s`` by the machine's speed in this run,
   from a reference kernel timed before every experiment (reference.py);
3. every experiment of every pass is checked against references.json
   (checks.py); a failed experiment counts in ``failed``.

Every metric is printed with its unit; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The full result, with the environment, is
written to bench/.work/results/.  See NOTES.md for the design.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 170.0
SETUP_PROBES = 5
BLAS_THREADS = "1"

KINDS = ("simulate", "resolvent-scan", "observability", "product-observability",
         "hautus", "multiplier-check", "carleman-certify", "carleman-probe",
         "gauge-check")

# End-to-end metrics gated by BENCHMARK.json: defined on every workload.
# wall_ref_s is the time to verdict at the reference kernel's nominal speed
# (reference.py): the shared machine's speed changes from run to run by more
# than a gate can allow, and dividing by the kernel's time removes that.
END_TO_END = (("setup_s", "s"), ("wall_ref_s", "s"), ("peak_rss_mb", "MB"))
# Printed with their units; not gated.  wall_s and cpu_s are the measured
# time to verdict and the worker's CPU time for it; reference_s is the
# kernel's median time in this run.  The throughputs exist only on the
# workloads that do that work.
PRINTED = (("wall_s", "s"), ("cpu_s", "s"), ("reference_s", "s"))
THROUGHPUT = ("simulate_steps_per_s", "gramian_column_steps_per_s",
              "resolvent_points_per_s", "hautus_cells_per_s")

# Per-layer metrics: (metric prefix, span names summed, suffixes reported).
LAYERS = (
    ("mesh.build_grid", ("mesh.build_grid",), ("calls", "s")),
    ("magop.assemble_generator", ("magop.assemble_generator",), ("calls", "s")),
    ("magop.gradient_matrices", ("magop.gradient_matrices",), ("calls", "s")),
    ("magop.diagnostics", ("magop.GeneratorMatrix.energy", "magop.GeneratorMatrix.dissipation",
                           "magop.GeneratorMatrix.mass_norm",
                           "magop.GeneratorMatrix.stiffness_norm"), ("calls", "s")),
    ("evolve.simulate", ("evolve.simulate",), ("s", "self_s")),
    ("evolve.step", ("evolve.step",), ("calls", "s")),
    ("evolve.export", ("evolve.EnergyTrace.export_csv", "evolve.export_snapshots"), ("s",)),
    ("spectra.resolvent_norm", ("spectra.resolvent_norm",), ("calls", "s")),
    ("spectra.fit_growth", ("spectra.fit_growth",), ("s",)),
    ("spectra.hautus_sweep", ("spectra.hautus_sweep",), ("s",)),
    ("spectra.eigenvalues_dense", ("spectra.eigenvalues_dense",), ("calls", "s")),
    ("obsgram.gramian", ("obsgram.gramian",), ("calls", "s", "self_s")),
    ("obsgram.Observation.build", ("obsgram.Observation.build",), ("s",)),
    ("obsgram.product_observability", ("obsgram.product_observability",), ("s",)),
    ("multiplier.multiplier_identity_residual",
     ("multiplier.multiplier_identity_residual",), ("s",)),
    ("multiplier.MultiplierField.radial", ("multiplier.MultiplierField.radial",), ("s",)),
    ("weights.check_pseudoconvexity", ("weights.check_pseudoconvexity",), ("s",)),
    ("weights.check_subellipticity", ("weights.check_subellipticity",), ("s",)),
    ("weights.carleman_probe", ("weights.carleman_probe",), ("s",)),
) + tuple((f"cli.run.{k}", (f"cli.run.{k}",), ("s",)) for k in KINDS) + (
    ("la.splu", ("la.splu",), ("calls", "s")),
    ("la.lu_solve", ("la.lu_solve",), ("calls", "s")),
    ("la.eigsh", ("la.eigsh",), ("calls", "s")),
    ("la.dense_eig", ("la.dense_eig",), ("calls", "s")),
)
# Counters kept by the tracer, with their units.
COUNTERS = (("evolve.export.bytes", "bytes"), ("la.splu.fill_nnz", "count"),
            ("la.lu_solve.rhs_columns", "count"), ("la.eigsh.matvecs", "count"),
            ("la.dense_eig.n3", "ops-computed"), ("la.sparse_matmul.calls", "count"))
# Computed by this script from the passes.
DERIVED = (("cli.artifacts.files", "count"), ("cli.artifacts.bytes", "bytes"),
           ("cli.nonidentical_artifacts", "count"), ("trace.overhead_s", "s"))


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for prefix, _, suffixes in LAYERS:
        out += [(f"{prefix}.{s}", "count" if s == "calls" else "s") for s in suffixes]
    return out + list(COUNTERS) + list(DERIVED)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _remaining(started):
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise TimeoutError("benchmark deadline passed")
    return left


def setup_times(args, env, started):
    """Fresh-interpreter time up to 'magschro.cli imported, configs parsed'."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), args.workload, str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        res = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=_remaining(started), check=True)
        samples.append(float(res.stdout.split()[-1]) - t0)
    return samples


def run_worker(args, env, out, started):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", out]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=_remaining(started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(os.path.join(out, "worker.json")) as fh:
        return json.load(fh)


def check_outputs(doc, refs, seed):
    """(attempted, failures) over every pass, warm-up included."""
    kinds = {name: vals["kind"] for name, vals in workloads.WORKLOADS[doc["workload"]]}
    attempted, failed = 0, []
    for i, rec in enumerate([doc["warmup"]] + doc["passes"]):
        for name, result in rec["results"].items():
            attempted += 1
            problems = checks.failures(kinds[name], name, result, refs, seed)
            if problems:
                failed.append({"pass": i, "experiment": name, "problems": problems})
    return attempted, failed


def end_to_end(doc, passes, setup):
    """Time to verdict is the sum over the workload's experiments of each
    experiment's median time over the timed passes.  The experiments are
    short, so a run holds tens of samples of each, spread over the whole run
    (NOTES.md, "Steadiness")."""
    configs = dict(workloads.WORKLOADS[doc["workload"]])

    def medians(key):
        return {n: statistics.median(p[key][n] for p in passes) for n in configs}

    median_s = medians("experiment_s")
    wall_s = sum(median_s.values())
    reference_s = statistics.median(t for p in passes for t in p["reference_s"])
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_ref_s": wall_s * reference.NOMINAL_S / reference_s,
        "peak_rss_mb": doc["peak_rss_kb"] / 1024.0,
        "wall_s": wall_s,
        "cpu_s": sum(medians("experiment_cpu_s").values()),
        "reference_s": reference_s,
    }
    work = {n: workloads.work(v) for n, v in configs.items()}
    for metric in THROUGHPUT:
        names = [n for n, w in work.items() if w and w[0] == metric]
        if names:
            metrics[metric] = sum(work[n][1] for n in names) / sum(median_s[n] for n in names)
    return metrics


def _layer_values(rec):
    stats, counters = rec["layers"]["stats"], rec["layers"]["counters"]
    out = {}
    for prefix, spans, suffixes in LAYERS:
        rows = [stats.get(s, (0, 0.0, 0.0)) for s in spans]
        col = {"calls": 0, "s": 1, "self_s": 2}
        for suffix in suffixes:
            out[f"{prefix}.{suffix}"] = sum(r[col[suffix]] for r in rows)
    for name, _ in COUNTERS:
        out[name] = counters.get(name, 0)
    arts = [a for r in rec["results"].values() for a in r.get("artifacts", {}).values()]
    out["cli.artifacts.files"] = len(arts)
    out["cli.artifacts.bytes"] = sum(size for _, size in arts)
    return out


def nonidentical(doc):
    """Data artifacts whose bytes differ between passes of the same config."""
    first = doc["warmup"]["results"]
    names = set()
    for rec in doc["passes"]:
        for exp, result in rec["results"].items():
            for fname, (digest, _) in result.get("artifacts", {}).items():
                ref = first.get(exp, {}).get("artifacts", {}).get(fname)
                if ref is None or ref[0] != digest:
                    names.add(f"{exp}/{fname}")
    return sorted(names)


def per_layer(doc, differing):
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    rows = [_layer_values(p) for p in traced]
    metrics = {name: statistics.median(r[name] for r in rows)
               for name in rows[0]}
    metrics["cli.nonidentical_artifacts"] = len(differing)
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in plain))
    return metrics


def main(argv=None):
    started = time.perf_counter()
    args = _args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "magschro", "cli.py")):
        print(f"error: no magschro source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    refs = checks.load_references()
    env = _child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(HERE, ".work", tag)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    setup = setup_times(args, env, started)
    doc = run_worker(args, env, out, started)
    attempted, failed = check_outputs(doc, refs, args.seed)
    differing = nonidentical(doc)
    timed = [p for p in doc["passes"] if not p["traced"]]
    e2e = end_to_end(doc, timed, setup)
    e2e["failed_ratio"] = len(failed) / attempted
    units = dict(END_TO_END + PRINTED, failed_ratio="ratio", **{m: "1/s" for m in THROUGHPUT})
    if args.trace:
        layer_units = dict(per_layer_units())
        layers = per_layer(doc, differing)
        reported = {k: {"value": v, "unit": layer_units[k]} for k, v in layers.items()}
    else:
        reported = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}

    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": doc["environment"],
        "setup_samples_s": setup,
        "passes": [{"wall_s": p["wall_s"], "traced": p["traced"],
                    "experiment_s": p["experiment_s"],
                    "experiment_cpu_s": p["experiment_cpu_s"]} for p in doc["passes"]],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "per_layer": reported if args.trace else None,
        "nonidentical_artifacts": differing,
        "failures": failed,
    }
    results = os.path.join(HERE, ".work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1)
    if args.trace:
        os.replace(os.path.join(out, "spans.jsonl"), os.path.join(results, tag + ".spans.jsonl"))
    shutil.rmtree(out, ignore_errors=True)

    env_doc = doc["environment"]
    print(f"# {args.workload} seed={args.seed} passes={len(timed)} untraced"
          f" + {len(doc['passes']) - len(timed)} traced, warm-up excluded;"
          f" nproc={env_doc['nproc']} blas={env_doc['blas']}"
          f" threads={env_doc['blas_threads']}")
    for name, v in e2e.items():
        print(f"{name:<34} {v:>14.6g} {units[name]}")
    if args.trace:
        for name, v in reported.items():
            print(f"{name:<46} {v['value']:>14.6g} {v['unit']}")
    for name in differing:
        print(f"nonidentical artifact: {name}")
    for f in failed:
        print(f"FAILED pass {f['pass']} {f['experiment']}: {'; '.join(f['problems'])}")
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
