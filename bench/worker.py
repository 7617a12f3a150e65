"""One benchmark process: run a workload's experiments through magschro.cli.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --out DIR

The closed loop with one client: after an untimed warm-up pass it runs
passes over the workload's experiments, one after another with ``jobs=1``,
until ``--seconds`` have been measured.  With ``--trace 1``
passes alternate between untraced and traced (see tracer.py).  It writes
``worker.json`` to DIR with per-pass timings, the values each experiment
reported, artifact digests and, when traced, the per-layer totals.

BLAS threads are set by the caller through the environment.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import extract  # noqa: E402
import reference  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MANIFEST = "manifest.json"


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def _configs(cli, workload, seed):
    return [(name, cli.ExperimentConfig.parse(workloads.config_text(vals, seed)))
            for name, vals in workloads.WORKLOADS[workload]]


def _digests(out_dir):
    """sha256 and size of every data artifact (the manifest is excluded)."""
    found = {}
    for fname in sorted(os.listdir(out_dir)):
        if fname == MANIFEST:
            continue
        with open(os.path.join(out_dir, fname), "rb") as fh:
            data = fh.read()
        found[fname] = [hashlib.sha256(data).hexdigest(), len(data)]
    return found


def _run_pass(cli, configs, root, tracer, operands):
    """One pass over the workload; returns its record.  The reference kernel
    is timed before each experiment, outside the experiment's time."""
    times, cpu, results, ref = {}, {}, {}, []
    for name, config in configs:
        ref.append(reference.kernel_s(*operands))
        out_dir = os.path.join(root, name)
        shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:
            tracer.experiment = name
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.run(config, out_dir=out_dir, jobs=1)
            error = None
        except Exception as exc:  # an experiment that raises is a failed one
            code, error = None, f"{type(exc).__name__}: {exc}"
        times[name] = time.perf_counter() - start
        cpu[name] = time.process_time() - start_cpu
        rec = {"exit_code": code, "error": error}
        if error is None:
            rec["values"] = extract.values(config.kind, out_dir)
            rec["artifacts"] = _digests(out_dir)
        results[name] = rec
    return {"wall_s": sum(times.values()), "experiment_s": times, "experiment_cpu_s": cpu,
            "reference_s": ref, "results": results}


def main(argv=None):
    args = _args(argv)
    import magschro.cli as cli

    configs = _configs(cli, args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    root = os.path.join(args.out, "artifacts")
    operands = reference.inputs()
    warm = _run_pass(cli, configs, root, None, operands)
    # peak RSS of one pass in a fresh process, as a CLI user meets it; later
    # passes are not counted because the resident set creeps up from pass to pass
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    warm["traced"] = False
    passes = []
    spans = []
    started = time.perf_counter()
    # Untraced and traced passes alternate; at least two of each kind (two
    # untraced when not tracing) are made, then passes go on while the
    # measured time is under --seconds.
    while len(passes) < 2 * (1 + args.trace) or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rec = _run_pass(cli, configs, root, tracer if traced else None, operands)
        finally:
            if traced:
                tracer.uninstall()
        rec["traced"] = traced
        if traced:
            rec["layers"] = tracer.snapshot()
            spans = tracer.spans
        passes.append(rec)

    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "warmup": warm,
        "passes": passes,
        "peak_rss_kb": peak_rss_kb,
        "final_peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "environment": extract.environment(),
    }
    with open(os.path.join(args.out, "worker.json"), "w") as fh:
        json.dump(doc, fh)
    if spans:
        # spans of the last traced pass: id, parent id, name, start, end, experiment
        with open(os.path.join(args.out, "spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
