"""Record the reference outputs the benchmark checks against.

    python3 bench/record_references.py

Runs every experiment of every workload once, and the experiments whose
random input takes the workload seed once per seed in 0..SEEDS-1, then
writes references.json.  Run it only at a commit whose outputs are known
good; the references are the definition of a correct run.  BLAS threads
are set to one, as in the benchmark.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 128
SCRATCH = os.path.join(HERE, ".work", "record")


def _record(names, seeds):
    """{seed: {experiment: reference}} for the named experiments."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import extract
    import workloads
    from magschro import cli

    out = {}
    for seed in seeds:
        out[str(seed)] = rec = {}
        for workload in workloads.WORKLOADS.values():
            for name, vals in workload:
                if name not in names:
                    continue
                config = cli.ExperimentConfig.parse(workloads.config_text(vals, seed))
                out_dir = os.path.join(SCRATCH, name)
                shutil.rmtree(out_dir, ignore_errors=True)
                code = cli.run(config, out_dir=out_dir, jobs=1)
                rec[name] = {"exit_code": code, "values": extract.values(config.kind, out_dir)}
    return out


def _in_child(names, seeds):
    """Record in a fresh interpreter with BLAS threads fixed, like the benchmark."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           ",".join(map(str, seeds))] + sorted(names)
    res = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def _common(records):
    """Keys whose reference is the same on every recorded seed."""
    first = records[0]
    same = {"values": {k: v for k, v in first["values"].items()
                       if all(r["values"].get(k) == v for r in records)}}
    if all(r["exit_code"] == first["exit_code"] for r in records):
        same["exit_code"] = first["exit_code"]
    return same


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--child")
    p.add_argument("names", nargs="*")
    args = p.parse_args()
    if args.child is not None:
        seeds = [int(x) for x in args.child.split(",")]
        print(json.dumps(_record(set(args.names), seeds)))
        return 0

    sys.path.insert(0, HERE)
    import workloads

    every = [(name, vals) for wl in workloads.WORKLOADS.values() for name, vals in wl]
    fixed_names = {n for n, v in every if not workloads.seeded(v)}
    seeded_names = {n for n, v in every if workloads.seeded(v)}
    fixed = _in_child(fixed_names, [0])["0"]
    by_seed = _in_child(seeded_names, range(SEEDS))
    per_seed = {n: {seed: recs[n] for seed, recs in by_seed.items()} for n in seeded_names}
    seeded = {n: {"every_seed": _common(list(recs.values())), "seeds": recs}
              for n, recs in per_seed.items()}
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() or None
    doc = {"commit": commit, "fixed": fixed, "seeded": seeded}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
