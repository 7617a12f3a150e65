"""Summarize benchmark result files into one trend point.

    python3 bench/trend.py OUT.json [RESULT.json ...]

Reads the result files run.py wrote (default: bench/.work/results/*.json)
and writes, per workload, the median, quartiles and run count of every
end-to-end metric over the untraced runs, the median of every per-layer
metric over the traced runs, the seeds used, and the environment of the
first run.  bench/trend/ keeps one such file per measured commit.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def main(argv):
    out_path, paths = argv[0], argv[1:] or sorted(
        glob.glob(os.path.join(HERE, ".work", "results", "*.json")))
    runs = []
    for path in paths:
        with open(path) as fh:
            runs.append(json.load(fh))
    by_workload = {}
    for run in runs:
        by_workload.setdefault(run["workload"], []).append(run)
    doc = {"environment": runs[0]["environment"], "run_seconds": runs[0]["seconds"],
           "workloads": {}}
    for workload, rs in sorted(by_workload.items()):
        plain = [r for r in rs if not r["trace"]]
        traced = [r for r in rs if r["trace"]]
        entry = {"seeds": sorted({r["seed"] for r in plain}), "end_to_end": {},
                 "per_layer": {}, "failed": sum(len(r["failures"]) for r in rs)}
        for name, m in plain[0]["end_to_end"].items() if plain else ():
            entry["end_to_end"][name] = dict(
                _summary([r["end_to_end"][name]["value"] for r in plain]), unit=m["unit"])
        for name, m in traced[0]["per_layer"].items() if traced else ():
            entry["per_layer"][name] = {
                "median": statistics.median(r["per_layer"][name]["value"] for r in traced),
                "n": len(traced), "unit": m["unit"]}
        doc["workloads"][workload] = entry
    with open(out_path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
