"""Self-test of the benchmark's own checks.

    python3 bench/selftest.py

Runs two experiments of the ``modal-dense`` workload once
(``product-observability`` and the seeded ``carleman-probe-2d``) through the
same pass and check code the benchmark uses, then shows that:

* with the recorded references no experiment fails;
* a perturbed seed-independent reference, exit code, seed-specific
  reference, violated invariant or NaN scalar each make ``failed_ratio``
  positive;
* a seed-specific reference is not applied on a seed it was not recorded for;
* BENCHMARK.json lists exactly the metrics run.py reports.

Exits 0 when every statement holds.
"""

import copy
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

WORKLOAD = "modal-dense"
KEEP = ("product-observability", "carleman-probe-2d")
SEED = 1


def failed_ratio(doc, refs, seed=SEED):
    attempted, failed = run.check_outputs(doc, refs, seed)
    return len(failed) / attempted


def main():
    from magschro import cli

    configs = [(n, c) for n, c in worker._configs(cli, WORKLOAD, SEED) if n in KEEP]
    scratch = os.path.join(HERE, ".work", "selftest")
    try:
        rec = worker._run_pass(cli, configs, scratch, None, worker.reference.inputs())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    doc = {"workload": WORKLOAD, "warmup": rec, "passes": []}
    refs = checks.load_references()
    results = []

    def claim(text, holds):
        results.append(holds)
        print(f"{'ok  ' if holds else 'FAIL'} {text}")

    claim("recorded references: failed_ratio == 0", failed_ratio(doc, refs) == 0)

    bad = copy.deepcopy(refs)
    bad["fixed"]["product-observability"]["values"]["C_2D"] *= 1 + 1e-3
    claim("C_2D reference off by 1e-3: failed_ratio > 0", failed_ratio(doc, bad) > 0)

    bad = copy.deepcopy(refs)
    bad["seeded"]["carleman-probe-2d"]["every_seed"]["exit_code"] = 0
    claim("carleman-probe exit-code reference 0: failed_ratio > 0",
          failed_ratio(doc, bad) > 0)

    bad = copy.deepcopy(refs)
    bad["seeded"]["carleman-probe-2d"]["seeds"][str(SEED)]["values"]["trend_slope"] *= 1.01
    claim("seed-specific slope reference off by 1%: failed_ratio > 0",
          failed_ratio(doc, bad) > 0)
    unrecorded = max(int(s) for s in refs["seeded"]["carleman-probe-2d"]["seeds"]) + 1
    claim("the same perturbation on an unrecorded seed is not applied",
          failed_ratio(doc, bad, seed=unrecorded) == 0)

    broken = copy.deepcopy(doc)
    broken["warmup"]["results"]["product-observability"]["values"]["tensor_residual"] = 1e-9
    claim("tensor residual 1e-9: invariant fails, failed_ratio > 0",
          failed_ratio(broken, refs) > 0)

    broken = copy.deepcopy(doc)
    broken["warmup"]["results"]["product-observability"]["values"]["C_2D"] = "nan"
    claim("C_2D reported as NaN: failed_ratio > 0", failed_ratio(broken, refs) > 0)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    claim("BENCHMARK.json end_to_end matches run.py",
          [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END))
    claim("BENCHMARK.json per_layer matches run.py",
          [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units())
    claim("BENCHMARK.json workloads match workloads.py",
          sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
