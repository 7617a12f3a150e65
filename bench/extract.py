"""Read back what an experiment reported, and describe the machine.

``values(kind, out_dir)`` turns a finished run's manifest and artifacts into
a flat dict of the checked quantities (verdict pass flags and scalars).
Infinite, NaN and missing numbers are stored as "inf"/"-inf", "nan" and
None so the dict survives JSON; checks.py never counts "nan" as a match.  ``environment()`` lists what a result depends on.
"""

import csv
import ctypes
import json
import math
import os
import platform
import sys


def _num(x):
    if x is None:
        return None
    x = float(x)
    if math.isnan(x):
        return "nan"
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def _load(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def values(kind, out_dir):
    manifest = _load(out_dir, "manifest.json")
    verdicts = manifest["verdicts"]
    out = {f"pass.{name}": bool(v.get("pass")) for name, v in verdicts.items()}
    if kind == "simulate":
        with open(os.path.join(out_dir, "energy.csv")) as fh:
            rows = csv.reader(fh)
            next(rows)
            e0 = float(next(rows)[1])
        out.update(
            rate=_num(verdicts["exponential_fit"].get("rate")),
            max_residual=_num(verdicts["dissipation_identity"]["max_residual"]),
            worst_increase=_num(verdicts["monotone_decay"]["worst_increase"]),
            e0=e0)
    elif kind == "resolvent-scan":
        with open(os.path.join(out_dir, "scan.csv")) as fh:
            norms = [float(r["norm"]) for r in csv.DictReader(fh)]
        summary = _load(out_dir, "summary.json")
        out.update(peak_norm=_num(max(norms)), p_hat=_num(summary["p"]),
                   failed_points=len(summary["failures"]))
    elif kind == "hautus":
        doc = _load(out_dir, "hautus.json")
        for j, v in enumerate(doc["global_aleph1"]):
            out[f"global_aleph1[{j}]"] = "inf" if v is None else _num(v)
    elif kind == "observability":
        rep = _load(out_dir, "report.json")
        out.update(lambda_min=_num(rep["lambda_min"]), lambda_max=_num(rep["lambda_max"]),
                   C_obs=_num(rep["C_obs"]), C_hid=_num(rep["C_hid"]),
                   quadrature_estimate=_num(rep["quadrature_error_estimate"]))
    elif kind == "product-observability":
        rep = _load(out_dir, "comparison.json")
        out.update(tensor_residual=_num(rep["tensor_residual"]),
                   C_1D=_num(rep["C_1D"]), C_2D=_num(rep["C_2D"]))
    elif kind == "multiplier-check":
        rep = _load(out_dir, "residuals.json")
        out.update(residual=_num(rep["residual"]), scale=_num(rep["scale"]))
    elif kind == "gauge-check":
        rep = _load(out_dir, "gauge.json")
        out.update(conjugation_residual=_num(rep["conjugation_residual"]),
                   spectrum_residual=_num(rep["spectrum_residual"]))
    elif kind == "carleman-certify":
        rep = _load(out_dir, "certification.json")
        out.update(pseudoconvexity_margin=_num(rep["pseudoconvexity_margin"]),
                   subellipticity_min_bracket=_num(rep["subellipticity_min_bracket"]))
    elif kind == "carleman-probe":
        rep = _load(out_dir, "probe_summary.json")
        out.update(trend_slope=_num(rep["trend_slope"]))
    return out


def _cpu():
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            if not idx.startswith("index"):
                continue

            def read(f, idx=idx):
                with open(os.path.join(base, idx, f)) as fh:
                    return fh.read().strip()

            caches[f"L{read('level')}-{read('type')}"] = read("size")
    return model, caches


def _blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    model, caches = _cpu()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cpu_caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
        "executable": os.path.basename(sys.executable),
    }
