"""One fresh benchmark process: set up a workload, run its passes, report.

run.py starts it as ``python3 -I perfbench/worker.py SPEC`` where SPEC is a
JSON object (see ``run.py:_spawn``).  The worker imports ergoxeb from the
``src/`` directory of the tree it sits in and refuses any other copy.  It
runs one cold pass, then warm passes one at a time until ``warm_seconds``
have passed, at least one; with tracing on, untraced and traced warm
passes alternate, at least two of each.
The report goes to ``SPEC["report"]`` as JSON, and the spans of traced
passes to ``SPEC["spans"]`` as JSON lines.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_ergoxeb():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import ergoxeb

    location = Path(ergoxeb.__file__).resolve()
    if not location.is_relative_to(ROOT):
        raise SystemExit(f"worker: ergoxeb imported from {location}, "
                         f"outside the benchmarked tree {ROOT}")
    return str(location)


def _blas():
    """BLAS library name and version, and its thread count if readable."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads}


def _environment():
    import platform
    from importlib import metadata

    import numpy as np
    from ergoxeb import _accel

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "python": f"{platform.python_implementation()} "
                  f"{platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": _blas(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "numba": _accel.using_numba(),
    }


def _digest(outputs):
    blob = json.dumps(outputs, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main(spec):
    ergoxeb_file = _import_ergoxeb()
    import tracing
    import workloads

    workload = workloads.WORKLOADS[spec["workload"]](
        spec["seed"], spec["size"], spec["work_dir"])
    setup_s = time.perf_counter() - spec["t_spawn"]

    tracer = tracing.Tracer(spec["workload"]) if spec["trace"] else None
    passes = []
    first_outputs = None

    def one_pass(kind):
        nonlocal first_outputs
        pass_id = len(passes)
        workload.prepare()
        record = {"id": pass_id, "kind": kind, "digest": None,
                  "error": None}
        start = time.perf_counter()
        try:
            if kind == "traced":
                seconds, raw = tracer.run_pass(pass_id, workload.run)
            else:
                raw = workload.run()
                seconds = time.perf_counter() - start
            record["seconds"] = seconds
            outputs = workload.collect(raw)
            if pass_id == spec["corrupt_pass"]:
                outputs = workloads.corrupt(outputs)
            record["digest"] = _digest(outputs)
            record["error"] = workload.check(outputs)
            if first_outputs is None:
                first_outputs = outputs
        except Exception as exc:  # a failed pass is counted, not fatal
            traceback.print_exc()
            record.setdefault("seconds", time.perf_counter() - start)
            record["error"] = f"{type(exc).__name__}: {exc}"
        passes.append(record)

    one_pass("cold")
    # Traced runs go warm, traced, traced, warm so that a steady drift in
    # machine speed cancels out of trace.overhead_s.
    kinds = ("warm", "traced", "traced", "warm") if tracer else ("warm",)
    warm_start = time.perf_counter()
    while True:
        for kind in kinds:
            one_pass(kind)
        if time.perf_counter() - warm_start >= spec["warm_seconds"]:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Later workers' outputs are compared byte for byte with the first
    # worker's, so only the first needs the post-timing check.
    post_error = None
    if spec["post_check"]:
        post_error = "no pass produced outputs"
        if first_outputs is not None:
            post_error = workload.post_check(first_outputs)

    layers = []
    if tracer:
        by_pass = {}
        for span in tracer.spans:
            by_pass.setdefault(span["pass_id"], []).append(span)
        for pass_id in sorted(by_pass):
            layers.append(tracing.pass_breakdown(
                by_pass[pass_id], tracer.counts[pass_id]))
        with open(spec["spans"], "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")

    report = {
        "setup_s": setup_s,
        "passes": passes,
        "items_per_pass": workload.items,
        "item": workload.item,
        "inputs": workload.sizes,
        "rss_mib": rss_mib,
        "post_error": post_error,
        "layers": layers,
        "ergoxeb_file": ergoxeb_file,
        "environment": _environment(),
    }
    with open(spec["report"], "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
