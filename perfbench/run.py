"""ergoxeb benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload haar_exact --seed 1 --seconds 6 \\
        --trace 0
    python3 perfbench/run.py --workload all     # every workload, one table

Each run starts fresh worker processes (perfbench/worker.py), one after
another; each is a single closed-loop client that runs one pass at a time.
With ``--trace 0`` there are three workers; each sets up, runs a cold pass
and then warm passes for a third of ``--seconds`` (at least one), and the
run reports the end-to-end metrics.  With
``--trace 1`` one worker alternates untraced and traced passes for
``--seconds`` (at least two of each) and the run reports the per-layer
metrics.  Every pass is
checked (see workloads.py) and must produce the same output bytes as the
first pass of the run; a pass that fails either way counts in ``failed``.

The last line of standard output is the result as one JSON object.  The
line before it holds the context: environment, inputs, git commit and
error rate.  Both, with every pass, also go to ``.perfbench/result-*.json``
and the spans of a traced run to ``.perfbench/spans-*.jsonl``.
"""

import argparse
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
# Fresh processes per untraced run.  setup_s and cold_pass_s are medians
# over them, and pass_s is the median of the warm passes of all of them:
# this machine's speed drifts over tens of seconds, so samples spread over
# the whole run are steadier than the same number taken back to back.
WORKERS = 3
# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "pass_s": "s",
    "items_per_s": "1/s",
    "cold_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed pass)."""


def git_commit(root):
    """Commit of the tree's own .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _spawn(name, index, args, warm_seconds, trace, deadline):
    """Run one worker process to completion and return its report."""
    tag = f"{name}-seed{args.seed}-trace{int(trace)}"
    # Workers run one after another and share a directory, so the paths
    # ergoxeb prints are the same in every pass of a run.
    work_dir = WORK / f"tmp-{tag}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    report_path = work_dir / "report.json"
    try:
        t_spawn = time.perf_counter()
        spec = {
            "workload": name, "seed": args.seed, "size": args.size,
            "warm_seconds": warm_seconds, "trace": trace,
            "corrupt_pass": args.corrupt_pass if index == 0 else None,
            "post_check": index == 0,
            "work_dir": str(work_dir), "report": str(report_path),
            "spans": str(WORK / f"spans-{tag}.jsonl"),
            "t_spawn": t_spawn,
        }
        timeout = deadline - t_spawn
        if timeout <= 0:
            raise BenchError(f"{name}: out of time before worker {index}")
        try:
            proc = subprocess.run(
                [sys.executable, "-I", str(HERE / "worker.py"),
                 json.dumps(spec)],
                stdout=subprocess.DEVNULL, timeout=timeout, check=False)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker {index} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{name}: worker {index} exited {proc.returncode}")
        return json.loads(report_path.read_text())
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _failures(reports):
    """Count failed passes: errors, failed post-checks, differing bytes."""
    reference = next((p["digest"] for r in reports for p in r["passes"]
                      if p["digest"] is not None), None)
    failed = 0
    for r in reports:
        for p in r["passes"]:
            if (p["error"] is not None or r["post_error"] is not None
                    or p["digest"] != reference):
                failed += 1
    return failed


def end_to_end_metrics(reports):
    warm = [p["seconds"] for r in reports for p in r["passes"]
            if p["kind"] == "warm"]
    items = reports[0]["items_per_pass"]
    values = {
        "pass_s": statistics.median(warm),
        "items_per_s": items * len(warm) / sum(warm),
        "cold_pass_s": statistics.median(r["passes"][0]["seconds"]
                                         for r in reports),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mib": max(r["rss_mib"] for r in reports),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def per_layer_metrics(report):
    """Per traced pass means of self times and counts, plus rates."""
    traced = report["layers"]
    k = len(traced)

    def self_s(bucket):
        return sum(b["self_s"].get(bucket, 0.0) for b in traced)

    def count(key):
        return sum(b["counts"].get(key, 0) for b in traced)

    def calls(layer):
        return sum(b["entries"].get(layer, 0) for b in traced)

    def median_pass(kind):
        return statistics.median(p["seconds"] for p in report["passes"]
                                 if p["kind"] == kind)

    sv, est = self_s("statevector"), self_s("estimators")
    sample, write, read = (self_s("noise.sample"), self_s("noise.write"),
                           self_s("noise.read"))
    values = [
        ("statevector.self_s", sv / k, "s"),
        ("statevector.calls", calls("statevector") / k, "count"),
        ("statevector.gates", count("statevector.gates") / k, "count"),
        ("statevector.gates_per_s", _rate(count("statevector.gates"), sv),
         "1/s"),
        ("statevector.bytes_computed",
         count("statevector.bytes_computed") / k, "B"),
        ("estimators.self_s", est / k, "s"),
        ("estimators.calls", calls("estimators") / k, "count"),
        ("estimators.terms", count("estimators.terms") / k, "count"),
        ("estimators.terms_per_s", _rate(count("estimators.terms"), est),
         "1/s"),
        ("noise.sample_s", sample / k, "s"),
        ("noise.draws", count("noise.draws") / k, "count"),
        ("noise.table_entries", count("noise.table_entries") / k, "count"),
        ("noise.draws_per_s", _rate(count("noise.draws"), sample), "1/s"),
        ("noise.write_s", write / k, "s"),
        ("noise.read_s", read / k, "s"),
        ("noise.bytes_written", count("noise.bytes_written") / k, "B"),
        ("noise.bytes_read", count("noise.bytes_read") / k, "B"),
        ("noise.write_mb_per_s",
         _rate(count("noise.bytes_written") / 1e6, write), "MB/s"),
        ("noise.read_mb_per_s",
         _rate(count("noise.bytes_read") / 1e6, read), "MB/s"),
        ("noise.model_s", self_s("noise.model") / k, "s"),
        ("ensembles.self_s", self_s("ensembles") / k, "s"),
        ("ensembles.members", calls("ensembles") / k, "count"),
        ("analytic.self_s", self_s("analytic") / k, "s"),
        ("analytic.calls", calls("analytic") / k, "count"),
        ("harness.self_s", self_s("harness") / k, "s"),
        ("harness.bytes_written", count("harness.bytes_written") / k, "B"),
        ("cli.self_s", self_s("cli") / k, "s"),
        ("trace.overhead_s", median_pass("traced") - median_pass("warm"),
         "s"),
    ]
    return {name: {"value": v, "unit": unit} for name, v, unit in values}


def run_workload(name, args):
    """One benchmark run of one workload; returns (result, context)."""
    deadline = time.perf_counter() + DEADLINE_S
    if args.trace:
        reports = [_spawn(name, 0, args, args.seconds, True, deadline)]
        metrics = per_layer_metrics(reports[0])
    else:
        reports = [_spawn(name, i, args, args.seconds / WORKERS, False,
                          deadline) for i in range(WORKERS)]
        metrics = end_to_end_metrics(reports)
    attempted = sum(len(r["passes"]) for r in reports)
    failed = _failures(reports)
    additivity = max((b["additivity_error_s"] for r in reports
                      for b in r["layers"]), default=0.0)
    result = {"correct": failed == 0 and additivity < 1e-6,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    first = reports[0]
    context = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": int(args.trace), "size": args.size,
        "inputs": first["inputs"], "item": first["item"],
        "workers": len(reports),
        "warm_passes": sum(p["kind"] == "warm" for r in reports
                           for p in r["passes"]),
        "traced_passes": sum(p["kind"] == "traced" for r in reports
                             for p in r["passes"]),
        "error_rate": failed / attempted,
        "trace_additivity_error_s": additivity,
        "errors": sorted({p["error"] for r in reports for p in r["passes"]
                          if p["error"]} | {r["post_error"] for r in reports
                                            if r["post_error"]}),
        "ergoxeb_file": first["ergoxeb_file"],
        "git_commit": git_commit(ROOT),
        "environment": first["environment"],
    }
    tag = f"{name}-seed{args.seed}-trace{int(args.trace)}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"result": result, "context": context,
         "passes": [r["passes"] for r in reports]}, indent=1) + "\n")
    return result, context


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="warm-pass measuring time per run, shared "
                             "among the workers (default 6)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes (smoke: the reduced smoke test)")
    parser.add_argument("--corrupt-pass", type=int, default=None,
                        help="corrupt this pass's output of the first "
                             "worker (smoke test of the checks)")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    # Raising inside subprocess.run makes it kill and reap the worker.
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not (ROOT / "src" / "ergoxeb" / "__init__.py").is_file():
        print(f"perfbench: no ergoxeb sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = (list(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = {}
    try:
        for name in names:
            result, context = run_workload(name, args)
            results[name] = result
            if args.workload == "all":
                for metric, m in result["metrics"].items():
                    print(f"{name:18} {metric:28} {m['value']:.6g} "
                          f"{m['unit']}")
                print(f"{name:18} {'error_rate':28} "
                      f"{context['error_rate']:.6g} failed/attempted",
                      flush=True)
            else:
                print(json.dumps(context, sort_keys=True))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
