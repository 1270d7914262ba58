"""Smoke test of the benchmark itself, at reduced input sizes.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced at ``--size
smoke`` and checks the result schema, that every metric BENCHMARK.json
names appears with its unit, and that the context records the environment.
It then checks that a deliberately corrupted output is counted in
``failed``, that a second seed runs clean, and that the benchmark refuses a
tree without ergoxeb sources.  Exits 1 on the first failed check.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONTEXT_KEYS = {"workload", "seed", "inputs", "error_rate", "ergoxeb_file",
                "git_commit", "environment"}
ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "blas", "nproc", "numba"}


class SmokeFailure(Exception):
    pass


def expect(condition, message):
    if not condition:
        raise SmokeFailure(message)


def run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "smoke",
         "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)
    return proc


def result_of(proc, label):
    expect(proc.returncode == 0,
           f"{label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    expect(len(lines) >= 2, f"{label}: expected context and result lines")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_schema(result, declared, label):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(result)}")
    expect(isinstance(result["correct"], bool), f"{label}: correct")
    for key in ("attempted", "failed"):
        expect(isinstance(result[key], int), f"{label}: {key} not an int")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    expect(got == want, f"{label}: metrics {got} != declared {want}")
    for name, m in result["metrics"].items():
        expect(set(m) == {"value", "unit"}, f"{label}: {name} keys")
        expect(isinstance(m["value"], (int, float))
               and math.isfinite(m["value"]), f"{label}: {name} value")


def check_clean(args, declared, label):
    context, result = result_of(run(*args), label)
    check_schema(result, declared, label)
    expect(result["correct"] and result["failed"] == 0,
           f"{label}: {result['failed']} failed: {context.get('errors')}")
    expect(CONTEXT_KEYS <= set(context), f"{label}: context keys")
    expect(ENVIRONMENT_KEYS <= set(context["environment"]),
           f"{label}: environment keys")
    expect(Path(context["ergoxeb_file"]).is_relative_to(ROOT),
           f"{label}: ergoxeb imported from {context['ergoxeb_file']}")
    expect(context["error_rate"] == 0.0, f"{label}: error_rate")
    print(f"ok  {label}: {result['attempted']} passes", flush=True)
    return result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    for name in names:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            check_clean(["--workload", name, "--trace", str(trace)],
                        declared, f"{name} trace {trace}")

    check_clean(["--workload", names[0], "--seed", "2"],
                bench["end_to_end"], f"{names[0]} seed 2")

    label = f"{names[0]} with pass 1 corrupted"
    context, result = result_of(
        run("--workload", names[0], "--corrupt-pass", "1"), label)
    check_schema(result, bench["end_to_end"], label)
    expect(result["failed"] == 1 and not result["correct"],
           f"{label}: failed = {result['failed']}, expected 1")
    expect(context["error_rate"] == 1 / result["attempted"],
           f"{label}: error_rate {context['error_rate']}")
    print(f"ok  {label}: counted as 1 failed pass", flush=True)

    bare = ROOT / ".perfbench" / "bare-tree"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("--workload", names[0], cwd=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"tree without sources: exit {proc.returncode}, "
               f"stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  tree without ergoxeb sources is refused", flush=True)


if __name__ == "__main__":
    try:
        main()
    except SmokeFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
