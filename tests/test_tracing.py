import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_benchmark_tracer_installs_and_uninstalls():
    # the benchmark's tracer wraps package functions by name; a name that
    # no longer exists fails here rather than in a traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer("tier1")
    names = [(owner, attr) for owner, attr, *_ in tracer._targets]
    before = [vars(owner)[attr] for owner, attr in names]
    tracer.install(0)
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(names, before))
    finally:
        tracer.uninstall()
    assert [vars(owner)[attr] for owner, attr in names] == before
