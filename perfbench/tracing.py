"""Per-layer spans recorded from outside ergoxeb.

The tracer wraps each layer's public functions under the names their
callers look them up by (a module attribute such as
``ergoxeb.cli.run_ergodicity_scan``, or a dataclass ``__post_init__``), so
no file of the package is edited.  Wrappers are installed for one traced
pass and removed afterwards, which leaves untraced passes running the
original functions.

A span records its name, layer bucket, start, end, parent, workload and pass
id.  Spans stay in memory until the worker writes them out at the end.  A
span's self time is its duration minus the time its direct children cover;
the program is single-threaded, so children never overlap.

``_accel`` is not a layer: its kernels run inside ``statevector``,
``noise`` and ``estimators`` spans, so their time counts toward those.
"""

import functools
import os
import time
from collections import Counter, defaultdict

def _layer(bucket):
    return bucket.split(".", 1)[0]


def _count_gates(counts, result, program):
    gates = len(program.gates)
    counts["statevector.gates"] += gates
    # One complex128 read and one write per amplitude per gate; a computed
    # figure, not a measured one (see perfbench/README.md).
    counts["statevector.bytes_computed"] += gates * program.dims.N * 16 * 2


def _count_draws(counts, result, Q, T, seed):
    counts["noise.draws"] += T
    if T > 0:
        counts["noise.table_entries"] += Q.probs.size


def _count_file_written(counts, result, data, path):
    counts["noise.bytes_written"] += os.path.getsize(path)


def _count_file_read(counts, result, path, *rest, **kwargs):
    counts["noise.bytes_read"] += os.path.getsize(path)


def _count_scan_files(counts, result, *args, **kwargs):
    counts["harness.bytes_written"] += sum(os.path.getsize(p) for p in result)


def _targets(cli, harness, ensembles, estimators, analytic, noise,
             statevector):
    """(owner, attribute, bucket, counter) for every wrapped entry point.

    A bucket is the layer a span's self time is charged to; the noise layer
    is split by the kind of work (sample, model, write, read).
    """
    return [
        (cli, "main", "cli", None),
        (cli, "parse_scheme", "estimators", None),
        (cli, "run_ergodicity_scan", "harness", None),
        (cli, "write_scan_result", "harness", _count_scan_files),
        (cli, "read_probabilities", "noise.read", _count_file_read),
        (cli, "read_samples", "noise.read", _count_file_read),
        (cli, "linear_xeb", "estimators", None),
        (cli, "deviation_of_ergodicity", "estimators", None),
        (cli, "log_xeb", "estimators", None),
        (harness, "run_depolarizing_recovery", "harness", None),
        (harness, "member_probs", "ensembles", None),
        (harness, "haar_state_probs", "ensembles", None),
        (harness, "experimental_distribution", "noise.model", None),
        (harness, "sample_bitstrings", "noise.sample", _count_draws),
        (harness, "deviation_of_ergodicity_exact", "estimators", None),
        (harness, "deviation_of_ergodicity", "estimators", None),
        (harness, "fidelity_from_de_depolarizing", "estimators", None),
        (ensembles, "haar_state_probs", "ensembles", None),
        (ensembles, "sample_member", "ensembles", None),
        (ensembles, "sample_haar_unitary", "ensembles", None),
        (ensembles, "output_distribution", "statevector", _count_gates),
        (estimators, "correlation_C_f", "estimators", None),
        (estimators, "estimate_C_f", "estimators", None),
        (analytic, "haar_mean_of_scheme", "analytic", None),
        (analytic, "sigma_of_scheme", "analytic", None),
        (noise, "write_probabilities", "noise.write", _count_file_written),
        (noise, "write_samples", "noise.write", _count_file_written),
        (statevector.OutputDistribution, "__post_init__", "statevector",
         None),
        (statevector.GateProgram, "__post_init__", "statevector", None),
    ]


class Tracer:
    """Collects spans and counts for the traced passes of one worker."""

    def __init__(self, workload):
        import ergoxeb._accel
        from ergoxeb import (analytic, cli, ensembles, estimators, harness,
                             noise, statevector)

        self.workload = workload
        self.spans = []
        self.counts = {}  # pass id -> Counter
        self._accel = ergoxeb._accel
        self._targets = _targets(cli, harness, ensembles, estimators,
                                 analytic, noise, statevector)
        self._stack = []
        self._next_id = 0
        self._pass_id = None
        self._patches = []

    def _wrap(self, owner, attr, bucket, counter):
        original = vars(owner)[attr]
        name = f"{owner.__name__}.{attr}"
        if isinstance(owner, type):
            name = f"{owner.__module__}.{name}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1]["id"] if tracer._stack else None
            span = {"id": tracer._next_id, "name": name, "layer": bucket,
                    "start": time.perf_counter(), "end": None,
                    "parent": parent, "workload": tracer.workload,
                    "pass_id": tracer._pass_id}
            tracer._next_id += 1
            tracer._stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
            if counter is not None:
                counter(tracer.counts[tracer._pass_id], result, *args,
                        **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _wrap_terms(self):
        # Counter only: the compensated sum is an _accel kernel, whose time
        # belongs to the estimators span that calls it.
        original = self._accel.neumaier_sum
        tracer = self

        def neumaier_sum(x):
            tracer.counts[tracer._pass_id]["estimators.terms"] += x.shape[0]
            return original(x)

        self._accel.neumaier_sum = neumaier_sum
        self._patches.append((self._accel, "neumaier_sum", original))

    def install(self, pass_id):
        self._pass_id = pass_id
        self.counts[pass_id] = Counter()
        for owner, attr, bucket, counter in self._targets:
            self._wrap(owner, attr, bucket, counter)
        self._wrap_terms()

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run_pass(self, pass_id, fn):
        """Run ``fn`` traced under a root span; returns (seconds, result)."""
        root = {"id": self._next_id, "name": "perfbench.pass",
                "layer": "pass", "start": None, "end": None, "parent": None,
                "workload": self.workload, "pass_id": pass_id}
        self._next_id += 1
        self.install(pass_id)
        self._stack.append(root)
        root["start"] = time.perf_counter()
        try:
            result = fn()
        finally:
            root["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(root)
            self.uninstall()
        return root["end"] - root["start"], result


def pass_breakdown(spans, counts):
    """Self time per bucket, layer entry counts and the additivity error.

    ``spans`` are those of one traced pass, root included.  A layer's calls
    are its entries from another layer, so nested calls inside one layer
    count once.  The returned error is |sum of self times - pass time|,
    which is zero up to rounding when every span nests in its parent.
    """
    by_id = {s["id"]: s for s in spans}
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            if s["start"] < parent["start"] or s["end"] > parent["end"]:
                raise ValueError(f"span {s['name']} leaves its parent")
            covered[s["parent"]] += s["end"] - s["start"]
    self_s = Counter()
    entries = Counter()
    root = None
    for s in spans:
        self_s[s["layer"]] += s["end"] - s["start"] - covered[s["id"]]
        if s["parent"] is None:
            root = s
        elif _layer(by_id[s["parent"]]["layer"]) != _layer(s["layer"]):
            entries[_layer(s["layer"])] += 1
    total = root["end"] - root["start"]
    error = abs(sum(self_s.values()) - total)
    return {"self_s": self_s, "entries": entries, "counts": counts,
            "pass_s": total, "additivity_error_s": error}
