"""The four benchmark workloads and the checks on their outputs.

Each workload drives ergoxeb through a public entry point (``cli.main``,
``harness.run_depolarizing_recovery`` or the ``noise`` file writers) and
stresses a different layer; perfbench/README.md gives the layer map.  All
inputs derive from the workload seed.  ergoxeb is imported lazily so that
run.py can load this module without the package.

A pass is ``prepare()`` (untimed), ``run()`` (timed), then ``collect()``
(untimed), which returns the pass's outputs as a dict of texts.  ``check()``
returns an error message, or None when the outputs are correct.
"""

import contextlib
import csv
import io
import json
import math
import os
import shutil

# Input sizes.  "full" is what the benchmark measures; "smoke" is the reduced
# size perfbench/smoke.py runs.  Each tolerance is the allowed |F_hat - F|
# and sits at least five standard errors (sampling plus instance-to-instance
# scatter) from F at its size.  depol_recovery's criterion-6 bound of 0.03
# is only about two standard errors for degree 4 and fails on some seeds
# (2 of 30 tried), so each row must instead lie within five of its own
# reported standard errors, and never further than the tolerance.  xeb_files analyses 5e5 samples rather than
# 1e6 so that one run of it stays near 45 s and every run of the four
# workloads fits the benchmark's time budget.
SIZES = {
    "haar_exact": {
        "full": {"qubits": 18, "instances": 20},
        "smoke": {"qubits": 8, "instances": 4},
    },
    "brickwork_sampled": {
        "full": {"qubits": 16, "instances": 3, "samples": 100_000,
                 "fidelity": 0.5, "tolerance": 0.05},
        "smoke": {"qubits": 12, "instances": 2, "samples": 20_000,
                  "fidelity": 0.5, "tolerance": 0.25},
    },
    "depol_recovery": {
        "full": {"qubits": 10, "instances": 1000, "samples": 100_000,
                 "fidelities": [0.3, 0.5, 0.8], "degrees": [2, 3, 4],
                 "tolerance": 0.08},
        "smoke": {"qubits": 8, "instances": 300, "samples": 60_000,
                  "fidelities": [0.3, 0.5, 0.8], "degrees": [2, 3, 4],
                  "tolerance": 0.25},
    },
    "xeb_files": {
        "full": {"qubits": 20, "samples": 500_000, "fidelity": 0.5,
                 "tolerance": 0.02},
        "smoke": {"qubits": 12, "samples": 20_000, "fidelity": 0.5,
                  "tolerance": 0.25},
    },
}


def _run_cli(argv):
    from ergoxeb import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class _Workload:
    item = "circuit instance"

    def prepare(self):
        pass

    def post_check(self, outputs):
        return None


class _Scan(_Workload):
    """An ``ergoxeb scan`` invocation writing into a fresh output dir."""

    def __init__(self, seed, size, work_dir):
        self.seed = seed
        self.sizes = SIZES[self.name][size]
        self.out_dir = os.path.join(work_dir, "out")
        self.argv = ["--seed", str(seed), "--out-dir", self.out_dir,
                     "scan", *self.scan_args()]
        self.items = self.sizes["instances"]

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        return _run_cli(self.argv)

    def collect(self, raw):
        code, stdout = raw
        outputs = {"exit_code": str(code), "stdout": stdout}
        if os.path.isdir(self.out_dir):
            for name in sorted(os.listdir(self.out_dir)):
                with open(os.path.join(self.out_dir, name)) as fh:
                    outputs[name] = fh.read()
        return outputs

    def rows(self, outputs):
        """Rows of the scan CSV; raises ValueError when it is missing."""
        if outputs["exit_code"] != "0":
            raise ValueError(f"ergoxeb exited {outputs['exit_code']}")
        texts = [v for k, v in outputs.items() if k.endswith(".csv")]
        if len(texts) != 1:
            raise ValueError(f"expected one scan CSV, found {len(texts)}")
        rows = _csv_rows(texts[0])
        if len(rows) != self.items:
            raise ValueError(f"{len(rows)} rows, expected {self.items}")
        return rows


class HaarExact(_Scan):
    """Exact C_f over Haar instances: the compensated sum dominates."""

    name = "haar_exact"

    def scan_args(self):
        return ["--ensemble", "haar", "--qubits", str(self.sizes["qubits"]),
                "--instances", str(self.sizes["instances"]),
                "--scheme", "neglog"]

    def check(self, outputs):
        try:
            self.rows(outputs)
        except ValueError as exc:
            return str(exc)
        (summary_text,) = [v for k, v in outputs.items()
                           if k.endswith("_summary.json")]
        (summary,) = json.loads(summary_text)["summary"]
        if not summary["median_deviation"] <= summary["threshold"]:
            return (f"median deviation {summary['median_deviation']} above "
                    f"the 10 sigma/sqrt(N) threshold {summary['threshold']}")
        return None

    def post_check(self, outputs):
        """Every c_f_estimate against math.fsum over ensembles.member_probs.

        The scan CSV prints 12 significant digits, so the allowed gap is
        1e-12 relative plus half a unit in the 12th digit.
        """
        import numpy as np
        from ergoxeb.ensembles import EnsembleSpec, member_probs, mix64
        from ergoxeb.statevector import OutputDistribution, SystemDims

        n = self.sizes["qubits"]
        dims = SystemDims(n)
        # run_ergodicity_scan seeds qubit count n with mix64(seed, n).
        spec = EnsembleSpec(kind="haar", dims=dims,
                            base_seed=mix64(self.seed, n))
        for row in self.rows(outputs):
            inst = int(row["instance"])
            p = OutputDistribution(dims, member_probs(spec, inst)).probs
            p = p[p > 0.0]
            exact = math.fsum((-np.log(p) / (dims.N * p)) * p)
            printed = float(row["c_f_estimate"])
            digit = 10.0 ** (math.floor(math.log10(abs(exact))) - 11)
            if abs(printed - exact) > 1e-12 * abs(exact) + 0.5 * digit:
                return (f"instance {inst}: c_f_estimate {printed!r} differs "
                        f"from the fsum recomputation {exact!r}")
        return None


class BrickworkSampled(_Scan):
    """Sampled brickwork scan: gate application dominates."""

    name = "brickwork_sampled"

    def scan_args(self):
        s = self.sizes
        return ["--ensemble", "brickwork", "--qubits", str(s["qubits"]),
                "--instances", str(s["instances"]),
                "--noise", "depolarizing", "--fidelity", str(s["fidelity"]),
                "--scheme", "monomial2", "--samples", str(s["samples"])]

    def check(self, outputs):
        try:
            rows = self.rows(outputs)
        except ValueError as exc:
            return str(exc)
        s = self.sizes
        for row in rows:
            f_hat = float(row["f_hat"])
            if not abs(f_hat - s["fidelity"]) <= s["tolerance"]:
                return (f"instance {row['instance']}: f_hat {f_hat} not "
                        f"within {s['tolerance']} of {s['fidelity']}")
        return None


class DepolRecovery(_Workload):
    """Acceptance criterion 6 driver: many small alias tables."""

    name = "depol_recovery"

    def __init__(self, seed, size, work_dir):
        from ergoxeb import harness

        self.harness = harness
        self.seed = seed
        self.sizes = SIZES[self.name][size]
        self.items = self.sizes["instances"] * len(self.sizes["fidelities"])

    def run(self):
        s = self.sizes
        return self.harness.run_depolarizing_recovery(
            s["fidelities"], s["degrees"], n=s["qubits"], T=s["samples"],
            instances=s["instances"], base_seed=self.seed)

    def collect(self, rows):
        return {"rows": json.dumps(rows, sort_keys=True)}

    def check(self, outputs):
        rows = json.loads(outputs["rows"])
        s = self.sizes
        if len(rows) != len(s["fidelities"]) * len(s["degrees"]):
            return f"{len(rows)} recovery rows"
        for r in rows:
            error = abs(r["f_hat"] - r["fidelity"])
            allowed = min(5.0 * r["f_hat_se"], s["tolerance"])
            if not error <= allowed:
                return (f"F={r['fidelity']} degree {r['degree']}: "
                        f"|F_hat - F| = {error} exceeds {allowed}")
        return None


class XebFiles(_Workload):
    """Write probability and sample files, then ``ergoxeb xeb`` on them."""

    name = "xeb_files"
    item = "analysed bitstring"

    def __init__(self, seed, size, work_dir):
        import numpy as np
        from ergoxeb import ensembles, noise
        from ergoxeb.statevector import OutputDistribution, SystemDims

        self.noise = noise
        s = self.sizes = SIZES[self.name][size]
        dims = SystemDims(s["qubits"])
        rng = np.random.Generator(np.random.PCG64([seed, 0]))
        self.P = OutputDistribution(dims,
                                    ensembles.haar_state_probs(dims.N, rng))
        Q = noise.experimental_distribution(
            self.P, noise.NoiseModel.depolarizing(s["fidelity"]))
        self.samples = noise.sample_bitstrings(Q, s["samples"],
                                               seed=seed + 1)
        self.items = s["samples"]
        self.probs_path = os.path.join(work_dir, "probs.csv")
        self.samples_path = os.path.join(work_dir, "samples.txt")

    def prepare(self):
        for path in (self.probs_path, self.samples_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def run(self):
        self.noise.write_probabilities(self.P, self.probs_path)
        self.noise.write_samples(self.samples, self.samples_path)
        return _run_cli(["xeb", "--probs", self.probs_path,
                         "--samples", self.samples_path])

    def collect(self, raw):
        code, stdout = raw
        return {"exit_code": str(code), "stdout": stdout}

    def check(self, outputs):
        if outputs["exit_code"] != "0":
            return f"ergoxeb exited {outputs['exit_code']}"
        report = dict(line.split(",", 1)
                      for line in outputs["stdout"].splitlines())
        s = self.sizes
        if int(report["T"]) != s["samples"]:
            return f"xeb analysed {report['T']} samples"
        f_xeb = float(report["f_xeb"])
        if not abs(f_xeb - s["fidelity"]) <= s["tolerance"]:
            return (f"f_xeb {f_xeb} not within {s['tolerance']} of "
                    f"{s['fidelity']}")
        return None


WORKLOADS = {w.name: w for w in
             (HaarExact, BrickworkSampled, DepolRecovery, XebFiles)}


def corrupt(outputs):
    """Change one digit of the longest output text (for the smoke test)."""
    key = max(outputs, key=lambda k: len(outputs[k]))
    text = outputs[key]
    pos = max(i for i, ch in enumerate(text) if ch.isdigit())
    digit = str((int(text[pos]) + 1) % 10)
    return {**outputs, key: text[:pos] + digit + text[pos + 1:]}
