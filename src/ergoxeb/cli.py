"""Command-line interface.

Exit codes: 0 success, 1 invalid flags or file errors, 2 benchmark verdict
violated under --strict.
"""

import argparse
import json
import math
import sys

from . import __version__, analytic
from .estimators import (
    SchemeFunction,
    ZeroProbabilityError,
    deviation_of_ergodicity,
    linear_xeb,  # noqa: F401 -- perfbench/tracing.py wraps cli.linear_xeb
    log_xeb,  # noqa: F401 -- perfbench/tracing.py wraps cli.log_xeb
    parse_scheme,
)
from .harness import ScanConfig, run_ergodicity_scan, write_scan_result
from .noise import NoiseModel, read_probabilities, read_samples
from .statevector import DEFAULT_QUBIT_CAP

NOISE_KINDS = ("noiseless", "depolarizing", "completely-noisy")
ENSEMBLE_KINDS = ("haar", "brickwork", "pauli", "fixed")
# the analytic values keep ~1e-7 relative accuracy up to this N
MAX_DIMENSION = 1 << DEFAULT_QUBIT_CAP


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, as for every other error; the usage is in --help
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _parse_qubits(text):
    lo, sep, hi = text.partition("..")
    try:
        lo = int(lo)
        hi = int(hi) if sep else lo
    except ValueError:
        raise ValueError(
            f"--qubits: expected N or LO..HI, got {text!r}"
        ) from None
    return tuple(range(lo, hi + 1))


def _finite(flag, value):
    """``value`` as a float; a non-number, NaN or inf is an error naming
    ``flag``."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{flag}: expected a finite number, got {value!r}")
    return number


def _dimension(flag, value, least=2):
    """``value`` as an integer Hilbert-space dimension N in
    [``least``, MAX_DIMENSION]; anything else is an error naming ``flag``."""
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < least:
        raise ValueError(
            f"{flag}: expected an integer N >= {least}, got {value!r}"
        )
    if number > MAX_DIMENSION:
        raise ValueError(
            f"{flag}: expected an integer N <= {MAX_DIMENSION} "
            f"(2^{DEFAULT_QUBIT_CAP}), got {value!r}"
        )
    return number


def _at_least(flag, value, least):
    """``value`` if it is >= ``least``; else an error naming ``flag``."""
    if value < least:
        raise ValueError(
            f"{flag}: expected an integer >= {least}, got {value}"
        )
    return value


def _build_parser():
    parser = _Parser(
        prog="ergoxeb",
        description=(
            "Ergodicity-based cross-entropy benchmarking for random "
            "quantum circuits."
        ),
    )
    parser.add_argument("--version", action="version",
                        version=f"ergoxeb {__version__}")
    parser.add_argument("--seed", type=int, default=0,
                        help="base RNG seed (default 0)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for result files")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser(
        "scan",
        help="run an ergodicity scan over qubit counts and instances",
        description=(
            "Schemes: neglog, plogp, monomial<i> (f = N^i p^i), "
            "normalized-monomial<i>. Ensembles: haar, brickwork, pauli, "
            "fixed. Noise: noiseless, depolarizing (needs --fidelity), "
            "completely-noisy."
        ),
    )
    scan.add_argument("--ensemble", default="haar", choices=ENSEMBLE_KINDS)
    scan.add_argument("--qubits", required=True,
                      help="qubit count or range, e.g. 8 or 6..10")
    scan.add_argument("--instances", type=int, default=10)
    scan.add_argument("--scheme", default="neglog",
                      help="neglog | plogp | monomial<i> | "
                           "normalized-monomial<i>")
    scan.add_argument("--alpha", type=float, default=10.0)
    scan.add_argument("--noise", default="noiseless", choices=NOISE_KINDS)
    scan.add_argument("--fidelity", type=float, default=None,
                      help="fidelity F for depolarizing noise")
    scan.add_argument("--samples", type=int, default=0,
                      help="bitstring samples per instance "
                           "(0 = exact correlation)")
    scan.add_argument("--depth", type=int, default=None,
                      help="brickwork layer count (default 5n)")
    scan.add_argument("--fixed-file", default=None,
                      help="gate-program JSON for the fixed ensemble")
    scan.add_argument("--haar-mean-mode", default="exact",
                      choices=("exact", "porter_thomas"))
    scan.add_argument("--strict", action="store_true",
                      help="exit 2 if any instance violates ergodicity")

    xeb = sub.add_parser(
        "xeb",
        help="analyze a probability file and a sample file",
    )
    xeb.add_argument("--probs", required=True,
                     help="CSV bitstring,probability covering all N rows")
    xeb.add_argument("--samples", required=True,
                     help="text file, one measured bitstring per line")
    xeb.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="printed-report format")

    oracle = sub.add_parser(
        "oracle",
        help="print analytic Haar moment/covariance values",
    )
    group = oracle.add_mutually_exclusive_group(required=True)
    group.add_argument("--moment", nargs=3, metavar=("Q1", "Q2", "N"),
                       help="joint moment E[P(x)^q1 P(y)^q2]")
    group.add_argument("--covariance", nargs=3, metavar=("Q1", "Q2", "N"),
                       help="Cov(P(x)^q1, P(y)^q2)")
    group.add_argument("--plogp-cov", metavar="N",
                       help="Cov(p ln p) closed form")
    group.add_argument("--haar-mean", nargs=2, metavar=("SCHEME", "N"),
                       help="exact ensemble mean of a scheme function")
    return parser


def _make_noise(args):
    if args.fidelity is not None and args.noise != "depolarizing":
        raise ValueError("--fidelity applies only to --noise depolarizing")
    if args.noise == "noiseless":
        return NoiseModel.noiseless()
    if args.noise == "completely-noisy":
        return NoiseModel.completely_noisy()
    if args.fidelity is None:
        raise ValueError("depolarizing noise requires --fidelity")
    return NoiseModel.depolarizing(args.fidelity)


def _cmd_scan(args):
    alpha = _finite("--alpha", args.alpha)
    if alpha <= 0.0:
        raise ValueError(f"--alpha: expected a number > 0, got {args.alpha!r}")
    if args.depth is not None and args.ensemble != "brickwork":
        raise ValueError("--depth applies only to --ensemble brickwork")
    if args.fixed_file is not None and args.ensemble != "fixed":
        raise ValueError("--fixed-file applies only to --ensemble fixed")
    if args.fixed_file is None and args.ensemble == "fixed":
        raise ValueError("--ensemble fixed requires --fixed-file")
    cfg = ScanConfig(
        ensemble=args.ensemble,
        n_range=_parse_qubits(args.qubits),
        instances=_at_least("--instances", args.instances, 1),
        scheme=parse_scheme(args.scheme),
        alpha=alpha,
        T=_at_least("--samples", args.samples, 0),
        noise=_make_noise(args),
        base_seed=args.seed,
        # 0 means the default depth 5n
        depth=_at_least("--depth", args.depth or 0, 0),
        source_path=args.fixed_file,
        mean_mode=args.haar_mean_mode,
    )
    result = run_ergodicity_scan(cfg)
    csv_path, json_path = write_scan_result(result, args.out_dir)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    violated = any(r["verdict"] == "violated" for r in result.rows)
    if args.strict and violated:
        print("ergodicity violated in at least one instance", file=sys.stderr)
        return 2
    return 0


def _cmd_xeb(args):
    P = read_probabilities(args.probs)
    samples = read_samples(args.samples, dims=P.dims)
    mono = deviation_of_ergodicity(P, samples, SchemeFunction.monomial(2))
    # linear XEB is the monomial-2 estimate minus one (see linear_xeb)
    report = {
        "n": P.dims.n,
        "T": samples.T,
        "f_xeb": mono.c_f_estimate - 1.0,
        "f_xeb_se": mono.std_error,
        "de_monomial2": mono.deviation,
        "de_monomial2_se": mono.std_error,
    }
    try:
        plogp = deviation_of_ergodicity(P, samples, SchemeFunction.plogp())
        # log XEB is N times the plogp estimate (see log_xeb)
        report["log_xeb"] = P.dims.N * plogp.c_f_estimate
        report["de_plogp"] = plogp.deviation
        report["de_plogp_se"] = plogp.std_error
    except ZeroProbabilityError as exc:
        report["log_xeb_error"] = str(exc)
    if args.format == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for key, val in report.items():
            print(f"{key},{val:.12g}" if isinstance(val, float)
                  else f"{key},{val}")
    return 0


def _cmd_oracle(args):
    if args.moment:
        q1, q2 = (_finite("--moment", q) for q in args.moment[:2])
        if q1 <= 0.0 or q2 < 0.0:
            raise ValueError(
                f"--moment: expected Q1 > 0 and Q2 >= 0, got {q1:g} {q2:g}"
            )
        value = analytic.haar_joint_moment(
            q1, q2, _dimension("--moment", args.moment[2])
        )
    elif args.covariance:
        q1, q2 = (_finite("--covariance", q) for q in args.covariance[:2])
        if q1 <= 0.0 or q2 <= 0.0:
            raise ValueError(
                f"--covariance: expected Q1, Q2 > 0, got {q1:g} {q2:g}"
            )
        value = analytic.haar_covariance(
            q1, q2, _dimension("--covariance", args.covariance[2])
        )
    elif args.plogp_cov is not None:
        value = analytic.plogp_covariance(
            _dimension("--plogp-cov", args.plogp_cov, least=4)
        )
    else:
        scheme_name, n = args.haar_mean
        scheme = parse_scheme(scheme_name)
        value = scheme.haar_mean(_dimension("--haar-mean", n), mode="exact")
    print(format(value, ".17g"))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "scan":
            return _cmd_scan(args)
        if args.command == "xeb":
            return _cmd_xeb(args)
        return _cmd_oracle(args)
    except (ValueError, OSError, IndexError, OverflowError) as exc:
        print(f"ergoxeb: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
