"""Ergodicity-based generalized cross-entropy benchmarking toolkit."""

__version__ = "0.1.0"

from .statevector import (  # noqa: F401
    GateProgram,
    OutputDistribution,
    SystemDims,
    output_distribution,
)
from .ensembles import EnsembleSpec, sample_haar_unitary  # noqa: F401
from .noise import NoiseModel, SampleSet, sample_bitstrings  # noqa: F401
from .estimators import (  # noqa: F401
    SchemeFunction,
    correlation_C_f,
    deviation_of_ergodicity,
    estimate_C_f,
    linear_xeb,
    log_xeb,
)
