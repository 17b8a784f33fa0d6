"""Matrix Wiener and adaptive synthesis filters for uniform filter banks."""

from .algebra import LaurentPoly, PolyMatrix, RationalMatrix, RationalTF
from .spectra import (
    FilterBankSpec,
    InputPSD,
    analysis_psd,
    cross_psd,
    generate_wss,
    make_desired,
    run_analysis,
)
from .wiener import (
    SingularBankError,
    WienerSolution,
    closed_form_eval,
    reconstruction_check,
    submatrix_det_bruteforce,
    theorem1_det,
    wiener_solve,
)
from .adaptive import AdaptationTrace, MatrixAdaptiveFilter, run_adaptation
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    compare_to_wiener,
    experiment_1,
    experiment_2,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationTrace",
    "ExperimentConfig",
    "ExperimentResult",
    "FilterBankSpec",
    "InputPSD",
    "LaurentPoly",
    "MatrixAdaptiveFilter",
    "PolyMatrix",
    "RationalMatrix",
    "RationalTF",
    "SingularBankError",
    "WienerSolution",
    "analysis_psd",
    "closed_form_eval",
    "compare_to_wiener",
    "cross_psd",
    "experiment_1",
    "experiment_2",
    "generate_wss",
    "make_desired",
    "reconstruction_check",
    "run_adaptation",
    "run_analysis",
    "run_experiment",
    "submatrix_det_bruteforce",
    "theorem1_det",
    "wiener_solve",
]
