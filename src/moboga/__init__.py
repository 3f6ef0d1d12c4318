"""Constraint-aware multi-objective Bayesian optimization.

Per-objective Gaussian-process surrogates feed constraint-aware expected
improvement; NSGA-II searches the acquisition vector for the next query;
the measured Pareto front is extracted from the archive and TOPSIS recommends
a single best candidate.
"""
from .acquisition import ca_ei, expected_improvement
from .engine import (
    Archive,
    EngineConfig,
    EngineError,
    NoFeasibleResultError,
    Observation,
    RunResult,
    exploit,
    explore,
    propose_next,
    run,
    stop_check,
)
from .nsga2 import GaConfig, nsga2_run
from .objectives import (
    ConstraintSpec,
    EvaluationError,
    Evaluator,
    Problem,
    soft_factor,
)
from .pareto import (
    crowding_distance,
    dominates,
    fast_nondominated_sort,
    generational_distance,
    pareto_front,
)
from .problems import (
    BUILTIN_PROBLEMS,
    binh_korn_problem,
    constr_ex_problem,
    get_problem,
    grid_reference_front,
    sinusoid_problem,
)
from .space import (
    Candidate,
    CategoricalParam,
    ContinuousParam,
    DiscreteParam,
    SearchSpace,
    ValidationError,
    decode,
    encode,
    sample_uniform,
)
from .surrogate import GpHyperParams, GpModel, gp_fit, gp_posterior
from .topsis import TopsisResult, topsis_rank

__version__ = "0.1.0"

__all__ = [
    "Archive",
    "BUILTIN_PROBLEMS",
    "Candidate",
    "CategoricalParam",
    "ConstraintSpec",
    "ContinuousParam",
    "DiscreteParam",
    "EngineConfig",
    "EngineError",
    "EvaluationError",
    "Evaluator",
    "GaConfig",
    "GpHyperParams",
    "GpModel",
    "NoFeasibleResultError",
    "Observation",
    "Problem",
    "RunResult",
    "SearchSpace",
    "TopsisResult",
    "ValidationError",
    "binh_korn_problem",
    "ca_ei",
    "constr_ex_problem",
    "crowding_distance",
    "decode",
    "dominates",
    "encode",
    "expected_improvement",
    "exploit",
    "explore",
    "fast_nondominated_sort",
    "generational_distance",
    "get_problem",
    "gp_fit",
    "gp_posterior",
    "grid_reference_front",
    "nsga2_run",
    "pareto_front",
    "propose_next",
    "run",
    "sample_uniform",
    "sinusoid_problem",
    "soft_factor",
    "stop_check",
    "topsis_rank",
]
