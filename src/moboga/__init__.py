"""Constraint-aware multi-objective Bayesian optimization.

Per-objective Gaussian-process surrogates feed constraint-aware expected
improvement; NSGA-II searches the acquisition vector for the next query;
the measured Pareto front is extracted from the archive and TOPSIS recommends
a single best candidate.
"""
from types import ModuleType as _ModuleType

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

# every public name the imports above bind; the submodules they load are not
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
