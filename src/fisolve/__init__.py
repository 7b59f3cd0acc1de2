"""Forward-induction solution concepts for finite dynamic games.

Parse a game and optional belief restrictions with `dsl`, run a procedure
from `solvers`, and inspect the returned trace. `beliefs` holds the
conditional belief machinery, `oracle` an independent grid search used to
cross-check it, `stability` a floating-point equilibrium and perturbation
lab, and `randgen` reproducible random instances for property testing.
Only the lab needs numpy: it loads on the first use of one of its names
here, so importing fisolve and running the exact procedures never does.
"""

from .dsl import (
    DslError,
    parse_game,
    parse_restrictions,
    serialize_game,
    serialize_solution,
)
from .model import GameTree, ModelError, PerfectRecallViolation, ProfileSet
from .beliefs import (
    BeliefError,
    ConditionalBeliefs,
    EmptyPolytope,
    UnsupportedBeliefStructure,
    exists_admissible_cps,
    is_valid_cps,
    lexicographic_cps,
    point_cps,
    sequential_best_reply,
    strong_belief_mandate,
    strongly_believes,
)
from .oracle import GridTooCoarse, OracleSoundnessFailure, concordance_verdict, oracle_cps_search
from .solvers import (
    PreconditionViolated,
    ProcedureSpec,
    SolveTrace,
    check_composition_lemma,
    generalized_solve,
    is_rationalizable_restriction,
    rationalizability,
    rationalize_restrictions,
    selective_rationalizability,
    solve_without_s3,
    strong_delta_rationalizability,
)
from .randgen import random_game, random_point_restrictions

__version__ = "0.1.0"

__all__ = [
    "BeliefError",
    "ConditionalBeliefs",
    "DslError",
    "EmptyPolytope",
    "GameTree",
    "GridTooCoarse",
    "MixedStrategy",
    "ModelError",
    "NormalForm",
    "OracleSoundnessFailure",
    "PerfectRecallViolation",
    "PerturbationSpec",
    "PreconditionViolated",
    "ProcedureSpec",
    "ProfileSet",
    "SearchBudgetExceeded",
    "SolveTrace",
    "StabilityError",
    "UnsupportedBeliefStructure",
    "check_composition_lemma",
    "concordance_verdict",
    "exists_admissible_cps",
    "find_equilibrium_near",
    "generalized_solve",
    "is_nash",
    "is_rationalizable_restriction",
    "is_valid_cps",
    "lexicographic_cps",
    "normal_form",
    "oracle_cps_search",
    "parse_game",
    "parse_restrictions",
    "perturb_game",
    "point_cps",
    "random_game",
    "random_point_restrictions",
    "rationalizability",
    "rationalize_restrictions",
    "run_scenario",
    "selective_rationalizability",
    "sequential_best_reply",
    "serialize_game",
    "serialize_solution",
    "solve_without_s3",
    "strong_belief_mandate",
    "strong_delta_rationalizability",
    "strongly_believes",
]


def __getattr__(name):
    # The names of __all__ not bound above are the lab's.
    if name in __all__:
        from . import stability

        return getattr(stability, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
