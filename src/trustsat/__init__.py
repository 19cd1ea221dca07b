"""Trust-weighted satisfaction propagation for collaborative document review.

Estimate how satisfied every collaborator would be with a document from the
ratings of a few reviewers, propagated conservatively along a directed trust
graph; pick the reviewers that satisfy the most people; and predict, on
random graphs, how many reviewers a publication target needs.
"""

from .analytics import (
    BoundsResult,
    ModelParams,
    community_thresholds,
    expected_satisfaction,
    k_max_for_target,
    k_min_for_target,
    poisson_degree_pmf,
)
from .editing import (
    EditingConfig,
    SessionLog,
    SessionRound,
    TrustUpdateConfig,
    apply_rater_trust_updates,
    run_session,
    trust_update,
)
from .errors import (
    AlphaUnsupported,
    DuplicateEdge,
    InfeasibleTarget,
    NoNonRaters,
    NodeOutOfRange,
    NoRoot,
    NotConverged,
    ParseError,
    SelfLoop,
    SingularInfluence,
    StaleDelta,
    TooLarge,
    TrustOutOfRange,
    TrustSatError,
    ValidationError,
)
from .experiments import CdfTable, empirical_satisfaction_cdf
from .graph import (
    ConstantTrust,
    ErdosRenyiSpec,
    TrustGraph,
    UniformTrust,
    build_graph,
    generate_erdos_renyi,
    load_graph,
    load_thresholds,
    mean_out_degree,
    save_graph,
    save_thresholds,
)
from .satisfaction import (
    SatisfactionVector,
    SessionState,
    SolverConfig,
    compute_weights,
    reachability_mask,
    satisfied_count,
    solve_dense_oracle,
    solve_iterative,
)
from .selection import (
    DeltaMatrix,
    SelectionStrategy,
    delta_init,
    delta_promote,
    marginal_greedy_fast,
    marginal_satisfaction,
    select_marginal_greedy,
    select_optimal_exhaustive,
    select_random,
    select_trust_greedy,
)

__version__ = "0.1.0"
