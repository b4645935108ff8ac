"""Benchmarking harness for no-regret bidding in repeated first-price auctions."""

from .auction import (
    best_fixed_utility,
    bid_for_value,
    check_probabilities,
    check_thresholds,
    expected_utility,
    probabilities_from_strategy,
    revenue_for_h,
    single_shot_best_response,
    thresholds_from_probabilities,
    utility_for_h,
    utility_gradient,
)
from .config import ConfigError, ExperimentConfig, parse_config
from .distributions import EqualRevenue, PiecewiseLinearCDF, Uniform, ValueDistribution
from .environments import (
    AdaptiveCompetition,
    Adversary,
    DecreasingReserve,
    FixedSequence,
    LowerBoundCompetition,
    StochasticCompetition,
    Trace,
    UNWINNABLE,
    run_multi_buyer,
    run_single_buyer,
)
from .grids import BidGrid, Grid, IrregularBidGrid
from .learners import (
    FixedStep,
    FixedStrategyBidder,
    GradientBidder,
    HarmonicStep,
    LazyRegularizedBidder,
    MeanBasedBucketBidder,
    MisreportingBidder,
    ThresholdBidder,
    default_eta_known_f,
    default_eta_threshold,
)
from .metrics import (
    BenchmarkReport,
    check_regret_step,
    check_robustness_step,
    ic_gap,
    myerson_revenue,
    optimal_multi_buyer_revenue,
    potential_euclidean,
    potential_threshold_revenue,
    pseudo_regret,
    strong_concavity_modulus,
)
from .projection import (
    ChainPolytope,
    ProjectionDiagnostics,
    ga_step_probabilities,
    ga_step_thresholds,
    probability_polytope,
    project_oracle,
    threshold_polytope,
)
from .strategies import (
    BucketStrategy,
    ComposedStrategy,
    MisreportMap,
    ProbabilityStrategy,
    Strategy,
    ThresholdStrategy,
)

__version__ = "0.1.0"
