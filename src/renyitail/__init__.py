"""Heavy-tail modeling through scaled iid log-spacings.

A heavy-tailed ordered sample is represented as w_k = C exp(x_k) where
x_k = sum_{j<=k} z_j/(n+1-j) for iid nonnegative spacings z with mean
gamma; 1/gamma plays the role of the tail index.  The package provides the
spacing laws, the construction and its exact finite-n oracles, tail-index
estimators with confidence intervals, large-deviation rates, and a seeded
Monte Carlo experiment harness with a CLI front end.
"""

from .engine import SeedSpec
from .estimators import (
    h_function,
    h_minimizer,
    half_width,
    hill,
    hill_trajectory,
    ml_uniform,
    quantile_estimator,
    spacing_sigma,
)
from .experiments import (
    DEFAULT_SEED,
    ExperimentConfig,
    MCTailResult,
    ReportTable,
    mc_tail_logprob,
    run_experiment,
)
from .large_deviations import (
    exact_hill_tail,
    gamma_family_rates,
    iid_comparison_rates,
    log_gammaincc,
    rate_function,
)
from .likelihood import (
    DensityModel,
    conditional_log_likelihood,
    ml_fit,
    ordered_density,
    permuted_density,
)
from .rand_models import (
    DistributionSpec,
    bernoulli,
    cf,
    draw,
    exponential,
    gamma_law,
    hall_class,
    mgf,
    moment,
    parse_spec,
    quantile,
    strict_pareto,
    uniform,
)
from .renyi import (
    HeavySample,
    cross_moment_recursion,
    generalized_renyi,
    heavy_sample,
    moment_recursion,
    psi_n,
)

__version__ = "0.1.0"
