"""gibbslab: exact generalization-bound quantities for the Gibbs algorithm
on finite hypothesis spaces, with seeded Monte Carlo verification harnesses.
"""

from .bounds import (
    binary_kl_bound,
    high_temperature_bound,
    minimizer_mass_bound,
    shift_radius,
    stratified_subgaussian_bound,
)
from .gibbs import (
    ComplexityValue,
    DensityConditionError,
    DensityFamily,
    GibbsPosterior,
    capped_exponential_density,
    complexity,
    complexity_bruteforce,
    density_family,
    exponential_density,
    normalize_density,
    polynomial_density,
    posterior,
    sample_hypotheses,
    sample_hypothesis,
    zero_temperature_posterior,
)
from .harness import (
    BoundReport,
    ExperimentConfig,
    ExperimentResult,
    Outcome,
    run_concentration_experiment,
    run_experiment,
    run_phase_diagram,
    run_random_label_experiment,
    run_violation_experiment,
    run_zero_temp_sweep,
    wilson_upper_99,
)
from .margins import (
    LabeledPoint,
    LinearGrid,
    LinearHypothesis,
    MarginResult,
    build_linear_grid,
    grid_space,
    labeled_domain,
    level_set_equality_check,
    margin_value,
    score,
    zero_one_loss,
)
from .measures import (
    binary_kl,
    binary_kl_inverse_relaxed,
)
from .model import (
    DataSet,
    FiniteDataDomain,
    FiniteHypothesisSpace,
    LossProfile,
    build_space,
    k_minimizer_space,
    loss_matrix,
    loss_profile,
    permuted_label_task,
    random_loss_table,
    sample_dataset,
)

__version__ = "0.1.0"
