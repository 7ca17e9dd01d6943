"""GLM fitting with posterior tail-probability (pi-value) inference,
decision thresholds, and replication analysis."""

from .errors import (
    BoundaryError,
    ConvergenceError,
    DegeneracyError,
    DegreesOfFreedomError,
    DesignError,
    DomainError,
    HarnessError,
    MixingError,
    ParseError,
    PiglmError,
    SupportError,
)
from .glm import (
    FAMILIES,
    LINKS,
    FitResult,
    LikelihoodSurface,
    ModelData,
    ScaleEstimates,
    fit_irls,
    likelihood_surface,
    log_likelihood,
    quadraticity_diagnostic,
    saddlepoint_logpdf,
    score,
)
from .numerics import MixtureModel1D, RngStream, fit_gaussian_mixture_1d, mixture_tails
from .priors import (
    PriorSpec,
    ScalePriorSpec,
    local_uniformity_check,
    prior_logpdf,
    prior_pdf,
)
from .posterior import (
    GridPosterior,
    LaplacePosterior,
    LaplaceResult,
    McmcChain,
    ScaleMarginal,
    VectorizedLoglik,
    grid_posterior,
    laplace_posterior,
    p_formula_density,
    rw_metropolis,
    vectorized_loglik,
)
from .inference import (
    TailReport,
    pi_value_analytic,
    pi_value_from_grid,
    pi_value_from_samples,
    tail_comparison,
    wald_pvalue,
)
from .decision import (
    AnalystParams,
    ClientParams,
    evaluate_decision,
    evpi_pure,
    evpi_recalibrated,
    pi_critical,
    recalibration_loss,
)
from .replication import (
    ReplicationConfig,
    ReplicationReport,
    RpdCurve,
    predictive_pi,
    rpd_cdf,
    rpd_curve,
    rpd_median,
    rpd_moments,
    rpd_pdf,
    run_replication,
)
from .io import (
    TrialRecord,
    bundled_trials_path,
    emit_plot_csv,
    parse_trial_csv,
    to_json_text,
    trial_model_data,
)

__version__ = "1.0.0"
