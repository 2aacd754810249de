"""Cadlag rough-path lifts, canonical RDEs, and robust particle filtering
for jump-diffusion signal-observation models with common noise."""

__version__ = "0.1.0"

from .fillin import (
    AdmissiblePair,
    DeltaSweep,
    PathFunction,
    RSeq,
    alpha_p,
    beta_p,
    build_representative,
    log_linear_path_function,
)
from .filtering import (
    DegenerateWeightsError,
    FUNCTION_CATALOG,
    FilterResult,
    McEstimate,
    ParticleBlowupError,
    WeightAbortError,
    direct_reference_filter,
    epsilon_stability_experiment,
    flow_map,
    gaussian_poisson_sampler,
    per_seed_sampler,
    realized_observation,
    robust_consistency_check,
    robustness_experiment,
    scalar_flow_filter_detail,
    theta,
    trend_non_increasing,
)
from .lift import (
    RoughPath,
    chen_defect,
    geometric_defect_max,
    marcus_lift,
    read_rough_path_json,
    rho_p,
    stratonovich_lift,
    write_rough_path_json,
)
from .paths import (
    CadlagPath,
    d_p,
    p_variation,
    skorokhod_sigma_p,
)
from .rde import (
    RdeBlowupError,
    RdeSolution,
    VectorField,
    constant_vector_field,
    davie_step,
    flow_and_inverse,
    linear_vector_field,
    marcus_jump,
    solve_canonical_rde,
)
from .sim import (
    LevyMeasure,
    ModelSpec,
    StableTail,
    get_model,
    girsanov_exponent,
    h_function,
    make_noise_bundle,
    reconstruct_wtilde,
    shot_noise,
    simulate_pair,
    validate_model,
)
