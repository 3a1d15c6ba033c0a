"""Numerical laboratory for 3-term progressions under lp-metric gap constraints."""

from .lpgeom import (
    LpExponent,
    SphereQuadrature,
    grad_q_magnitude,
    lp_norm,
    sigma_mass_invariance,
    sigma_total_mass,
    sphere_quadrature,
    unit_ball_volume,
)
from .mollifier import (
    CancelledKernel,
    KernelParams,
    MollifierPair,
    build_cancelled_kernel,
    build_mollifier,
    c1_eps,
    kernel_fourier,
    kernel_total_mass,
    omega_eps_eval,
)
from .gowers import (
    CyclicGridFunction,
    delta_h,
    u2_norm,
    u3_kernel_distance,
    u3_norm,
    u3_tensor_check,
    u3_form_control_check,
)
from .forms import (
    BoxFunction,
    FormValue,
    box_partition_pigeonhole,
    e_lambda,
    energy_sum,
    full_box,
    m_eps_lambda,
    m_lambda,
    n_lambda,
    random_indicator,
    roth_main_term_experiment,
)
from .oscillatory import (
    DecayFit,
    PhaseFamily,
    decay_fit,
    i_of_t,
    inner_integral,
    lacunary_sum_bound,
    multiplier_check,
    phase_eval,
    stationary_lower_bound_check,
)
from .sets import (
    GapSpectrum,
    LacunarySequence,
    PointSet,
    ProgressionWitness,
    bourgain_set,
    gap_spectrum_sample,
    grid_indicator_set,
    half_integer_deviation,
    lacunary_generate,
    lattice_cube_set,
    parallelogram_check,
    progression_search,
    theorem_experiment,
)

__version__ = "0.1.0"
