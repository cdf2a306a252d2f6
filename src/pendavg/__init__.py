"""Averaged bifurcation functions and Filippov verification for the
small-amplitude perturbed planar double pendulum.

Pipeline: reduce physical parameters, build the linear spectrum and the
Jordan frame, average the perturbation along an unperturbed orbit
family, certify simple zeros of the averaged pair, and verify each
prediction by event-driven integration with an ε²-scaling test on the
Poincaré residual.
"""

from .averaging import (
    BifurcationSystem,
    ZeroCertificate,
    annulus_search,
    averaged_integrand,
    bifurcation_values,
    find_sign_changes,
)
from .errors import (
    CrossingViolationError,
    DegenerateSlidingError,
    DomainError,
    IntegrationStallError,
    NoZeroError,
    NumericalError,
    PendavgError,
    QuadratureError,
    RefinementDegenerateError,
    ResonanceError,
    TangencyError,
)
from .filippov import (
    CrossingReport,
    EventRecord,
    Segment,
    SurfaceClassification,
    Trajectory,
    crossing_hypothesis_check,
    export_events_csv,
    export_trajectory_csv,
    integrate,
    integrate_field,
    integrate_regularized,
    require_transversal_crossings,
)
from .model import (
    JordanTransform,
    PhysicalParams,
    ReducedParams,
    SpectralData,
    fundamental_matrix,
    jordan_transform,
    linearization_matrix,
    monodromy_lower_block,
    nonlinear_accelerations,
    reduce_params,
    spectral_data,
    unperturbed_orbit,
)
from .perturbation import (
    BUILTIN_NAMES,
    LinearForm,
    PeriodicScalar,
    PerturbationSpec,
    builtin,
    eval_order1_with_signs,
    perturbation_from_file,
    smooth_sign,
)
from .verify import (
    PoincareResult,
    PredictedOrbit,
    RefinementResult,
    SweepReport,
    convention_verdict,
    epsilon_sweep,
    fit_exponent,
    full_nonlinear_check,
    orbit_from_amplitude,
    poincare_residual,
    predicted_initial_state,
    refine_periodic,
    to_physical_frame,
    to_reduced_frame,
)

__version__ = "0.1.0"
