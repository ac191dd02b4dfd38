"""Numeric laboratory for the contact geometry of thermodynamic phase space.

Builds contact Hamiltonian flows that generate Legendre transformations,
measures Killing and isometry residuals of candidate phase-space metrics
along those flows, and computes induced equilibrium-space metrics together
with their scalar curvature (closed form and an independent finite-
difference oracle).
"""

from .phasespace import (
    Covector,
    DarbouxPoint,
    OneFormField,
    eta_field,
    eval_deta,
    eval_eta,
    lie_derivative_oneform,
    reeb,
)
from .flows import (
    ContactHamiltonian,
    ContactVectorField,
    FlowTrajectory,
    IntegrationError,
    LegendreMap,
    closed_form_orbit,
    closed_form_orbit_jacobian,
    discrete_legendre,
    flow_map,
    hamiltonian_vector_field,
    integrate_flow,
    jacobian_discrete_legendre,
    legendre_field,
    partial_legendre_field,
    partial_legendre_hamiltonian,
    total_legendre_hamiltonian,
)
from .metriclab import (
    GtdPartialParams,
    GtdTotalParams,
    MetricField,
    OmegaFunction,
    build_metric,
    discrete_isometry_residual,
    flow_recurrence_residual,
    k_contact_residual,
    killing_residual,
    lie_derivative_metric,
    omega_registry,
    poisson_constraint_residual,
    reeb_vector_field,
)
from .equilibrium import (
    DegenerateMetricError,
    DomainError,
    EquilibriumMetric,
    EquilibriumOmega,
    FundamentalRelation,
    SingularityError,
    curvature_report,
    curvature_table,
    embed,
    embedding_tangents,
    first_law_residual,
    ideal_gas,
    induced_metric,
    metric_determinant,
    pullback_metric,
    rho_scan,
    scalar_curvature_ideal_gas,
    scalar_curvature_numeric,
)
from .sampling import SplitMix64, sample_darboux_points

__version__ = "0.1.0"
