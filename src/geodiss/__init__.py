"""Gram-determinant control fields for geometric dissipation.

Given a conservative vector field, a list of conserved quantities, one
quantity to dissipate, and a Riemannian metric, this package constructs the
control field whose subtraction turns the flow into a gradient-like descent
of the dissipated quantity on each leaf of the conserved quantities, then
verifies the structural consequences numerically: exact conservation along
the corrected flow, monotone dissipation at the predicted rate, the
equilibrium and limit-set structure, and sublevel-set basin certificates.

Submodules are imported lazily so that the command line tool can configure
thread pools before any numerical code loads.
"""
from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    # errors
    "GeodissError": "errors",
    "InputError": "errors",
    "IntegrationFailure": "errors",
    "IdentityFailure": "errors",
    "CertificateFailure": "errors",
    "DimensionMismatch": "errors",
    "NonFiniteValue": "errors",
    "NonPositiveDefiniteMetric": "errors",
    "SingularLeaf": "errors",
    "PremiseViolation": "errors",
    "StepUnderflow": "errors",
    "MaxStepsExceeded": "errors",
    "NonFiniteState": "errors",
    "NotOnInvariantSet": "errors",
    "LeafProjectionFailure": "errors",
    "AnchorOutsideLevel": "errors",
    "NotPeriodic": "errors",
    "UnboundedTrajectory": "errors",
    "BadInertia": "errors",
    "NoValidLevel": "errors",
    "NotAsymptoticallyStable": "errors",
    "ConfigError": "errors",
    "InitialStepBelowFloor": "errors",
    "NumericalHealthWarning": "errors",
    # polynomials
    "Polynomial": "poly",
    "all_monomials": "poly",
    "random_polynomial": "poly",
    # fields
    "ScalarField": "fields",
    "VectorField": "fields",
    "MetricField": "fields",
    "DissipativeSystem": "fields",
    "ConservationReport": "fields",
    "validate_conservation": "fields",
    "gradient": "fields",
    "inner": "fields",
    "central_difference": "fields",
    "as_point": "fields",
    "project_to_leaf": "fields",
    # gram data
    "SystemFrame": "gram",
    "system_frame": "gram",
    "FrameStack": "gram",
    "system_frames": "gram",
    "checked_det": "gram",
    "GRAM_NEGATIVITY_FLOOR": "gram",
    # control field
    "Formulation": "control",
    "ControlEvaluation": "control",
    "control_field": "control",
    "tensor_matrix": "control",
    "dissipated_rhs": "control",
    "dissipation_rate": "control",
    "identity_scales": "control",
    "LEAF_CONDITION_LIMIT": "control",
    # catalog
    "CatalogEntry": "catalog",
    "rigid_body": "catalog",
    "mexican_hat": "catalog",
    "gradient_only": "catalog",
    "random_poly": "catalog",
    "rotated_quadric": "catalog",
    "from_name": "catalog",
    # integration
    "Flow": "integrators",
    "Method": "integrators",
    "IntegratorConfig": "integrators",
    "Trajectory": "integrators",
    "integrate": "integrators",
    "EnsembleRun": "integrators",
    "integrate_ensemble": "integrators",
    "flow_agreement_band": "integrators",
    # structure analysis
    "PointKind": "structure",
    "PointClass": "structure",
    "classify_point": "structure",
    "Stability": "structure",
    "EquilibriumReport": "structure",
    "find_equilibria": "structure",
    "stability_classify": "structure",
    "escape_test": "structure",
    "compare_on_invariant_set": "structure",
    "leaf_tangent_basis": "structure",
    "refine_to_invariant_set": "structure",
    "LeafDiagnostics": "structure",
    "leaf_diagnostics": "structure",
    "OmegaProbe": "structure",
    "omega_limit_probe": "structure",
    "DEFAULT_TOL_INV": "structure",
    "DEFAULT_TOL_G": "structure",
    # basin certificates
    "SamplerConfig": "basin",
    "SublevelComponent": "basin",
    "sublevel_component": "basin",
    "scan_invariant_witnesses": "basin",
    "BasinCertificate": "basin",
    "basin_certify": "basin",
    "OrbitCertificate": "basin",
    "periodic_orbit_certify": "basin",
    "distance_to_orbit": "basin",
    "threshold_search": "basin",
    # reports
    "canonical": "report",
    "json_text": "report",
    "write_text_atomic": "report",
    "FLOAT_FORMAT": "report",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'geodiss' has no attribute {name!r}")
    return getattr(import_module(f"geodiss.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
