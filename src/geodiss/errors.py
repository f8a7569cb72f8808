"""Exception types and numerical-health warnings shared across the package.

Every error subclasses one of four category bases, and the base alone states
the exit code the command line tool returns for it. This module imports
nothing, so the CLI can name these classes without loading numpy.
"""


class GeodissError(Exception):
    """Base class for every error raised by geodiss."""

    exit_code: int


class InputError(GeodissError):
    """Invalid input: a config, a system definition or an array shape."""
    exit_code = 1


class IntegrationFailure(GeodissError):
    """One integration run ended early (an ensemble records a failed start)."""
    exit_code = 2


class IdentityFailure(GeodissError):
    """A structural identity or a metric check failed."""
    exit_code = 3


class CertificateFailure(GeodissError):
    """A certificate or one of its preconditions did not hold."""
    exit_code = 4


class DimensionMismatch(InputError):
    """An array argument has the wrong shape for the ambient dimension."""


class NonFiniteValue(IdentityFailure):
    """A field evaluation produced NaN or infinity."""


class NonPositiveDefiniteMetric(IdentityFailure):
    """The metric matrix failed a positive-definiteness check at a point."""


class SingularLeaf(IdentityFailure):
    """Conserved-quantity gradients are too close to dependent for leaf work."""


class PremiseViolation(IdentityFailure):
    """X fails to annihilate a conserved or the dissipated quantity, which a
    certificate's argument needs."""


class StepUnderflow(IntegrationFailure):
    """Adaptive step size collapsed below the resolvable minimum."""


class MaxStepsExceeded(IntegrationFailure):
    """Integration hit the step budget before reaching t_end."""


class NonFiniteState(IntegrationFailure):
    """The integrated state left the space of finite vectors."""


class NotOnInvariantSet(CertificateFailure):
    """A point required to sit on the degeneracy set classified as generic."""


class LeafProjectionFailure(IntegrationFailure):
    """Projection back onto a level set did not converge."""


class AnchorOutsideLevel(CertificateFailure):
    """The anchor point lies above the requested sublevel threshold."""


class NotPeriodic(CertificateFailure):
    """No periodic recurrence was detected from the given seed."""


class UnboundedTrajectory(IntegrationFailure):
    """A trajectory left the configured bounding ball."""


class BadInertia(InputError):
    """Rigid-body inertia parameters must be distinct and positive."""


class NoValidLevel(CertificateFailure):
    """Even the smallest tested sublevel threshold failed certification."""


class NotAsymptoticallyStable(CertificateFailure):
    """Basin certification requires a target that classifies as stable."""


class ConfigError(InputError):
    """A run configuration failed validation."""


class InitialStepBelowFloor(InputError):
    """An adaptive run's first step already lies below its step floor."""


class NumericalHealthWarning(RuntimeWarning):
    """Roundoff drifted past a sanity bound; results may need scrutiny."""
