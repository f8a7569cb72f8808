"""Exception types and numerical-health warnings shared across the package."""


class GeodissError(Exception):
    """Base class for every error raised by geodiss."""


class DimensionMismatch(GeodissError):
    """An array argument has the wrong shape for the ambient dimension."""


class NonFiniteValue(GeodissError):
    """A field evaluation produced NaN or infinity."""


class NonPositiveDefiniteMetric(GeodissError):
    """The metric matrix failed a positive-definiteness check at a point."""


class SingularLeaf(GeodissError):
    """Conserved-quantity gradients are too close to dependent for leaf work."""


class StepUnderflow(GeodissError):
    """Adaptive step size collapsed below the resolvable minimum."""


class MaxStepsExceeded(GeodissError):
    """Integration hit the step budget before reaching t_end."""


class NonFiniteState(GeodissError):
    """The integrated state left the space of finite vectors."""


class NotOnInvariantSet(GeodissError):
    """A point required to sit on the degeneracy set classified as generic."""


class LeafProjectionFailure(GeodissError):
    """Projection back onto a level set did not converge."""


class AnchorOutsideLevel(GeodissError):
    """The anchor point lies above the requested sublevel threshold."""


class NotPeriodic(GeodissError):
    """No periodic recurrence was detected from the given seed."""


class UnboundedTrajectory(GeodissError):
    """A trajectory left the configured bounding ball."""


class BadInertia(GeodissError):
    """Rigid-body inertia parameters must be distinct and positive."""


class NoValidLevel(GeodissError):
    """Even the smallest tested sublevel threshold failed certification."""


class NotAsymptoticallyStable(GeodissError):
    """Basin certification requires a target that classifies as stable."""


class ConfigError(GeodissError):
    """A run configuration failed validation."""


# Everything that ends one integration run: the CLI maps these to its
# integration exit code, and a certificate ensemble records them as failed
# starts. Defined here so the CLI can name them without loading numpy.
_INTEGRATION_FAILURES = (StepUnderflow, MaxStepsExceeded, NonFiniteState,
                         UnboundedTrajectory, LeafProjectionFailure)


class NumericalHealthWarning(RuntimeWarning):
    """Roundoff drifted past a sanity bound; results may need scrutiny."""
