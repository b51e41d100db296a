"""Exception and warning types shared across the package."""


class PilotwaveError(Exception):
    """Base class for package-specific errors."""


class AllNodesError(PilotwaveError):
    """Every grid point fell below the node threshold (field is ~0 everywhere)."""


class GridTooCoarseError(PilotwaveError, ValueError):
    """A requested feature is narrower than the grid can resolve (a bad value)."""


class NodeProximityError(PilotwaveError):
    """Velocity requested where the interpolated |psi| is below the node threshold."""

    def __init__(self, message, position=None, time=None):
        super().__init__(message)
        self.position = position
        self.time = time


class PreparationMismatchError(PilotwaveError):
    """Two initial states fail the matched phase-gradient precondition."""


class UndefinedGradientError(PilotwaveError):
    """Action gradient is undefined at the requested point and time."""


class CausticDetectedError(PilotwaveError):
    """Characteristic Jacobian collapsed below threshold.

    Carries the transport results accumulated before the caustic in
    ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class InsufficientBundleError(PilotwaveError):
    """Bundle too thin to form transverse second-derivative stencils (k < 2).

    With k = 0 this is exactly the single-trajectory case: amplitude and
    phase cannot be recovered from one realized curve alone.
    """


class BundleCrossingError(PilotwaveError):
    """Bundle member ordering broke during the reconstruction window."""


class ConfigError(PilotwaveError):
    """Scenario configuration rejected before running; ``path`` names the field."""

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class ScenarioFailure(PilotwaveError):
    """A scenario ran to completion but one or more checks failed."""

    def __init__(self, message, failed_checks=()):
        super().__init__(message)
        self.failed_checks = list(failed_checks)


class AliasingWarning(UserWarning):
    """Momentum content approaching the Nyquist wavenumber."""


class StepSizeWarning(UserWarning):
    """Time step above the phase-aliasing bound dx^2 * m / (pi * hbar)."""


class EdgeLeakWarning(UserWarning):
    """|psi| exceeded the leak threshold inside the edge bands."""


class UnwrapResidueWarning(UserWarning):
    """2D phase unwrap found residues; the returned S carries flagged cells."""
