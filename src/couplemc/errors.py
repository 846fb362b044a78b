"""Exception types shared across the package."""


class CoupleMCError(Exception):
    """Base class for all package errors."""


class ValidationError(CoupleMCError):
    """Invalid input data or configuration."""


class ConfigError(ValidationError):
    """Experiment configuration does not parse or validate."""


class EllipticityError(ValidationError):
    """A diffusion matrix has a nonpositive eigenvalue."""


class SimulationDivergedError(CoupleMCError):
    """A simulated state became non-finite.

    Carries the step index at which the overflow/NaN was first seen.
    """

    def __init__(self, step_index, message=None):
        self.step_index = step_index
        super().__init__(message or f"simulation diverged at step {step_index}")


class DiniDivergenceError(CoupleMCError):
    """A modulus of continuity failed the Dini integrability check."""
