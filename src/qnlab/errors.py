"""Exception types shared across the solvers and the harness."""
from __future__ import annotations


class QnlabError(Exception):
    """Base class for all package-specific failures."""


class NonZeroMean(QnlabError, ValueError):
    """Field handed to a zero-mean-only operation has a non-negligible mean."""


class NotAProbabilityDensity(QnlabError, ValueError):
    """Density is negative somewhere or does not integrate to one."""


class GuardError(QnlabError):
    """A run guard tripped; carries the simulated time, the value the guard
    measured and the number of steps completed when it tripped, each when the
    raiser knows it (None otherwise)."""

    def __init__(self, message: str, time: float | None = None,
                 value: float | None = None, step: int | None = None):
        super().__init__(message)
        self.time = time
        self.value = value
        self.step = step


class NewtonDiverged(GuardError, RuntimeError):
    """Damped Newton iteration hit its cap (or exhausted backtracking);
    carries the L2 residual of its last iterate as the value, and no time or
    step: a solve knows neither."""


class PotentialSolveFailed(GuardError, RuntimeError):
    """Self-consistent potential solve failed inside a run; carries the time
    of the solve's step (of the sample, for a solve at a sample), the steps
    completed and the last Newton residual as the value."""


class StepTooLarge(GuardError, ValueError):
    """Time step violates the phase-sampling guard or RK4's stability bound."""


class BlowupGuardTripped(GuardError, RuntimeError):
    """Velocity gradient exceeded the smooth-regime guard during a run."""


class NonpositiveReference(QnlabError, ValueError):
    """Reference density in a relative entropy must be strictly positive."""


class NotPositive(GuardError, ValueError):
    """Constructed amplitude-squared lost positivity (scale parameter too
    large); carries its minimum as the value, and no time or step: it fails
    before any step."""


class ConfigError(QnlabError, ValueError):
    """Experiment configuration is missing, malformed, or inconsistent.

    Carries the offending file path when the file itself is the problem, so
    callers can report it without parsing the message.
    """

    def __init__(self, message: str, path: str | None = None):
        super().__init__(message)
        self.path = path
