"""Exception types shared across the package."""


class BarolabError(Exception):
    """Base class for all package-specific errors."""


class DomainError(BarolabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def _require(*rules):
    """Raise one :class:`DomainError` naming every ``(holds, message)`` rule that fails."""
    broken = [message for holds, message in rules if not holds]
    if broken:
        raise DomainError("; ".join(broken))


class VacuumError(DomainError):
    """A density field touched zero or went negative."""


class NumericalBreakdownError(BarolabError, ArithmeticError):
    """The operator's factorization failed, or a solve failed its backward-error check."""


class IntegrationError(BarolabError, RuntimeError):
    """Time integration produced an invalid state, or a study member blew up before t_end.

    Carries the simulation time at which the failure occurred; one that leaves a run
    loop also carries ``series``, the diagnostics rows computed up to the failure.
    """

    def __init__(self, message, t):
        super().__init__(f"{message} (at t = {t:.6g})")
        self.t = t


class MeasurementInvalidError(BarolabError, RuntimeError):
    """A phase-speed measurement was contaminated beyond its validity bounds."""


class FitUnreliableError(BarolabError, RuntimeError):
    """An exponent fit fell below the required fit quality.

    The partially-computed fit is attached as ``diagnostics``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics


class ConfigError(BarolabError, ValueError):
    """Configuration text failed validation.

    ``problems`` lists every violation found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems))


class BoundaryContaminationWarning(UserWarning):
    """A line-domain field no longer matches its far-field constants near the edges."""
