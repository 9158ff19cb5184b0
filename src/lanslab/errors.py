"""Exception types shared across the package."""


class LansLabError(Exception):
    """Base class for package errors."""


class ConfigError(LansLabError):
    """Malformed or semantically invalid configuration."""


class GridMismatchError(LansLabError):
    """Operands attached to different grids or wrong shapes."""


class AdmissibilityError(LansLabError):
    """Fixed-point index tuple violates the contraction conditions.

    Carries the full list of violated conditions so callers can report
    a structured diagnostic instead of a bare message.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("inadmissible index tuple: " + "; ".join(self.violations))


class ParameterGateError(LansLabError):
    """A verification check was invoked with parameters outside the
    validity region of the estimate it monitors."""

    def __init__(self, check_id, condition, values=None):
        self.check_id = check_id
        self.condition = condition
        self.values = dict(values or {})
        msg = f"check '{check_id}' rejects parameters: requires {condition}"
        if self.values:
            msg += f" (got {self.values})"
        super().__init__(msg)


class BlowUpError(LansLabError):
    """Time stepper aborted because the solution norm crossed the guard."""

    def __init__(self, t, norm, threshold):
        self.t = t
        self.norm = norm
        self.threshold = threshold
        bound = f"> {threshold:.3g}" if norm > threshold else "is not finite"
        super().__init__(f"blow-up guard tripped at t={t:.6g}: ||u||_2={norm:.6g} {bound}")
