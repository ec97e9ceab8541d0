"""Engine exceptions."""


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class SingularCurveError(EngineError, ValueError):
    """Weierstrass coefficients with vanishing discriminant."""


class DegenerateTowerError(EngineError, ValueError):
    """Quadratic tower that collapses (alpha already a square downstairs)."""


class UnsupportedFieldError(EngineError, ValueError):
    """Field outside the engine's scope (wrong degree or non-Galois quartic)."""


class InvariantViolationError(EngineError, RuntimeError):
    """A structural constraint the engine asserts on every run failed.

    This always indicates a bug (or a genuinely new counterexample); the
    engine aborts rather than returning a best guess.
    """


class InconsistentCountsError(EngineError, ValueError):
    """Subgroup point counts not realizable by a rank <= 2 abelian group."""


class DataFormatError(EngineError, ValueError):
    """Malformed input data (curve and field specs)."""
