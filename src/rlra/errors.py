"""Exception types shared across the library."""


class RlraError(Exception):
    """Base class for library-specific failures."""


class NonFiniteInput(RlraError):
    """A product of A or a streamed panel of A holds NaN or infinite values.

    Detected on the product results, which are sketch-sized, so the check
    costs no extra pass over A.
    """


class NotConverged(RlraError):
    """Adaptive rank search exhausted its sketch width above tolerance.

    Carries the partial outcome so the caller can restart with a wider sketch.
    """

    def __init__(self, outcome):
        self.outcome = outcome
        super().__init__(
            f"residual energy {outcome.residual_energy:.6e} above tolerance "
            f"at full sketch width {outcome.width}"
        )


class Unsatisfiable(RlraError):
    """The restart schedule ran out of room: sketch width already at its cap."""
