"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedSizeError(ValueError):
    """The requested problem size is beyond what the implementation supports."""


class NonFiniteError(DomainError):
    """An operation produced a NaN or an infinity."""


class DegenerateBatchError(DomainError):
    """A batch is too small to define the loss (e.g. no negatives exist)."""


class IntegrityError(RuntimeError):
    """A stored artifact failed validation; the message names the section."""


class TrainingDivergedError(RuntimeError):
    """The training loss left the finite range; carries the offending step."""

    def __init__(self, step: int, detail: str):
        self.step = step
        super().__init__(f"training diverged at step {step}: {detail}")


class ShapeError(ValueError):
    """Operand shapes are incompatible; carries both shapes and the op name."""

    def __init__(self, op: str, lhs, rhs):
        self.op = op
        self.lhs = tuple(lhs)
        self.rhs = tuple(rhs)
        super().__init__(f"{op}: incompatible shapes {self.lhs} and {self.rhs}")
