"""Exception types shared across the package, the range check of the
settings classes (each field declares its range once, as ``bounds`` metadata,
and ``check_fields`` enforces every declaration of a class), and the one
reader of the package's whole-file text inputs, ``read_utf8``."""

import dataclasses
import io
import math


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


def bounds(lo, hi=math.inf, *, open_lo: bool = False, open_hi: bool = False) -> dict:
    """Field metadata: the value lies in [lo, hi], without an end that is open."""
    return {"bounds": (lo, hi, open_lo, open_hi)}


def check_fields(obj) -> None:
    """DomainError naming the first field of the dataclass obj that is a
    non-finite float or lies outside its declared bounds."""
    for f in dataclasses.fields(obj):
        v = getattr(obj, f.name)
        if f.type in ("float", float) and not math.isfinite(v):
            raise DomainError(f"{f.name} must be finite, got {v}")
        lo, hi, open_lo, open_hi = f.metadata.get("bounds", (None, None, False, False))
        # the positive form, so that a NaN is refused
        if lo is None or ((lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi)):
            continue
        if hi < math.inf:
            span = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
        else:
            span = "positive" if open_lo and lo == 0 else f"{'>' if open_lo else '>='} {lo:g}"
        raise DomainError(f"{f.name} must be {span}, got {v}")


def read_utf8(path, newline=None) -> io.StringIO:
    """The file at path decoded whole as UTF-8, as a text stream whose newline
    handling is open()'s for the same newline. A file that is not UTF-8 is a
    DomainError naming path:line of the first bad byte."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as exc:
        # the line a text reader would be on: count the line ends before the
        # bad byte, as universal newlines split them
        line = len((raw[: exc.start] + b".").splitlines())
        raise DomainError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None
