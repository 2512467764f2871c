"""Exception types shared across the package."""

from __future__ import annotations


class EigenframeError(Exception):
    """Base class for all package errors."""


class IllegalCharacterError(EigenframeError):
    def __init__(self, char: str, offset: int):
        self.char = char
        self.offset = offset
        super().__init__(f"illegal character {char!r} at offset {offset}")


class ExprSyntaxError(EigenframeError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class UnknownIdentifierError(EigenframeError):
    def __init__(self, name: str, position: int = -1):
        self.name = name
        self.position = position
        super().__init__(f"unknown identifier {name!r}")


class DomainError(EigenframeError):
    """Expression evaluated outside its smooth domain (log/sqrt of a
    non-positive argument, division by zero, non-integer power of a
    non-positive base)."""

    def __init__(self, node: object, point: object, detail: str = ""):
        self.node = node
        self.point = point
        msg = f"domain violation in {node!r} at point {point}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class SingularFrameError(EigenframeError):
    def __init__(self, point: object, det: float, scale: float):
        self.point = point
        self.det = det
        super().__init__(
            f"frame is numerically singular at {point}: |det R| = {abs(det):.3e} "
            f"below threshold {scale:.3e}"
        )


class ZeroScalingError(EigenframeError):
    def __init__(self, point: object, index: int):
        self.point = point
        self.index = index
        super().__init__(f"scaling function alpha^{index + 1} vanishes near {point}")


class ChartDomainError(EigenframeError):
    pass


class CoincidentEigenvaluesError(EigenframeError):
    def __init__(self, point: object, gap: float):
        self.point = point
        self.gap = gap
        super().__init__(f"eigenvalue gap {gap:.3e} too small at {point}")


class NotRichError(EigenframeError):
    pass


class NotRankZeroError(EigenframeError):
    pass


class NormalizationFailedError(EigenframeError):
    """No index permutation satisfies the classifier's normalization."""


class InconclusiveVanishingError(EigenframeError):
    """A coefficient magnitude fell in the dead zone [tol, 10*tol]; the
    vanishing verdict would be unreliable."""

    def __init__(self, condition: str, value: float, tol: float):
        self.condition = condition
        self.value = value
        self.tol = tol
        super().__init__(
            f"coefficient {condition} = {value:.3e} is in the dead zone "
            f"[{tol:.1e}, {10 * tol:.1e}]"
        )


class CurlViolationError(EigenframeError):
    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"field is not closed: curl residual {residual:.3e} > {tol:.1e}")


class QuadratureFailureError(EigenframeError):
    pass


class StepFailureError(EigenframeError):
    pass


class SchemaError(EigenframeError):
    pass


class CorpusParseError(EigenframeError):
    def __init__(self, path: object, detail: str):
        self.path = path
        super().__init__(f"{path}: {detail}")
