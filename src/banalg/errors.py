"""Exception hierarchy. Every failure mode carries a short machine-readable code."""

from __future__ import annotations


class BanalgError(Exception):
    """Base class for all workbench errors."""

    code = "ERROR"

    def __init__(self, message: str, **detail):
        super().__init__(message)
        self.detail = detail


class ValidationRejected(BanalgError):
    """An algebra spec violated one of the algebra axioms beyond tolerance."""

    code = "REJECTED"

    def __init__(self, reason: str, report=None):
        super().__init__(f"algebra rejected: {reason}")
        self.reason = reason
        self.report = report


class ConstructionError(BanalgError):
    code = "CONSTRUCTION"


class InvalidActionError(ConstructionError):
    code = "INVALID_ACTION"


class NotHomomorphismError(ConstructionError):
    code = "NOT_HOMOMORPHISM"


class NotContractiveError(ConstructionError):
    code = "NOT_CONTRACTIVE"

    def __init__(self, norm: float):
        super().__init__(f"map is not contractive: operator norm {norm:.6g} > 1")
        self.norm = norm


class SpectraError(BanalgError):
    code = "SPECTRA"


class IllConditionedError(SpectraError):
    code = "ILL_CONDITIONED"


class NoNormalizerError(SpectraError):
    code = "NO_NORMALIZER"


class MultiplierError(BanalgError):
    code = "MULTIPLIER"


class NotAMultiplierError(MultiplierError):
    code = "NOT_A_MULTIPLIER"


class RelationsViolatedError(MultiplierError):
    code = "RELATIONS_VIOLATED"

    def __init__(self, items: list[tuple[str, float]]):
        worst = max(res for _, res in items)
        names = ", ".join(name for name, _ in items)
        super().__init__(f"block relations ({names}) violated, worst residual {worst:.3e}")
        self.items = [name for name, _ in items]
        self.item = self.items[0]
        self.residual = worst


class UndefinedHatError(MultiplierError):
    code = "UNDEFINED_AT"


class BseError(BanalgError):
    code = "BSE"


class RankDeficientCharactersError(BseError):
    code = "RANK_DEFICIENT_CHARACTERS"


class EmptyCharacterSetError(BseError):
    code = "EMPTY_CHARACTER_SET"


class PhiNotSurjectiveError(BseError):
    code = "PHI_NOT_SURJECTIVE"


class SpanConditionError(BseError):
    code = "SPAN_CONDITION_FAILED"


class NotWithoutOrderError(BseError):
    code = "NOT_WITHOUT_ORDER"


class SchemaError(BanalgError):
    """Bad JSON input; collects every violation with a JSON-path-ish location."""

    code = "SCHEMA"

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations
