"""Cylindrical algebraic decompositions adapted to semi-algebraic sets:
structural validation, cell-merging reductions to minimal CADs, and
analysis of the poset of coarsenings (Hasse diagram, minimum, confluence).
"""

from cadreduce.errors import (
    CadError,
    DivisionByZero,
    GuardUndecidable,
    LabelMissing,
    NotAdapted,
    ParseError,
    PivotNotEven,
    RuleNotApplicable,
    UnknownOrder,
    ValidationFailed,
)

__all__ = [
    "CadError",
    "DivisionByZero",
    "GuardUndecidable",
    "LabelMissing",
    "NotAdapted",
    "ParseError",
    "PivotNotEven",
    "RuleNotApplicable",
    "UnknownOrder",
    "ValidationFailed",
]
