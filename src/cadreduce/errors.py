"""Exception types shared across the package."""


class CadError(Exception):
    """Base class for all library errors."""


class DivisionByZero(CadError):
    """Expression evaluation divided by an exact zero."""


class SqrtOfNegative(CadError):
    """Expression evaluation took the square root of a negative value."""


class GuardUndecidable(CadError):
    """A sign or piecewise guard could not be decided exactly or by interval
    refinement."""


class NotAdapted(CadError):
    """A leaf cell straddles the defining set: two samples disagree."""

    def __init__(self, leaf, point_in, point_out):
        super().__init__(f"cell {leaf} meets both the set and its complement")
        self.leaf = leaf
        self.point_in = point_in
        self.point_out = point_out


class LabelMissing(CadError):
    """A leaf has no label."""


class PivotNotEven(CadError):
    """A merge pivot must be a nonempty index with even last letter."""


class RuleNotApplicable(CadError):
    """The requested pivot does not satisfy the merge condition."""


class SectionsCross(CadError):
    """Two sections from different CADs cross inside a merged cell."""


class UnknownOrder(CadError):
    """Interval comparison of two section values was inconclusive."""


class ParseError(CadError):
    """Malformed s-expression or CAD document."""


class ValidationFailed(CadError):
    """A root CAD that ``validate_cad`` does not admit to reduction: its
    report, kept in ``report``, has a violation or leaves a stack order
    open."""

    def __init__(self, report):
        super().__init__(str(report))
        self.report = report
