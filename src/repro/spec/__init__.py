"""The EBA specification checkers."""

from .eba import (
    SpecReport,
    check_agreement,
    check_eba,
    check_termination,
    check_unique_decision,
    check_validity,
)

__all__ = [
    "SpecReport",
    "check_agreement",
    "check_eba",
    "check_termination",
    "check_unique_decision",
    "check_validity",
]
