"""Built-in checkers.  Importing this package registers all of them."""

from .determinism import DeterminismChecker
from .locks import LockDisciplineChecker
from .obs import ObsHygieneChecker

__all__ = [
    "DeterminismChecker",
    "LockDisciplineChecker",
    "ObsHygieneChecker",
]
