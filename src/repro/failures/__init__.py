"""Failure patterns, failure models (behind a registry), and adversary constructions."""

from .adversaries import (
    crash_staircase_adversary,
    hidden_chain_adversary,
    intro_counterexample_adversary,
    mixed_omission_chain_adversary,
    partition_adversary,
    random_omission_adversaries,
    silent_adversary,
    silent_receiver_adversary,
)
from .models import (
    CrashModel,
    EdgeOmissionModel,
    FailureFreeModel,
    FailureModel,
    GeneralOmissionModel,
    MODEL_REGISTRY,
    ReceiveOmissionModel,
    SendingOmissionModel,
    available_models,
    make_model,
    model_class,
    register_model,
    resolve_model,
)
from .pattern import FailurePattern, Omission

__all__ = [
    "CrashModel",
    "EdgeOmissionModel",
    "FailureFreeModel",
    "FailureModel",
    "FailurePattern",
    "GeneralOmissionModel",
    "MODEL_REGISTRY",
    "Omission",
    "ReceiveOmissionModel",
    "SendingOmissionModel",
    "available_models",
    "crash_staircase_adversary",
    "hidden_chain_adversary",
    "intro_counterexample_adversary",
    "make_model",
    "mixed_omission_chain_adversary",
    "model_class",
    "partition_adversary",
    "random_omission_adversaries",
    "register_model",
    "resolve_model",
    "silent_adversary",
    "silent_receiver_adversary",
]
