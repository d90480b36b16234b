"""repro — a reproduction of *Optimal Eventual Byzantine Agreement Protocols with
Omission Failures* (Alpturer, Halpern, van der Meyden, PODC 2023).

The package implements, from scratch:

* the runs-and-systems semantic model and an epistemic model checker
  (:mod:`repro.logic`, :mod:`repro.systems`);
* the failure-model registry — sending omissions ``SO(t)`` (the paper's
  model), receive omissions ``RO(t)``, general omissions ``GO(t)``, crash,
  failure-free — and adversary constructions (:mod:`repro.failures`);
* the three information-exchange protocols ``E_min``, ``E_basic``, ``E_fip``
  (:mod:`repro.exchange`);
* the action protocols ``P_min``, ``P_basic``, and the polynomial-time optimal
  full-information protocol ``P_opt`` (:mod:`repro.protocols`);
* the knowledge-based programs ``P0`` and ``P1`` and implementation checking
  (:mod:`repro.kbp`);
* a synchronous simulator and the declarative orchestration layer that drives
  it (:mod:`repro.simulation`, :mod:`repro.api`), EBA specification
  checkers, and the analyses used by the paper's Section 8 cost comparison
  (:mod:`repro.spec`, :mod:`repro.analysis`);
* the experiments that regenerate every quantitative claim of the paper
  (:mod:`repro.experiments`).

Quickstart
----------

Describe *what* to run with a spec, then execute it:

>>> from repro import MinProtocol, RunSpec, check_eba
>>> trace = RunSpec(MinProtocol(t=1), n=4, preferences=(0, 1, 1, 1)).run()
>>> check_eba(trace).ok
True
>>> trace.decision_value(1)
0

Sweeps run several protocols over a whole workload:

>>> from repro import OptimalFipProtocol, Sweep
>>> from repro.workloads import random_scenarios
>>> results = (Sweep.of(MinProtocol(t=1), OptimalFipProtocol(t=1))
...            .on(random_scenarios(n=4, t=1, count=10))
...            .run())
>>> results.compare("P_opt", "P_min").first_dominates
True
"""

from .analysis import DominanceResult, zero_chains
from .api import (
    ParallelExecutor,
    ResultSet,
    RunSpec,
    Sweep,
    SweepSpec,
)
from .core import (
    Action,
    AgentId,
    ConfigurationError,
    DECIDE_0,
    DECIDE_1,
    NOOP,
    ProtocolError,
    ReproError,
    Value,
    decide,
)
from .exchange import (
    BasicExchange,
    CommGraph,
    FullInformationExchange,
    MinimalExchange,
)
from .failures import (
    CrashModel,
    FailureFreeModel,
    FailureModel,
    FailurePattern,
    GeneralOmissionModel,
    ReceiveOmissionModel,
    SendingOmissionModel,
    available_models,
    make_model,
    silent_adversary,
    silent_receiver_adversary,
)
from .protocols import (
    ActionProtocol,
    BasicProtocol,
    DelayedMinProtocol,
    EagerOneProtocol,
    MinProtocol,
    NaiveZeroBiasedProtocol,
    OptimalFipProtocol,
)
from .simulation import RoundRecord, RunTrace
from .spec import SpecReport, check_eba

__version__ = "1.1.0"

__all__ = [
    "Action",
    "ActionProtocol",
    "AgentId",
    "BasicExchange",
    "BasicProtocol",
    "CommGraph",
    "ConfigurationError",
    "CrashModel",
    "DECIDE_0",
    "DECIDE_1",
    "DelayedMinProtocol",
    "DominanceResult",
    "EagerOneProtocol",
    "FailureFreeModel",
    "FailureModel",
    "FailurePattern",
    "FullInformationExchange",
    "GeneralOmissionModel",
    "ReceiveOmissionModel",
    "MinProtocol",
    "MinimalExchange",
    "NOOP",
    "NaiveZeroBiasedProtocol",
    "OptimalFipProtocol",
    "ParallelExecutor",
    "ProtocolError",
    "ReproError",
    "ResultSet",
    "RoundRecord",
    "RunSpec",
    "RunTrace",
    "SendingOmissionModel",
    "SpecReport",
    "Sweep",
    "SweepSpec",
    "Value",
    "available_models",
    "check_eba",
    "make_model",
    "decide",
    "silent_adversary",
    "silent_receiver_adversary",
    "zero_chains",
    "__version__",
]
