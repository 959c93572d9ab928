"""Discrete-event serving simulator for disaggregated LLM inference."""

from .capacity import capacity_rps, experiment_rps, stage_capacities
from .elastic import (
    DEFAULT_AUTOSCALER,
    AdmissionPolicy,
    AdmissionSpec,
    AutoscalerPolicy,
    AutoscalerSpec,
    register_admission,
    register_autoscaler,
)
from .engine import ClusterConfig, Simulator, default_cluster, simulate
from .faults import FaultFamily, FaultPlan, FaultSpec, register_fault
from .recovery import (
    DEFAULT_RECOVERY,
    RecoveryPolicy,
    RecoverySpec,
    register_recovery,
)
from .request import BUCKETS, SimRequest
from .result import SimulationResult
from .scheduling import (
    DecodePlacementPolicy,
    DispatchSpec,
    PlacementSpec,
    PrefillDispatchPolicy,
    SchedulerSpec,
    register_policy,
)

__all__ = [
    "ClusterConfig",
    "SimulationResult",
    "Simulator",
    "default_cluster",
    "simulate",
    "SimRequest",
    "BUCKETS",
    "capacity_rps",
    "experiment_rps",
    "stage_capacities",
    "PrefillDispatchPolicy",
    "DecodePlacementPolicy",
    "DispatchSpec",
    "PlacementSpec",
    "SchedulerSpec",
    "register_policy",
    "FaultFamily",
    "FaultPlan",
    "FaultSpec",
    "register_fault",
    "RecoveryPolicy",
    "RecoverySpec",
    "DEFAULT_RECOVERY",
    "register_recovery",
    "AutoscalerPolicy",
    "AdmissionPolicy",
    "AutoscalerSpec",
    "AdmissionSpec",
    "DEFAULT_AUTOSCALER",
    "register_autoscaler",
    "register_admission",
]
