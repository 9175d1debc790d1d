"""Serverless platform emulator (the AWS Lambda substitute).

Implements the lifecycle of Figure 1 over a virtual clock: unbilled
platform preparation (instance init + image transmission), billed Function
Initialization, and billed Function Execution — with warm instances kept
alive for a configurable period, forced cold starts via function updates
(the paper's methodology), REPORT-style execution logs, Eq. 1 billing, and
an optional SnapStart mode backed by the checkpoint/restore simulator.

Failure semantics ride on the same virtual clock: seeded fault injection
(:mod:`repro.platform.faults`), intrinsic timeouts/OOM kills, Lambda-
faithful throttling, client-side retries with backoff
(:mod:`repro.platform.retry`), and per-record statuses threaded through
logs, billing, and telemetry.

Host failure domains (:mod:`repro.platform.hosts`) add the physical
substrate: instances bin-packed onto memory-constrained hosts, LRU
eviction under pressure, and seeded host crash / spot-reclamation
faults.
"""

from repro.platform.clock import VirtualClock
from repro.platform.emulator import DeployedFunction, LambdaEmulator
from repro.platform.faults import (
    ExecCrash,
    FaultInjector,
    FaultPlan,
    FaultRates,
    HostFault,
    Outage,
)
from repro.platform.hosts import (
    PLACEMENT_POLICIES,
    Host,
    HostConfig,
    HostPool,
)
from repro.platform.fleet import (
    FleetReplayResult,
    FunctionReplayStats,
    replay_fleet,
    report_from_log,
)
from repro.platform.instance import FunctionInstance
from repro.platform.logs import (
    ExecutionLog,
    InvocationRecord,
    InvocationStatus,
    LogQuery,
    StartType,
)
from repro.platform.billing import BillingLedger
from repro.platform.kernel import KernelReplayer
from repro.platform.replay import ReplayResult, TraceReplayer
from repro.platform.retry import (
    RETRYABLE_DEFAULT,
    DeadLetter,
    RetryOutcome,
    RetryPolicy,
    RetrySession,
)
from repro.platform.slo import FLEET, SloBreach, SloPolicy, SloRule
from repro.platform.telemetry import FleetReport, TelemetrySink, WindowRollup
from repro.platform.tuning import (
    CpuScalingModel,
    MemoryRecommendation,
    recommend_memory,
)

__all__ = [
    "VirtualClock",
    "LambdaEmulator",
    "DeployedFunction",
    "FunctionInstance",
    "ExecutionLog",
    "InvocationRecord",
    "InvocationStatus",
    "LogQuery",
    "StartType",
    "BillingLedger",
    "ReplayResult",
    "TraceReplayer",
    "KernelReplayer",
    "replay_fleet",
    "FleetReplayResult",
    "FunctionReplayStats",
    "report_from_log",
    "FaultRates",
    "Outage",
    "FaultPlan",
    "FaultInjector",
    "ExecCrash",
    "HostFault",
    "Host",
    "HostConfig",
    "HostPool",
    "PLACEMENT_POLICIES",
    "RetryPolicy",
    "RetrySession",
    "RetryOutcome",
    "DeadLetter",
    "RETRYABLE_DEFAULT",
    "FLEET",
    "SloRule",
    "SloBreach",
    "SloPolicy",
    "TelemetrySink",
    "WindowRollup",
    "FleetReport",
    "CpuScalingModel",
    "MemoryRecommendation",
    "recommend_memory",
]
