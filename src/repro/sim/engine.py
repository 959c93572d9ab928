"""Discrete-event simulator of disaggregated LLM serving (§7.1 setup).

Faithfully implements the paper's serving policy (by default — both
scheduling decisions are pluggable, see :mod:`repro.sim.scheduling`):

* requests arrive (Poisson trace) and are dispatched to a prefill
  replica by the configured :class:`~repro.sim.scheduling
  .PrefillDispatchPolicy` — default: shortest queue in tokens
  [SplitWise].  Prefill fleets may be *heterogeneous* (mixed GPU types
  with per-fleet replica counts, ``ClusterConfig.prefill_fleets``), in
  which case each replica prefills and transfers at its own fleet's
  speed;
* a prefill replica serves one request at a time (long-prompt prefill
  saturates the replica's compute);
* finished KV is shipped to the decode replica chosen by the configured
  :class:`~repro.sim.scheduling.DecodePlacementPolicy` — default: the
  shortest queue *that has enough free memory for the request's full
  context*; when no replica has room, the KV is swapped to prefill CPU
  memory [DéjàVu] and transferred once memory frees (§5.1 step 6) — or
  rejected outright under a ``no_swap`` placement — each prefill
  replica's NIC serializes its outgoing transfers;
* decode replicas run continuous batching: each iteration produces one
  token per active request, with latency from
  :class:`repro.perfmodel.decode.BatchCostModel`; requests join at
  iteration boundaries and leave when their output length is reached;
* optional layer-wise pipelining overlaps a request's KV transfer with
  its own prefill (§2.1, Fig. 1(d)) — infeasible for swapped requests.

Per-iteration wall-clock is attributed to the Fig. 10 buckets
proportionally to the batch's component sums, so a request's "dequant"
share reflects the dequantization phases it actually waits through.

Decode stepping runs in one of two modes (``ClusterConfig.step_mode``):

* ``"span"`` (default) — *event-to-event fast-forwarding*: between
  batch-composition changes (a join via ``transfer_done``, the earliest
  finishing request, or swapped-KV admission) the engine advances all
  ``k`` iterations in a single heap event, using the closed-form span
  sums of :meth:`~repro.perfmodel.decode.BatchCostModel.span`.  A
  request joining mid-span truncates the span at the end of the
  iteration in progress — exactly where the token path would have
  admitted it — so the two modes agree to floating-point rounding.
* ``"token"`` — the legacy one-heap-event-per-token path, kept for
  differential testing.

Faults, recovery, elastic scaling and admission run inside that one
serving loop, configured or not.  Left unconfigured, their state is
inert: no fault timeline, a NIC factor of 1.0, a transfer-flap
probability of 0.0, a ``retry`` recovery policy nothing ever calls, the
``static`` autoscaler (which never evaluates) and ``accept_all``
admission.  An unconfigured run and an armed-but-idle one therefore
execute the same handlers and produce byte-identical results.

A request's own metrics are computed once, when it finishes
(:meth:`~repro.sim.request.SimRequest.complete`); :meth:`Simulator.run`
returns them in a :class:`~repro.sim.result.SimulationResult`, which
derives every summary statistic.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from ..cluster.instances import DEFAULT_DECODE_COUNT, DEFAULT_PREFILL_FLEETS, \
    canonical_fleet, instance_for_gpu, parse_fleet_spec
from ..cluster.parallelism import ReplicaResources, replica_resources
from ..kvstore.selection import SelectionSpec
from ..kvstore.spec import KVStoreSpec
from ..methods.base import Method
from ..model.config import ModelSpec
from ..perfmodel.calibration import Calibration, DEFAULT_CALIBRATION
from ..perfmodel.decode import BatchCostModel
from ..perfmodel.prefill import prefill_time
from ..perfmodel.transfer import DEFAULT_PIPELINE_STAGES, kv_wire_bytes, \
    make_network_model
from ..spec import field_roles
from ..workload.traces import TraceRequest
from .elastic import AdmissionSpec, AutoscalerSpec, DEFAULT_ADMISSION, \
    DEFAULT_AUTOSCALER
from .faults import FaultPlan, check_kvstore_outages
from .recovery import DEFAULT_RECOVERY, RecoverySpec
from .request import SimRequest
from .result import DEFAULT_TBT_SLO_S, DEFAULT_TTFT_SLO_S, \
    SimulationResult
from .scheduling import SchedulerSpec

__all__ = ["ClusterConfig", "SimulationResult", "Simulator", "simulate",
           "default_cluster", "DEFAULT_TTFT_SLO_S", "DEFAULT_TBT_SLO_S"]

_GB = 1e9


@dataclass(frozen=True)
class ClusterConfig:
    """Static description of the simulated deployment."""

    model: ModelSpec
    method: Method
    prefill_gpu: str
    n_prefill_replicas: int
    n_decode_replicas: int
    calib: Calibration = DEFAULT_CALIBRATION
    pipelining: bool = False
    decode_gpu: str = "A100"
    #: Activation/workspace reservation as a fraction of parameter
    #: bytes.  Serving engines preallocate activation buffers, CUDA
    #: graphs and scratch alongside the weights; ~45% of parameter
    #: bytes reproduces Table 5's ~65% idle floor on the decode GPUs.
    activation_overhead: float = 0.45
    mem_reserve_fraction: float = 0.03
    #: Prompt tokens a prefill replica batches into one forward pass
    #: (vLLM's batched prefill).  Long prompts run alone; short prompts
    #: share a pass, which is what gives short-prompt datasets their
    #: high prefill throughput.
    prefill_token_budget: int = 16384
    #: Granularity of transfer/compute overlap under pipelining: KV is
    #: shipped per pipeline stage, not per layer, so roughly 1/8 of the
    #: transfer stays exposed even under perfect overlap.  Shared with
    #: :func:`repro.perfmodel.transfer.transfer_time` so the analytic
    #: model and the engine agree on the overlap granularity.
    pipeline_stages: int = DEFAULT_PIPELINE_STAGES
    #: Decode stepping: ``"span"`` fast-forwards whole runs of
    #: iterations between batch-composition changes in one heap event
    #: (closed-form latency sums); ``"token"`` is the legacy
    #: one-event-per-token path kept for differential testing.
    step_mode: str = "span"
    #: Heterogeneous prefill fleets as resolved ``(gpu, replicas)``
    #: pairs; ``None`` means one homogeneous fleet of
    #: ``n_prefill_replicas`` × ``prefill_gpu`` (the historical,
    #: paper-faithful shape).  When set, ``n_prefill_replicas`` must
    #: equal the summed per-fleet counts.
    prefill_fleets: tuple[tuple[str, int], ...] | None = None
    #: Dispatch/placement policy pair; ``None`` keeps the paper's
    #: §7.1 pair (``splitwise`` + ``shortest_queue``).
    scheduler: SchedulerSpec | None = None
    #: Tiered KV store for prefix caching (``None`` — the default — is
    #: no store at all: nothing is looked up or written back).  Accepts
    #: a :class:`~repro.kvstore.KVStoreSpec` or grammar string
    #: (``"tiered?dram_gb=8.0+lfu"``).
    kvstore: KVStoreSpec | None = None
    #: Per-request compression-selection policy; ``None`` keeps the
    #: scenario's single method for every request.  Accepts a
    #: :class:`~repro.kvstore.SelectionSpec` or grammar string
    #: (``"slo_tier?tier2=hack_int4"``).  Configuring either ``kvstore``
    #: or ``selection`` gives every request its own method (stamped on
    #: its record) and a prefix-cache probe at prefill.
    selection: SelectionSpec | None = None
    #: Fault-injection plan (``None`` — the default — injects nothing:
    #: the fault state stays inert, with no timeline, no transfer flaps
    #: and healthy NICs).  Accepts a
    #: :class:`~repro.sim.faults.FaultPlan`, a
    #: :class:`~repro.sim.faults.FaultSpec` or a grammar string
    #: (``"replica_crash?mttf=600+transfer_flap?p_fail=0.05"``).
    faults: FaultPlan | None = None
    #: Recovery policy for fault-interrupted requests (``None`` means
    #: the default ``retry`` policy; without faults nothing ever calls
    #: it).  Accepts a :class:`~repro.sim.recovery.RecoverySpec` or
    #: grammar string.
    recovery: RecoverySpec | None = None
    #: Autoscaler powering provisioned replicas up and down (``None``
    #: — the default — means ``static``, which never evaluates, so the
    #: fleet stays fixed).  Accepts an
    #: :class:`~repro.sim.elastic.AutoscalerSpec` or grammar string
    #: (``"reactive?queue_hi=6.0"``).  Setting it or ``admission``
    #: adds the ``elastic`` summary block.
    autoscaler: AutoscalerSpec | None = None
    #: Admission policy judging every fresh arrival (``None`` — the
    #: default — means ``accept_all``, which admits everything
    #: unchanged).  Accepts an
    #: :class:`~repro.sim.elastic.AdmissionSpec` or grammar string
    #: (``"shed?queue_max=48.0"``).
    admission: AdmissionSpec | None = None

    def __post_init__(self) -> None:
        if self.step_mode not in ("span", "token"):
            raise ValueError(
                f"step_mode must be 'span' or 'token', got "
                f"{self.step_mode!r}"
            )
        for name in ("n_prefill_replicas", "n_decode_replicas"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        # Accept the grammar string every adjacent API takes for each
        # spec field (fails fast on bad policies instead of at Simulator
        # construction).
        for name, role in field_roles().items():
            value = getattr(self, name, None)
            if value is not None:
                object.__setattr__(self, name, role.spec.from_ref(value))
        if self.prefill_fleets is not None:
            if not self.prefill_fleets:
                raise ValueError("prefill_fleets must name >= 1 fleet")
            for gpu, count in self.prefill_fleets:
                if count < 1:
                    raise ValueError(
                        f"fleet replica count must be >= 1, got {count} "
                        f"for GPU {gpu!r}"
                    )
            total = sum(count for _, count in self.prefill_fleets)
            if total != self.n_prefill_replicas:
                raise ValueError(
                    f"n_prefill_replicas={self.n_prefill_replicas} does "
                    f"not match the summed fleet counts ({total}); "
                    "replica-count overrides do not compose with an "
                    "explicit heterogeneous fleet"
                )

    def fleet_list(self) -> tuple[tuple[str, int], ...]:
        """Resolved prefill fleets: ``(gpu, replicas)`` per fleet."""
        if self.prefill_fleets is not None:
            return self.prefill_fleets
        return ((self.prefill_gpu, self.n_prefill_replicas),)

    def prefill_replica(self) -> ReplicaResources:
        """Resources of one prefill replica.

        Only meaningful for a homogeneous fleet; a heterogeneous config
        has no single answer, so this raises — resolve per fleet via
        :meth:`fleet_list` + :func:`repro.cluster.replica_resources`
        instead (as the engine and capacity model do).
        """
        if self.prefill_fleets is not None:
            raise ValueError(
                "prefill_replica() is ambiguous for a heterogeneous "
                f"fleet ({self.prefill_gpu}); resolve per fleet via "
                "fleet_list()"
            )
        return replica_resources(self.model, self.prefill_gpu)

    def decode_replica(self) -> ReplicaResources:
        return replica_resources(self.model, self.decode_gpu)

    def decode_memory(self) -> tuple[float, float]:
        """``(base_bytes, kv_capacity_bytes)`` of one decode replica:
        the parameters plus their activation reservation, and the KV
        bytes left beside them once ``mem_reserve_fraction`` is held
        back."""
        base = self.model.param_bytes() * (1.0 + self.activation_overhead)
        capacity = (self.decode_replica().mem_gb * _GB
                    * (1.0 - self.mem_reserve_fraction) - base)
        return base, capacity


def _default_fleet_replicas(model: ModelSpec, gpu: str) -> int:
    """§7.1 replica count of ``gpu``'s default instance fleet."""
    n_instances = DEFAULT_PREFILL_FLEETS[gpu]
    pre = replica_resources(model, gpu)
    inst = instance_for_gpu(gpu)
    return max(1, n_instances * inst.n_gpus // pre.parallelism.n_gpus)


def default_cluster(model: ModelSpec, method: Method, prefill_gpu: str,
                    calib: Calibration = DEFAULT_CALIBRATION,
                    pipelining: bool = False,
                    n_prefill_instances: int | None = None,
                    n_decode_instances: int = DEFAULT_DECODE_COUNT,
                    decode_gpu: str = "A100",
                    **fields) -> ClusterConfig:
    """The paper's §7.1 deployment for ``model`` on ``prefill_gpu``.

    Replica counts derive from the instance fleets (e.g. ten
    g5.12xlarge = 40 A10G = 5 Llama-70B replicas at TP4·PP2) and two
    p4de.24xlarge for decode.  ``decode_gpu`` swaps the decode fleet's
    GPU (default A100, the paper's setup).

    ``prefill_gpu`` accepts the heterogeneous-fleet grammar of
    :func:`repro.cluster.parse_fleet_spec` — ``"A10G+T4"`` (each fleet
    at its §7.1 default replica count) or ``"A10G:2+T4:4"`` (explicit
    per-fleet replica counts).  ``n_prefill_instances`` only applies to
    a single plain-GPU fleet.

    ``fields`` are :class:`ClusterConfig` overrides applied over the
    derived deployment — ``activation_overhead``, ``step_mode``, the
    spec fields (``scheduler``, ``kvstore``, ``selection``, ``faults``,
    ``recovery``, ``autoscaler``, ``admission``; spec objects or
    grammar strings) or the replica counts.  A ``None`` value keeps
    the default.
    """
    fleets = parse_fleet_spec(prefill_gpu)
    dec_gpu = decode_gpu.upper()
    if n_prefill_instances is not None and (
        len(fleets) > 1 or fleets[0][1] is not None
    ):
        raise ValueError(
            "n_prefill_instances only applies to a single plain-GPU "
            f"fleet, not {prefill_gpu!r}; give per-fleet replica counts "
            "as GPU:replicas instead"
        )
    resolved: list[tuple[str, int]] = []
    for gpu, count in fleets:
        if count is None:
            if n_prefill_instances is not None:
                pre = replica_resources(model, gpu)
                inst = instance_for_gpu(gpu)
                count = max(1, n_prefill_instances * inst.n_gpus
                            // pre.parallelism.n_gpus)
            else:
                count = _default_fleet_replicas(model, gpu)
        resolved.append((gpu, count))
    dec = replica_resources(model, dec_gpu)
    dec_inst = instance_for_gpu(dec_gpu)
    n_decode = max(1, n_decode_instances * dec_inst.n_gpus
                   // dec.parallelism.n_gpus)
    kwargs = {"model": model, "method": method, "prefill_gpu": resolved[0][0],
              "n_prefill_replicas": sum(count for _, count in resolved),
              "n_decode_replicas": n_decode, "calib": calib,
              "pipelining": pipelining, "decode_gpu": dec_gpu}
    if len(resolved) > 1:
        kwargs["prefill_fleets"] = tuple(resolved)
        kwargs["prefill_gpu"] = canonical_fleet(tuple(resolved))
    # ClusterConfig parses spec strings itself.
    kwargs.update((k, v) for k, v in fields.items() if v is not None)
    return ClusterConfig(**kwargs)


@dataclass(kw_only=True)
class _Replica:
    """Fault and elastic-lifecycle state both roles share (inert
    without a fault plan or an acting autoscaler)."""

    up: bool = True
    #: Overlapping crash specs stack; the replica is up when this is 0.
    down_count: int = 0
    #: Stale-event guard: bumped on every crash, stamped into this
    #: replica's in-flight event payloads.
    epoch: int = 0
    #: A replica serves only while "on"; "starting" is a boot with
    #: cold-start latency pending, "draining" takes no new work and
    #: retires to "off" once idle.
    state: str = "on"
    #: Stale-boot guard: bumped when a boot starts or is canceled.
    lifecycle: int = 0
    #: When the current powered stretch began (GPU-hour accrual).
    on_since: float = 0.0
    #: Accumulated powered GPU-seconds from *retired* stretches.
    gpu_s: float = 0.0


@dataclass
class _PrefillReplica(_Replica):
    #: GPU type and per-replica resources — these differ across fleets
    #: under heterogeneous prefill (``ClusterConfig.prefill_fleets``)
    #: and are what dispatch policies exploit.
    gpu: str = ""
    res: ReplicaResources | None = None
    queue: deque = field(default_factory=deque)
    queued_tokens: int = 0
    current: SimRequest | None = None
    nic_free_at: float = 0.0
    assigned: int = 0


@dataclass
class _DecodeReplica(_Replica):
    capacity_bytes: float
    base_bytes: float              # params + activations
    used_bytes: float = 0.0
    peak_bytes: float = 0.0
    active: list = field(default_factory=list)   # [request, remaining]
    queued_tokens: int = 0
    iteration_scheduled: bool = False
    assigned: int = 0
    # Span-mode state (valid while a span event is in flight).
    span_id: int = 0               # stale-event guard; bumped per span
    span_start: float = 0.0
    span_k: int = 0
    span_snapshot: list = field(default_factory=list)
    span_ctx0: np.ndarray | None = None
    #: ``span_cumlat(span_ctx0, span_k)``, computed once when the span
    #: is scheduled: the single source of its token times, its join
    #: boundary and its crash cut-off.  Never mutated (settles slice it
    #: into fresh arrays).
    span_cum: np.ndarray | None = None
    #: A truncated span settled early; its boundary event will take a
    #: fresh batch snapshot, so later joins need no further interrupt.
    boundary_pending: bool = False
    #: The boundary iteration :meth:`Simulator._interrupt_span` settled
    #: through (a crash before the boundary event must un-credit it).
    boundary_k: int = 0

    def free_bytes(self) -> float:
        # A crashed (or draining / powered-off) replica reports
        # negative free space so every placement policy's room check
        # excludes it without needing to know about faults or scaling.
        if not self.up or self.state != "on":
            return -1.0
        return self.capacity_bytes - self.used_bytes


class Simulator:
    """Event-driven simulation of one cluster serving one trace."""

    def __init__(self, config: ClusterConfig, trace: list[TraceRequest]) -> None:
        if not trace:
            raise ValueError("trace must contain at least one request")
        for tr in trace:
            if tr.input_len < 1 or tr.output_len < 1:
                raise ValueError(
                    f"request {tr.request_id} needs input_len >= 1 and "
                    f"output_len >= 1, got ({tr.input_len}, "
                    f"{tr.output_len})"
                )
        self.config = config
        self.trace = trace
        self.calib = config.calib
        self.spec = config.model
        self.method = config.method
        self.dec_res = config.decode_replica()
        self.net = make_network_model(self.calib)
        self.step_mode = config.step_mode
        self.cost_model = BatchCostModel(self.spec, self.dec_res,
                                         self.method, self.calib)

        self._events: list = []
        self._seq = itertools.count()
        self._prefill = []
        for gpu, count in config.fleet_list():
            res = replica_resources(self.spec, gpu)
            self._prefill.extend(_PrefillReplica(gpu=gpu, res=res)
                                 for _ in range(count))
        base, capacity = config.decode_memory()
        if capacity <= 0:
            raise ValueError(
                f"decode replica memory too small for {self.spec.name}"
            )
        self._decode = [
            _DecodeReplica(capacity_bytes=capacity, base_bytes=base)
            for _ in range(config.n_decode_replicas)
        ]
        self._fleets = {"prefill": self._prefill, "decode": self._decode}
        self._pending_swap: deque = deque()
        self._finished: list[SimRequest] = []
        self._rejected: list[SimRequest] = []
        self._n_swapped = 0

        sched = config.scheduler or SchedulerSpec()
        self.dispatch = sched.build_dispatch()
        self.placement = sched.build_placement()
        self.dispatch.bind(self)
        self.placement.bind(self)

        # KV-store / compression-selection layer.
        self.kvstore = config.kvstore.build() \
            if config.kvstore is not None else None
        self.selection = config.selection.build() \
            if config.selection is not None else None
        self._selection_mix: dict[str, dict[str, int]] = {}
        if self.selection is not None:
            self.selection.bind(self)

        # Fault injection / recovery.  Without a fault plan the state
        # stays inert: an empty timeline, no flap draws, no NIC factors,
        # and a recovery policy nothing calls.
        self.faults = config.faults
        rspec = config.recovery if config.recovery is not None \
            else RecoverySpec(DEFAULT_RECOVERY)
        self.recovery = rspec.build()
        self.recovery.bind(self)
        self._fault_rng: np.random.Generator | None = None
        self._fault_timeline: list = []
        self._transfer_fail_p = 0.0
        self._nic_factors: list[float] = []
        self._failed: list[SimRequest] = []
        #: Requests with no up prefill replica to dispatch to; drained
        #: when a prefill replica is repaired.
        self._pending_dispatch: deque = deque()
        #: request_id -> (request, comm seconds accrued at transfer
        #: start) for every in-flight KV transfer; lets a crash or flap
        #: un-credit the wire time it threw away.
        self._inflight: dict[int, tuple[SimRequest, float]] = {}
        if self.faults is not None:
            check_kvstore_outages(self.faults, self.kvstore)
            # The plan-derived seed (not the trace seed) makes the
            # stream re-derivable inside parallel sweep workers: the
            # timeline draws first, then runtime draws (transfer flaps,
            # retry jitter) consume the stream in event order.
            self._fault_rng = np.random.default_rng(self.faults.rng_seed())
            self._transfer_fail_p = self.faults.transfer_fail_prob()
            horizon = 2.0 * max(tr.arrival_s for tr in trace) + 3600.0
            self._fault_timeline = self.faults.timeline(
                self._fault_rng, horizon, len(self._prefill),
                len(self._decode))

        # Elastic cluster: autoscaling + admission, by default the
        # ``static`` autoscaler (never evaluates) and ``accept_all``
        # admission.  The provisioned fleet is the *maximum*: the
        # autoscaler powers replicas on and off within it, so a
        # ``static`` run is exactly the peak-sized fleet.
        aspec = config.autoscaler if config.autoscaler is not None \
            else AutoscalerSpec(DEFAULT_AUTOSCALER)
        self.autoscaler = aspec.build()
        self.autoscaler.bind(self)
        admspec = config.admission if config.admission is not None \
            else AdmissionSpec(DEFAULT_ADMISSION)
        self.admission = admspec.build()
        self.admission.bind(self)
        self._n_shed = 0
        self._n_degraded = 0
        #: ``(time, role, action, index)`` scaling events.
        self._scale_events: list = []
        #: ``(time, powered_prefill, powered_decode)`` step timeseries.
        self._replica_timeseries: list = []
        self._last_terminal_t = 0.0
        n_p, n_d = len(self._prefill), len(self._decode)
        init_p, init_d = self.autoscaler.initial(n_p, n_d)
        self._target_p = min(max(1, int(init_p)), n_p)
        self._target_d = min(max(1, int(init_d)), n_d)
        # The un-powered tail starts off — initial state, no events.
        for r in self._prefill[self._target_p:]:
            r.state = "off"
        for d in self._decode[self._target_d:]:
            d.state = "off"
        self._record_replicas(0.0)

        # Per-request methods and prefix-cache probes at prefill (see
        # :meth:`_start_prefill`); degraded admissions carry their own
        # method too.
        self._kv_enabled = (self.kvstore is not None
                            or self.selection is not None
                            or self.admission.may_degrade)

    # -- public API ----------------------------------------------------------

    def run(self) -> SimulationResult:
        """Run to completion and return the results."""
        # Fault events go on the heap first: at equal timestamps the
        # lower sequence number wins, so a crash always preempts the
        # sim event it coincides with (matching the stale-event guards,
        # which discard exactly the events a crash raced).
        for t, kind, payload in self._fault_timeline:
            self._push(t, "fault", (kind, payload))
        # The autoscaler's evaluation loop starts one interval in and
        # re-arms itself while requests are outstanding; ``static``
        # opts out entirely and adds no events.
        if self.autoscaler.evaluates:
            self._push(self.autoscaler.interval_s(), "elastic_eval", None)
        for tr in self.trace:
            self._push(tr.arrival_s, "arrival", SimRequest(trace=tr))
        while self._events:
            time, _, kind, payload = heapq.heappop(self._events)
            getattr(self, f"_on_{kind}")(time, payload)
        peak = max(
            (d.peak_bytes + d.base_bytes) / (self.dec_res.mem_gb * _GB)
            for d in self._decode
        )
        self._finished.sort(key=lambda r: r.request_id)
        self._rejected.sort(key=lambda r: r.request_id)
        self._failed.sort(key=lambda r: r.request_id)
        kv_stats = self.kvstore.stats() if self.kvstore is not None else None
        mix = None
        if self.selection is not None:
            mix = {tier: dict(sorted(counts.items()))
                   for tier, counts in sorted(self._selection_mix.items())}
        elastic = None
        if (self.config.autoscaler is not None
                or self.config.admission is not None):
            elastic = self._elastic_stats()
        return SimulationResult(requests=self._finished,
                                elastic_stats=elastic,
                                peak_memory_fraction=peak,
                                n_swapped=self._n_swapped,
                                config=self.config,
                                n_rejected=len(self._rejected),
                                kvstore_stats=kv_stats,
                                selection_mix=mix,
                                rejected_requests=self._rejected,
                                failed_requests=self._failed,
                                faulted=self.faults is not None)

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, now: float, req: SimRequest) -> None:
        # Admission judges every fresh arrival exactly once; crash
        # re-dispatches and retries bypass it (the request was already
        # admitted).
        verdict = self.admission.admit(now, req, self)
        if verdict == "shed":
            req.rejected = True
            self._n_shed += 1
            self._rejected.append(req)
            self._last_terminal_t = max(self._last_terminal_t, now)
            return
        if verdict is not None:
            if verdict.name != self.method.name:
                self._n_degraded += 1
            req.admitted_method = verdict
        self._dispatch_to_prefill(now, req)

    def _dispatch_to_prefill(self, now: float, req: SimRequest) -> None:
        replicas = self._prefill
        mapping = None
        up = [i for i, r in enumerate(replicas) if r.up and r.state == "on"]
        if not up:
            # Whole prefill fleet down (or booting): park the request
            # until a repair or boot completes (never silently dropped).
            self._pending_dispatch.append(req)
            return
        if len(up) < len(replicas):
            # Dispatch sees only the live replicas; indices map back to
            # fleet positions afterwards.
            replicas = [replicas[i] for i in up]
            mapping = up
        idx = self.dispatch.choose(now, req, replicas)
        if not 0 <= idx < len(replicas):
            raise ValueError(
                f"dispatch policy {self.dispatch.name!r} chose replica "
                f"{idx} of {len(replicas)}"
            )
        if mapping is not None:
            idx = mapping[idx]
        replica = self._prefill[idx]
        req.prefill_replica = idx
        replica.queued_tokens += req.trace.input_len
        replica.assigned += 1
        replica.queue.append(req)
        if replica.current is None:
            self._start_prefill(now, idx)

    def _start_prefill(self, now: float, idx: int) -> None:
        """Serve a batch of queued prompts in one forward pass.

        Requests are taken FIFO while their summed prompt length fits
        the token budget (a long prompt always runs alone).  The pass
        costs the linear-layer time of the *summed* tokens plus each
        request's own quadratic attention term — the vLLM batched-
        prefill cost model.

        With a KV store, selection policy or degrading admission
        (``_kv_enabled``), each request first gets its own compression
        method (degraded admission outranks selection, which outranks
        the scenario method) and a prefix-cache probe for its shareable
        prefix, clamped so at least one prompt token always prefills.
        The matched tokens' compute is *skipped* — replaced by the
        owning tier's read time — so the pass runs on *effective*
        (uncached) tokens, quantization is each request's own, and the
        tier reads add to the pass.  A request's own read accrues to
        its ``comm`` bucket; everything else it waits through is
        ``prefill``.  The decode-side batch cost model keeps the
        scenario method (see :mod:`repro.kvstore.selection`).  Without
        those layers every read is 0.0, which adds and subtracts
        exactly.
        """
        replica = self._prefill[idx]
        batch = [replica.queue.popleft()]
        total_tokens = batch[0].trace.input_len
        budget = self.config.prefill_token_budget
        while replica.queue and (
            total_tokens + replica.queue[0].trace.input_len <= budget
        ):
            nxt = replica.queue.popleft()
            batch.append(nxt)
            total_tokens += nxt.trace.input_len

        replica.current = batch
        if self._kv_enabled:
            for req in batch:
                if req.admitted_method is not None:
                    method = req.admitted_method
                elif self.selection is not None:
                    method = self.selection.choose(now, req, self)
                else:
                    method = self.method
                req.method = method
                if self.selection is not None:
                    counts = self._selection_mix.setdefault(
                        str(req.trace.slo_tier), {})
                    counts[method.name] = counts.get(method.name, 0) + 1
                if self.kvstore is not None:
                    limit = req.trace.input_len - 1
                    if req.kv_refetch:
                        # Recovering a crash-lost KV: the previous
                        # attempt's writeback (or the session entry)
                        # may cover the whole prompt, not just the
                        # session prefix — probe for all of it.
                        prefix = limit
                        req.kv_refetch = False
                    else:
                        prefix = min(req.trace.prefix_len, limit)
                    hit = self.kvstore.lookup(self._cache_key(req), prefix,
                                              now)
                    req.prefix_hit_tokens = hit.tokens
                    req.cache_read_s = hit.read_s
                    req.cache_tier = hit.tier
                    total_tokens -= hit.tokens
        joint = prefill_time(self.spec, replica.res, total_tokens,
                             self.method, self.calib)
        per_request = [
            prefill_time(self.spec, replica.res,
                         req.trace.input_len - req.prefix_hit_tokens,
                         req.method or self.method, self.calib)
            for req in batch
        ]
        # The joint pass's quantization is the scenario method's; with
        # per-request methods each request quantizes its own tokens.
        quantize_s = sum(b.quantize_s for b in per_request) \
            if self._kv_enabled else joint.quantize_s
        batch_s = (joint.linear_s + quantize_s
                   + sum(b.attention_s for b in per_request)
                   + sum(req.cache_read_s for req in batch))
        for req, own in zip(batch, per_request):
            req.prefill_start = now
            # Each request experiences the whole pass; the quantization
            # share is its own (it is per-token work).
            req.prefill_s = batch_s - own.quantize_s - req.cache_read_s
            req.quant_s = own.quantize_s
            req.comm_s += req.cache_read_s
        self._push(now + batch_s, "prefill_done",
                   (idx, replica.epoch, batch))

    def _cache_key(self, req: SimRequest):
        """Prefix-cache key: the session for multi-turn requests (turns
        of one conversation share and extend one entry), else a
        per-request key — never hit, but it occupies capacity and
        churns eviction exactly like a real single-shot tenant."""
        sid = req.trace.session_id
        return sid if sid >= 0 else ("r", req.trace.request_id)

    def _on_prefill_done(self, now: float, payload) -> None:
        idx, epoch, batch = payload
        replica = self._prefill[idx]
        if epoch != replica.epoch:
            return                       # the replica crashed mid-pass
        replica.current = None
        for req in batch:
            replica.queued_tokens -= req.trace.input_len
            req.prefill_end = now
        if self.kvstore is not None:
            # Write back the freshly computed (compressed) prompt KV —
            # before any same-instant next batch probes the cache, so a
            # follow-up session turn already queued here can hit it.
            for req in batch:
                self.kvstore.put(
                    self._cache_key(req), req.trace.input_len,
                    self.spec.kv_bytes_per_token(
                        req.method.kv_wire_bytes_per_value),
                    req.method.name, now)
        if replica.queue:
            self._start_prefill(now, idx)
        else:
            self._maybe_retire(now, "prefill", idx)
        for req in batch:
            self._dispatch_to_decode(now, req)

    def _choose_placement(self, now: float, req: SimRequest,
                          reserve: float) -> int | None:
        """Run the placement policy and validate its answer: the chosen
        replica must exist and actually have room (a policy returning a
        sentinel like -1, or ignoring ``reserve``, would otherwise
        silently over-commit memory via negative indexing)."""
        target = self.placement.choose(now, req, self._decode, reserve)
        if target is None:
            return None
        if not 0 <= target < len(self._decode):
            raise ValueError(
                f"placement policy {self.placement.name!r} chose replica "
                f"{target} of {len(self._decode)} (return None when no "
                "replica fits)"
            )
        if self._decode[target].free_bytes() < reserve:
            raise ValueError(
                f"placement policy {self.placement.name!r} chose replica "
                f"{target} without room for the request "
                f"({self._decode[target].free_bytes():.0f} bytes free, "
                f"{reserve:.0f} needed)"
            )
        return target

    def _dispatch_to_decode(self, now: float, req: SimRequest) -> None:
        reserve = self._request_bytes(req)
        target = self._choose_placement(now, req, reserve)
        if target is None:
            if self.placement.swap_on_full:
                # §5.1 step 6: stage the quantized KV in prefill CPU
                # memory until a decode replica frees enough room.
                req.swapped = True
                self._n_swapped += 1
                self._pending_swap.append(req)
            else:
                # Admission control (no_swap placement): the request is
                # dropped after prefill and never reaches decode.
                req.rejected = True
                self._rejected.append(req)
                self._last_terminal_t = max(self._last_terminal_t, now)
            return
        self._begin_transfer(now, req, target)

    def _begin_transfer(self, now: float, req: SimRequest, target: int) -> None:
        decode = self._decode[target]
        reserve = self._request_bytes(req)
        decode.used_bytes += reserve
        decode.peak_bytes = max(decode.peak_bytes, decode.used_bytes)
        decode.queued_tokens += req.trace.total_len
        decode.assigned += 1
        req.decode_replica = target
        req.reserved_bytes = reserve

        # A prefix hit already paid its tier's read bandwidth; only the
        # newly computed tokens' KV crosses the prefill NIC.
        nbytes = kv_wire_bytes(self.spec, req.method or self.method,
                               req.trace.input_len - req.prefix_hit_tokens)
        nic = self._prefill[req.prefill_replica]
        start = max(now, nic.nic_free_at)
        # Time spent waiting for the replica's NIC is KV-transmission
        # delay: it accrues to the comm bucket (this is what makes the
        # comm ratio climb with RPS in Fig. 1(d)).
        nic_wait = start - now
        # Active NIC brownouts scale both endpoints' bandwidth for the
        # whole transfer (the factors at transfer start apply end to
        # end — a documented simplification); healthy NICs scale by 1.
        factor = math.prod(self._nic_factors)
        src_gbps = nic.res.network_gbps * factor
        dst_gbps = self.dec_res.network_gbps * factor
        full = self.net.transfer_time(nbytes, src_gbps, dst_gbps,
                                      via_cpu=req.swapped).seconds
        nic.nic_free_at = start + full
        if self.config.pipelining and not req.swapped:
            exposed = self.net.pipelined_exposed_time(
                nbytes, src_gbps, dst_gbps,
                compute_s=req.prefill_s,
                n_stages=self.config.pipeline_stages,
            )
            # Overlapped portion hides inside prefill; only the exposed
            # tail delays the request.
            done = start + exposed
            comm_added = nic_wait + exposed
        else:
            done = start + full
            comm_added = nic_wait + full
        req.comm_s += comm_added
        self._inflight[req.request_id] = (req, comm_added)
        if self._transfer_fail_p > 0.0 and float(
                self._fault_rng.random()) < self._transfer_fail_p:
            # The flap surfaces when the transfer would have landed
            # (the failed attempt held the NIC either way).
            self._push(done, "transfer_fail", (req, req.attempt))
            return
        self._push(done, "transfer_done", (req, req.attempt))

    def _on_transfer_done(self, now: float, payload) -> None:
        req, attempt = payload
        if req.attempt != attempt:
            return             # a crash already recovered this attempt
        del self._inflight[req.request_id]
        req.transfer_end = now
        req.decode_start = now
        idx = req.decode_replica
        decode = self._decode[idx]
        # The prefill stage already produced the first output token.
        remaining = req.trace.output_len - 1
        if remaining == 0:
            # Single-token request: its only token exists already, so it
            # finishes here without a decode iteration.  (A former
            # ``max(1, …)`` off-by-one ran one spurious iteration,
            # over-counting tokens_generated and decode time.)
            self._finish_request(now, decode, req)
            self._admit_pending(now)
            return
        decode.active.append([req, remaining])
        if not decode.iteration_scheduled:
            self._schedule_decode(now, idx)
        elif self.step_mode == "span" and not decode.boundary_pending:
            # A span is in flight; the join takes effect at the end of
            # the iteration currently in progress.
            self._interrupt_span(now, idx)

    def _schedule_decode(self, now: float, idx: int) -> None:
        if self.step_mode == "span":
            self._schedule_span(now, idx)
        else:
            self._schedule_iteration(now, idx)

    # -- token stepping (legacy path) ------------------------------------------

    def _schedule_iteration(self, now: float, idx: int) -> None:
        decode = self._decode[idx]
        if not decode.active:
            decode.iteration_scheduled = False
            return
        ctxs = [entry[0].trace.input_len + entry[0].tokens_generated + 1
                for entry in decode.active]
        timing = self.cost_model.iteration(ctxs)
        snapshot = list(decode.active)
        decode.iteration_scheduled = True
        self._push(now + timing.latency_s, "decode_iter",
                   (idx, decode.epoch, snapshot, timing))

    def _on_decode_iter(self, now: float, payload) -> None:
        idx, epoch, snapshot, timing = payload
        decode = self._decode[idx]
        if epoch != decode.epoch:
            return          # the replica crashed before this iteration

        kv_sum = sum(c.kv_read_s for c in timing.per_request)
        compute_sum = sum(c.compute_s for c in timing.per_request)
        requant_sum = sum(c.requant_s for c in timing.per_request)
        dequant_sum = sum(c.dequant_s for c in timing.per_request)
        approx_sum = sum(c.approx_s for c in timing.per_request)
        decode_share = timing.shared_s + kv_sum + compute_sum + requant_sum

        for entry in snapshot:
            entry[0].accrue_decode(decode_share, dequant_sum, approx_sum,
                                   kv_sum)
            entry[0].add_token_time(now)
            entry[1] -= 1
        self._finish_entries(now, decode, snapshot)
        self._schedule_iteration(now, idx)

    # -- span stepping (fast-forward path) -------------------------------------

    def _schedule_span(self, now: float, idx: int) -> None:
        """Start a span covering every iteration until the batch next
        changes on its own: ``k`` = the earliest finisher's remaining
        tokens.  Joins arriving mid-span truncate it via
        :meth:`_interrupt_span`."""
        decode = self._decode[idx]
        decode.span_id += 1
        if not decode.active:
            decode.iteration_scheduled = False
            return
        snapshot = list(decode.active)
        ctx0 = np.array([e[0].trace.input_len + e[0].tokens_generated + 1
                         for e in snapshot], dtype=np.int64)
        k = min(e[1] for e in snapshot)
        decode.span_start = now
        decode.span_k = k
        decode.span_snapshot = snapshot
        decode.span_ctx0 = ctx0
        decode.span_cum = self.cost_model.span_cumlat(ctx0, k)
        decode.iteration_scheduled = True
        # The last element is span(ctx0, k).latency_s bitwise; the
        # bucket totals wait until the span ends untruncated.
        self._push(now + float(decode.span_cum[-1]), "decode_span",
                   (idx, decode.span_id))

    def _settle_span(self, decode: _DecodeReplica, totals) -> None:
        """Credit ``totals.k`` iterations to every span participant.

        Each request accrues the *batch-wide* bucket sums (it waits
        through the whole batch's iteration), exactly as the token path
        accrues them one iteration at a time.  Token completion times
        come from the span's cached cumulative latencies — one fresh
        vector per settle, shared by the batch, whose last element is
        bitwise identical to the settled boundary's timestamp.
        """
        k = totals.k
        token_times = decode.span_start + decode.span_cum[:k]
        for entry in decode.span_snapshot:
            entry[0].accrue_decode(totals.decode_s, totals.dequant_s,
                                   totals.approx_s, totals.kv_read_s,
                                   tokens=k)
            entry[0].add_token_times(token_times)
            entry[1] -= k

    def _on_decode_span(self, now: float, payload) -> None:
        idx, span_id = payload
        decode = self._decode[idx]
        if span_id != decode.span_id:
            return                        # span was truncated by a join
        self._settle_span(decode, self.cost_model.span(decode.span_ctx0,
                                                       decode.span_k))
        self._finish_entries(now, decode, decode.span_snapshot)
        self._schedule_span(now, idx)

    def _interrupt_span(self, now: float, idx: int) -> None:
        """Truncate the in-flight span because a request joined at ``now``.

        The join takes effect at the end of the iteration in progress —
        boundary ``j``.  The first ``j`` iterations are settled with
        their closed-form totals and a zero-state boundary event is
        pushed at that instant; it re-snapshots the batch, so any
        further joins before the boundary ride along for free.
        """
        decode = self._decode[idx]
        elapsed = now - decode.span_start
        # BatchCostModel.find_boundary's search, on the cached vector.
        j = int(np.searchsorted(decode.span_cum, elapsed, side="left")) + 1
        if j >= decode.span_k:
            # Joined during the span's last iteration: the natural span
            # end is the join boundary; nothing to truncate.
            return
        totals = self.cost_model.span(decode.span_ctx0, j)
        self._settle_span(decode, totals)
        # No request can finish here: j < k = min(remaining) over the span.
        decode.span_id += 1               # drop the in-flight span event
        decode.boundary_pending = True
        decode.boundary_k = j
        self._push(decode.span_start + totals.latency_s, "span_boundary",
                   (idx, decode.epoch))

    def _on_span_boundary(self, now: float, payload) -> None:
        idx, epoch = payload
        decode = self._decode[idx]
        if epoch != decode.epoch:
            return         # the replica crashed before the boundary
        decode.boundary_pending = False
        self._schedule_span(now, idx)

    # -- shared decode bookkeeping ---------------------------------------------

    def _finish_entries(self, now: float, decode: _DecodeReplica,
                        snapshot: list) -> None:
        """Finish every stepped request with no tokens left, then admit
        swapped KV into the memory they freed."""
        finished = [e for e in snapshot if e[1] <= 0]
        if finished:
            # One-pass rebuild instead of per-entry list.remove() — that
            # was O(batch) per finishing request, quadratic per event.
            decode.active = [e for e in decode.active if e[1] > 0]
            for entry in finished:
                self._finish_request(now, decode, entry[0])
            self._admit_pending(now)

    def _finish_request(self, now: float, decode: _DecodeReplica,
                        req: SimRequest) -> None:
        req.complete(now)
        decode.used_bytes -= req.reserved_bytes
        decode.queued_tokens -= req.trace.total_len
        if self.kvstore is not None:
            # Extend the session's entry with the generated tokens: the
            # next turn's prompt embeds this whole conversation, so its
            # shareable prefix is the full context, not just the prompt.
            self.kvstore.put(
                self._cache_key(req), req.trace.total_len,
                self.spec.kv_bytes_per_token(
                    req.method.kv_wire_bytes_per_value),
                req.method.name, now)
        self._finished.append(req)
        self._last_terminal_t = max(self._last_terminal_t, now)
        self._maybe_retire(now, "decode", req.decode_replica)

    def _admit_pending(self, now: float) -> None:
        still_waiting: deque = deque()
        while self._pending_swap:
            req = self._pending_swap.popleft()
            reserve = self._request_bytes(req)
            target = self._choose_placement(now, req, reserve)
            if target is not None:
                self._begin_transfer(now, req, target)
            else:
                still_waiting.append(req)
        self._pending_swap = still_waiting

    # -- fault injection and recovery ------------------------------------------

    def _on_fault(self, now: float, payload) -> None:
        kind, data = payload
        if kind == "replica_down":
            role, idx = data
            if role == "prefill":
                self._prefill_down(now, idx)
            else:
                self._decode_down(now, idx)
        elif kind == "replica_up":
            self._replica_up(now, *data)
        elif kind == "nic_on":
            self._nic_factors.append(data)
        elif kind == "nic_off":
            self._nic_factors.remove(data)
        elif kind == "kv_dark":
            tier, dark = data
            self.kvstore.set_dark(tier, dark)
        else:
            raise ValueError(f"unknown fault event kind {kind!r}")

    def fault_capacity_signal(self) -> float:
        """Fraction of decode replicas currently down (0.0 unfaulted).

        The ``congestion`` selection policy folds this into its
        congestion signal, so fault-driven capacity loss degrades
        requests to the cheaper compression method exactly like
        store/NIC pressure does (graceful degradation).
        """
        down = sum(1 for d in self._decode if not d.up)
        return down / len(self._decode)

    def _prefill_down(self, now: float, idx: int) -> None:
        replica = self._prefill[idx]
        replica.down_count += 1
        if replica.down_count > 1:
            return                # already down via an overlapping spec
        replica.up = False
        replica.epoch += 1        # discard the in-flight prefill_done
        batch = replica.current or []
        queued = list(replica.queue)
        replica.current = None
        replica.queue.clear()
        replica.queued_tokens = 0
        # In-flight transfers sourced from this replica's GPU memory
        # die with it; swapped-KV transfers stream from host memory and
        # survive the crash (a documented simplification).
        dead = [(rid, req, comm) for rid, (req, comm)
                in self._inflight.items()
                if req.prefill_replica == idx and not req.swapped]
        for rid, req, comm in dead:
            del self._inflight[rid]
            self._release_decode(req)
            self._recover(now, req, lost_kv=True)
        for req in batch:
            # The buckets were charged the full planned pass up front;
            # only the elapsed share was actually burned.
            self._recover(now, req, lost_kv=True,
                          wasted_s=max(0.0, now - req.prefill_start))
        for req in queued:
            # Queued requests lost nothing — re-dispatch silently.
            self._dispatch_to_prefill(now, req)
        if dead:
            self._admit_pending(now)

    def _decode_down(self, now: float, idx: int) -> None:
        decode = self._decode[idx]
        decode.down_count += 1
        if decode.down_count > 1:
            return
        decode.up = False
        decode.epoch += 1    # discard in-flight iteration/boundary events
        if self.step_mode == "span" and decode.iteration_scheduled:
            if decode.boundary_pending:
                self._unsettle_boundary_iteration(decode)
            else:
                # Credit only the iterations that fully completed
                # strictly before the crash — exactly the events the
                # token path would have fired (a tie goes to the crash,
                # which was pushed first).
                elapsed = now - decode.span_start
                done = int(np.searchsorted(decode.span_cum, elapsed,
                                           side="left"))
                if done > 0:
                    self._settle_span(
                        decode, self.cost_model.span(decode.span_ctx0,
                                                     done))
        decode.span_id += 1           # drop the in-flight span event
        decode.boundary_pending = False
        decode.iteration_scheduled = False
        victims = [entry[0] for entry in decode.active]
        decode.active = []
        decode.span_snapshot = []
        decode.span_ctx0 = None
        decode.span_cum = None
        transfer_victims = [
            (rid, req, comm) for rid, (req, comm) in self._inflight.items()
            if req.decode_replica == idx
        ]
        for rid, req, comm in transfer_victims:
            del self._inflight[rid]
            self._release_decode(req)
        for req in victims:
            self._release_decode(req)
        # Everything the replica held is gone; drop the rounding residue
        # of the releases too.
        decode.used_bytes = 0.0
        decode.queued_tokens = 0
        for req in victims:
            self._recover(now, req, lost_kv=True)
        for rid, req, comm in transfer_victims:
            # The KV still sits at the source; only the wire time was
            # wasted.  It re-lands in the queue bucket.
            req.comm_s -= comm
            req.wasted_compute_s += comm
            self._recover(now, req, lost_kv=False)

    def _replica_up(self, now: float, role: str, idx: int) -> None:
        r = self._fleets[role][idx]
        r.down_count -= 1
        if r.down_count > 0:
            return
        r.up = True
        self._resume_parked(now, role)
        # A crash emptied this replica; if it was draining it can
        # retire now that it is repaired-and-idle.
        self._maybe_retire(now, role, idx)

    def _resume_parked(self, now: float, role: str) -> None:
        """Hand parked work to a fleet that regained serving capacity:
        re-dispatch requests no prefill replica could take, or admit
        swapped KV into decode memory."""
        if role == "prefill":
            pending = self._pending_dispatch
            self._pending_dispatch = deque()
            for req in pending:
                self._dispatch_to_prefill(now, req)
        else:
            self._admit_pending(now)

    def _unsettle_boundary_iteration(self, decode: _DecodeReplica) -> None:
        """Un-credit the boundary iteration a crash interrupted.

        :meth:`_interrupt_span` settles *through* the iteration in
        progress (where a join lands); a crash striking before the
        boundary event kills that iteration mid-flight, and the token
        path would never have credited it — its event had not fired.
        Subtract the settled span's last iteration so both step modes
        account the lost work identically.
        """
        j = decode.boundary_k
        tj = self.cost_model.span(decode.span_ctx0, j)
        if j > 1:
            tp = self.cost_model.span(decode.span_ctx0, j - 1)
            deltas = (tj.decode_s - tp.decode_s,
                      tj.dequant_s - tp.dequant_s,
                      tj.approx_s - tp.approx_s,
                      tj.kv_read_s - tp.kv_read_s)
        else:
            deltas = (tj.decode_s, tj.dequant_s, tj.approx_s,
                      tj.kv_read_s)
        for entry in decode.span_snapshot:
            entry[0].accrue_decode(-deltas[0], -deltas[1], -deltas[2],
                                   -deltas[3], tokens=-1)
            entry[1] += 1

    def _on_transfer_fail(self, now: float, payload) -> None:
        req, attempt = payload
        if req.attempt != attempt:
            return             # a crash already recovered this attempt
        _, comm = self._inflight.pop(req.request_id)
        target = req.decode_replica
        self._release_decode(req)
        # The flapped attempt's wire time is wasted work, not KV
        # communication the request benefited from.
        req.comm_s -= comm
        req.wasted_compute_s += comm
        self._recover(now, req, lost_kv=False)
        self._admit_pending(now)
        # The flap may have freed a draining replica's last bytes.
        self._maybe_retire(now, "decode", target)

    def _release_decode(self, req: SimRequest) -> None:
        """Return a request's decode reservation (KV bytes and queued
        tokens) to its replica and detach the request from it."""
        decode = self._decode[req.decode_replica]
        decode.used_bytes -= req.reserved_bytes
        decode.queued_tokens -= req.trace.total_len
        req.reserved_bytes = 0.0
        req.decode_replica = -1

    def _recover(self, now: float, req: SimRequest, lost_kv: bool,
                 wasted_s: float | None = None) -> None:
        """Route one fault-interrupted request through the recovery
        policy: schedule a retry, or fail it when the policy gives up.

        ``lost_kv`` — the KV no longer exists anywhere reachable (the
        request must re-prefill; a configured KV store is probed for a
        surviving cached prefix on the next pass).  Otherwise the KV
        still sits at the prefill side and only the decode dispatch is
        redone.
        """
        req.attempt += 1          # invalidate in-flight events
        if lost_kv:
            req.reset_for_retry(wasted_s)
            if self.kvstore is not None:
                req.kv_refetch = True
        attempt = req.n_retries + 1
        delay = self.recovery.delay(req, attempt, self._fault_rng)
        if delay is None:
            req.failed = True
            self._failed.append(req)
            self._last_terminal_t = max(self._last_terminal_t, now)
            return
        req.n_retries = attempt
        self._push(now + delay, "retry", (req, req.attempt, lost_kv))

    def _on_retry(self, now: float, payload) -> None:
        req, attempt, lost_kv = payload
        if req.attempt != attempt or req.failed or req.done:
            return
        if lost_kv:
            self._dispatch_to_prefill(now, req)
        else:
            self._dispatch_to_decode(now, req)

    # -- elastic scaling (autoscaler + admission) ------------------------------

    def prefill_backlog(self) -> int:
        """Requests waiting on or inside the prefill stage: queued,
        in-service and parked (the autoscaler/admission load signal)."""
        backlog = len(self._pending_dispatch)
        for replica in self._prefill:
            backlog += len(replica.queue)
            if replica.current is not None:
                backlog += len(replica.current)
        return backlog

    def recent_ttft_attainment(self, now: float, window_s: float,
                               ttft_slo_s: float) -> tuple[float, int]:
        """TTFT SLO attainment over requests finishing in the last
        ``window_s`` seconds: ``(attainment, n_finished)`` —
        ``(0.0, 0)`` when nothing finished in the window."""
        met = n = 0
        cutoff = now - window_s
        # ``_finished`` is appended in completion order; walk back
        # until the window's edge.
        for req in reversed(self._finished):
            if req.finish < cutoff:
                break
            n += 1
            if req.ttft <= ttft_slo_s:
                met += 1
        if n == 0:
            return 0.0, 0
        return met / n, n

    def _outstanding(self) -> int:
        """Trace requests not yet in a terminal state."""
        return (len(self.trace) - len(self._finished)
                - len(self._rejected) - len(self._failed))

    def _record_replicas(self, now: float) -> None:
        p = sum(1 for r in self._prefill if r.state != "off")
        d = sum(1 for r in self._decode if r.state != "off")
        ts = self._replica_timeseries
        if ts and ts[-1][0] == now:
            ts[-1] = (now, p, d)
        else:
            ts.append((now, p, d))

    def _on_elastic_eval(self, now, payload) -> None:
        n_p, n_d = len(self._prefill), len(self._decode)
        want_p, want_d = self.autoscaler.desired(
            now, self, n_p, n_d, self._target_p, self._target_d)
        want_p = min(max(1, int(want_p)), n_p)
        want_d = min(max(1, int(want_d)), n_d)
        if want_p != self._target_p:
            self._retarget(now, "prefill", want_p)
            self._target_p = want_p
        if want_d != self._target_d:
            self._retarget(now, "decode", want_d)
            self._target_d = want_d
        # Re-arm only while work remains, so the run still terminates.
        if self._outstanding() > 0:
            self._push(now + self.autoscaler.interval_s(),
                       "elastic_eval", None)

    def _retarget(self, now: float, role: str, want: int) -> None:
        """Reconcile one fleet toward ``want`` powered replicas.

        Scale-up resurrects draining replicas first (still warm — no
        cold start), then boots powered-off ones with the policy's
        cold-start latency.  Scale-down cancels pending boots first,
        then drains the highest-index serving replicas: they take no
        new work and retire once idle — in-flight work is never killed.
        """
        replicas = self._fleets[role]
        cur = sum(1 for r in replicas if r.state in ("on", "starting"))
        undrained = False
        if want > cur:
            for idx, r in enumerate(replicas):
                if cur >= want:
                    break
                if r.state == "draining":
                    r.state = "on"
                    cur += 1
                    undrained = True
                    self._scale_events.append((now, role, "undrain", idx))
            for idx, r in enumerate(replicas):
                if cur >= want:
                    break
                if r.state == "off":
                    r.state = "starting"
                    r.lifecycle += 1
                    r.on_since = now
                    cur += 1
                    self._scale_events.append((now, role, "boot", idx))
                    self._push(now + self.autoscaler.cold_start_s(),
                               "elastic_boot", (role, idx, r.lifecycle))
        elif want < cur:
            for idx in range(len(replicas) - 1, -1, -1):
                if cur <= want:
                    break
                r = replicas[idx]
                if r.state == "starting":
                    r.gpu_s += self._replica_gpus(role, idx) \
                        * (now - r.on_since)
                    r.state = "off"
                    r.lifecycle += 1   # cancel the in-flight boot event
                    cur -= 1
                    self._scale_events.append((now, role, "cancel", idx))
            for idx in range(len(replicas) - 1, -1, -1):
                if cur <= want:
                    break
                r = replicas[idx]
                if r.state == "on":
                    r.state = "draining"
                    cur -= 1
                    self._scale_events.append((now, role, "drain", idx))
                    self._maybe_retire(now, role, idx)
        self._record_replicas(now)
        if undrained:
            # A resurrected replica can serve again: drain whatever
            # parked while the fleet had no serving capacity.
            self._resume_parked(now, role)

    def _on_elastic_boot(self, now: float, payload) -> None:
        role, idx, lifecycle = payload
        r = self._fleets[role][idx]
        if r.state != "starting" or r.lifecycle != lifecycle:
            return              # the boot was canceled by a scale-down
        r.state = "on"
        self._scale_events.append((now, role, "up", idx))
        self._record_replicas(now)
        self._resume_parked(now, role)

    def _replica_gpus(self, role: str, idx: int) -> int:
        if role == "prefill":
            return self._prefill[idx].res.parallelism.n_gpus
        return self.dec_res.parallelism.n_gpus

    def _maybe_retire(self, now: float, role: str, idx: int) -> None:
        """Power off a draining replica once it is idle and healthy.

        A crashed replica stays powered while down (a crash is not a
        power-off); the repair handlers re-check retirement.
        """
        r = self._fleets[role][idx]
        if r.state != "draining" or not r.up:
            return
        if role == "prefill":
            busy = r.current is not None or r.queue
        else:
            # Inbound transfers hold ``used_bytes``; wait them out.
            busy = r.active or r.used_bytes > 1e-9
        if busy:
            return
        r.gpu_s += self._replica_gpus(role, idx) * (now - r.on_since)
        r.state = "off"
        self._scale_events.append((now, role, "down", idx))
        self._record_replicas(now)

    def _elastic_stats(self) -> dict:
        """The elastic summary block plus the live events/timeseries."""
        end = self._last_terminal_t
        gpu_hours = {"prefill": 0.0, "decode": 0.0}
        for role, replicas in self._fleets.items():
            for idx, r in enumerate(replicas):
                accrued = r.gpu_s
                if r.state != "off":
                    accrued += self._replica_gpus(role, idx) \
                        * max(0.0, end - r.on_since)
                gpu_hours[role] += accrued / 3600.0
        ts = self._replica_timeseries
        if not ts or end > ts[-1][0]:
            self._record_replicas(end)
            ts = self._replica_timeseries
        mean_p = mean_d = 0.0
        peak_p = peak_d = 0
        if end > 0:
            # Time-weighted means over [0, end]; a retirement landing
            # past the last terminal instant (a post-work repair) is
            # clamped out of the window.
            for (t0, p, d), (t1, _, _) in zip(ts, ts[1:]):
                dt = min(t1, end) - min(t0, end)
                mean_p += p * dt
                mean_d += d * dt
            mean_p /= end
            mean_d /= end
        elif ts:
            mean_p, mean_d = ts[0][1], ts[0][2]
        for _, p, d in ts:
            peak_p = max(peak_p, p)
            peak_d = max(peak_d, d)
        n_p, n_d = len(self._prefill), len(self._decode)
        return {
            "autoscaler": self.config.autoscaler.canonical()
            if self.config.autoscaler is not None else DEFAULT_AUTOSCALER,
            "admission": self.config.admission.canonical()
            if self.config.admission is not None else DEFAULT_ADMISSION,
            "n_scale_ups": sum(1 for ev in self._scale_events
                               if ev[2] in ("boot", "undrain")),
            "n_scale_downs": sum(1 for ev in self._scale_events
                                 if ev[2] in ("drain", "cancel")),
            "scaling_events": len(self._scale_events),
            "mean_prefill_replicas": mean_p,
            "peak_prefill_replicas": peak_p,
            "mean_decode_replicas": mean_d,
            "peak_decode_replicas": peak_d,
            "mean_utilization": (mean_p + mean_d) / (n_p + n_d),
            "gpu_hours": gpu_hours["prefill"] + gpu_hours["decode"],
            "prefill_gpu_hours": gpu_hours["prefill"],
            "decode_gpu_hours": gpu_hours["decode"],
            "n_shed": self._n_shed,
            "n_degraded": self._n_degraded,
            "events": [list(ev) for ev in self._scale_events],
            "timeseries": [list(pt) for pt in ts],
        }

    # -- helpers ----------------------------------------------------------------

    def _request_bytes(self, req: SimRequest) -> float:
        """Decode-memory reservation: KV for the request's full context
        (at the request's own selected method when one was chosen)."""
        method = req.method or self.method
        return req.trace.total_len * self.spec.kv_bytes_per_token(
            method.kv_mem_bytes_per_value
        )

    def _push(self, time: float, kind: str, payload) -> None:
        heapq.heappush(self._events, (time, next(self._seq), kind, payload))


def simulate(config: ClusterConfig, trace: list[TraceRequest]) -> SimulationResult:
    """Convenience: build a :class:`Simulator` and run it."""
    return Simulator(config, trace).run()
