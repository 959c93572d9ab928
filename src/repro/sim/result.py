"""The outcome of one simulated run and every statistic derived from it.

A :class:`SimulationResult` is built once, when
:meth:`repro.sim.engine.Simulator.run` ends, and its requests are final:
each finished request's TBT statistics and Fig. 10 decomposition were
computed when it finished (:meth:`~repro.sim.request.SimRequest.complete`).
:meth:`SimulationResult.summary` reads each per-request column once,
evaluates SLO attainment once and derives every key from those.  The
one-metric methods (``avg_jct``, ``slo_attainment``, ``tbt_percentile``,
``availability``, …) are the same derivations, for callers that need
one number.

Every float mean is the builtin ``sum`` in request-id order (ascending
order for TTFT), and the pooled-gap mean is numpy's ``mean``: another
reduction or order changes the artifact bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.parallelism import replica_resources
from .request import BUCKETS, SimRequest, nearest_rank

if TYPE_CHECKING:
    from .engine import ClusterConfig

__all__ = ["SimulationResult", "DEFAULT_TTFT_SLO_S", "DEFAULT_TBT_SLO_S"]

#: Default service-level objectives for :meth:`SimulationResult.summary`.
#: TTFT covers queueing + a long-prompt prefill pass on the §7.1
#: clusters; TBT bounds the steady decode cadence.  Both are
#: recomputable at any other point from the per-request records.
DEFAULT_TTFT_SLO_S = 20.0
DEFAULT_TBT_SLO_S = 0.5


def _mean(values: list) -> float:
    return sum(values) / len(values) if values else 0.0


def _rate(count: float, denom: float) -> float:
    # A zero-width denominator (degenerate single-instant run, or no
    # finished requests at all) is a zero rate, not infinite: a
    # float("inf") here used to leak non-compliant ``Infinity`` tokens
    # into artifact JSON via json.dump.
    return count / denom if denom > 0 else 0.0


@dataclass
class SimulationResult:
    """Finished requests plus cluster-level statistics.

    ``requests`` may be empty (a ``no_swap`` placement can reject every
    request of a trace); all aggregates degrade to empty/zero values
    rather than raising, so summaries stay JSON-serializable.
    """

    requests: list[SimRequest]
    peak_memory_fraction: float
    n_swapped: int
    config: ClusterConfig
    #: Requests refused admission by a non-swapping placement policy
    #: (they prefill but never decode and are absent from ``requests``).
    n_rejected: int = 0
    #: KV-store counters (:meth:`repro.kvstore.TieredKVStore.stats`):
    #: hit rate, prefill tokens skipped, per-tier occupancy/bytes/
    #: evictions.  ``None`` unless the run had a ``kvstore`` configured.
    kvstore_stats: dict | None = None
    #: ``{slo_tier: {method_name: n_requests}}`` — which compression
    #: method the selection policy chose, per service class.  ``None``
    #: unless the run had a ``selection`` policy configured.
    selection_mix: dict | None = None
    #: The rejected requests themselves (``n_rejected`` == their count;
    #: they appear in :meth:`to_records` with terminal ``rejected``).
    rejected_requests: list = field(default_factory=list)
    #: Requests the recovery policy gave up on (fault injection only;
    #: terminal ``failed``).
    failed_requests: list = field(default_factory=list)
    #: Whether the run had a fault plan configured (drives the
    #: ``faults`` summary block even when nothing happened to fail).
    faulted: bool = False
    #: Elastic-cluster statistics: scaling-event counts, mean/peak
    #: powered replicas, accrued GPU-hours, shed/degraded counts plus
    #: the live ``events``/``timeseries`` lists (those two stay out of
    #: the summary).  ``None`` unless the run configured an
    #: ``autoscaler`` or ``admission`` policy.
    elastic_stats: dict | None = None

    # -- latency metrics ------------------------------------------------------

    def avg_jct(self) -> float:
        """Mean job completion time across all requests (Fig. 9 metric)."""
        return _mean([r.jct for r in self.requests])

    def jct_percentile(self, p: float) -> float:
        """JCT at percentile ``p`` (nearest-rank over finished requests)."""
        return nearest_rank(sorted(r.jct for r in self.requests), p)

    def ttft_percentile(self, p: float) -> float:
        """TTFT at percentile ``p`` (nearest-rank)."""
        return nearest_rank(sorted(r.ttft for r in self.requests), p)

    def tbt_gaps(self) -> np.ndarray:
        """All inter-token gaps, pooled across requests (ascending)."""
        parts = [r.tbt_gaps() for r in self.requests]
        parts = [p for p in parts if p.size]
        if not parts:
            return np.empty(0, dtype=np.float64)
        return np.sort(np.concatenate(parts))

    def tbt_percentile(self, p: float) -> float:
        """Pooled time-between-tokens at percentile ``p`` (nearest-rank)."""
        return nearest_rank(self.tbt_gaps(), p)

    def mean_normalized_latency(self) -> float:
        """Mean JCT per output token (DistServe's normalized latency)."""
        return _mean([r.normalized_latency for r in self.requests])

    def mean_decomposition(self) -> dict[str, float]:
        """Mean seconds per bucket (Fig. 10 bars); all-zero when no
        request finished."""
        return {k: _mean([r.buckets[k] for r in self.requests])
                for k in BUCKETS}

    def mean_ratios(self, include_queue: bool = False) -> dict[str, float]:
        """Mean per-request bucket ratios (the Fig. 1–4 metric)."""
        keys = BUCKETS if include_queue else BUCKETS[1:]
        ratio_dicts = [r.ratios(include_queue) for r in self.requests]
        return {k: _mean([d[k] for d in ratio_dicts]) for k in keys}

    def mean_kv_access_ratio(self) -> float:
        """KV HBM read time as a fraction of JCT (§2.1's 16–33% metric)."""
        return _mean([r.kv_access_s / r.jct for r in self.requests])

    def generated_tokens(self) -> int:
        """Decode tokens produced across all finished requests."""
        return sum(r.tokens_generated for r in self.requests)

    # -- SLO and cost-efficiency metrics --------------------------------------

    def makespan_s(self) -> float:
        """First arrival → last completion (0 when nothing finished)."""
        return self._to_last_finish(self.requests)

    def _to_last_finish(self, since: list) -> float:
        """Earliest arrival in ``since`` → last completion."""
        if not self.requests:
            return 0.0
        return (max(r.finish for r in self.requests)
                - min(r.arrival for r in since))

    def slo_attainment(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                       tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """Fraction of requests meeting both SLOs.

        A request attains when its TTFT is within ``ttft_slo_s`` *and*
        its own p99 inter-token gap is within ``tbt_slo_s`` (the
        KVServe/DistServe-style joint criterion; single-token requests
        have no gaps and attain on TTFT alone).
        """
        met = sum(1 for r in self.requests
                  if r.ttft <= ttft_slo_s and r.tbt_p99 <= tbt_slo_s)
        return _rate(met, len(self.requests))

    def slo_goodput_rps(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                        tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining requests served per second of makespan."""
        return self._met(self.slo_attainment(ttft_slo_s, tbt_slo_s),
                         self.makespan_s())

    def gpu_hours(self) -> float:
        """GPU-hours the run consumed.

        Elastic runs accrue this exactly from the replica lifecycle
        (powered stretches × GPUs per replica, cold starts and drains
        included).  Static fleets backfill the same quantity as every
        provisioned GPU powered from t=0 to the last terminal event —
        the same window the elastic accrual covers — so elastic and
        static runs compare directly.
        """
        if self.elastic_stats is not None:
            return self.elastic_stats["gpu_hours"]
        n_gpus = sum(
            replica_resources(self.config.model, gpu).parallelism.n_gpus
            * count for gpu, count in self.config.fleet_list())
        n_gpus += (self.config.n_decode_replicas
                   * self.config.decode_replica().parallelism.n_gpus)
        end = max((r.finish for r in self.requests), default=0.0)
        return n_gpus * end / 3600.0

    def goodput_per_gpu_hour(
            self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
            tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining requests served per GPU-hour consumed — the
        cost-efficiency metric elastic scaling optimizes."""
        return self._met(self.slo_attainment(ttft_slo_s, tbt_slo_s),
                         self.gpu_hours())

    def _met(self, attainment: float, denom: float) -> float:
        """SLO-attaining finished requests per unit of ``denom``."""
        return _rate(attainment * len(self.requests), denom)

    # -- reliability metrics (fault injection) --------------------------------

    def terminal_requests(self) -> list:
        """Every request that reached a terminal state — finished,
        rejected or failed — in request-id order."""
        out = [*self.requests, *self.rejected_requests,
               *self.failed_requests]
        out.sort(key=lambda r: r.request_id)
        return out

    def availability(self) -> float:
        """Fraction of terminal requests that finished (1.0 when
        nothing was rejected or failed)."""
        return _rate(len(self.requests), len(self.requests)
                     + len(self.rejected_requests)
                     + len(self.failed_requests))

    def wasted_compute_s(self) -> float:
        """Processing seconds faults threw away, over all requests."""
        return sum(r.wasted_compute_s for r in self.terminal_requests())

    def wasted_work_fraction(self) -> float:
        """Wasted seconds over all processing seconds spent (useful +
        wasted); 0 when the cluster did no work at all."""
        return self._wasted_fraction(self.wasted_compute_s())

    def _wasted_fraction(self, wasted: float) -> float:
        return _rate(wasted, wasted + sum(r.busy_s() for r in self.requests))

    def goodput_under_faults_rps(
            self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
            tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> float:
        """SLO-attaining *finished* requests per second of the offered
        period — first arrival of any terminal request to the last
        completion — so shed and failed load drags goodput down instead
        of silently shrinking the denominator."""
        return self._met(self.slo_attainment(ttft_slo_s, tbt_slo_s),
                         self._to_last_finish(self.terminal_requests()))

    # -- artifact views -------------------------------------------------------

    def to_records(self) -> list[dict]:
        """Per-request JSON-ready records (artifact schema v4): every
        terminal request — finished, rejected and failed — in
        request-id order, each carrying its ``terminal`` state."""
        return [r.record() for r in self.terminal_requests()]

    def summary(self, ttft_slo_s: float = DEFAULT_TTFT_SLO_S,
                tbt_slo_s: float = DEFAULT_TBT_SLO_S) -> dict:
        """Cluster-level statistics as a flat JSON-ready mapping.

        Schema v2: the v1 keys are unchanged; TTFT/TBT percentiles,
        normalized latency and SLO attainment/goodput (evaluated at the
        given SLO point) are appended.  Schema v3 appends ``kvstore``
        and/or ``selection_mix`` — but only when the run configured
        those layers, so every pre-existing summary is unchanged.
        Schema v4 appends ``n_failed`` (always) and a ``faults`` block
        with the reliability metrics — availability, retry counts,
        wasted work, goodput under faults — when the run had a fault
        plan configured.  Schema v5 appends the cost-efficiency pair
        ``gpu_hours`` / ``goodput_per_gpu_hour`` (always — static
        fleets backfill replicas × makespan) and an ``elastic`` block
        when the run configured an autoscaler or admission policy.
        """
        jcts = [r.jct for r in self.requests]
        by_jct = sorted(jcts)
        ttfts = sorted(r.ttft for r in self.requests)
        gaps = self.tbt_gaps()
        attainment = self.slo_attainment(ttft_slo_s, tbt_slo_s)
        per_gpu_hour = self._met(attainment, self.gpu_hours())
        out = {
            "n_requests": len(jcts),
            "avg_jct_s": _mean(jcts),
            "p50_jct_s": nearest_rank(by_jct, 50),
            "p95_jct_s": nearest_rank(by_jct, 95),
            "p99_jct_s": nearest_rank(by_jct, 99),
            "max_jct_s": by_jct[-1] if jcts else 0.0,
            "mean_decomposition_s": self.mean_decomposition(),
            "peak_memory_fraction": self.peak_memory_fraction,
            "n_swapped": self.n_swapped,
            "n_rejected": self.n_rejected,
            "n_failed": len(self.failed_requests),
            "mean_ttft_s": _mean(ttfts),
            "p50_ttft_s": nearest_rank(ttfts, 50),
            "p95_ttft_s": nearest_rank(ttfts, 95),
            "p99_ttft_s": nearest_rank(ttfts, 99),
            "mean_tbt_s": float(gaps.mean()) if gaps.size else 0.0,
            "p50_tbt_s": nearest_rank(gaps, 50),
            "p95_tbt_s": nearest_rank(gaps, 95),
            "p99_tbt_s": nearest_rank(gaps, 99),
            "mean_normalized_latency_s": self.mean_normalized_latency(),
            "slo_ttft_s": ttft_slo_s,
            "slo_tbt_s": tbt_slo_s,
            "slo_attainment": attainment,
            "slo_goodput_rps": self._met(attainment, self.makespan_s()),
            "gpu_hours": self.gpu_hours(),
            "goodput_per_gpu_hour": per_gpu_hour,
        }
        if self.kvstore_stats is not None:
            out["kvstore"] = self.kvstore_stats
        if self.selection_mix is not None:
            out["selection_mix"] = self.selection_mix
        if self.faulted:
            terminal = self.terminal_requests()
            wasted = sum(r.wasted_compute_s for r in terminal)
            out["faults"] = {
                "availability": self.availability(),
                "n_failed": len(self.failed_requests),
                "n_recovered": sum(1 for r in self.requests
                                   if r.recovered),
                "n_retries": sum(r.n_retries for r in terminal),
                "wasted_compute_s": wasted,
                "wasted_work_fraction": self._wasted_fraction(wasted),
                "goodput_under_faults_rps":
                    self._met(attainment, self._to_last_finish(terminal)),
            }
        if self.elastic_stats is not None:
            block = {k: v for k, v in self.elastic_stats.items()
                     if k not in ("events", "timeseries")}
            block["goodput_per_gpu_hour"] = per_gpu_hour
            out["elastic"] = block
        return out
