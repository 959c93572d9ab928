"""Structured, versioned run artifacts.

A :class:`RunArtifact` is the durable output of running one
:class:`~repro.api.scenario.Scenario`: per-method summaries (JCT stats,
the Fig. 10 decomposition, TTFT/TBT percentiles, SLO goodput, peak
memory, swap counts, fault/recovery accounting) plus per-request
records, under a stable schema (``hack-repro/run-artifact`` v5; v1–v4
files — which predate the serving metrics, trace block, reliability
accounting and cost-efficiency metrics respectively — still load).
Artifacts can be saved to disk, loaded back,
rendered as tables and compared — the diffable, cacheable counterpart
of the pretty-printed experiment output.

The JSON is fully deterministic (no timestamps, sorted keys), so a
byte-identical artifact means an identical run — which is how the
parallel runner's equivalence with the serial one is checked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.tables import Table
from ..sim.engine import SimulationResult
from .scenario import Scenario

__all__ = ["RunArtifact", "MethodRun", "SCHEMA_NAME", "SCHEMA_VERSION",
           "SUPPORTED_SCHEMA_VERSIONS", "compare_artifacts"]

SCHEMA_NAME = "hack-repro/run-artifact"
#: Version written by this build.  v2 added TTFT/TBT/SLO serving
#: metrics to summaries and per-request records; v3 adds the top-level
#: ``trace`` block (max-context clip counts) and — only on runs that
#: configure them — the ``kvstore``/``selection_mix`` summary sections
#: and per-request ``method_selected``/``prefix_hit_tokens``/
#: ``cache_read_s``/``cache_tier`` keys.  v4 adds per-request terminal
#: state and reliability accounting (``terminal``/``n_retries``/
#: ``wasted_compute_s``/``recovered``), includes rejected and failed
#: requests in the record list, the ``n_failed`` summary count and —
#: on runs that configure fault injection — the ``faults`` summary
#: block (availability, wasted-work fraction, goodput under faults).
#: v5 adds the cost-efficiency pair ``gpu_hours`` /
#: ``goodput_per_gpu_hour`` to every summary (static fleets backfill
#: replicas × makespan) and — on runs that configure an autoscaler or
#: admission policy — the ``elastic`` summary block (scaling-event
#: counts, mean/peak powered replicas, accrued GPU-hours, shed/degraded
#: counts).  v1–v4 files still load (their summaries simply lack the
#: newer keys and pre-v4 records only cover finished requests).
SCHEMA_VERSION = 5
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3, 4, 5)

#: Scalar summary keys surfaced by ``summary_table`` (the compact view).
#: v2 keys render as "-" for v1 artifacts that predate them.
SUMMARY_METRICS = ("avg_jct_s", "p50_jct_s", "p99_jct_s",
                   "p99_ttft_s", "p99_tbt_s", "slo_goodput_rps",
                   "goodput_per_gpu_hour",
                   "peak_memory_fraction", "n_swapped", "n_rejected",
                   "n_failed")

#: Every scalar key in a MethodRun summary — ``compare`` checks those
#: present on both sides, plus the per-bucket decomposition and
#: per-request JCTs.
_COMPARE_SCALARS = ("n_requests", "avg_jct_s", "p50_jct_s", "p95_jct_s",
                    "p99_jct_s", "max_jct_s", "peak_memory_fraction",
                    "n_swapped", "n_rejected",
                    # schema v2 serving metrics
                    "mean_ttft_s", "p50_ttft_s", "p95_ttft_s", "p99_ttft_s",
                    "mean_tbt_s", "p50_tbt_s", "p95_tbt_s", "p99_tbt_s",
                    "mean_normalized_latency_s", "slo_ttft_s", "slo_tbt_s",
                    "slo_attainment", "slo_goodput_rps",
                    # schema v4 reliability count
                    "n_failed",
                    # schema v5 cost-efficiency metrics
                    "gpu_hours", "goodput_per_gpu_hour")

#: Optional summary blocks and the metrics ``compare`` checks in each
#: when both sides carry the block; a block on one side only is a full
#: diff.
_COMPARE_BLOCKS = (
    ("kvstore", ("hit_rate", "prefill_tokens_skipped", "lookups", "hits",
                 "dropped", "expired")),
    ("faults", ("availability", "n_failed", "n_recovered", "n_retries",
                "wasted_compute_s", "wasted_work_fraction",
                "goodput_under_faults_rps")),
    ("elastic", ("n_scale_ups", "n_scale_downs", "scaling_events",
                 "mean_prefill_replicas", "peak_prefill_replicas",
                 "mean_decode_replicas", "peak_decode_replicas",
                 "mean_utilization", "gpu_hours", "goodput_per_gpu_hour",
                 "n_shed", "n_degraded")),
)


@dataclass
class MethodRun:
    """One method's results inside an artifact."""

    method: str
    summary: dict
    requests: list[dict]

    @classmethod
    def from_result(cls, method: str, result: SimulationResult) -> "MethodRun":
        return cls(method=method, summary=result.summary(),
                   requests=result.to_records())

    def to_dict(self) -> dict:
        return {"method": self.method, "summary": self.summary,
                "requests": self.requests}

    @classmethod
    def from_dict(cls, data: dict) -> "MethodRun":
        return cls(method=data["method"], summary=data["summary"],
                   requests=data["requests"])


@dataclass
class RunArtifact:
    """Everything one scenario run produced (see module docstring)."""

    scenario: Scenario
    methods: dict[str, MethodRun]
    #: Live simulation objects, present only on freshly-run artifacts
    #: (never serialized; ``None`` after a round-trip through disk).
    results: dict[str, SimulationResult] | None = field(
        default=None, repr=False, compare=False)
    #: Per-method simulator-throughput record set by the Runner
    #: (``step_mode``/``wall_s``/``simulated_tokens``/``tokens_per_s``).
    #: Wall-clock metadata about the machine that ran the simulation —
    #: never serialized, so artifact JSON stays byte-deterministic.
    perf: dict[str, dict] | None = field(
        default=None, repr=False, compare=False)
    #: Trace metadata (schema v3): ``n_input_clipped``/
    #: ``n_output_clipped`` — how many requests the model's context cap
    #: reshaped.  ``None`` on artifacts predating v3.
    trace: dict | None = None

    @classmethod
    def from_results(cls, scenario: Scenario,
                     results: dict[str, SimulationResult],
                     trace: dict | None = None) -> "RunArtifact":
        runs = {m: MethodRun.from_result(m, r) for m, r in results.items()}
        return cls(scenario=scenario, methods=runs, results=dict(results),
                   trace=trace)

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "schema": SCHEMA_NAME,
            "schema_version": SCHEMA_VERSION,
            "scenario": self.scenario.to_dict(),
            "methods": {m: run.to_dict() for m, run in self.methods.items()},
        }
        if self.trace is not None:
            out["trace"] = self.trace
        return out

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "RunArtifact":
        if data.get("schema") != SCHEMA_NAME:
            raise ValueError(
                f"not a {SCHEMA_NAME} artifact (schema={data.get('schema')!r})"
            )
        version = data.get("schema_version")
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise ValueError(
                f"unsupported artifact schema_version {version!r}; "
                f"this build reads versions "
                f"{', '.join(map(str, SUPPORTED_SCHEMA_VERSIONS))}"
            )
        missing = {"scenario", "methods"} - set(data)
        if missing:
            raise ValueError(
                f"artifact is missing required key(s) {sorted(missing)}"
            )
        return cls(
            scenario=Scenario.from_dict(data["scenario"]),
            methods={m: MethodRun.from_dict(d)
                     for m, d in data["methods"].items()},
            trace=data.get("trace"),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunArtifact":
        return cls.from_dict(json.loads(text))

    def save(self, path: str | Path) -> Path:
        """Write to ``path`` (a ``.json`` file, or a directory to get a
        deterministic per-scenario filename).  Returns the file path."""
        path = Path(path)
        if path.suffix != ".json":
            path.mkdir(parents=True, exist_ok=True)
            path = path / f"{self.scenario.slug()}.json"
        else:
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunArtifact":
        return cls.from_json(Path(path).read_text())

    # -- views ----------------------------------------------------------------

    def summary_table(self, title: str | None = None) -> Table:
        """Per-method scalar summary as a renderable table."""
        if title is None:
            title = f"Run summary: {self.scenario.describe()}"
            if self.trace and (self.trace.get("n_input_clipped")
                               or self.trace.get("n_output_clipped")):
                title += (
                    f" [clipped: in={self.trace['n_input_clipped']}"
                    f" out={self.trace['n_output_clipped']}]"
                )
        buckets = next(iter(self.methods.values())) \
            .summary["mean_decomposition_s"].keys() if self.methods else ()
        table = Table(title, ["method", *SUMMARY_METRICS, *buckets])
        for method, run in self.methods.items():
            decomp = run.summary["mean_decomposition_s"]
            table.add_row(method,
                          *(run.summary.get(k, "-")
                            for k in SUMMARY_METRICS),
                          *(decomp[b] for b in buckets))
        return table

    def compare(self, other: "RunArtifact", rtol: float = 1e-9) -> dict:
        """Per-method metric diffs against ``other`` (see
        :func:`compare_artifacts`)."""
        return compare_artifacts(self, other, rtol=rtol)


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def compare_artifacts(a: RunArtifact, b: RunArtifact,
                      rtol: float = 1e-9) -> dict:
    """Structured diff of two artifacts.

    Checks every summary scalar, every Fig.-10 decomposition bucket,
    the per-request JCTs, the trace clip counts and — when both sides
    carry them — the KV-store hit metrics and selection mix, not just
    headline numbers — so a simulator change that re-attributes time
    between buckets while preserving totals still shows up.  Returns
    ``{"equal": bool, "scenario_equal": bool, "trace": {...}, "methods":
    {name: {metric: {"a":…, "b":…, "rel_diff":…}}}}`` where only
    metrics whose relative difference exceeds ``rtol`` (and methods
    present in one side only) are listed.
    """
    diffs: dict[str, dict] = {}
    for method in sorted(set(a.methods) | set(b.methods)):
        if method not in a.methods or method not in b.methods:
            diffs[method] = {"missing_from": "a" if method not in a.methods
                             else "b"}
            continue
        sa, sb = a.methods[method].summary, b.methods[method].summary
        method_diff = {}

        def check(metric: str, va, vb) -> None:
            rel = _rel_diff(va, vb)
            if rel > rtol:
                method_diff[metric] = {"a": va, "b": vb, "rel_diff": rel}

        for metric in _COMPARE_SCALARS:
            if metric in sa and metric in sb:   # v2 keys absent in v1
                check(metric, sa[metric], sb[metric])
        ma, mb = sa.get("selection_mix"), sb.get("selection_mix")
        if ma != mb:
            method_diff["selection_mix"] = {"a": ma, "b": mb,
                                            "rel_diff": 1.0}
        for block, metrics in _COMPARE_BLOCKS:
            ba, bb = sa.get(block), sb.get(block)
            if ba is not None and bb is not None:
                for metric in metrics:
                    check(f"{block}.{metric}", ba[metric], bb[metric])
            elif (ba is None) != (bb is None):
                method_diff[block] = {"a": ba is not None,
                                      "b": bb is not None,
                                      "rel_diff": 1.0}
        da, db = sa["mean_decomposition_s"], sb["mean_decomposition_s"]
        for bucket in sorted(set(da) | set(db)):
            check(f"mean_decomposition_s.{bucket}",
                  da.get(bucket, 0.0), db.get(bucket, 0.0))
        ra, rb = a.methods[method].requests, b.methods[method].requests
        if len(ra) != len(rb):
            method_diff["requests"] = {"a": len(ra), "b": len(rb),
                                       "rel_diff": 1.0}
        else:
            # v4 records cover rejected/failed requests too, which
            # carry no jct_s — a terminal-state flip counts as a full
            # diff for that request.
            def record_diff(x: dict, y: dict) -> float:
                if x.get("terminal", "finished") != \
                        y.get("terminal", "finished"):
                    return 1.0
                if "jct_s" not in x or "jct_s" not in y:
                    return 0.0 if ("jct_s" in x) == ("jct_s" in y) else 1.0
                return _rel_diff(x["jct_s"], y["jct_s"])

            worst = max((record_diff(x, y)
                         for x, y in zip(ra, rb)), default=0.0)
            if worst > rtol:
                method_diff["requests.jct_s"] = {
                    "a": "per-request", "b": "per-request",
                    "rel_diff": worst}
        if method_diff:
            diffs[method] = method_diff
    trace_diff: dict = {}
    ta, tb = a.trace, b.trace
    if ta is not None and tb is not None:
        for key in ("n_input_clipped", "n_output_clipped"):
            va, vb = ta.get(key, 0), tb.get(key, 0)
            if va != vb:
                trace_diff[key] = {"a": va, "b": vb,
                                   "rel_diff": _rel_diff(va, vb)}
    scenario_equal = a.scenario == b.scenario
    return {"equal": scenario_equal and not diffs and not trace_diff,
            "scenario_equal": scenario_equal,
            "trace": trace_diff,
            "methods": diffs}
