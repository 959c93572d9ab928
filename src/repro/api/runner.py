"""Scenario resolution and execution.

:func:`resolve` turns a declarative :class:`~repro.api.scenario.Scenario`
into concrete simulation inputs — the §7.1 defaults exactly as the
historical ``experiments.common.run_methods`` applied them (baseline-
capacity RPS, horizon-matched trace length, fleet-derived replica
counts) — and :class:`Runner` executes scenarios through a pluggable
executor: serial in-process, or a ``multiprocessing`` pool with
``workers=N``.

Parallelism is per (scenario, method): every method of every scenario
is an independent simulation over a deterministic trace, so the
parallel runner is bit-identical to the serial one (asserted by the
test suite, and checkable via ``RunArtifact.compare``).
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass

from ..methods import resolve_method
from ..model.config import ModelSpec, get_model
from ..perfmodel.calibration import Calibration, DEFAULT_CALIBRATION, calibrated
from ..sim.capacity import experiment_rps
from ..sim.engine import ClusterConfig, SimulationResult, default_cluster, \
    simulate
from ..workload.traces import TraceRequest, generate_trace
from .artifact import RunArtifact
from .scenario import (
    DEFAULT_LOAD_FACTOR,
    DEFAULT_N_REQUESTS,
    DEFAULT_SEED,
    MAX_AUTO_REQUESTS,
    MIN_REQUESTS,
    Scenario,
    model_dataset,
)
from .sweep import Sweep

__all__ = ["ResolvedScenario", "Runner", "resolve", "run_scenario",
           "run_sweep"]


@dataclass(frozen=True)
class ResolvedScenario:
    """A scenario made concrete: trace plus one cluster per method."""

    scenario: Scenario
    spec: ModelSpec
    dataset: str
    max_context: int | None
    calib: Calibration
    rps: float
    n_requests: int
    trace: tuple[TraceRequest, ...]
    configs: dict[str, ClusterConfig]
    #: How many requests the model's context cap reshaped (see
    #: :class:`repro.workload.Trace`); both 0 when ``max_context`` is
    #: None.
    n_input_clipped: int = 0
    n_output_clipped: int = 0


#: The fields :class:`Scenario` shares with :class:`ClusterConfig`, all
#: handed to :func:`default_cluster` by name (``None`` keeps the
#: cluster default).
_CLUSTER_FIELDS = ("prefill_gpu", "decode_gpu", "pipelining",
                   "n_prefill_replicas", "n_decode_replicas",
                   "activation_overhead", "step_mode", "scheduler",
                   "kvstore", "selection", "faults", "recovery",
                   "autoscaler", "admission")


def _resolve_calibration(scenario: Scenario) -> Calibration:
    overrides = scenario.calibration_overrides()
    return calibrated(**overrides) if overrides else DEFAULT_CALIBRATION


def resolve(scenario: Scenario) -> ResolvedScenario:
    """Apply the §7.1 defaults (see module docstring)."""
    spec = get_model(scenario.model)
    dataset_name, max_context = model_dataset(spec, scenario.dataset)
    calib = _resolve_calibration(scenario)
    load_factor = (DEFAULT_LOAD_FACTOR if scenario.load_factor is None
                   else scenario.load_factor)
    seed = DEFAULT_SEED if scenario.seed is None else scenario.seed
    rps = scenario.rps
    if rps is None:
        rps = experiment_rps(spec, scenario.prefill_gpu, dataset_name,
                             calib=calib, load_factor=load_factor)
    n_requests = scenario.n_requests
    if n_requests is None:
        # Cover a comparable wall-clock horizon for every dataset: fast
        # workloads (short prompts at tens of RPS) need more requests
        # for queues at the bottleneck stage to become visible.
        n_requests = int(max(DEFAULT_N_REQUESTS,
                             min(MAX_AUTO_REQUESTS, rps * 30)))
    n = max(MIN_REQUESTS, int(n_requests * scenario.scale))
    trace = generate_trace(dataset_name, rps, n, seed=seed,
                           max_context=max_context,
                           arrival=scenario.arrival or "poisson")
    shared = {f: getattr(scenario, f) for f in _CLUSTER_FIELDS}
    configs = {name: default_cluster(spec, resolve_method(name),
                                     calib=calib, **shared)
               for name in scenario.methods}
    return ResolvedScenario(scenario=scenario, spec=spec,
                            dataset=dataset_name, max_context=max_context,
                            calib=calib, rps=rps, n_requests=n,
                            trace=tuple(trace), configs=configs,
                            n_input_clipped=trace.n_input_clipped,
                            n_output_clipped=trace.n_output_clipped)


def _timed_simulate(config: ClusterConfig, trace: list[TraceRequest],
                    ) -> tuple[SimulationResult, dict]:
    """Run one simulation and measure simulated-tokens-per-second.

    The perf record is wall-clock metadata about the run *of* the
    simulator (never serialized into artifacts, which stay byte-
    deterministic): decode tokens simulated, wall seconds, tokens/s.
    """
    start = time.perf_counter()
    result = simulate(config, trace)
    wall_s = time.perf_counter() - start
    tokens = result.generated_tokens()
    perf = {
        "step_mode": config.step_mode,
        "wall_s": wall_s,
        "simulated_tokens": tokens,
        "tokens_per_s": tokens / wall_s if wall_s > 0 else float("inf"),
    }
    return result, perf


def _trace_stats(resolved: ResolvedScenario) -> dict:
    """Per-scenario trace metadata carried on the artifact (schema v3)."""
    return {"n_input_clipped": resolved.n_input_clipped,
            "n_output_clipped": resolved.n_output_clipped}


def _run_job(job: tuple[int, Scenario]
             ) -> tuple[int, str, SimulationResult, dict, dict]:
    """Pool work unit: one single-method scenario (picklable in + out)."""
    index, scenario = job
    resolved = resolve(scenario)
    method = scenario.methods[0]
    result, perf = _timed_simulate(resolved.configs[method],
                                   list(resolved.trace))
    return index, method, result, perf, _trace_stats(resolved)


class Runner:
    """Executes scenarios and sweeps, serially or across processes.

    ``workers=1`` (the default) runs everything in-process; ``workers=N``
    fans the (scenario, method) grid over a ``multiprocessing`` pool.
    Both return :class:`RunArtifact` lists in scenario order with
    identical contents.
    """

    def __init__(self, workers: int = 1) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    # -- public API -----------------------------------------------------------

    def run(self, scenario: Scenario) -> RunArtifact:
        """Run one scenario (all its methods) and return the artifact."""
        return self.run_many([scenario])[0]

    def run_sweep(self, sweep: Sweep) -> list[RunArtifact]:
        """Expand ``sweep`` and run the whole grid."""
        return self.run_many(sweep.expand())

    def run_many(self, scenarios: list[Scenario]) -> list[RunArtifact]:
        jobs = [(i, part)
                for i, scenario in enumerate(scenarios)
                for part in scenario.split_methods()]
        if self.workers > 1 and len(jobs) > 1:
            outputs = self._run_pool(jobs)
        else:
            outputs = self._run_serial(scenarios)
        grouped: list[dict[str, SimulationResult]] = [
            {} for _ in scenarios
        ]
        perf_grouped: list[dict[str, dict]] = [{} for _ in scenarios]
        trace_stats: list[dict | None] = [None for _ in scenarios]
        for index, method, result, perf, stats in outputs:
            grouped[index][method] = result
            perf_grouped[index][method] = perf
            trace_stats[index] = stats
        artifacts = []
        for scenario, results, perfs, stats in zip(scenarios, grouped,
                                                   perf_grouped,
                                                   trace_stats):
            ordered = {m: results[m] for m in scenario.methods}
            artifact = RunArtifact.from_results(scenario, ordered,
                                                trace=stats)
            artifact.perf = {m: perfs[m] for m in scenario.methods}
            artifacts.append(artifact)
        return artifacts

    # -- executors ------------------------------------------------------------

    def _run_serial(self, scenarios: list[Scenario]):
        """In-process execution; resolves each scenario once."""
        outputs = []
        for index, scenario in enumerate(scenarios):
            resolved = resolve(scenario)
            trace = list(resolved.trace)
            stats = _trace_stats(resolved)
            for method in scenario.methods:
                result, perf = _timed_simulate(resolved.configs[method],
                                               trace)
                outputs.append((index, method, result, perf, stats))
        return outputs

    def _run_pool(self, jobs):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platforms without fork
            ctx = multiprocessing.get_context("spawn")
        workers = min(self.workers, len(jobs))
        with ctx.Pool(processes=workers) as pool:
            return pool.map(_run_job, jobs, chunksize=1)


def run_scenario(scenario: Scenario, workers: int = 1) -> RunArtifact:
    """Convenience: run one scenario."""
    return Runner(workers=workers).run(scenario)


def run_sweep(sweep: Sweep, workers: int = 1) -> list[RunArtifact]:
    """Convenience: expand and run a sweep."""
    return Runner(workers=workers).run_sweep(sweep)
