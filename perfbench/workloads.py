"""The benchmark's workloads: inputs from a seed, one operation, checks.

Every workload is a closed loop with one client: one process runs one
operation at a time, in-process (``Runner(workers=1)``).  Arrival
processes exist only in simulated time.  The seed becomes
``Scenario.seed`` (simulator workloads) or the harness ``seed``
(``accuracy_kv``); the program receives only the inputs ``build(seed)``
makes from it, a list that the run's operations cycle through.

An operation's output is checked twice: ``check`` tests invariants that
hold for every seed, and its ``fingerprint`` must be identical across
every operation of a run on the same input and equal the value pinned
in ``pins.json`` for that seed and input, when one is pinned.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass

__all__ = ["WORKLOADS", "SimWorkload", "AccuracyWorkload"]

#: Relative tolerance for pinned accuracy errors: the values come out of
#: BLAS matrix products, whose summation order may differ between CPU
#: kernels; within one process they repeat exactly.
ACCURACY_RTOL = 1e-9


@dataclass(frozen=True)
class SimOutput:
    artifact: object
    json_text: str


@dataclass(frozen=True)
class SimWorkload:
    """One ``repro run`` per operation: ``Runner.run(Scenario)`` then
    ``to_json()``.

    :meth:`build` makes ``n_runs`` scenarios and the run's operations
    cycle through them.  They take seeds ``seed * n_runs + j``: the
    benchmark seed itself when ``n_runs`` is 1, and never a scenario of
    another benchmark seed.
    """

    name: str
    why: str
    n_requests: int
    fields: tuple[tuple[str, object], ...]
    n_runs: int = 1

    def build(self, seed: int) -> list:
        from repro.api import Scenario
        return [Scenario(n_requests=self.n_requests,
                         seed=seed * self.n_runs + j, **dict(self.fields))
                for j in range(self.n_runs)]

    def op(self, scenario) -> SimOutput:
        from repro.api import Runner
        artifact = Runner(workers=1).run(scenario)
        return SimOutput(artifact, artifact.to_json())

    def fingerprint(self, output: SimOutput) -> str:
        return hashlib.sha256(output.json_text.encode()).hexdigest()

    def matches_pin(self, fingerprint: str, pinned: str) -> bool:
        return fingerprint == pinned

    def check(self, scenario, output: SimOutput) -> list[str]:
        """Conservation checks, per method.

        Every request of the trace is terminal exactly once, and the
        finished requests produced all their tokens: one from prefill
        plus ``tokens_generated`` decode tokens each.
        """
        problems = []
        for method, result in output.artifact.results.items():
            where = f"seed {scenario.seed} {method}"
            ids = [r.request_id for r in result.terminal_requests()]
            if len(ids) != scenario.n_requests \
                    or len(set(ids)) != len(ids):
                problems.append(
                    f"{where}: {len(result.requests)} finished + "
                    f"{len(result.rejected_requests)} rejected + "
                    f"{len(result.failed_requests)} failed "
                    f"({len(set(ids))} distinct) != "
                    f"{scenario.n_requests} requests")
            tokens = result.generated_tokens() + len(result.requests)
            expected = sum(r.trace.output_len for r in result.requests)
            if tokens != expected:
                problems.append(f"{where}: generated {tokens} tokens, "
                                f"finished requests need {expected}")
        return problems

    def tok_per_s(self, output: SimOutput) -> dict[str, float]:
        """Decode tokens per ``simulate`` second, per method."""
        return {m: p["tokens_per_s"]
                for m, p in output.artifact.perf.items()}


@dataclass(frozen=True)
class AccuracyWorkload:
    """One pass of the accuracy harness (Table 6/7 substrate).

    The decode-path errors are means over ``n_decode_trials`` trials,
    the statistic of ``harness.rqe_extra_error``: with RQE on and off
    the two caches draw different rounding noise, so on one trial the
    no-RQE error exceeds the RQE one only on average (the excess was
    0.082 +- 0.045 over 150 seeds, negative on one of them; a mean of
    four trials came out negative in 5 of 10^5 resamples).  Trial ``t``
    of benchmark seed ``seed`` takes seed ``seed * n_decode_trials + t``,
    never a trial of another benchmark seed.
    """

    name: str
    why: str
    n_tokens: int = 256
    head_dim: int = 128
    n_trials: int = 2
    n_decode: int = 256
    partition_size: int = 32
    n_decode_trials: int = 4

    def build(self, seed: int) -> list:
        from repro.accuracy.harness import ACCURACY_METHODS
        return [(seed, ACCURACY_METHODS)]

    def op(self, inputs) -> dict[str, float]:
        from repro.accuracy import harness
        seed, methods = inputs
        out = dict(harness.measure_errors(
            methods, n_tokens=self.n_tokens, head_dim=self.head_dim,
            n_trials=self.n_trials, seed=seed))
        for rqe in (True, False):
            out[f"decode_rqe={rqe}"] = statistics.fmean(
                harness.decode_path_error(
                    rqe, self.n_tokens, self.n_decode, self.head_dim,
                    self.partition_size, seed=seed * self.n_decode_trials + t)
                for t in range(self.n_decode_trials))
        return out

    def fingerprint(self, output: dict[str, float]) -> dict[str, float]:
        return output

    def matches_pin(self, fingerprint: dict, pinned: dict) -> bool:
        return fingerprint.keys() == pinned.keys() and all(
            math.isclose(fingerprint[k], pinned[k], rel_tol=ACCURACY_RTOL,
                         abs_tol=0.0)
            for k in pinned)

    def check(self, inputs, output: dict[str, float]) -> list[str]:
        """The exact method has no error; RQE reduces mean decode error."""
        problems = []
        if output["baseline"] != 0.0:
            problems.append(f"baseline error {output['baseline']} != 0")
        bad = [k for k, v in output.items() if not math.isfinite(v)]
        if bad:
            problems.append(f"non-finite errors: {bad}")
        if not output["decode_rqe=False"] > output["decode_rqe=True"]:
            problems.append(
                f"no-RQE mean decode error {output['decode_rqe=False']} "
                f"does not exceed RQE error {output['decode_rqe=True']}")
        return problems

    def tok_per_s(self, output) -> dict[str, float]:
        return {}


_PAPER_COMPARISON = ("methods", ("baseline", "cachegen", "kvquant", "hack"))

WORKLOADS = {w.name: w for w in (
    SimWorkload(
        "fig9_cocktail",
        "Fig. 9 cell: Llama-70B, A10G prefill, 16k-token Cocktail prompts; "
        "long contexts and mid-span joins make the decode cost kernels "
        "do most of the work.",
        1000,
        (("model", "L"), _PAPER_COMPARISON, ("dataset", "cocktail"),
         ("prefill_gpu", "A10G"))),
    SimWorkload(
        "imdb_short",
        "315-token IMDb prompts: per-request bookkeeping (handlers, "
        "summary, records, artifact JSON) dominates and the decode "
        "kernels do little.",
        500,
        (("model", "L"), _PAPER_COMPARISON, ("dataset", "imdb"),
         ("prefill_gpu", "A10G")),
        # Short operations give the host-speed reference more samples.
        n_runs=4),
    SimWorkload(
        "sessions_faults",
        "Multi-turn sessions with a tiered KV store, SLO-tier selection, "
        "faults, retry, autoscaling and shedding: the only workload that "
        "drives the control-plane layers.",
        250,
        (("methods", ("baseline", "hack")),
         ("arrival", "sessions?turns=4.0,think_time=30.0,"
                     "prefix_growth=0.3,tiers=3.0"),
         ("kvstore", "tiered?dram_gb=8.0"),
         ("selection", "slo_tier"),
         ("faults", "replica_crash?mttf=120.0,mttr=15.0"
                    "+transfer_flap?p_fail=0.02"),
         ("recovery", "retry?max=3.0,base_s=0.5,cap_s=8.0"),
         ("autoscaler", "reactive?queue_hi=6.0,queue_lo=1.0,"
                        "cooldown_s=45.0,interval_s=5.0,cold_start_s=20.0"),
         ("admission", "shed?queue_max=48.0")),
        # One run's cost depends chaotically on its seed (decode
        # placement retries varied by 16-32% between seeds at 1000-4000
        # requests), so operations cycle through twelve scenarios.
        n_runs=12),
    AccuracyWorkload(
        "accuracy_kv",
        "Table 6/7 substrate: attention error of every accuracy method "
        "plus the HACK decode path with and without RQE; the only "
        "workload that runs core/, quant/ and accuracy/."),
)}
