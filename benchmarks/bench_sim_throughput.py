"""Bench: simulator throughput — span fast-forwarding vs token stepping.

Runs a fig9-style scenario (Llama-70B, A10G prefill, the paper's
four-way method comparison) in both decode step modes and reports
simulated decode tokens per wall-clock second, the speedup, and a
differential check that both modes produce the same results.  A second
measurement runs one method with the tiered KV store enabled on the
same single-shot trace — every lookup misses, so the tokens/s delta is
the store's pure bookkeeping overhead on the hot path.  A third
measurement times a full ``repro lint`` pass over the tree — the
invariant gate runs on every CI push, so its wall-clock (and that it
still reports zero findings) is part of the record.

Faults and elastic scaling are not timed here: left unconfigured or
armed but idle, they run the same engine path as a plain run, so there
is no overhead to isolate.  The tests assert that both armed-but-idle
runs reproduce the plain run's records.

Plain script (no pytest fixtures) so CI can smoke it with only numpy
installed::

    PYTHONPATH=src python benchmarks/bench_sim_throughput.py --scale 0.1 \
        --bench-json out/bench_sim_throughput.json

``--bench-json`` writes the numbers machine-readably (per-method
tokens/s and span-vs-token speedup, plus the kvstore-overhead and
lint-runtime blocks) for CI artifact upload.  There are deliberately
no timing assertions — the speedup is printed for the record; only the
span-vs-token equivalence is asserted.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.tables import Table
from repro.api import Runner, Scenario, compare_artifacts
from repro.methods.registry import PAPER_COMPARISON


def run(scale: float = 1.0, dataset: str = "cocktail",
        methods: tuple[str, ...] = PAPER_COMPARISON,
        rtol: float = 1e-9) -> tuple[Table, dict]:
    """Run both step modes; return the throughput table + JSON record."""
    runner = Runner()
    base = Scenario(model="L", prefill_gpu="A10G", dataset=dataset,
                    methods=methods, scale=scale)
    artifacts = {
        mode: runner.run(base.replace(step_mode=mode))
        for mode in ("token", "span")
    }
    diff = compare_artifacts(artifacts["token"], artifacts["span"],
                             rtol=rtol)
    # step_mode is the only scenario field allowed to differ.
    mismatched = {m: d for m, d in diff["methods"].items() if d}
    if mismatched:
        raise AssertionError(
            f"span results diverge from token results beyond rtol={rtol}: "
            f"{mismatched}"
        )

    table = Table(f"Simulator throughput — {dataset}, Llama-70B/A10G "
                  f"(scale={scale})",
                  ["method", "tokens", "token-mode tok/s", "span-mode tok/s",
                   "speedup"])
    record = {"bench": "sim_throughput", "model": "L", "dataset": dataset,
              "prefill_gpu": "A10G", "scale": scale, "methods": {}}
    for method in methods:
        token = artifacts["token"].perf[method]
        span = artifacts["span"].perf[method]
        speedup = token["wall_s"] / span["wall_s"]
        table.add_row(method, token["simulated_tokens"],
                      round(token["tokens_per_s"]),
                      round(span["tokens_per_s"]),
                      f"{speedup:.1f}x")
        record["methods"][method] = {
            "simulated_tokens": token["simulated_tokens"],
            "token_tokens_per_s": token["tokens_per_s"],
            "span_tokens_per_s": span["tokens_per_s"],
            "span_speedup": speedup,
        }
    record["kvstore_overhead"] = _kvstore_overhead(runner, base)
    record["lint_runtime"] = _lint_runtime()
    return table, record


def _kvstore_overhead(runner: Runner, base: Scenario) -> dict:
    """The store's hot-path cost when it never helps.

    A single-shot (non-session) trace gives every request a unique
    cache key — 0% hit rate — so the only difference a configured store
    makes to wall-clock is its own lookup/put/eviction bookkeeping.
    """
    method = "hack"
    plain = runner.run(base.replace(methods=(method,)))
    stored = runner.run(base.replace(methods=(method,),
                                     kvstore="tiered?dram_gb=8.0"))
    wall_plain = plain.perf[method]["wall_s"]
    wall_store = stored.perf[method]["wall_s"]
    stats = stored.methods[method].summary["kvstore"]
    return {
        "method": method,
        "hit_rate": stats["hit_rate"],
        "lookups": stats["lookups"],
        "wall_s_plain": wall_plain,
        "wall_s_kvstore": wall_store,
        "overhead_frac": wall_store / wall_plain - 1.0
        if wall_plain > 0 else 0.0,
    }


def _lint_runtime() -> dict:
    """One full ``repro lint`` pass, timed.

    The invariant gate runs on every push, so its cost rides along in
    the benchmark record; a clean tree must report zero findings, and
    that is asserted here like the equivalence checks above.
    """
    from time import perf_counter

    from repro.lint import run_lint

    start = perf_counter()
    result = run_lint()
    wall = perf_counter() - start
    if not result.ok:
        raise AssertionError(
            "repro lint found findings:\n"
            + "\n".join(f.render() for f in result.findings))
    return {
        "wall_s": wall,
        "n_files": result.n_files,
        "files_per_s": result.n_files / wall if wall > 0 else 0.0,
        "new_findings": len(result.findings),
        "suppressed": len(result.suppressed),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="trace-length multiplier (default 1.0)")
    parser.add_argument("--dataset", default="cocktail")
    parser.add_argument("--methods", default=",".join(PAPER_COMPARISON),
                        help="comma-separated method names")
    parser.add_argument("--bench-json", default=None, metavar="PATH",
                        help="also write the numbers as JSON here "
                             "(machine-readable CI artifact)")
    args = parser.parse_args(argv)
    table, record = run(scale=args.scale, dataset=args.dataset,
                        methods=tuple(m for m in args.methods.split(",")
                                      if m))
    print(table.render())
    over = record["kvstore_overhead"]
    print(f"kvstore lookup overhead (all-miss, {over['lookups']} lookups): "
          f"{over['overhead_frac'] * 100:.1f}% wall "
          f"({over['wall_s_plain']:.3f}s -> {over['wall_s_kvstore']:.3f}s)")
    lint = record["lint_runtime"]
    print(f"repro lint runtime: {lint['wall_s']:.3f}s for "
          f"{lint['n_files']} files ({lint['files_per_s']:.0f} files/s, "
          f"{lint['new_findings']} findings, "
          f"{lint['suppressed']} pragma-suppressed)")
    if args.bench_json:
        path = Path(args.bench_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
