"""Benchmark of the HACK reproduction, run from the root of a checkout.

    python3 perfbench/run.py --workload fig9_cocktail --seed 1 \\
        --seconds 20 --trace 0

Runs one workload of :mod:`workloads` for ``--seconds`` seconds as a
closed loop with one client, checks every operation's output, and
prints as its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``run_s`` (host seconds per untraced operation, scaled to a reference
host speed; see :mod:`hostspeed`), ``setup_s`` (median over fresh
processes that import ``repro`` and build the workload's inputs) and
``peak_rss_mb``.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics
instead, plus ``trace.overhead``; the spans of the first traced
operation go to ``.perfbench_out/trace_<workload>_<seed>.json`` (Chrome
trace events).

Two more modes support the gate itself:

* ``--self-check`` feeds the checks a wrong pinned digest, a wrong
  pinned accuracy value and a tampered output, and exits 0 only if each
  is counted as a failed operation while the untampered cases pass;
* ``--update-pins`` recomputes ``pins.json`` (one checked operation per
  input of every workload and pinned seed, or of ``--workload`` alone)
  after a deliberate change of outputs.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from hostspeed import REFERENCE_S, reference_s
from tracing import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PINS = HERE / "pins.json"
PIN_SEEDS = range(32)
#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 5
#: Fewest timed operations per run, whatever ``--seconds`` says.
MIN_OPS = 3
PAPER_COMPARISON = ("baseline", "cachegen", "kvquant", "hack")


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


@dataclass
class Tally:
    """Operations attempted and failed, and each input's first output."""

    attempted: int = 0
    failed: int = 0
    references: dict[int, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def checked_op(workload, inputs: list, index: int, tally: Tally, pins,
               tracer=None, op_id: int = 0):
    """Run, time and check one operation on ``inputs[index]``.

    Returns ``(seconds, output)``; only the operation itself is timed.
    An operation that raises or fails a check is counted in
    ``tally.failed``.  ``pins`` holds one pinned fingerprint per input,
    or is ``None``.
    """
    tally.attempted += 1
    item = inputs[index]
    gc.collect()  # every operation starts from the same heap
    if tracer is not None:
        tracer.install()
        span = tracer.begin_op(op_id)
    start = time.perf_counter()
    try:
        output = workload.op(item)
    except Exception:
        elapsed = time.perf_counter() - start
        tally.failed += 1
        tally.problems.append(traceback.format_exc(limit=3))
        return elapsed, None
    finally:
        if tracer is not None:
            tracer.exit(span)
            tracer.uninstall()
    elapsed = time.perf_counter() - start
    problems = workload.check(item, output)
    fingerprint = workload.fingerprint(output)
    if fingerprint != tally.references.setdefault(index, fingerprint):
        problems.append("output differs from the run's first operation "
                        "on the same input")
    if pins is not None and not workload.matches_pin(fingerprint,
                                                     pins[index]):
        problems.append(f"output does not match the pin: {fingerprint}")
    if problems:
        tally.failed += 1
        tally.problems.extend(problems)
    return elapsed, output


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


def setup_probe(workload_name: str, seed: int) -> float:
    """Seconds for a fresh process to import ``repro`` and build inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
    return time.perf_counter() - start


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    return "/".join(f"{q:.4f}" for q in statistics.quantiles(values, n=4))


def measure(workload, seed: int, seconds: float, tally: Tally,
            pins) -> dict[str, float]:
    """End-to-end metrics; nothing here is traced.

    ``run_s`` is scaled to the reference host speed (:mod:`hostspeed`):
    the mean operation time over the mean time of the reference, which
    runs before each operation and after the last.  ``setup_s`` is the
    unscaled median: start-up and imports do not slow down with the
    reference (scaling widened its spread from 10% to 18-32%).
    """
    probes = [setup_probe(workload.name, seed) for _ in range(SETUP_PROBES)]
    inputs = workload.build(seed)
    checked_op(workload, inputs, 0, tally, pins)  # warm-up, untimed
    times: list[float] = []
    refs: list[float] = []
    start = cycle_start = time.perf_counter()
    while True:
        refs.append(reference_s())
        times.append(checked_op(workload, inputs, len(times) % len(inputs),
                                tally, pins)[0])
        if len(times) % len(inputs):
            continue  # stop only after whole cycles through the inputs
        now = time.perf_counter()
        # Stop when another cycle like the last would overrun --seconds.
        if len(times) >= MIN_OPS and (now - start) + (now - cycle_start) \
                > seconds:
            break
        cycle_start = now
    refs.append(reference_s())
    scale = REFERENCE_S / statistics.fmean(refs)
    print(f"# {workload.name} seed={seed}: {len(times)} operations, wall "
          f"s q1/median/q3 {quartiles(times)} at {scale:.3f}x reference "
          f"host speed; setup s {quartiles(probes)}")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"run_s": statistics.fmean(times) * scale,
            "setup_s": statistics.median(probes),
            "peak_rss_mb": rss_kb / 1024}


def measure_traced(workload, seed: int, seconds: float, tally: Tally,
                   pins) -> dict[str, float]:
    """Per-layer metrics: untraced and traced operations alternate.

    Seconds and rates are scaled to the reference host speed, as in
    :func:`measure`.
    """
    tracer = Tracer()
    inputs = workload.build(seed)
    checked_op(workload, inputs, 0, tally, pins)  # warm-up, untimed
    plain: list[float] = []
    traced: list[float] = []
    refs: list[float] = []
    rates: dict[str, list[float]] = {}
    start = time.perf_counter()
    while True:
        refs.append(reference_s())
        if len(plain) <= len(traced):
            elapsed, output = checked_op(workload, inputs,
                                         len(plain) % len(inputs), tally,
                                         pins)
            plain.append(elapsed)
            if output is not None:
                for method, rate in workload.tok_per_s(output).items():
                    rates.setdefault(method, []).append(rate)
            output = None
        else:
            traced.append(checked_op(workload, inputs,
                                     len(traced) % len(inputs), tally, pins,
                                     tracer=tracer, op_id=len(traced))[0])
        spent = time.perf_counter() - start
        if traced and spent + max(plain[-1], traced[-1]) > seconds:
            break
    refs.append(reference_s())
    scale = REFERENCE_S / statistics.fmean(refs)
    metrics = {
        name: value * scale if name.endswith((".s", ".self_s")) else value
        for name, value in tracer.layer_metrics(len(traced)).items()
    }
    for method in PAPER_COMPARISON:
        values = rates.get(method)
        metrics[f"sim.tok_per_s.{method}"] = \
            statistics.median(values) / scale if values else 0.0
    metrics["trace.overhead"] = \
        statistics.fmean(traced) / statistics.fmean(plain) - 1
    path = OUT / f"trace_{workload.name}_{seed}.json"
    tracer.write_chrome(path)
    print(f"# {workload.name} seed={seed}: {len(plain)} untraced and "
          f"{len(traced)} traced operations at {scale:.3f}x reference "
          f"speed; {len(tracer.spans)} spans, those of the first traced "
          f"operation written to {path.relative_to(ROOT)}")
    return metrics


def report(tally: Tally, metrics: dict[str, float], section: str) -> None:
    """Print the result line: every metric ``BENCHMARK.json`` declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))


def self_check() -> int:
    """Show that each kind of wrong output is counted as a failure."""

    class DropOneRequest:
        """A workload whose output lost one finished request."""

        def __init__(self, workload):
            self.workload = workload

        def __getattr__(self, name):
            return getattr(self.workload, name)

        def op(self, scenario):
            output = self.workload.op(scenario)
            next(iter(output.artifact.results.values())).requests.pop()
            return output

    sim = replace(WORKLOADS["imdb_short"], n_requests=40)
    sim_inputs = sim.build(1)
    digest = sim.fingerprint(sim.op(sim_inputs[0]))
    acc = WORKLOADS["accuracy_kv"]
    acc_inputs = acc.build(1)
    values = acc.op(acc_inputs[0])
    wrong_values = dict(values, hack_pi64=values["hack_pi64"] * (1 + 1e-6))
    cases = [
        ("right sim digest", sim, sim_inputs, [digest], 0),
        ("wrong sim digest", sim, sim_inputs, ["0" * 64], 1),
        ("lost request", DropOneRequest(sim), sim_inputs, None, 1),
        ("right accuracy values", acc, acc_inputs, [values], 0),
        ("wrong accuracy value", acc, acc_inputs, [wrong_values], 1),
    ]
    ok = True
    for label, workload, inputs, pins, want in cases:
        tally = Tally()
        checked_op(workload, inputs, 0, tally, pins)
        passed = tally.attempted == 1 and tally.failed == want
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {label}: {tally.failed} of "
              f"{tally.attempted} operations counted as failed "
              f"(expected {want}) {tally.problems[:1]}")
    return 0 if ok else 1


def update_pins(names: list[str]) -> int:
    """Pin the named workloads' fingerprints for each of :data:`PIN_SEEDS`.

    The pins of other workloads are kept.
    """
    pins = load_pins()
    for name in names:
        workload = WORKLOADS[name]
        pins[name] = {}
        for seed in PIN_SEEDS:
            inputs = workload.build(seed)
            tally = Tally()
            for index in range(len(inputs)):
                checked_op(workload, inputs, index, tally, None)
            if tally.failed:
                print(f"{name} seed {seed} fails its checks: "
                      f"{tally.problems}", file=sys.stderr)
                return 1
            pins[name][str(seed)] = [tally.references[i]
                                     for i in range(len(inputs))]
            print(f"pinned {name} seed {seed}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--update-pins", action="store_true")
    args = parser.parse_args(argv)
    import_program()
    if args.self_check:
        return self_check()
    if args.update_pins:
        return update_pins([args.workload] if args.workload
                           else list(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.build(args.seed)
        return 0
    pins = load_pins().get(workload.name, {}).get(str(args.seed))
    tally = Tally()
    if args.trace:
        metrics = measure_traced(workload, args.seed, args.seconds, tally,
                                 pins)
        section = "per_layer"
    else:
        metrics = measure(workload, args.seed, args.seconds, tally, pins)
        section = "end_to_end"
    print(f"# checks: {tally.attempted - tally.failed} of {tally.attempted} "
          f"operations passed; outputs "
          f"{'compared with' if pins is not None else 'have no'} pins for "
          f"seed {args.seed}")
    for problem in tally.problems[:5]:
        print(f"# problem: {problem}", file=sys.stderr)
    report(tally, metrics, section)
    return 0


if __name__ == "__main__":
    sys.exit(main())
