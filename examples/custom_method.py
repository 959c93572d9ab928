"""Defining your own method: a custom family, registered and swept.

The method layer is open: a method is a *family* (registered with
``@register_family``) plus parameters, and anything the built-in
families can do — CLI strings, JSON round-trips, sweep axes — works
for user families too.  This example registers a toy "token dropping"
family (keep a fraction of the KV cache at FP16, discard the rest),
then:

1. builds perf-model Methods from specs, strings and dicts;
2. runs it head-to-head against the paper's methods in one Scenario;
3. sweeps its parameter with a ``method.keep`` axis — the same
   mechanism as ``--axis method.partition_size=32,64,128,256`` on the
   real HACK family.

Run:  PYTHONPATH=src python examples/custom_method.py
"""

from repro.api import Runner, Scenario, Sweep
from repro.methods import (
    FP16_BYTES,
    Method,
    MethodFamily,
    MethodSpec,
    register_family,
    resolve_method,
)
from repro.spec import Param

SCALE = 0.1   # keep the demo fast; drop for paper-fidelity traces


@register_family("drop")
class TokenDropFamily(MethodFamily):
    """Toy eviction 'codec': keep a fraction of KV entries at FP16.

    Perf-model only (no accuracy-side compressors): wire and resident
    bytes shrink linearly with ``keep``, and nothing else changes — no
    dequantization pass, no quantization cost, no integer kernels.
    """

    description = "keep a fraction of FP16 KV, drop the rest"
    params = {
        "keep": Param(0.5, doc="fraction of KV entries kept"),
    }

    def build_method(self, *, keep):
        if not 0.0 < keep <= 1.0:
            raise ValueError(f"keep must be in (0, 1], got {keep}")
        return Method(
            name=f"drop{int(round(100 * (1 - keep)))}",
            display_name=f"Token drop ({keep:.0%} kept)",
            kv_wire_bytes_per_value=FP16_BYTES * keep,
            kv_mem_bytes_per_value=FP16_BYTES * keep,
        )


def section(title):
    print(f"\n=== {title} ===")


def main():
    section("1. One family, many spellings")
    spec = MethodSpec.of("drop", keep=0.25)
    print(f"spec object : {spec!r}")
    print(f"string form : {spec.canonical()}")
    print(f"JSON form   : {spec.to_dict()}")
    for ref in (spec, "drop?keep=0.25", {"family": "drop", "keep": 0.25}):
        method = resolve_method(ref)
        print(f"  {str(ref)!r:42} -> {method.name} "
              f"({method.compression_ratio:.0%} compression)")

    section("2. Head-to-head with the paper's methods")
    scenario = Scenario(dataset="imdb", scale=SCALE,
                        methods=("baseline", "hack", "drop?keep=0.25"))
    artifact = Runner().run(scenario)
    print(artifact.summary_table().render())

    section("3. Sweeping the family parameter (method.keep axis)")
    sweep = Sweep(Scenario(dataset="imdb", scale=SCALE, methods=("drop",)),
                  axes={"method.keep": [0.25, 0.5, 1.0]})
    for art in Runner().run_sweep(sweep):
        method, = art.scenario.methods
        jct = art.methods[method].summary["avg_jct_s"]
        print(f"  {art.scenario.name:18} {method:15} avg JCT {jct:6.2f}s")
    print("\n(same sweep via the CLI entry point — families live in the "
          "registering process, so call it from here:)")
    from repro.cli import main as cli_main
    cli_main(["sweep", "--methods", "drop",
              "--axis", "method.keep=0.25,0.5", "--scale", str(SCALE),
              "--dataset", "imdb"])


if __name__ == "__main__":
    main()
