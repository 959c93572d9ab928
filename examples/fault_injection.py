"""Fault injection, recovery and graceful degradation in five minutes.

Walks the reliability side of the API:

1. a healthy run vs a crash-prone fleet — availability, retries and
   wasted compute from the ``faults`` summary block;
2. recovery policies compared on flaky KV transfers: fail-fast
   (``none``), exponential backoff (``retry``) and instant
   re-dispatch (``migrate``);
3. the tiered KV store as a recovery accelerator — a crash victim's
   cached prefix survives, so the retry reads the store instead of
   re-prefilling the whole conversation;
4. graceful degradation: congestion-triggered compression escalation
   while most of the decode fleet is down;
5. registering a *custom* fault family — the registry is open,
   exactly like method, arrival, scheduler and eviction families.

Every fault timeline is deterministic (seeded from the plan's
canonical string), so each section prints the same numbers on every
run.

Run:  PYTHONPATH=src python examples/fault_injection.py
"""

from repro.api import Runner, Scenario
from repro.sim import FaultFamily, register_fault
from repro.spec import Param

#: Multi-turn conversations give the KV store a prefix worth caching.
SESSIONS = "sessions?turns=4.0,think_time=10.0,prefix_growth=0.3"
N_REQUESTS = 40   # keep the demo fast; drop for paper-fidelity traces


def section(title):
    print(f"\n=== {title} ===")


def reliability(artifact, method="hack"):
    """The ``faults`` summary block (None on unfaulted runs)."""
    return artifact.methods[method].summary.get("faults")


def main():
    runner = Runner()
    base = Scenario(methods=("hack",), n_requests=N_REQUESTS, seed=3)

    section("1. Healthy fleet vs crash-prone fleet")
    healthy = runner.run(base)
    crashed = runner.run(base.replace(
        faults="replica_crash?mttf=20,mttr=5",
        recovery="retry?max=3,base_s=0.5"))
    s = healthy.methods["hack"].summary
    print(f"  healthy    avg JCT {s['avg_jct_s']:6.2f}s  "
          f"(no faults block: {reliability(healthy) is None})")
    s, rel = crashed.methods["hack"].summary, reliability(crashed)
    print(f"  crashing   avg JCT {s['avg_jct_s']:6.2f}s  "
          f"availability {rel['availability']:.2f}  "
          f"recovered {rel['n_recovered']}  retries {rel['n_retries']}  "
          f"wasted {rel['wasted_compute_s']:.1f}s "
          f"({rel['wasted_work_fraction']:.0%} of compute)")

    section("2. Recovery policies on flaky KV transfers")
    flap = base.replace(faults="transfer_flap?p_fail=0.35")
    print(f"  {'policy':28s} {'avail':>6s} {'failed':>6s} "
          f"{'recovered':>9s} {'goodput rps':>11s}")
    for recovery in ("none", "retry?max=3,base_s=0.5,cap_s=4",
                     "migrate"):
        art = runner.run(flap.replace(recovery=recovery))
        rel = reliability(art)
        print(f"  {recovery:28s} {rel['availability']:6.2f} "
              f"{rel['n_failed']:6d} {rel['n_recovered']:9d} "
              f"{rel['goodput_under_faults_rps']:11.3f}")

    section("3. The KV store turns re-prefill into a cache read")
    crashy_sessions = base.replace(arrival=SESSIONS,
                                   faults="replica_crash?mttf=15,mttr=5",
                                   recovery="retry?max=3,base_s=0.5")
    for kvstore in (None, "tiered?dram_gb=8.0"):
        art = runner.run(crashy_sessions.replace(kvstore=kvstore))
        rel = reliability(art)
        kv = art.methods["hack"].summary.get("kvstore")
        skipped = kv["prefill_tokens_skipped"] if kv else 0
        print(f"  {kvstore or '(no store)':24s} "
              f"wasted {rel['wasted_compute_s']:6.1f}s  "
              f"{skipped:6d} prefill tokens read from cache")

    section("4. Graceful degradation under capacity loss")
    # Three of four decode replicas crash-loop; the congestion policy
    # folds the lost capacity into its signal and escalates to the
    # stronger-compression method until repairs land.
    outage = base.replace(kvstore="tiered?dram_gb=8.0",
                          faults="replica_crash?mttf=15,mttr=30,replicas=3",
                          recovery="retry?max=3,base_s=0.5")
    for selection in (None, "congestion?hi=0.4,lo=0.2"):
        art = runner.run(outage.replace(selection=selection))
        s = art.methods["hack"].summary
        mix = {m: n for counts in s.get("selection_mix", {}).values()
               for m, n in counts.items()}
        mix = mix or {"hack": s["n_requests"]}
        print(f"  {selection or '(static)':26s} "
              f"avg JCT {s['avg_jct_s']:6.2f}s  method mix {mix}")

    section("5. Registering a custom fault family")

    @register_fault
    class MaintenanceFault(FaultFamily):
        """A scheduled maintenance window: one decode replica is taken
        down at a known time and comes back after ``duration`` — no
        randomness, unlike ``replica_crash``."""

        name = "maintenance"
        description = "planned downtime for one decode replica"
        params = {"start": Param(60.0, "window start (s)"),
                  "duration": Param(120.0, "window length (s)"),
                  "replica": Param(0.0, "decode replica index")}

        def events(self, rng, horizon_s, n_prefill, n_decode):
            idx = min(int(self.p["replica"]), n_decode - 1)
            return [
                (self.p["start"], "replica_down", ("decode", idx)),
                (self.p["start"] + self.p["duration"],
                 "replica_up", ("decode", idx)),
            ]

    art = runner.run(base.replace(faults="maintenance?start=5,duration=60",
                                  recovery="migrate"))
    rel = reliability(art)
    print(f"  maintenance?start=5,duration=60  "
          f"availability {rel['availability']:.2f}  "
          f"migrated {rel['n_recovered']}  "
          f"wasted {rel['wasted_compute_s']:.1f}s")


if __name__ == "__main__":
    main()
