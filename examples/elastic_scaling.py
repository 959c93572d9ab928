"""Elastic clusters, admission control and GPU-hour efficiency in
five minutes.

Walks the cost-efficiency side of the API:

1. a peak-sized static fleet vs a reactive autoscaler on a diurnal
   day — GPU-hours billed and goodput per GPU-hour from the summary;
2. a time-of-day ``schedule`` plan that halves the fleet through the
   trough, no feedback loop needed;
3. queue-cap admission (``shed``) bounding tail TTFT under overload;
4. tier-aware degradation: low-SLO-tier requests run a cheaper
   compression method instead of being rejected;
5. registering a *custom* autoscaler and a *custom* admission policy
   — both registries are open, exactly like method, arrival, fault
   and eviction families.

Scaling is deterministic (the autoscaler evaluates on a fixed
interval over deterministic queue state), so each section prints the
same numbers on every run.

Run:  PYTHONPATH=src python examples/elastic_scaling.py
"""

from repro.api import Runner, Scenario
from repro.sim import (
    AdmissionPolicy,
    AutoscalerPolicy,
    register_admission,
    register_autoscaler,
)
from repro.spec import Param

#: One diurnal cycle with a deep trough — the regime where elastic
#: scaling pays (amp=0.9 drops the trough to 10% of peak).
DIURNAL = "diurnal?amp=0.9,period=240.0"

#: Fast-reacting policy so the short demo trace shows real scaling.
REACTIVE = ("reactive?queue_hi=4,queue_lo=1,cooldown_s=15,"
            "interval_s=3,cold_start_s=8")

N_REQUESTS = 40   # keep the demo fast; drop for paper-fidelity traces


def section(title):
    print(f"\n=== {title} ===")


def cost(artifact, method="hack"):
    """The cost pair + elastic block from the summary."""
    s = artifact.methods[method].summary
    return s["gpu_hours"], s["goodput_per_gpu_hour"], s.get("elastic")


def main():
    runner = Runner()
    base = Scenario(methods=("hack",), n_requests=N_REQUESTS, seed=3,
                    arrival=DIURNAL, load_factor=0.4,
                    n_prefill_replicas=4)

    section("1. Peak-sized static fleet vs reactive autoscaler")
    static = runner.run(base.replace(autoscaler="static"))
    reactive = runner.run(base.replace(autoscaler=REACTIVE))
    for name, art in (("static", static), ("reactive", reactive)):
        hours, eff, el = cost(art)
        print(f"  {name:9s} gpu_hours {hours:6.3f}  "
              f"goodput/GPUh {eff:6.2f}  "
              f"mean prefill replicas {el['mean_prefill_replicas']:.2f}"
              f"/4  scale events {el['scaling_events']}")

    section("2. Time-of-day schedule (no feedback loop)")
    planned = runner.run(base.replace(
        autoscaler="schedule?plan=0:1.0|120:0.3,period_s=240,"
                   "interval_s=3,cold_start_s=8"))
    hours, eff, el = cost(planned)
    print(f"  schedule  gpu_hours {hours:6.3f}  goodput/GPUh {eff:6.2f}"
          f"  downs {el['n_scale_downs']}  ups {el['n_scale_ups']}")

    section("3. Queue-cap shedding bounds tail TTFT under overload")
    hot = base.replace(arrival="poisson", load_factor=1.4)
    open_door = runner.run(hot)
    capped = runner.run(hot.replace(admission="shed?queue_max=10"))
    p99 = open_door.methods["hack"].summary["p99_ttft_s"]
    print(f"  accept_all          p99 TTFT {p99:7.1f}s  shed 0")
    s = capped.methods["hack"].summary
    print(f"  shed?queue_max=10   p99 TTFT {s['p99_ttft_s']:7.1f}s  "
          f"shed {s['elastic']['n_shed']}")

    section("4. Tier-aware degradation instead of rejection")
    tiered = runner.run(Scenario(
        methods=("hack",), n_requests=N_REQUESTS, seed=3,
        load_factor=0.8, arrival="sessions?turns=2,tiers=3",
        admission="degrade?tier=1,method=hack_int4"))
    s = tiered.methods["hack"].summary
    mix = {}
    for rec in tiered.methods["hack"].requests:
        m = rec.get("method_selected", "hack")
        mix[m] = mix.get(m, 0) + 1
    print(f"  degraded {s['elastic']['n_degraded']} low-tier requests; "
          f"served mix {mix}")

    section("5. Custom policies: registries are open")

    @register_autoscaler
    class TroughHalver(AutoscalerPolicy):
        name = "trough_halver"
        description = "halve the fleet whenever the backlog is empty"
        params = {"interval_s": Param(3.0, "evaluation period"),
                  "cold_start_s": Param(8.0, "boot delay")}

        def desired(self, now, sim, n_prefill, n_decode, cur_prefill,
                    cur_decode):
            if sim.prefill_backlog() == 0:
                return max(1, n_prefill // 2), max(1, n_decode // 2)
            return n_prefill, n_decode

    @register_admission
    class VIPOnlyUnderLoad(AdmissionPolicy):
        name = "vip_only"
        description = "shed every non-zero tier once a backlog forms"
        params = {"queue_max": Param(8.0, "backlog threshold")}

        def admit(self, now, req, sim):
            if (req.trace.slo_tier > 0
                    and sim.prefill_backlog() >= self.p["queue_max"]):
                return "shed"
            return None

    custom = runner.run(Scenario(
        methods=("hack",), n_requests=N_REQUESTS, seed=3,
        load_factor=0.9, arrival="sessions?turns=2,tiers=3",
        autoscaler="trough_halver", admission="vip_only?queue_max=6"))
    hours, eff, el = cost(custom)
    print(f"  trough_halver + vip_only: gpu_hours {hours:.3f}  "
          f"goodput/GPUh {eff:.2f}  downs {el['n_scale_downs']}  "
          f"shed {el['n_shed']}")


if __name__ == "__main__":
    main()
