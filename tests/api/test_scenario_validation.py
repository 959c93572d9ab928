"""Invalid scenario combinations fail when the Scenario is built, not
mid-run; nothing below the trace-length floor is clamped silently."""

from dataclasses import replace

import pytest

import repro.api.runner as runner_mod
from repro.api import Runner, Scenario, Sweep
from repro.api.runner import resolve
from repro.api.scenario import MIN_REQUESTS
from repro.methods import get_method
from repro.model import get_model
from repro.sim import default_cluster


class TestRequestCount:
    def test_explicit_count_below_floor_rejected(self):
        with pytest.raises(ValueError, match="n_requests must be >= 10"):
            Scenario(n_requests=8)

    def test_floor_itself_accepted(self):
        assert Scenario(n_requests=MIN_REQUESTS).n_requests == MIN_REQUESTS

    def test_scale_derived_count_still_floored(self):
        resolved = resolve(Scenario(dataset="imdb", methods=("baseline",),
                                    n_requests=20, scale=0.05))
        assert resolved.n_requests == MIN_REQUESTS


class TestKVStoreOutage:
    def test_outage_without_store_rejected(self):
        with pytest.raises(ValueError, match="need a kvstore"):
            Scenario(faults="kvstore_outage")

    def test_outage_of_missing_tier_rejected(self):
        with pytest.raises(ValueError, match="tier 'hbm' is not in"):
            Scenario(faults="transfer_flap+kvstore_outage?tier=hbm",
                     kvstore="tiered?hbm_gb=0.0")

    def test_outage_of_configured_tier_accepted(self):
        scenario = Scenario(faults="kvstore_outage?tier=pool",
                            kvstore="tiered")
        assert scenario.faults == "kvstore_outage?tier=pool"

    def test_unknown_store_family_left_to_resolution(self):
        scenario = Scenario(faults="kvstore_outage", kvstore="custom_store")
        assert scenario.kvstore == "custom_store"


class TestReplicaCounts:
    @pytest.mark.parametrize("field", ["n_prefill_replicas",
                                       "n_decode_replicas"])
    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, field, count):
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            Scenario(n_requests=10, **{field: count})

    @pytest.mark.parametrize("field", ["n_prefill_replicas",
                                       "n_decode_replicas"])
    def test_cluster_config_rejects_count_below_one(self, field):
        config = default_cluster(get_model("L"), get_method("baseline"),
                                 "A10G")
        with pytest.raises(ValueError, match=f"{field} must be >= 1"):
            replace(config, **{field: 0})

    def test_one_replica_per_role_runs(self):
        artifact = Runner().run(Scenario(
            dataset="imdb", n_requests=10, n_prefill_replicas=1,
            n_decode_replicas=1))
        assert artifact.methods["baseline"].summary["n_requests"] == 10


class TestHeterogeneousFleet:
    def test_replica_override_rejected(self):
        with pytest.raises(ValueError, match="heterogeneous prefill fleet"):
            Scenario(prefill_gpu="A10G:2+T4:4", n_prefill_replicas=6)

    def test_single_fleet_override_accepted(self):
        scenario = Scenario(prefill_gpu="A10G", n_prefill_replicas=3)
        assert scenario.n_prefill_replicas == 3


class TestSweepFailsBeforeRunning:
    @pytest.mark.parametrize("base, axis, match", [
        (Scenario(methods=("baseline",), n_requests=10),
         {"faults": ["transfer_flap", "kvstore_outage"]}, "need a kvstore"),
        (Scenario(methods=("baseline",), n_requests=10,
                  prefill_gpu="A10G+T4"),
         {"n_prefill_replicas": [2, 3]}, "heterogeneous prefill fleet"),
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_cell_raises_before_any_simulation(
            self, monkeypatch, base, axis, match, workers):
        calls = []
        monkeypatch.setattr(runner_mod, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match=match):
            Runner(workers=workers).run_sweep(Sweep(base, axes=axis))
        assert calls == []
