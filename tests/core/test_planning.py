"""Chain provisioning helper."""

import pytest

from repro.analysis import plan_chain


class TestPlanChain:
    def test_basic_sizing(self):
        # 10 msg/s, base mode, 1 hour -> 36000 exchanges -> 72000 elems.
        plan = plan_chain(10.0, batch_size=1, target_lifetime_s=3600)
        assert plan.exchanges_supported >= 36000
        assert plan.chain_length % 2 == 0
        assert plan.expected_lifetime_s >= 3600

    def test_batching_shrinks_chains(self):
        base = plan_chain(10.0, batch_size=1)
        batched = plan_chain(10.0, batch_size=10)
        assert batched.chain_length == pytest.approx(base.chain_length / 10, rel=0.01)

    def test_checkpointing_cuts_storage(self):
        plan = plan_chain(50.0, target_lifetime_s=3600)
        assert plan.storage_bytes_checkpointed < plan.storage_bytes_full / 10

    def test_cap_forces_rekeying(self):
        plan = plan_chain(1000.0, target_lifetime_s=86400, max_length=4096)
        assert plan.chain_length == 4096
        assert plan.expected_lifetime_s < 86400
        assert plan.rekeys_per_day > 1

    def test_sensor_scenario_fits_ram(self):
        # 1 reading per 10 s, daily re-key, checkpointed: must fit well
        # inside a CC2430-class 8 KiB RAM budget (hash size 16).
        plan = plan_chain(0.1, batch_size=5, target_lifetime_s=86400,
                          hash_size=16)
        assert plan.storage_bytes_checkpointed < 8 * 1024 / 2

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_chain(0)
        with pytest.raises(ValueError):
            plan_chain(1, batch_size=0)
        with pytest.raises(ValueError):
            plan_chain(1, target_lifetime_s=0)
