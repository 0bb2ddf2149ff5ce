"""Relay directory: registration, TTL liveness, ranked multi-hop paths.

The directory is benchmark scaffolding (``benchmarks/directory.py``)
for the flows×relays grid; the protocol itself never consults it.
"""

import pytest

from benchmarks.directory import RelayDirectory
from repro.core.resilience import PathManager


class TestRegistrationAndLiveness:
    def test_register_heartbeat_expire(self):
        d = RelayDirectory(ttl_s=10.0)
        d.register("r1", now=0.0)
        d.register("r2", now=0.0)
        d.heartbeat("r1", now=9.0)
        # r2 never heartbeats: the sweep at t=15 drops it, keeps r1.
        live = d.live(now=15.0)
        assert [r.name for r in live] == ["r1"]
        assert d.expired == 1
        assert len(d) == 1

    def test_heartbeat_unknown_relay_raises(self):
        d = RelayDirectory()
        with pytest.raises(LookupError):
            d.heartbeat("ghost", now=0.0)

    def test_reregistration_refreshes_instead_of_duplicating(self):
        d = RelayDirectory(ttl_s=5.0)
        d.register("r1", now=0.0, region="west")
        d.register("r1", now=4.0, region="east")
        assert len(d) == 1
        record = d.live(now=8.0)[0]  # survived thanks to the refresh
        assert record.meta["region"] == "east"

    def test_deregister(self):
        d = RelayDirectory()
        d.register("r1", now=0.0)
        d.deregister("r1")
        assert d.live(now=0.0) == []


class TestPathConstruction:
    def test_paths_prefer_least_loaded_and_stay_disjoint(self):
        d = RelayDirectory(ttl_s=100.0)
        d.register("busy", now=0.0)
        d.register("calm", now=0.0)
        d.register("idle", now=0.0)
        d.heartbeat("busy", now=0.0, load=50)
        d.heartbeat("calm", now=0.0, load=5)
        paths = d.paths("client", "server", now=1.0, hops=1, count=3)
        # Ranked by advertised load; hop-disjoint while relays last.
        assert [p.hops for p in paths] == [("idle",), ("calm",), ("busy",)]
        assert all(p.path_id.startswith("via:") for p in paths)

    def test_assignment_spreads_between_heartbeats(self):
        d = RelayDirectory(ttl_s=100.0)
        d.register("r1", now=0.0)
        d.register("r2", now=0.0)
        # Two single-path fetches by different clients: provisional
        # assignment counts steer the second fetch off the first relay.
        (first,) = d.paths("c1", "server", now=1.0, hops=1, count=1)
        (second,) = d.paths("c2", "server", now=1.0, hops=1, count=1)
        assert first.hops != second.hops
        # A load-bearing heartbeat resets the provisional counts.
        d.heartbeat("r1", now=2.0, load=0)
        d.heartbeat("r2", now=2.0, load=3)
        (third,) = d.paths("c3", "server", now=3.0, hops=1, count=1)
        assert third.hops == ("r1",)

    def test_multi_hop_paths_and_pool_exhaustion(self):
        d = RelayDirectory(ttl_s=100.0)
        for i in range(5):
            d.register(f"r{i}", now=0.0)
        paths = d.paths("client", "server", now=1.0, hops=2, count=3)
        # 5 relays / 2 hops: two fully disjoint paths, then the third
        # reuses the least-loaded relays rather than being refused.
        assert len(paths) == 3
        assert all(len(p.hops) == 2 for p in paths)
        flat = [hop for p in paths[:2] for hop in p.hops]
        assert len(set(flat)) == len(flat)  # first two share nothing

    def test_endpoints_never_relay_for_themselves(self):
        d = RelayDirectory(ttl_s=100.0)
        d.register("client", now=0.0)
        d.register("server", now=0.0)
        d.register("r1", now=0.0)
        paths = d.paths("client", "server", now=0.0, hops=1, count=3)
        assert [p.hops for p in paths] == [("r1",)]

    def test_expired_relays_never_appear_on_paths(self):
        d = RelayDirectory(ttl_s=5.0)
        d.register("fresh", now=8.0)
        d.register("stale", now=0.0)
        paths = d.paths("c", "s", now=10.0, hops=1, count=5)
        assert [p.hops for p in paths] == [("fresh",)]

    def test_zero_hop_request_rejected(self):
        d = RelayDirectory()
        with pytest.raises(ValueError):
            d.paths("c", "s", now=0.0, hops=0)


class TestPathManagerIntegration:
    def test_populate_feeds_path_manager_idempotently(self):
        d = RelayDirectory(ttl_s=100.0)
        for i in range(3):
            d.register(f"r{i}", now=0.0)
        manager = PathManager()
        added = d.populate(manager, "client", "server", now=1.0, hops=1,
                           count=3)
        assert added == 3
        assert len(manager.candidates("server")) == 3
        # A refresh re-offers the same path ids: nothing duplicated, no
        # ValueError out of PathManager.register.
        assert d.populate(manager, "client", "server", now=2.0, hops=1,
                          count=3) == 0
        assert len(manager.candidates("server")) == 3

    def test_populated_paths_fail_over(self):
        d = RelayDirectory(ttl_s=100.0)
        d.register("r1", now=0.0)
        d.register("r2", now=0.0)
        manager = PathManager()
        d.populate(manager, "client", "server", now=0.0, hops=1, count=2)
        active = manager.active("server")
        promoted = manager.fail_over("server")
        assert promoted is not None
        assert promoted.path_id != active.path_id
