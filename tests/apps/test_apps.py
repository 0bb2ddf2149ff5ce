"""HIP-like signaling, middleboxes, and adaptive streaming."""

import pytest

from repro.apps.signaling import (
    CLOSE,
    RATE_LIMIT,
    UPDATE_LOCATOR,
    HipHost,
    Middlebox,
    SignalingMessage,
)
from repro.apps.streaming import AdaptivePolicy, StreamingSink, StreamingSource
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode
from repro.crypto.drbg import DRBG
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter, RelayAdapter


class TestSignalingMessage:
    def test_round_trip(self):
        message = SignalingMessage(UPDATE_LOCATOR, {"locator": "10.0.0.7", "ttl": "30"})
        assert SignalingMessage.decode(message.encode()) == message

    def test_empty_params(self):
        message = SignalingMessage(KEEPALIVE := "keepalive")
        assert SignalingMessage.decode(message.encode()) == message

    def test_unicode_params(self):
        message = SignalingMessage("note", {"text": "héllo wörld"})
        assert SignalingMessage.decode(message.encode()).params["text"] == "héllo wörld"

    def test_garbage_rejected(self):
        with pytest.raises(Exception):
            SignalingMessage.decode(b"\xff\xff\xff")


def signaling_network():
    net = Network.chain(3)
    a = HipHost(net.nodes["s"], seed=1)
    b = HipHost(net.nodes["v"], seed=2)
    boxes = [Middlebox(net.nodes["r1"]), Middlebox(net.nodes["r2"])]
    a.associate("v")
    net.simulator.run(until=1.0)
    assert a.established("v")
    return net, a, b, boxes


class TestHipSignaling:
    def test_locator_update_reaches_peer_and_middleboxes(self):
        net, a, b, boxes = signaling_network()
        a.update_locator("v", "2001:db8::99")
        net.simulator.run(until=5.0)
        inbox = b.drain_inbox()
        assert len(inbox) == 1
        peer, message = inbox[0]
        assert peer == "s" and message.kind == UPDATE_LOCATOR
        for box in boxes:
            box.process()
            assert box.locator_bindings["s"] == "2001:db8::99"

    def test_rate_limit_signal(self):
        net, a, b, boxes = signaling_network()
        a.signal("v", SignalingMessage(RATE_LIMIT, {"bps": "50000"}))
        net.simulator.run(until=5.0)
        boxes[0].process()
        assert boxes[0].rate_limits["s"] == 50000.0

    def test_close_signal(self):
        net, a, b, boxes = signaling_network()
        assoc_id = a.endpoint.association("v").assoc_id
        a.signal("v", SignalingMessage(CLOSE))
        net.simulator.run(until=5.0)
        boxes[1].process()
        assert assoc_id in boxes[1].closed_associations

    def test_bidirectional_signaling(self):
        net, a, b, boxes = signaling_network()
        a.update_locator("v", "10.0.0.1")
        b.update_locator("s", "10.0.0.2")
        net.simulator.run(until=5.0)
        assert a.drain_inbox()[0][1].params["locator"] == "10.0.0.2"
        assert b.drain_inbox()[0][1].params["locator"] == "10.0.0.1"
        boxes[0].process()
        assert boxes[0].locator_bindings == {"s": "10.0.0.1", "v": "10.0.0.2"}

    def test_malformed_rate_limit_ignored(self):
        net, a, b, boxes = signaling_network()
        a.signal("v", SignalingMessage(RATE_LIMIT, {"bps": "not-a-number"}))
        net.simulator.run(until=5.0)
        boxes[0].process()
        assert boxes[0].rate_limits == {}

    def test_middlebox_counts_signaling(self):
        net, a, b, boxes = signaling_network()
        for i in range(3):
            a.signal("v", SignalingMessage(UPDATE_LOCATOR, {"locator": f"10.0.0.{i}"}))
        net.simulator.run(until=10.0)
        boxes[0].process()
        assert boxes[0].signaling_seen == 3
        # Last writer wins.
        assert boxes[0].locator_bindings["s"] == "10.0.0.2"


class TestAdaptivePolicy:
    def test_mode_selection_by_depth(self):
        policy = AdaptivePolicy(base_threshold=1, merkle_threshold=16, max_batch=64)
        assert policy.choose(0).mode is Mode.BASE
        assert policy.choose(1).mode is Mode.BASE
        assert policy.choose(2).mode is Mode.CUMULATIVE
        assert policy.choose(16).mode is Mode.CUMULATIVE
        assert policy.choose(17).mode is Mode.MERKLE

    def test_batch_clamped(self):
        policy = AdaptivePolicy(max_batch=8)
        assert policy.choose(100).batch_size == 8

    def test_batch_at_least_one(self):
        policy = AdaptivePolicy()
        assert policy.choose(0).batch_size == 1


def streaming_network(policy=None, chunk=512):
    net = Network.chain(4)
    cfg = EndpointConfig(chain_length=1024)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
    for i in (1, 2, 3):
        RelayAdapter(net.nodes[f"r{i}"])
    s.connect("v")
    net.simulator.run(until=1.0)
    source = StreamingSource(s, "v", chunk_size=chunk, policy=policy)
    sink = StreamingSink(v, "s")
    return net, source, sink


class TestStreaming:
    def test_stream_reassembly(self):
        net, source, sink = streaming_network()
        data = DRBG(42).random_bytes(8000)
        count = source.submit(data)
        assert count == 16  # ceil(8000/512)
        net.simulator.run(until=60.0)
        sink.pump()
        assert sink.contiguous_prefix() == data
        assert sink.bytes_received == 8000

    def test_adaptive_policy_switches_modes(self):
        net, source, sink = streaming_network(policy=AdaptivePolicy())
        data = DRBG(1).random_bytes(30 * 512)
        source.submit(data)
        signer = source.adapter.endpoint.association("v").signer
        assert signer.config.mode is Mode.MERKLE  # backlog of 30 chunks
        net.simulator.run(until=60.0)
        sink.pump()
        assert sink.contiguous_prefix() == data

    def test_incremental_submissions(self):
        net, source, sink = streaming_network(chunk=256)
        part1 = b"A" * 1000
        part2 = b"B" * 500
        source.submit(part1)
        net.simulator.run(until=20.0)
        source.submit(part2)
        net.simulator.run(until=60.0)
        sink.pump()
        assert sink.contiguous_prefix() == part1 + part2

    def test_missing_ranges(self):
        net, source, sink = streaming_network()
        sink.chunks = {0: b"x" * 100, 300: b"y" * 100}
        assert sink.missing_ranges(500) == [(100, 300), (400, 500)]

    def test_contiguous_prefix_stops_at_gap(self):
        net, source, sink = streaming_network()
        sink.chunks = {0: b"ab", 2: b"cd", 10: b"zz"}
        assert sink.contiguous_prefix() == b"abcd"

    def test_chunk_size_validation(self):
        net, source, sink = streaming_network()
        with pytest.raises(ValueError):
            StreamingSource(source.adapter, "v", chunk_size=0)


class TestRateEnforcement:
    """The paper's 'rate allocation enforced by intermediate nodes'."""

    def build(self, limit_bps):
        net = Network.chain(3)
        a = HipHost(net.nodes["s"], seed=31)
        b = HipHost(net.nodes["v"], seed=32)
        enforcer = Middlebox(net.nodes["r1"], enforce_rate_limits=True)
        Middlebox(net.nodes["r2"])
        a.associate("v")
        net.simulator.run(until=1.0)
        a.signal("v", SignalingMessage(RATE_LIMIT, {"bps": str(limit_bps)}))
        net.simulator.run(until=2.0)
        enforcer.process()
        assert enforcer.rate_limits["s"] == limit_bps
        b.drain_inbox()  # clear the RATE_LIMIT signal itself
        return net, a, b, enforcer

    def test_traffic_within_budget_passes(self):
        net, a, b, enforcer = self.build(limit_bps=1_000_000)
        for i in range(5):
            a.signal("v", SignalingMessage("keepalive", {"i": str(i)}))
        net.simulator.run(until=10.0)
        assert enforcer.rate_dropped == 0
        assert len(b.drain_inbox()) == 5

    def test_traffic_over_budget_policed(self):
        net, a, b, enforcer = self.build(limit_bps=2000)  # ~250 B/s
        for i in range(30):
            a.signal("v", SignalingMessage("keepalive", {"i": str(i)}))
        net.simulator.run(until=12.0)
        assert enforcer.rate_dropped > 0
        delivered = len(b.drain_inbox())
        assert delivered < 30

    def test_limit_applies_only_to_the_signer(self):
        # The limit was signed by s's chain; v's reverse traffic is
        # unaffected.
        net, a, b, enforcer = self.build(limit_bps=2000)
        for i in range(10):
            b.signal("s", SignalingMessage("keepalive", {"i": str(i)}))
        net.simulator.run(until=10.0)
        assert len(a.drain_inbox()) == 10
