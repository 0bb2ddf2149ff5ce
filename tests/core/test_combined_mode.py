"""Combined ALPHA-C+M mode (paper Section 3.3.2, last paragraph):
multiple Merkle roots per S1, each covering a slice of the batch."""

import math

import pytest

from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import S1Packet, decode_packet
from repro.core.signer import ChannelConfig
from repro.netsim import Network
from repro.transports.netsim import EndpointAdapter, RelayAdapter

from tests.core.test_sessions import make_channel

H = 20


def cm_config(batch, trees, reliability=ReliabilityMode.UNRELIABLE):
    return ChannelConfig(
        mode=Mode.MERKLE_CUMULATIVE,
        batch_size=batch,
        trees_per_s1=trees,
        reliability=reliability,
    )


def drive(sha1, signer, verifier, messages):
    for m in messages:
        signer.submit(m)
    s1 = decode_packet(signer.poll(0.0)[0], H)
    a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
    a2s = []
    for raw in signer.handle_a1(a1, 0.0):
        a2 = verifier.handle_s2(decode_packet(raw, H), 0.0)
        if a2 is not None:
            a2s.append(decode_packet(a2, H))
    for a2 in a2s:
        signer.handle_a2(a2, 0.0)
    return s1, [m.message for m in verifier.drain_delivered()]


class TestCombinedMode:
    @pytest.mark.parametrize("batch,trees", [(8, 2), (8, 4), (16, 4), (5, 4), (10, 3)])
    def test_delivery_with_multiple_roots(self, sha1, rng, batch, trees):
        signer, verifier = make_channel(sha1, rng, cm_config(batch, trees))
        messages = [b"cm-%d" % i for i in range(batch)]
        s1, delivered = drive(sha1, signer, verifier, messages)
        assert delivered == messages
        expected_roots = math.ceil(batch / math.ceil(batch / min(trees, batch)))
        assert len(s1.pre_signatures) == expected_roots

    def test_s1_carries_requested_roots(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng, cm_config(16, 4))
        for i in range(16):
            signer.submit(b"m%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], H)
        assert s1.mode is Mode.MERKLE_CUMULATIVE
        assert len(s1.pre_signatures) == 4
        assert s1.message_count == 16

    def test_shorter_paths_than_single_tree(self, sha1, rng):
        """The point of the mode: each S2's {Bc} shrinks by log2(k)."""
        single_s, single_v = make_channel(sha1, rng.fork("a"),
                                          ChannelConfig(mode=Mode.MERKLE, batch_size=16))
        multi_s, multi_v = make_channel(sha1, rng.fork("b"), cm_config(16, 4))
        messages = [b"x%d" % i for i in range(16)]

        def first_s2_path_len(signer, verifier):
            for m in messages:
                signer.submit(m)
            s1 = decode_packet(signer.poll(0.0)[0], H)
            a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
            s2 = decode_packet(signer.handle_a1(a1, 0.0)[0], H)
            return len(s2.auth_path)

        assert first_s2_path_len(single_s, single_v) == 4  # log2(16)
        assert first_s2_path_len(multi_s, multi_v) == 2  # log2(4)

    def test_tampered_block_rejected(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng, cm_config(8, 2))
        for i in range(8):
            signer.submit(b"m%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], H)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
        s2s = [decode_packet(raw, H) for raw in signer.handle_a1(a1, 0.0)]
        s2s[5].message = b"evil"
        for s2 in s2s:
            verifier.handle_s2(s2, 0.0)
        delivered = {m.msg_index for m in verifier.drain_delivered()}
        assert delivered == set(range(8)) - {5}

    def test_cross_tree_path_reuse_rejected(self, sha1, rng):
        """A valid proof from tree 0 must not verify a block of tree 1."""
        signer, verifier = make_channel(sha1, rng, cm_config(8, 2))
        for i in range(8):
            signer.submit(b"m%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], H)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), H)
        s2s = [decode_packet(raw, H) for raw in signer.handle_a1(a1, 0.0)]
        # Move message 0 (tree 0, leaf 0) to index 4 (tree 1, leaf 0),
        # keeping its valid tree-0 path.
        forged = s2s[0]
        forged.msg_index = 4
        verifier.handle_s2(forged, 0.0)
        assert verifier.drain_delivered() == []

    def test_reliable_cm_uses_single_amt(self, sha1, rng):
        signer, verifier = make_channel(
            sha1, rng, cm_config(8, 2, ReliabilityMode.RELIABLE)
        )
        messages = [b"r%d" % i for i in range(8)]
        _, delivered = drive(sha1, signer, verifier, messages)
        assert delivered == messages
        assert signer.stats.exchanges_completed == 1

    def test_trees_capped_at_message_count(self, sha1, rng):
        signer, verifier = make_channel(sha1, rng, cm_config(3, 10))
        messages = [b"a", b"b", b"c"]
        s1, delivered = drive(sha1, signer, verifier, messages)
        assert delivered == messages
        assert len(s1.pre_signatures) == 3  # one single-leaf tree each

    def test_invalid_trees_config(self):
        with pytest.raises(ValueError):
            ChannelConfig(trees_per_s1=0)

    def test_packet_validation(self):
        packet = S1Packet(
            1, 1, Mode.MERKLE_CUMULATIVE, 63, b"\x01" * H,
            [b"\x02" * H] * 5, 4,  # more roots than messages
        )
        from repro.core.exceptions import PacketError

        with pytest.raises(PacketError):
            decode_packet(packet.encode(), H)


class TestCombinedModeOverNetwork:
    def test_end_to_end_with_relays(self):
        net = Network.chain(4)
        cfg = EndpointConfig(
            mode=Mode.MERKLE_CUMULATIVE, batch_size=12, chain_length=256
        )
        # trees_per_s1 lives in the channel config; reconfigure after
        # establishment.
        s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=1), net.nodes["s"])
        v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=2), net.nodes["v"])
        relays = [RelayAdapter(net.nodes[f"r{i}"]) for i in (1, 2, 3)]
        s.connect("v")
        net.simulator.run(until=1.0)
        s.endpoint.set_channel_config(
            "v",
            ChannelConfig(mode=Mode.MERKLE_CUMULATIVE, batch_size=12, trees_per_s1=3),
        )
        messages = [b"net-%d" % i for i in range(12)]
        for m in messages:
            s.send("v", m)
        net.simulator.run(until=10.0)
        assert sorted(m for _, m in v.received) == sorted(messages)
        for relay in relays:
            assert relay.engine.stats.get("s2-ok", 0) == 12
            assert relay.engine.stats.get("dropped", 0) == 0
