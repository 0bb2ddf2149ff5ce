"""Reorder tolerance is a spectrum, and each scheme sits somewhere exact.

The ``reorder`` column of the separation grid shows four different
fates for the same permuted stream; this module pins the mechanism
behind each at the engine level:

- CSM verifies order-independently *within a generation* (the XOR
  combine), so any permutation of one generation delivers everything.
- ProMAC addresses aggregated fragments by sequence number and buffers
  orphans, so displaced packets still finalize.
- Guy Fawkes hash-links each packet to the next: the first displaced
  packet desynchronises the stream permanently.
- LHAP's one-way token chain only moves forward: a token displaced
  behind a newer one becomes unverifiable (dropped), but the chain
  itself survives — partial loss, not desync.
"""

from repro.attacks import RelayReorderer
from repro.baselines.base import BaselineChain, ChainedModeAdapter
from repro.baselines.guy_fawkes import GuyFawkesSigner, GuyFawkesVerifier
from repro.baselines.lhap import LhapNode
from repro.baselines.promac import ProMacSigner, ProMacVerifier
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash


def test_csm_tolerates_any_order_within_a_generation():
    adapter = ChainedModeAdapter(seed=7, hops=2)  # sender -> one relay -> rx
    packets = [adapter.protect(b"m-%d" % i, 0.0) for i in range(4)]
    for packet in reversed(packets):  # worst case: fully inverted
        forward, outs, reason = adapter.relay_judge(packet, 1, 0.0)
        assert reason in ("ok", "buffered-future")
        for out in outs or []:
            adapter.receive(out, 0.0)
    assert sorted(adapter.accepted_messages()) == [b"m-%d" % i for i in range(4)]
    assert adapter.receiver_rejects() == 0


def test_csm_cross_generation_gap_still_bounded():
    """Reorder tolerance is generation-scoped: a packet two full
    generations ahead is buffered, three ahead is rejected."""
    adapter = ChainedModeAdapter(seed=7, hops=2)
    ahead = [adapter.protect(b"g%d" % i, 0.0) for i in range(16)]
    forward, _, reason = adapter.relay_judge(ahead[8], 1, 0.0)  # generation 2
    assert not forward and reason == "buffered-future"
    forward, _, reason = adapter.relay_judge(ahead[12], 1, 0.0)  # generation 3
    assert not forward and reason == "generation-gap"


def test_csm_generation_split_across_a_reorder_window_fans_out():
    """A window of 6 at r1 straddles the 4-packet generation boundary:
    early generation-1 packets are held at r1 until generation 0
    completes, then leave r1 as several packets at once. The chain
    must send each one downstream and count the holds as no drop."""
    chain = BaselineChain(ChainedModeAdapter(seed=0, hops=5), seed=0)
    reorderer = RelayReorderer(
        chain.relays[0],
        window=6,
        kind=BaselineChain.KIND,
        rng=DRBG(0, personalization=b"csm-fan-out"),
    )
    messages = [b"msg-%02d" % i for i in range(8)]
    end = chain.send_stream(messages)
    chain.net.simulator.schedule_at(end + 0.02, reorderer.stop)
    chain.drain_from(end + 0.1)
    chain.run()
    assert reorderer.flushes == 2
    assert sorted(chain.adapter.accepted_messages()) == messages
    assert chain.drop_reasons() == {}


def test_promac_orphan_fragments_buffer_until_their_message():
    sha1 = get_hash("sha1")
    signer = ProMacSigner(sha1, b"k", window=4, fragment_bytes=1)
    verifier = ProMacVerifier(sha1, b"k", window=4, fragment_bytes=1)
    packets = [signer.protect(b"m-%d" % i) for i in range(8)]
    # Deliver pairwise-swapped: every packet displaced by one position.
    order = [1, 0, 3, 2, 5, 4, 7, 6]
    for i in order:
        verifier.handle_packet(packets[i])
    assert [m for _, m in verifier.accepted] == [b"m-%d" % i for i in order]
    assert verifier.rejected == 0
    assert verifier.accepted_then_retracted == 0
    # Aggregation caught up despite the displacement: the early messages
    # reached full MAC strength (window seqs 0..4 fully covered).
    finalized = {seq for seq, _ in verifier.finalized}
    assert {0, 1, 2, 3} <= finalized


def test_guy_fawkes_desynchronises_on_first_displacement():
    sha1 = get_hash("sha1")
    signer = GuyFawkesSigner(sha1, DRBG(b"gf-reorder"))
    verifier = GuyFawkesVerifier(sha1, signer.bootstrap_commitment())
    packets = [signer.protect(b"m-%d" % i) for i in range(4)]
    verifier.handle_packet(packets[0])
    verifier.handle_packet(packets[2])  # displaced ahead of packets[1]
    assert verifier.desynchronized
    # Delivering the stragglers in perfect order afterwards cannot
    # resynchronise: only m-0 was pending and even it is now lost.
    verifier.handle_packet(packets[1])
    verifier.handle_packet(packets[3])
    assert verifier.verified == []


def test_lhap_displaced_token_drops_without_desync():
    sha1 = get_hash("sha1")
    rng = DRBG(b"lhap-reorder")
    a = LhapNode("a", sha1, rng.fork("a"))
    b = LhapNode("b", sha1, rng.fork("b"))
    b.learn_neighbour("a", a.chain.anchor)
    first = a.attach_token(b"m-0")
    second = a.attach_token(b"m-1")
    third = a.attach_token(b"m-2")
    assert b.verify_from("a", *second)  # arrives first
    assert not b.verify_from("a", *first)  # behind the chain tip: dropped
    assert b.verify_from("a", *third)  # chain still alive
