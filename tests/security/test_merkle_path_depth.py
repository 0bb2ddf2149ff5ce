"""A Merkle path must be exactly as long as its tree is deep.

Leaves and inner nodes of ALPHA's Merkle trees hash alike (the golden
corpus pins those bytes), so the concatenation of two genuine children
is a valid preimage of their parent. An on-path attacker who has seen
S2 #2 of an ALPHA-M batch can therefore build a "message" for index 1:

    message   = H(m2) || path2[0]     (the parent of leaves 2 and 3)
    auth_path = path2[1:]             (one sibling short)

Leaf index 1 and the parent's position at level 1 are both odd, so the
fold takes the same sides as the genuine one and reaches the committed
root. Only the path length gives the forgery away: every checker must
reject a path whose length is not the depth of the tree that covers the
index. The same rule guards the Acknowledgment Merkle Tree, whose
``2n`` leaves give every opening ``(2n - 1).bit_length()`` siblings.
"""

import pytest

from repro.canonical import CanonicalChannel
from repro.core.acktree import AckOpening, AckTree, verify_ack_opening
from repro.core.merkle import MerkleVerifyCache
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import S2Packet, decode_packet
from repro.core.signer import ChannelConfig
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import HashFunction, get_hash

RELIABILITIES = (ReliabilityMode.UNRELIABLE, ReliabilityMode.RELIABLE)

#: (mode, batch, trees per S1, index of the S2 whose parent is forged).
#: The C+M batches split 8 as 4 + 4 and 9 as 5 + 4: in the second the
#: last tree is one level shallower than ``per_tree`` leaves would be.
CASES = [
    pytest.param(Mode.MERKLE, 8, 1, 2, id="merkle"),
    pytest.param(Mode.MERKLE_CUMULATIVE, 8, 2, 6, id="cm-even"),
    pytest.param(Mode.MERKLE_CUMULATIVE, 9, 2, 2, id="cm-uneven-first-tree"),
    pytest.param(Mode.MERKLE_CUMULATIVE, 9, 2, 7, id="cm-uneven-last-tree"),
]


def truncated_forgery(hash_fn, genuine: S2Packet) -> S2Packet:
    """The S2 for index ``genuine.msg_index - 1`` that carries the parent
    of the genuine leaf and its sibling as its message."""
    message = hash_fn.digest_uncounted(genuine.message) + genuine.auth_path[0]
    return S2Packet(
        assoc_id=genuine.assoc_id,
        seq=genuine.seq,
        disclosed_index=genuine.disclosed_index,
        disclosed_element=genuine.disclosed_element,
        msg_index=genuine.msg_index - 1,
        message=message,
        auth_path=genuine.auth_path[1:],
    )


@pytest.mark.parametrize("reliability", RELIABILITIES, ids=lambda r: r.name.lower())
@pytest.mark.parametrize("mode,batch,trees,source", CASES)
def test_truncated_path_forgery_dies_at_the_first_relay(
    mode, batch, trees, source, reliability
):
    channel = CanonicalChannel(
        DRBG(1),
        ChannelConfig(
            mode=mode, batch_size=batch, trees_per_s1=trees, reliability=reliability
        ),
        relays=2,
    )
    messages = [b"genuine-%d" % i for i in range(batch)]
    for message in messages:
        channel.signer.submit(message)
    s2s, now = channel.start()
    h = channel.hash_size
    target = source - 1
    forged = truncated_forgery(get_hash("sha1"), decode_packet(s2s[source], h))
    assert len(forged.message) == 2 * h
    raw = forged.encode()

    # The genuine S2s before the target pin the disclosed key at every
    # hop; the target itself is withheld while the forgery is tried.
    delivered, now = channel.finish(s2s[:target], now)
    for relay in channel.relays:
        decision = relay.handle(raw, "s", "v", now)
        assert (decision.forward, decision.reason) == (False, "s2-bad-payload")
    # An attacker past the relays fares no better at the verifier.
    channel.verifier.handle_s2(decode_packet(raw, h), now)
    assert channel.verifier.drain_delivered() == []

    rest, now = channel.finish(s2s[target:], now)
    delivered += rest
    assert sorted(m.msg_index for m in delivered) == list(range(batch))
    assert {m.msg_index: m.message for m in delivered} == dict(enumerate(messages))
    if reliability is ReliabilityMode.RELIABLE:
        assert channel.signer.idle
        reports = channel.signer.drain_reports()
        assert [r.message for r in reports] == messages
        assert all(r.delivered for r in reports)


def _prefixed_sha1(data: bytes) -> bytes:
    """SHA-1 whose digests all start with four zero bytes.

    Every node then reads as a leaf blob for message 0 (a four-byte
    big-endian index plus the secret), which turns the one-level-short
    AMT opening from a 2^-32 search into a construction.
    """
    return b"\x00" * 4 + get_hash("sha1").digest_uncounted(data)[:16]


class TestAckOpeningDepth:
    N = 4
    KEY = b"\x5a" * 20

    @pytest.fixture
    def amt(self):
        hash_fn = HashFunction("sha1-prefixed", 20, _prefixed_sha1)
        tree = AckTree(hash_fn, self.N, self.KEY, DRBG(b"amt-depth"))
        return hash_fn, tree

    def short_ack_for_zero(self, hash_fn, tree):
        """Ack 0, forged from what opening ack 1 discloses."""
        ack1 = tree.open(1, True)
        leaf0 = ack1.path[0]
        leaf1 = hash_fn.digest_uncounted((1).to_bytes(4, "big") + ack1.secret)
        return AckOpening(0, True, leaf0[4:] + leaf1, ack1.path[1:])

    def check(self, hash_fn, tree, opening, cache=None):
        extra = {} if cache is None else {"cache": cache}
        return verify_ack_opening(
            hash_fn, opening, self.N, self.KEY, tree.root, **extra
        )

    def test_genuine_openings_verify(self, amt):
        hash_fn, tree = amt
        for index in range(self.N):
            for is_ack in (True, False):
                opening = tree.open(index, is_ack)
                assert len(opening.path) == (2 * self.N - 1).bit_length()
                assert self.check(hash_fn, tree, opening)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_level_short_is_rejected(self, amt, warm):
        hash_fn, tree = amt
        forged = self.short_ack_for_zero(hash_fn, tree)
        cache = MerkleVerifyCache() if warm else None
        if warm:
            # Everything but ack 0 proven: the nack for 0 was opened.
            for index in range(self.N):
                assert self.check(hash_fn, tree, tree.open(index, False), cache)
            assert self.check(hash_fn, tree, tree.open(1, True), cache)
        assert not self.check(hash_fn, tree, forged, cache)

    def test_one_level_long_is_rejected(self, amt):
        hash_fn, tree = amt
        genuine = tree.open(2, True)
        for extra in (genuine.path[:1], [b"\x00" * 20]):
            longer = AckOpening(2, True, genuine.secret, extra + genuine.path)
            assert not self.check(hash_fn, tree, longer)
            assert not self.check(hash_fn, tree, longer, MerkleVerifyCache())
