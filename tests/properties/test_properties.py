"""Property-based tests (hypothesis) on the core data structures.

These pin the *invariants* the protocol's security rests on: one-way
chain soundness, Merkle completeness/soundness, codec round-trips on
arbitrary field values, DRBG determinism, and Equation 1's algebra.
"""

import math

from hypothesis import given, settings, strategies as st

from repro import analysis
from repro.core.acktree import AckTree, verify_ack_opening
from repro.core.hashchain import ChainElement, ChainVerifier, HashChain
from repro.core.merkle import MerkleTree, verify_merkle_path
from repro.core.modes import Mode
from repro.core.packets import (
    A2Packet,
    AckVerdict,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.core.wire import Reader, Writer
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash
from repro.crypto.mac import hmac_digest
from repro.crypto.mmo import mmo_digest

SHA1 = get_hash("sha1")

hashes20 = st.binary(min_size=20, max_size=20)
messages = st.binary(min_size=1, max_size=200)


class TestHashChainProperties:
    @given(seed=st.binary(min_size=1, max_size=40),
           length=st.integers(min_value=2, max_value=40).map(lambda x: x * 2),
           skip_pattern=st.lists(st.booleans(), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_any_disclosure_pattern_verifies(self, seed, length, skip_pattern):
        """Whatever subset of elements survives the network, every
        element the verifier *does* see must verify exactly once."""
        import itertools

        chain = HashChain(SHA1, seed, length)
        verifier = ChainVerifier(SHA1, chain.anchor, resync_window=length + 1)
        pattern = itertools.cycle(skip_pattern)
        for _ in range(chain.remaining_exchanges):
            s1, key = chain.next_exchange()
            for element in (s1, key):
                if next(pattern):
                    assert verifier.verify(element)
                    assert not verifier.verify(element)  # replay always fails

    @given(seed=st.binary(min_size=1, max_size=40),
           tamper=st.integers(min_value=0, max_value=19))
    @settings(max_examples=30, deadline=None)
    def test_bitflip_never_verifies(self, seed, tamper):
        chain = HashChain(SHA1, seed, 8)
        verifier = ChainVerifier(SHA1, chain.anchor)
        s1, _ = chain.next_exchange()
        mutated = bytearray(s1.value)
        mutated[tamper] ^= 0x01
        assert not verifier.verify(ChainElement(s1.index, bytes(mutated)))


class TestMerkleProperties:
    @given(blocks=st.lists(messages, min_size=1, max_size=20), key=hashes20)
    @settings(max_examples=50, deadline=None)
    def test_completeness(self, blocks, key):
        """Every honestly generated proof verifies."""
        tree = MerkleTree(SHA1, blocks)
        root = tree.root(key)
        for i, block in enumerate(blocks):
            assert verify_merkle_path(SHA1, block, i, tree.path(i), key, root)

    @given(blocks=st.lists(messages, min_size=2, max_size=16, unique=True),
           swap=st.data())
    @settings(max_examples=50, deadline=None)
    def test_soundness_wrong_block(self, blocks, swap):
        """A proof for block i never verifies a different block."""
        tree = MerkleTree(SHA1, blocks)
        root = tree.root(b"\x01" * 20)
        i = swap.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        j = swap.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        if blocks[i] != blocks[j]:
            assert not verify_merkle_path(
                SHA1, blocks[j], i, tree.path(i), b"\x01" * 20, root
            )

    @given(blocks=st.lists(messages, min_size=1, max_size=16),
           key1=hashes20, key2=hashes20)
    @settings(max_examples=50, deadline=None)
    def test_key_binding(self, blocks, key1, key2):
        """Roots under different keys never collide (w.h.p.)."""
        tree = MerkleTree(SHA1, blocks)
        if key1 != key2:
            assert tree.root(key1) != tree.root(key2)


class TestAckTreeProperties:
    @given(n=st.integers(min_value=1, max_value=12), key=hashes20,
           seed=st.integers(min_value=0, max_value=2**32))
    @settings(max_examples=40, deadline=None)
    def test_openings_verify_and_bind_polarity(self, n, key, seed):
        amt = AckTree(SHA1, n, key, DRBG(seed))
        for i in range(n):
            for is_ack in (True, False):
                opening = amt.open(i, is_ack)
                assert verify_ack_opening(SHA1, opening, n, key, amt.root)
                flipped = AckVerdict(i, not is_ack, opening.secret, opening.path)
                assert not verify_ack_opening(SHA1, flipped, n, key, amt.root)


class TestCodecProperties:
    @given(assoc=st.integers(min_value=0, max_value=2**64 - 1),
           seq=st.integers(min_value=0, max_value=2**32 - 1),
           index=st.integers(min_value=0, max_value=2**32 - 1),
           element=hashes20,
           sigs=st.lists(hashes20, min_size=1, max_size=16),
           reliable=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_s1_round_trip(self, assoc, seq, index, element, sigs, reliable):
        packet = S1Packet(
            assoc_id=assoc, seq=seq, mode=Mode.CUMULATIVE, chain_index=index,
            chain_element=element, pre_signatures=sigs,
            message_count=len(sigs), reliable=reliable,
        )
        assert decode_packet(packet.encode(), 20) == packet

    @given(assoc=st.integers(min_value=0, max_value=2**64 - 1),
           seq=st.integers(min_value=0, max_value=2**32 - 1),
           index=st.integers(min_value=0, max_value=2**32 - 1),
           element=hashes20, msg_index=st.integers(min_value=0, max_value=2**16 - 1),
           message=st.binary(max_size=500),
           path=st.lists(hashes20, max_size=12))
    @settings(max_examples=80, deadline=None)
    def test_s2_round_trip(self, assoc, seq, index, element, msg_index, message, path):
        packet = S2Packet(assoc, seq, index, element, msg_index, message, path)
        assert decode_packet(packet.encode(), 20) == packet

    @given(verdicts=st.lists(
        st.builds(
            AckVerdict,
            msg_index=st.integers(min_value=0, max_value=2**16 - 1),
            is_ack=st.booleans(),
            secret=st.binary(max_size=32),
            path=st.lists(hashes20, max_size=6),
        ),
        max_size=8,
    ), element=hashes20)
    @settings(max_examples=50, deadline=None)
    def test_a2_round_trip(self, verdicts, element):
        packet = A2Packet(1, 2, 3, element, verdicts)
        assert decode_packet(packet.encode(), 20) == packet

    @given(data=st.binary(max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash_decoder(self, data):
        from repro.core.exceptions import PacketError

        try:
            decode_packet(data, 20)
        except PacketError:
            pass  # the only acceptable failure mode

    @given(values=st.lists(st.tuples(st.sampled_from(["u8", "u16", "u32", "u64"]),
                                     st.integers(min_value=0)), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_writer_reader_integers(self, values):
        limits = {"u8": 2**8, "u16": 2**16, "u32": 2**32, "u64": 2**64}
        writer = Writer()
        expected = []
        for kind, value in values:
            value %= limits[kind]
            getattr(writer, kind)(value)
            expected.append((kind, value))
        reader = Reader(writer.getvalue())
        for kind, value in expected:
            assert getattr(reader, kind)() == value
        reader.expect_end()


class TestCryptoProperties:
    @given(seed=st.binary(min_size=1, max_size=64), n=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_drbg_deterministic_and_correct_length(self, seed, n):
        assert DRBG(seed).random_bytes(n) == DRBG(seed).random_bytes(n)
        assert len(DRBG(seed).random_bytes(n)) == n

    @given(data=st.binary(max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_mmo_fixed_size_and_deterministic(self, data):
        digest = mmo_digest(data)
        assert len(digest) == 16
        assert digest == mmo_digest(data)

    @given(a=st.binary(max_size=100), b=st.binary(max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_mmo_injective_in_practice(self, a, b):
        if a != b:
            assert mmo_digest(a) != mmo_digest(b)

    @given(key=st.binary(min_size=1, max_size=100), message=st.binary(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_hmac_matches_stdlib_for_sha1(self, key, message):
        import hashlib
        import hmac as stdlib_hmac

        assert hmac_digest("sha1", key, message) == stdlib_hmac.new(
            key, message, hashlib.sha1
        ).digest()


class TestAnalysisProperties:
    @given(n=st.integers(min_value=1, max_value=10**6),
           size=st.sampled_from([128, 256, 512, 1280]))
    @settings(max_examples=100, deadline=None)
    def test_equation1_identity(self, n, size):
        """stotal == n * per-packet payload, and both are non-negative."""
        total = analysis.stotal(n, size)
        per_packet = analysis.per_packet_payload(n, size)
        assert total == n * per_packet
        assert per_packet >= 0

    @given(n=st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_overhead_ratio_at_least_one(self, n):
        ratio = analysis.overhead_ratio(n, 1280)
        assert ratio >= 1.0 or math.isinf(ratio)

    @given(n=st.integers(min_value=1, max_value=2**20))
    @settings(max_examples=60, deadline=None)
    def test_merkle_depth_is_ceil_log2(self, n):
        assert analysis.merkle_depth(n) == (0 if n == 1 else math.ceil(math.log2(n)))


class TestRelayFuzz:
    @given(data=st.binary(max_size=400), src=st.sampled_from(["s", "v", "x"]))
    @settings(max_examples=150, deadline=None)
    def test_relay_never_crashes_on_junk(self, data, src):
        """Any byte string handed to a relay yields a decision, never an
        exception; junk that parses as ALPHA is dropped or judged."""
        from repro.core.relay import RelayEngine

        engine = RelayEngine(get_hash("sha1"))
        decision = engine.handle(data, src, "v", 0.0)
        assert isinstance(decision.forward, bool)

    @given(seed=st.integers(min_value=0, max_value=2**16),
           flips=st.lists(st.integers(min_value=0, max_value=10**6),
                          min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_relay_rejects_any_bitflip_of_genuine_s1(self, seed, flips):
        """Flipping any bit of a genuine S1 makes the relay drop it or —
        for flips confined to non-authenticated framing fields — at
        least never mark forged *content* verified."""
        from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, HashChain
        from repro.core.relay import RelayEngine
        from repro.core.signer import ChannelConfig, SignerSession
        from repro.core.hashchain import ChainVerifier

        sha1 = get_hash("sha1")
        rng = DRBG(seed, personalization=b"fuzz-s1")
        sig_chain = HashChain(sha1, rng.random_bytes(20), 16)
        ack_chain = HashChain(sha1, rng.random_bytes(20), 16, tags=ACKNOWLEDGMENT_TAGS)
        signer = SignerSession(
            sha1, sig_chain,
            ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            ChannelConfig(), 7,
        )
        engine = RelayEngine(get_hash("sha1"))
        engine.provision(7, "s", "v", sig_chain.anchor, ack_chain.anchor,
                         sig_chain.anchor, ack_chain.anchor)
        signer.submit(b"genuine")
        original = signer.poll(0.0)[0]
        s1 = bytearray(original)
        for flip in flips:
            s1[(flip // 8) % len(s1)] ^= 1 << (flip % 8)
        mutated = bytes(s1)
        decision = engine.handle(mutated, "s", "v", 0.0)
        if mutated == original:
            assert decision.forward  # flips cancelled out
            return
        # The invariant: a mutation touching the authenticated identity
        # (the chain element or its claimed index) must never verify.
        # Flips elsewhere (seq, flags, the still-opaque pre-signature)
        # may legitimately forward — they fail later at S2 time.
        from repro.core.exceptions import PacketError
        from repro.core.packets import S1Packet as S1, decode_packet as dec

        try:
            parsed = dec(mutated, 20)
        except PacketError:
            # Undecodable: dropped as malformed ALPHA, or — when the
            # magic itself broke — passed through as non-ALPHA traffic
            # (incremental deployment). Either way, never verified.
            assert not decision.verified
            if decision.forward:
                assert decision.reason == "not-alpha"
            return
        genuine = dec(original, 20)
        if not isinstance(parsed, S1):
            return  # type byte flipped; judged under other rules
        identity_mutated = (
            parsed.chain_element != genuine.chain_element
            or parsed.chain_index != genuine.chain_index
        )
        if identity_mutated:
            assert not decision.verified or parsed.assoc_id != genuine.assoc_id


class TestBlockCipherProperties:
    @given(key=st.binary(min_size=16, max_size=16),
           block=st.binary(min_size=16, max_size=16))
    @settings(max_examples=60, deadline=None)
    def test_aes_round_trip(self, key, block):
        from repro.crypto.aes import AES128

        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(key=st.binary(min_size=16, max_size=16),
           b1=st.binary(min_size=16, max_size=16),
           b2=st.binary(min_size=16, max_size=16))
    @settings(max_examples=40, deadline=None)
    def test_aes_permutation(self, key, b1, b2):
        from repro.crypto.aes import AES128

        cipher = AES128(key)
        if b1 != b2:
            assert cipher.encrypt_block(b1) != cipher.encrypt_block(b2)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_pure_sha1_matches_hashlib(self, data):
        import hashlib

        from repro.crypto.sha1 import sha1_digest

        assert sha1_digest(data) == hashlib.sha1(data).digest()


class TestSignatureProperties:
    @given(message=st.binary(max_size=100), tweak=st.binary(min_size=1, max_size=100))
    @settings(max_examples=15, deadline=None)
    def test_ecdsa_rejects_any_other_message(self, message, tweak):
        from repro.crypto import ecc

        key = ecc.generate_keypair(ecc.P256, DRBG(b"prop-ecdsa"))
        signature = ecc.sign(key, message, DRBG(b"prop-nonce"))
        assert ecc.verify(key.public_key, message, signature)
        other = message + tweak
        assert not ecc.verify(key.public_key, other, signature)
