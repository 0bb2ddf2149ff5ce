"""CheckpointedHashChain: the memory/recompute trade-off for signers."""

import pytest

from repro.core.exceptions import ChainExhaustedError
from benchmarks.chain_storage import CheckpointedHashChain
from repro.core.hashchain import ChainVerifier, HashChain
from repro.core.modes import Mode
from repro.core.signer import ChannelConfig, SignerSession
from repro.core.verifier import VerifierSession
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS
from repro.core.packets import decode_packet


class TestEquivalence:
    def test_identical_elements_to_plain_chain(self, sha1, rng):
        seed = rng.random_bytes(20)
        plain = HashChain(sha1, seed, 128)
        checkpointed = CheckpointedHashChain(sha1, seed, 128, checkpoint_interval=16)
        assert checkpointed.anchor == plain.anchor
        for index in (0, 1, 15, 16, 17, 64, 127, 128):
            assert checkpointed.element(index) == plain.element(index)

    def test_exchange_sequence_identical(self, sha1, rng):
        seed = rng.random_bytes(20)
        plain = HashChain(sha1, seed, 64)
        checkpointed = CheckpointedHashChain(sha1, seed, 64, checkpoint_interval=8)
        for _ in range(32):
            assert checkpointed.next_exchange() == plain.next_exchange()

    def test_verifier_accepts_checkpointed_elements(self, sha1, rng):
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), 64)
        verifier = ChainVerifier(sha1, chain.anchor)
        for _ in range(8):
            s1, key = chain.next_exchange()
            assert verifier.verify(s1)
            assert verifier.verify(key)

    def test_exhaustion(self, sha1, rng):
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), 4)
        chain.next_exchange()
        chain.next_exchange()
        with pytest.raises(ChainExhaustedError):
            chain.next_exchange()
        assert chain.remaining_exchanges == 0


class TestMemoryVsCompute:
    def test_memory_bounded(self, sha1, rng):
        n, k = 1024, 32
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), n, checkpoint_interval=k)
        # Initially only checkpoints: ~n/k + anchor.
        assert chain.stored_elements <= n // k + 2
        # Walking the whole chain never stores more than checkpoints +
        # one segment.
        worst = 0
        while chain.remaining_exchanges:
            chain.next_exchange()
            worst = max(worst, chain.stored_elements)
        assert worst <= n // k + k + 3

    def test_recompute_cost_amortized(self, sha1, rng):
        n, k = 512, 16
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), n, checkpoint_interval=k)
        before = sha1.counter.snapshot()
        while chain.remaining_exchanges:
            chain.next_exchange()
        recompute = sha1.counter.diff(before).labels.get("chain-recompute", 0)
        # Each segment of k elements is rebuilt once: <= n total hashes.
        assert recompute <= n + k

    def test_old_checkpoints_pruned(self, sha1, rng):
        n, k = 256, 16
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), n, checkpoint_interval=k)
        initial_checkpoints = len(chain._checkpoints)
        for _ in range(n // 2 - 1):
            chain.next_exchange()
        # Checkpoints above the cursor horizon are dropped as the chain
        # is consumed downward.
        assert len(chain._checkpoints) < initial_checkpoints

    def test_pruned_index_raises_index_error(self, sha1, rng):
        # Regression: asking for an element whose checkpoint was pruned
        # (the cursor walked below it, so the value can never be needed
        # by the protocol again) used to leak a bare KeyError from the
        # checkpoint dict. It must be a clear IndexError instead.
        n, k = 256, 16
        chain = CheckpointedHashChain(sha1, rng.random_bytes(20), n,
                                      checkpoint_interval=k)
        while chain.remaining > 2 * k:
            chain.next_exchange()
        pruned_top = max(chain._checkpoints) + 1
        assert pruned_top <= n
        # Force a segment rebuild above the pruned horizon. Pick an
        # index that is neither a surviving checkpoint nor inside the
        # currently cached segment.
        target = ((pruned_top // k) + 1) * k + 1
        assert target < n
        with pytest.raises(IndexError, match="pruned horizon"):
            chain.element(target)
        # In-range but pruned is IndexError; out-of-range stays IndexError
        # too, and valid positions still work.
        assert chain.element(chain._cursor - 1)
        with pytest.raises(IndexError):
            chain.element(n + 1)

    def test_validation(self, sha1, rng):
        with pytest.raises(ValueError):
            CheckpointedHashChain(sha1, rng.random_bytes(20), 7)
        with pytest.raises(ValueError):
            CheckpointedHashChain(sha1, b"", 8)
        with pytest.raises(ValueError):
            CheckpointedHashChain(sha1, b"x", 8, checkpoint_interval=1)
        with pytest.raises(IndexError):
            CheckpointedHashChain(sha1, b"x", 8).element(9)


class TestProtocolIntegration:
    def test_signer_session_accepts_checkpointed_chain(self, sha1, rng):
        """Duck typing: the signer works unchanged on the low-memory chain."""
        sig_chain = CheckpointedHashChain(sha1, rng.random_bytes(20), 64,
                                          checkpoint_interval=8)
        ack_chain = HashChain(sha1, rng.random_bytes(20), 64,
                              tags=ACKNOWLEDGMENT_TAGS)
        signer = SignerSession(
            sha1,
            sig_chain,
            ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
            ChannelConfig(mode=Mode.CUMULATIVE, batch_size=3),
            assoc_id=5,
        )
        verifier = VerifierSession(
            sha1, ack_chain, ChainVerifier(sha1, sig_chain.anchor), 5, rng.fork("v")
        )
        for i in range(3):
            signer.submit(b"cp-%d" % i)
        s1 = decode_packet(signer.poll(0.0)[0], 20)
        a1 = decode_packet(verifier.handle_s1(s1, 0.0), 20)
        for raw in signer.handle_a1(a1, 0.0):
            verifier.handle_s2(decode_packet(raw, 20), 0.0)
        assert [m.message for m in verifier.drain_delivered()] == [
            b"cp-0", b"cp-1", b"cp-2"
        ]
