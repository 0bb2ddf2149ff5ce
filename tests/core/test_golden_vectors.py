"""Golden wire-format vectors.

Pins the byte-exact encoding of every packet type and of the chain/tree
constructions, so accidental wire-format changes (which would break
deployed-node interop) fail loudly. The vectors were generated by this
implementation and verified for internal consistency; they are
regression anchors, not external test vectors.
"""

import hashlib

from repro.core.acktree import AckTree
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, HashChain
from repro.core.merkle import MerkleTree
from repro.core.modes import Mode
from repro.core.packets import (
    A1Packet,
    A2Packet,
    AckVerdict,
    HandshakePacket,
    S1Packet,
    S2Packet,
)
from repro.crypto.drbg import DRBG
from repro.crypto.hashes import get_hash
from repro.crypto.mmo import mmo_digest


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


class TestPacketGoldenVectors:
    def test_s1_encoding_stable(self):
        packet = S1Packet(
            assoc_id=0x1122334455667788,
            seq=7,
            mode=Mode.CUMULATIVE,
            chain_index=63,
            chain_element=bytes(range(20)),
            pre_signatures=[bytes([i] * 20) for i in (1, 2)],
            message_count=2,
            reliable=True,
        )
        encoded = packet.encode()
        assert encoded.hex().startswith("a1fa0103112233445566778800000007")
        assert digest(encoded) == "8564d006fd659a1c"

    def test_a1_encoding_stable(self):
        packet = A1Packet(
            assoc_id=1,
            seq=2,
            ack_index=63,
            ack_element=bytes([0xAA] * 20),
            echo_sig_index=63,
            echo_sig_element=bytes([0xBB] * 20),
            pre_acks=[bytes([0xCC] * 20)],
            pre_nacks=[bytes([0xDD] * 20)],
        )
        assert digest(packet.encode()) == "d1705a99d96379f6"

    def test_s2_encoding_stable(self):
        packet = S2Packet(
            assoc_id=1,
            seq=2,
            disclosed_index=62,
            disclosed_element=bytes([0xEE] * 20),
            msg_index=3,
            message=b"golden payload",
            auth_path=[bytes([0x11] * 20), bytes([0x22] * 20)],
        )
        assert digest(packet.encode()) == "5e7540494c14614b"

    def test_a2_encoding_stable(self):
        packet = A2Packet(
            assoc_id=1,
            seq=2,
            disclosed_index=62,
            disclosed_element=bytes([0x33] * 20),
            verdicts=[AckVerdict(0, True, b"secret-0", [bytes([0x44] * 20)])],
        )
        assert digest(packet.encode()) == "4ec5711faeaa497c"

    def test_handshake_encoding_stable(self):
        packet = HandshakePacket(
            assoc_id=9,
            seq=0,
            is_response=False,
            hash_name="sha1",
            nonce=b"n" * 16,
            sig_anchor=bytes([0x55] * 20),
            sig_chain_length=1024,
            ack_anchor=bytes([0x66] * 20),
            ack_chain_length=1024,
        )
        assert digest(packet.encode()) == "a69580d10435e82c"


class TestConstructionGoldenVectors:
    def test_signature_chain_stable(self):
        sha1 = get_hash("sha1")
        chain = HashChain(sha1, b"\x01" * 20, 8)
        assert chain.anchor.value.hex() == (
            sha1.digest_uncounted(b"S2" + chain.element(7).value).hex()
        )
        assert chain.anchor.value.hex()[:16] == "e8a3d83747ff22f4"

    def test_ack_chain_domain_separated(self):
        sha1 = get_hash("sha1")
        sig = HashChain(sha1, b"\x01" * 20, 8)
        ack = HashChain(sha1, b"\x01" * 20, 8, tags=ACKNOWLEDGMENT_TAGS)
        assert sig.anchor.value != ack.anchor.value
        assert ack.anchor.value.hex()[:16] == "c12244684fb5bcc2"

    def test_merkle_root_stable(self):
        sha1 = get_hash("sha1")
        tree = MerkleTree(sha1, [b"a", b"b", b"c", b"d"])
        root = tree.root(b"\x00" * 20)
        assert root.hex()[:16] == "7ba30fb69b6e0344"

    def test_acktree_root_stable(self):
        sha1 = get_hash("sha1")
        amt = AckTree(sha1, 2, b"\x00" * 20, DRBG(b"golden"))
        # The 4 secrets are one 64-byte DRBG request (PROTOCOL.md §4).
        assert amt.root.hex() == "86c361de7da48db75b8faf7a15a09d1d413d7dd3"

    def test_mmo_vector_stable(self):
        assert mmo_digest(b"").hex() == "92d22fef6c6db672510496373d8465dd"
        assert mmo_digest(b"hello").hex() == "17bb54a617c3edd3ec63e96f2c909d72"

    def test_drbg_stream_stable(self):
        assert DRBG(b"golden").random_bytes(8).hex() == DRBG(b"golden").random_bytes(8).hex()
        assert DRBG(42).random_bytes(8).hex() == "46ccb0f75091a1ef"
