"""Differential test over the committed golden wire corpus.

``wire_vectors.jsonl`` holds byte-exact encodings of every packet type
across modes, batch sizes, flag combinations, and digest widths,
generated by the codec *before* the hot-path refactor (see
``generate_wire_vectors.py``). Each vector is decoded with the live
codec and re-encoded; the bytes must match bit for bit. Together the
two directions prove the optimized encode and decode paths are the
identity the old ones were — the refactor provably cannot move a wire
bit.

A failure here is a wire-compatibility break, not a stale fixture: fix
the codec, do not regenerate the corpus.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.core.packets import (
    A1Packet,
    A2Packet,
    HandshakePacket,
    PacketType,
    S1Packet,
    S2Packet,
    decode_packet,
    peek_type,
)

CORPUS = pathlib.Path(__file__).parent / "wire_vectors.jsonl"

_TYPES = {
    "S1Packet": S1Packet,
    "A1Packet": A1Packet,
    "S2Packet": S2Packet,
    "A2Packet": A2Packet,
    "HandshakePacket": HandshakePacket,
}


def _load() -> list[dict]:
    lines = CORPUS.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    vectors = [json.loads(line) for line in lines[1:]]
    assert header["count"] == len(vectors), "corpus header out of sync"
    return vectors


VECTORS = _load()


def test_corpus_covers_every_packet_type():
    covered = {v["type"] for v in VECTORS}
    assert covered == set(_TYPES), f"corpus missing {set(_TYPES) - covered}"
    # And all three digest widths per type.
    for cls_name in _TYPES:
        widths = {v["hash_size"] for v in VECTORS if v["type"] == cls_name}
        assert widths == {16, 20, 32}, f"{cls_name} missing widths {widths}"


@pytest.mark.parametrize("vector", VECTORS, ids=[v["name"] for v in VECTORS])
def test_decode_reencode_is_byte_identity(vector):
    wire = bytes.fromhex(vector["hex"])
    packet = decode_packet(wire, vector["hash_size"])
    assert type(packet) is _TYPES[vector["type"]]
    reencoded = packet.encode()
    assert reencoded == wire, (
        f"{vector['name']}: re-encode moved wire bits\n"
        f"  golden: {wire.hex()}\n"
        f"  got:    {reencoded.hex()}"
    )


@pytest.mark.parametrize("vector", VECTORS, ids=[v["name"] for v in VECTORS])
def test_decode_from_memoryview_matches_bytes(vector):
    # The reader must accept an externally-provided buffer
    # view (e.g. a datagram sliced out of a recv ring) and produce the
    # same packet it does for bytes.
    wire = bytes.fromhex(vector["hex"])
    from_bytes = decode_packet(wire, vector["hash_size"])
    from_view = decode_packet(memoryview(wire), vector["hash_size"])
    assert from_view == from_bytes
    assert from_view.encode() == wire


def test_peek_helpers_agree_with_decode():
    for vector in VECTORS:
        wire = bytes.fromhex(vector["hex"])
        packet = decode_packet(wire, vector["hash_size"])
        assert peek_type(wire) is PacketType(packet.TYPE)
