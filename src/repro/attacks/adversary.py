"""Concrete attack components for the simulator.

All attackers are deterministic (seeded DRBGs) so failing security tests
reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.modes import Mode
from repro.core.packets import (
    PacketError,
    S1Packet,
    S2Packet,
    decode_packet,
)
from repro.crypto.drbg import DRBG
from repro.netsim.node import Node
from repro.netsim.packet import Frame


class Wiretap:
    """Passive observer of every frame a node forwards.

    Wraps (and preserves) any existing forward filter, so it can stack
    with a relay engine.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self.frames: list[Frame] = []
        self._inner = node.forward_filter
        node.forward_filter = self._tap

    def _tap(self, frame: Frame) -> bool:
        self.frames.append(frame.copy())
        if self._inner is not None:
            return self._inner(frame)
        return True

    def payloads(self, kind: str | None = None) -> list[bytes]:
        return [f.payload for f in self.frames if kind is None or f.kind == kind]


class PacketForger:
    """Outsider attacker: fabricates ALPHA packets from thin air.

    Without knowledge of any undisclosed chain element, forged chain
    elements are random — the verification at the first relay must
    reject them (the property the attack benchmarks measure).
    """

    def __init__(self, node: Node, rng: DRBG | None = None, hash_size: int = 20) -> None:
        self.node = node
        self.rng = rng if rng is not None else DRBG(f"forger:{node.name}")
        self.hash_size = hash_size
        self.sent = 0

    def forge_s1(self, assoc_id: int, victim: str, spoof_source: str, seq: int = 1) -> None:
        packet = S1Packet(
            assoc_id=assoc_id,
            seq=seq,
            mode=Mode.BASE,
            chain_index=2047,
            chain_element=self.rng.random_bytes(self.hash_size),
            pre_signatures=[self.rng.random_bytes(self.hash_size)],
            message_count=1,
        )
        self._inject(victim, spoof_source, packet.encode())

    def forge_s2(
        self,
        assoc_id: int,
        victim: str,
        spoof_source: str,
        seq: int,
        message: bytes,
    ) -> None:
        packet = S2Packet(
            assoc_id=assoc_id,
            seq=seq,
            disclosed_index=2046,
            disclosed_element=self.rng.random_bytes(self.hash_size),
            msg_index=0,
            message=message,
        )
        self._inject(victim, spoof_source, packet.encode())

    def _inject(self, victim: str, spoof_source: str, payload: bytes) -> None:
        frame = Frame(
            source=spoof_source, destination=victim, payload=payload, kind="alpha"
        )
        self.node.send(frame)
        self.sent += 1


class TamperingRelay:
    """Insider attacker: a forwarding node that mutates S2 payloads.

    Models the paper's insider threat (Section 2.2): schemes that only
    authenticate hop-wise (LHAP/HEAP) cannot detect this; ALPHA's
    end-to-end pre-signatures must.
    """

    def __init__(self, node: Node) -> None:
        self.node = node
        self.tampered = 0
        self._inner = node.forward_filter
        node.forward_filter = self._mangle

    def _mangle(self, frame: Frame) -> bool:
        if frame.kind == "alpha":
            try:
                packet = decode_packet(frame.payload, 20)
            except PacketError:
                packet = None
            if isinstance(packet, S2Packet) and packet.message:
                mutated = bytearray(packet.message)
                mutated[-1] ^= 0xFF
                packet.message = bytes(mutated)
                frame.payload = packet.encode()
                self.tampered += 1
        if self._inner is not None:
            return self._inner(frame)
        return True


class ReplayAttacker:
    """Captures genuine frames at one node and re-injects them later."""

    def __init__(self, node: Node) -> None:
        self.node = node
        self.captured: list[Frame] = []
        self.replayed = 0
        self._inner = node.forward_filter
        node.forward_filter = self._capture

    def _capture(self, frame: Frame) -> bool:
        if frame.kind == "alpha":
            self.captured.append(frame.copy())
        if self._inner is not None:
            return self._inner(frame)
        return True

    def replay_all(self) -> int:
        """Re-inject every captured frame towards its old destination."""
        count = 0
        for frame in self.captured:
            copy = frame.copy()
            if copy.destination in self.node.routes:
                self.node.routes[copy.destination].transmit(copy, self.node)
                count += 1
        self.replayed += count
        return count


@dataclass
class FloodStats:
    frames_sent: int = 0
    bytes_sent: int = 0


class S1Flooder:
    """Flooding attacker: unsolicited S1-like packets at a fixed rate.

    S1 packets are the only traffic relays forward before seeing an A1,
    so they are the flooding vector the paper analyses in Section 3.5 —
    countered there by the relays' adaptive S1 size allowance and by
    identifying senders whose S1s never earn A1 responses.
    """

    def __init__(
        self,
        node: Node,
        victim: str,
        rate_pps: float,
        payload_bytes: int = 1024,
        rng: DRBG | None = None,
        hash_size: int = 20,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("flood rate must be positive")
        self.node = node
        self.victim = victim
        self.interval = 1.0 / rate_pps
        self.payload_bytes = payload_bytes
        self.rng = rng if rng is not None else DRBG(f"flooder:{node.name}")
        self.hash_size = hash_size
        self.stats = FloodStats()
        self._running = False
        self._seq = 0

    def start(self, duration_s: float) -> None:
        self._running = True
        self.node.simulator.schedule(0.0, self._tick)
        self.node.simulator.schedule(duration_s, self._stop)

    def _stop(self) -> None:
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self._seq += 1
        filler = max(self.payload_bytes // self.hash_size, 1)
        packet = S1Packet(
            assoc_id=self.rng.random_int(63),
            seq=self._seq,
            mode=Mode.CUMULATIVE,
            chain_index=2047,
            chain_element=self.rng.random_bytes(self.hash_size),
            pre_signatures=[
                self.rng.random_bytes(self.hash_size) for _ in range(filler)
            ],
            message_count=filler,
        )
        frame = Frame(
            source=self.node.name,
            destination=self.victim,
            payload=packet.encode(),
            kind="alpha",
        )
        try:
            self.node.send(frame)
            self.stats.frames_sent += 1
            self.stats.bytes_sent += frame.size
        except LookupError:
            pass
        self.node.simulator.schedule(self.interval, self._tick)
