"""CSM-style chained secure mode over coded packet generations.

Models the Chained Secure Mode proposed for RPL with network coding
(arXiv 2006.00310): traffic is grouped into *generations* of ``g``
packets, every hop pair shares a link key, and each packet carries a
MAC — keyed per hop — over the payload *and* a chain value that digests
all previous generations. Three properties follow, and the attack grid
(`benchmarks/bench_attack_filtering`) measures each:

- **Hop verifiability**: every relay verifies with its upstream key and
  re-MACs with its downstream key, so outsider forgeries and on-path
  bit flips die at the first honest relay, like ALPHA.
- **Reorder tolerance**: packets inside one generation are verifiable
  in any order (the network-coding property — coded combinations of a
  generation carry no ordering), unlike Guy Fawkes' strict in-order
  chain or ALPHA-M's batch interlock. Packets of a *future* generation
  arriving early are buffered until the chain catches up.
- **No insider containment**: a compromised relay holds its downstream
  link key and can rewrite payloads undetected
  (:meth:`ChainedModeRelay.handle_as_insider`) — the gap ALPHA's
  end-to-end pre-signatures close (paper Section 2.2). The feature
  matrix row is honest about this.

Wire format (fixed layout)::

    u32 generation | u16 index | u16 len | payload | mac (digest)

The chain: ``ctx_0 = H(label)``; once generation ``G`` has fully
verified, ``ctx_{G+1} = H(ctx_G || combine(G))`` where ``combine`` is
the XOR of the per-packet digests — order-independent, so the chain
value is the same no matter how the generation arrived.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.wire import Reader, Writer
from repro.crypto.hashes import HashFunction

#: Default packets per generation.
DEFAULT_GENERATION_SIZE = 4


def mac_region(packet: bytes, digest_size: int) -> list[tuple[int, int]]:
    """Byte span of the trailing MAC — the chained-tag region."""
    if len(packet) <= digest_size:
        return []
    return [(len(packet) - digest_size, len(packet))]


@dataclass
class ChainedVerified:
    generation: int
    index: int
    message: bytes


def _initial_ctx(hash_fn: HashFunction) -> bytes:
    return hash_fn.digest(b"csm-genesis", label="csm-chain")


class _GenerationChain:
    """Shared generation/ctx bookkeeping for signer, relay, verifier."""

    def __init__(self, hash_fn: HashFunction, generation_size: int) -> None:
        if generation_size < 1:
            raise ValueError("generation size must be positive")
        self._hash = hash_fn
        self.generation_size = generation_size
        self.ctx = _initial_ctx(hash_fn)
        self.generation = 0
        #: index -> per-packet digest of the current generation.
        self._digests: dict[int, bytes] = {}

    def body(self, generation: int, index: int, message: bytes) -> bytes:
        return (
            Writer().u32(generation).u16(index).var_bytes(message).getvalue()
        )

    def mac(self, key: bytes, generation: int, index: int, message: bytes) -> bytes:
        return self._hash.mac(
            key,
            self.ctx + self.body(generation, index, message),
            label="csm-mac",
        )

    def note(self, index: int, mac: bytes) -> None:
        """Record a packet of the current generation; advance when full."""
        self._digests[index] = self._hash.digest(mac, label="csm-combine")
        if len(self._digests) == self.generation_size:
            combined = bytes(self._hash.digest_size)
            for digest in self._digests.values():
                combined = bytes(a ^ b for a, b in zip(combined, digest))
            self.ctx = self._hash.digest(self.ctx + combined, label="csm-chain")
            self.generation += 1
            self._digests = {}


class ChainedModeSigner:
    """Sender side: MAC with the first hop's link key."""

    def __init__(
        self,
        hash_fn: HashFunction,
        link_key: bytes,
        generation_size: int = DEFAULT_GENERATION_SIZE,
    ) -> None:
        if not link_key:
            raise ValueError("link key must be non-empty")
        self._key = link_key
        self._chain = _GenerationChain(hash_fn, generation_size)
        self._index = 0

    def protect(self, message: bytes) -> bytes:
        chain = self._chain
        generation, index = chain.generation, self._index
        mac = chain.mac(self._key, generation, index, message)
        packet = chain.body(generation, index, message) + mac
        chain.note(index, mac)
        self._index = (index + 1) % chain.generation_size
        return packet

    @property
    def pending_in_generation(self) -> int:
        """Packets already emitted into the still-open generation."""
        return self._index


class _ChainObserver:
    """Verification core: one upstream link's chained generations."""

    def __init__(
        self, hash_fn: HashFunction, key: bytes, generation_size: int
    ) -> None:
        self._hash = hash_fn
        self._key = key
        self._chain = _GenerationChain(hash_fn, generation_size)
        #: Indices already verified in the current generation (replay
        #: and duplicate suppression within the generation).
        self._seen: set[int] = set()
        #: Early arrivals from future generations, buffered until the
        #: chain catches up: generation -> list of raw packets.
        self._future: dict[int, list[bytes]] = {}
        self.rejected = 0

    def judge(self, packet: bytes) -> tuple[bool, str, list[ChainedVerified]]:
        """(ok, reason, verified-now) — may flush buffered packets."""
        try:
            reader = Reader(packet)
            generation = reader.u32()
            index = reader.u16()
            message = reader.var_bytes()
            mac = reader.raw(self._hash.digest_size)
            reader.expect_end()
        except Exception:
            self.rejected += 1
            return False, "malformed", []
        chain = self._chain
        if generation < chain.generation:
            self.rejected += 1
            return False, "stale-generation", []
        if generation > chain.generation:
            if generation - chain.generation > 2:
                self.rejected += 1
                return False, "generation-gap", []
            self._future.setdefault(generation, []).append(packet)
            return False, "buffered-future", []
        if index in self._seen or index >= chain.generation_size:
            self.rejected += 1
            return False, "replayed-index", []
        expected = chain.mac(self._key, generation, index, message)
        if expected != mac:
            self.rejected += 1
            return False, "bad-mac", []
        self._seen.add(index)
        verified = [ChainedVerified(generation, index, message)]
        chain.note(index, expected)
        if chain.generation != generation:
            # Generation complete: the ctx advanced; flush any buffered
            # packets of the generation that just became current.
            self._seen = set()
            for buffered in self._future.pop(chain.generation, []):
                ok, _, more = self.judge(buffered)
                if ok:
                    verified.extend(more)
        return True, "ok", verified


class ChainedModeRelay:
    """One forwarding hop: verify upstream, re-MAC downstream."""

    def __init__(
        self,
        hash_fn: HashFunction,
        upstream_key: bytes,
        downstream_key: bytes,
        generation_size: int = DEFAULT_GENERATION_SIZE,
    ) -> None:
        self._observer = _ChainObserver(hash_fn, upstream_key, generation_size)
        self._downstream = ChainedModeSigner(
            hash_fn, downstream_key, generation_size
        )

    def handle(self, packet: bytes) -> tuple[bool, list[bytes], str]:
        """(forward?, rewritten packets to send downstream, reason).

        A verified packet is re-MACed with the downstream link key; a
        completed generation may flush buffered early arrivals, so one
        input can produce several outputs. A ``buffered-future`` hold
        returns ``False`` with no outputs, like a drop.
        """
        ok, reason, verified = self._observer.judge(packet)
        outs = [self._downstream.protect(item.message) for item in verified]
        return ok, outs, reason

    def handle_as_insider(
        self, packet: bytes, mutate
    ) -> tuple[bool, list[bytes], str]:
        """What a *compromised* relay can do: verify upstream as usual,
        then re-MAC ``mutate(message)`` with its legitimate downstream
        key. Downstream hops verify the rewrite happily — the insider
        gap the feature matrix records (``insider_protection=False``).
        """
        ok, reason, verified = self._observer.judge(packet)
        outs = [
            self._downstream.protect(mutate(item.message)) for item in verified
        ]
        return ok, outs, "insider-rewritten" if ok else reason


class ChainedModeVerifier:
    """Receiving endpoint of the last hop."""

    def __init__(
        self,
        hash_fn: HashFunction,
        link_key: bytes,
        generation_size: int = DEFAULT_GENERATION_SIZE,
    ) -> None:
        self._observer = _ChainObserver(hash_fn, link_key, generation_size)
        self.verified: list[ChainedVerified] = []

    @property
    def rejected(self) -> int:
        return self._observer.rejected

    def handle_packet(self, packet: bytes) -> tuple[bool, str]:
        ok, reason, verified = self._observer.judge(packet)
        self.verified.extend(verified)
        return ok, reason

