"""Adversarial-channel property tests.

Hypothesis drives a hostile network between a signer and a verifier:
packets are dropped, duplicated, reordered, and corrupted according to a
generated schedule. The invariants under *any* schedule:

1. Safety — the verifier only ever delivers messages the signer
   actually submitted, each at most once per exchange.
2. No wedging — the signer always ends idle (exchanges complete or fail
   cleanly) once the channel drains.
3. No crashes — corrupted packets never raise out of the engines.
"""

from hypothesis import given, settings, strategies as st

from repro.core.exceptions import PacketError
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig

from tests.core.test_sessions import make_channel

H = 20

# One action per in-flight packet: deliver / drop / duplicate / corrupt.
actions = st.sampled_from(["deliver", "drop", "dup", "corrupt"])


@st.composite
def schedules(draw):
    mode = draw(st.sampled_from([Mode.BASE, Mode.CUMULATIVE, Mode.MERKLE]))
    reliability = draw(st.sampled_from(list(ReliabilityMode)))
    n_messages = draw(st.integers(min_value=1, max_value=6))
    script = draw(st.lists(actions, min_size=10, max_size=60))
    corrupt_offsets = draw(st.lists(st.integers(min_value=0, max_value=500),
                                    min_size=1, max_size=10))
    return mode, reliability, n_messages, script, corrupt_offsets


class HostileChannel:
    """Applies a scripted action to each packet crossing it."""

    def __init__(self, script, corrupt_offsets):
        self.script = list(script)
        self.corrupt_offsets = list(corrupt_offsets)
        self.step = 0

    def transfer(self, payloads):
        out = []
        for payload in payloads:
            action = self.script[self.step % len(self.script)]
            self.step += 1
            if action == "drop":
                continue
            if action == "dup":
                out.extend([payload, payload])
                continue
            if action == "corrupt":
                offset = self.corrupt_offsets[
                    self.step % len(self.corrupt_offsets)
                ] % max(len(payload), 1)
                mutated = bytearray(payload)
                mutated[offset] ^= 0x5A
                out.append(bytes(mutated))
                continue
            out.append(payload)
        return out


@given(schedule=schedules(), seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=60, deadline=None)
def test_channel_invariants(schedule, seed):
    mode, reliability, n_messages, script, corrupt_offsets = schedule
    from repro.crypto.drbg import DRBG
    from repro.crypto.hashes import get_hash

    sha1 = get_hash("sha1")
    rng = DRBG(seed, personalization=b"adversarial")
    config = ChannelConfig(
        mode=mode,
        reliability=reliability,
        batch_size=n_messages,
        retransmit_timeout_s=0.5,
        max_retries=3,
        # The bounded-round liveness check below assumes fixed-interval
        # retries; adaptive backoff legitimately stretches past it.
        adaptive_rto=False,
    )
    signer, verifier = make_channel(sha1, rng, config, chain_length=256)
    channel = HostileChannel(script, corrupt_offsets)

    submitted = [b"msg-%d" % i for i in range(n_messages)]
    for message in submitted:
        signer.submit(message)

    now = 0.0
    for _ in range(40):  # bounded rounds; timeouts advance via `now`
        to_verifier = channel.transfer(signer.poll(now))
        replies = []
        for payload in to_verifier:
            try:
                packet = decode_packet(payload, H)
            except PacketError:
                continue
            from repro.core.packets import A1Packet, A2Packet, S1Packet, S2Packet

            if isinstance(packet, S1Packet):
                reply = verifier.handle_s1(packet, now)
                if reply is not None:
                    replies.append(reply)
            elif isinstance(packet, S2Packet):
                reply = verifier.handle_s2(packet, now)
                if reply is not None:
                    replies.append(reply)
        for payload in channel.transfer(replies):
            try:
                packet = decode_packet(payload, H)
            except PacketError:
                continue
            from repro.core.packets import A1Packet, A2Packet

            if isinstance(packet, A1Packet):
                for s2 in signer.handle_a1(packet, now):
                    to_verifier.append(s2)
                    for extra in channel.transfer([s2]):
                        try:
                            s2_packet = decode_packet(extra, H)
                        except PacketError:
                            continue
                        from repro.core.packets import S2Packet

                        if isinstance(s2_packet, S2Packet):
                            reply = verifier.handle_s2(s2_packet, now)
                            if reply is not None:
                                for back in channel.transfer([reply]):
                                    try:
                                        a2 = decode_packet(back, H)
                                    except PacketError:
                                        continue
                                    if isinstance(a2, A2Packet):
                                        signer.handle_a2(a2, now)
            elif isinstance(packet, A2Packet):
                signer.handle_a2(packet, now)
        now += 1.0  # let timeouts fire

    # Safety: every delivered message was genuinely submitted, no
    # per-exchange duplicates.
    seen = set()
    for delivered in verifier.delivered:
        assert delivered.message in submitted
        key = (delivered.seq, delivered.msg_index)
        assert key not in seen
        seen.add(key)

    # Liveness-ish: the signer never wedges.
    for _ in range(10):
        now += 1.0
        signer.poll(now)
    assert signer.idle
    assert signer.stats.exchanges_completed + signer.stats.exchanges_failed >= 1
