"""Every shared channel check, tripped at every role that runs it.

The relay runs the same S-side checks as the verifier and the same
A-side checks as the signer (paper Section 3.1). Each case below stages
one honest reliable ALPHA-C exchange (two messages) through
signer → relay → verifier up to the packet it forges, then feeds the
forgery to each role that checks it and asserts that role's typed
reason: the relay's drop reason, or the info of the endpoint's last
verify event.
"""

from dataclasses import replace

import pytest

from repro.canonical import CanonicalChannel
from repro.core.modes import Mode, ReliabilityMode
from repro.core.packets import decode_packet
from repro.core.signer import ChannelConfig
from repro.obs import EventKind, Observability

H = 20
ASSOC = 91
JUNK = b"\xee" * H

_VERIFY_EVENTS = {
    "verifier": {
        EventKind.S1_VERIFY_OK, EventKind.S1_VERIFY_FAIL,
        EventKind.S2_VERIFY_OK, EventKind.S2_VERIFY_FAIL,
    },
    "signer": {
        EventKind.A1_VERIFY_OK, EventKind.A1_VERIFY_FAIL,
        EventKind.A2_VERIFY_OK, EventKind.A2_VERIFY_FAIL,
    },
}


class Channel(CanonicalChannel):
    """signer → relay → verifier, advanced stage by stage by hand."""

    def __init__(self, sha1, rng):
        config = ChannelConfig(
            mode=Mode.CUMULATIVE, batch_size=2,
            reliability=ReliabilityMode.RELIABLE,
        )
        super().__init__(rng, config, obs=Observability(), assoc_id=ASSOC)

    def relay_judges(self, packet) -> str:
        src, dst = ("s", "v") if packet.TYPE.name[0] == "S" else ("v", "s")
        decision = self.relay.handle(packet.encode(), src, dst, 0.0)
        return decision.reason

    def endpoint_judges(self, role: str, packet) -> str:
        session = getattr(self, role)
        getattr(session, f"handle_{packet.TYPE.name.lower()}")(packet, 0.0)
        events = [
            event for event in self.obs.tracer.events
            if event.node == role and event.kind in _VERIFY_EVENTS[role]
        ]
        return events[-1].info

    def _decode(self, raw):
        return decode_packet(raw, H)

    def s1(self):
        """The genuine S1, seen by no one yet."""
        self.signer.submit(b"first")
        self.signer.submit(b"second")
        return self._decode(self.signer.poll(0.0)[0])

    def a1(self):
        """The genuine A1, after relay and verifier accepted the S1."""
        s1 = self.s1()
        assert self.relay_judges(s1) == "s1-ok"
        return self._decode(self.verifier.handle_s1(s1, 0.0))

    def s2(self):
        """The first genuine S2, after relay and signer accepted the A1."""
        a1 = self.a1()
        assert self.relay_judges(a1) == "a1-ok"
        return self._decode(self.signer.handle_a1(a1, 0.0)[0])

    def s2_pinned(self):
        """The first S2 once relay and verifier pinned its key."""
        s2 = self.s2()
        self._deliver_s2(s2)
        return s2

    def a2(self):
        """The verifier's A2 for the first S2, seen by no one yet."""
        return self._deliver_s2(self.s2())

    def a2_pinned(self):
        """The first A2 once relay and signer pinned its key."""
        a2 = self.a2()
        assert self.relay_judges(a2) == "a2-ok"
        self.signer.handle_a2(a2, 0.0)
        return a2

    def _deliver_s2(self, s2):
        assert self.relay_judges(s2) == "s2-ok"
        return self._decode(self.verifier.handle_s2(s2, 0.0))


def _junk_verdict(a2):
    return replace(a2, verdicts=[replace(v, secret=b"\x00" * 16) for v in a2.verdicts])


#: (stage, forgery, {role: typed reason}) per shared check.
CASES = {
    "s1-even-position": (
        Channel.s1,
        lambda s1: replace(s1, chain_index=s1.chain_index - 1),
        {"relay": "s1-even-position", "verifier": "even-position"},
    ),
    "a1-even-position": (
        Channel.a1,
        lambda a1: replace(a1, ack_index=a1.ack_index - 1),
        {"relay": "a1-even-position", "signer": "even-position"},
    ),
    "s2-wrong-key-index": (
        Channel.s2,
        lambda s2: replace(s2, disclosed_index=s2.disclosed_index - 2),
        {"relay": "s2-wrong-key-index", "verifier": "bad-key-disclosure"},
    ),
    "s2-bad-key": (
        Channel.s2,
        lambda s2: replace(s2, disclosed_element=JUNK),
        {"relay": "s2-bad-key", "verifier": "bad-key-disclosure"},
    ),
    "s2-key-mismatch": (
        Channel.s2_pinned,
        lambda s2: replace(s2, disclosed_element=JUNK),
        {"relay": "s2-key-mismatch", "verifier": "bad-key-disclosure"},
    ),
    "a2-odd-position": (
        Channel.a2,
        lambda a2: replace(a2, disclosed_index=a2.disclosed_index + 1),
        {"relay": "a2-odd-position", "signer": "odd-position"},
    ),
    "a2-bad-key": (
        Channel.a2,
        lambda a2: replace(a2, disclosed_element=JUNK),
        {"relay": "a2-bad-key", "signer": "bad-key"},
    ),
    "a2-key-mismatch": (
        Channel.a2_pinned,
        lambda a2: replace(a2, disclosed_element=JUNK),
        {"relay": "a2-key-mismatch", "signer": "key-mismatch"},
    ),
    # The signer skips a verdict that does not verify instead of
    # rejecting the whole A2: nothing gets acked.
    "a2-bad-verdict": (
        Channel.a2,
        _junk_verdict,
        {"relay": "a2-bad-verdict", "signer": "acked=0/2"},
    ),
}

PARAMS = [
    pytest.param(check, role, id=f"{check}@{role}")
    for check, (_, _, reasons) in CASES.items()
    for role in reasons
]


@pytest.mark.parametrize("check,role", PARAMS)
def test_forgery_trips_the_shared_check(sha1, rng, check, role):
    stage, forge, reasons = CASES[check]
    channel = Channel(sha1, rng)
    forged = forge(stage(channel))
    if role == "relay":
        assert channel.relay_judges(forged) == reasons[role]
    else:
        assert channel.endpoint_judges(role, forged) == reasons[role]
