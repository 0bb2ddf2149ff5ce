"""The dominant-loss-cause rule and every site that acts on it.

``LinkHealth.dominant_cause()`` names a cause once it holds at least
``DOMINANT_SHARE`` of a confident loss split. The signer's damper and
escape hatch (PROTOCOL.md §12), the adaptive controller (§11) and the
endpoint's escape re-bootstrap (§16) all read it; this pins each of
them at the boundary.
"""

import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.endpoint import AlphaEndpoint, EndpointConfig, EndpointOutput
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.linkhealth import DOMINANT_SHARE, LinkHealth
from repro.core.packets import LedgerSummary
from repro.core.signer import ChannelConfig, SignerSession
from repro.obs import EventKind, Observability

H = 20

#: (nack retransmits, timeout retransmits) -> expected dominant cause.
SPLITS = {
    "corruption-at-share": (3, 2, "corruption"),  # 3/5 = 0.6
    "corruption-below-share": (5, 4, None),  # 5/9 < 0.6, 4/9 < 0.6
    "congestion-at-share": (2, 3, "congestion"),  # 3/5 = 0.6
}


def split_link(peer, nacks, timeouts, link=None):
    """A confident split with a peer report: the escape heuristic
    requires the peer's own view, and a zero corrupt-arrival report
    leaves the nack/timeout split as is."""
    link = link if link is not None else LinkHealth(peer)
    link.on_peer_summary(LedgerSummary(corrupt_arrivals=0))
    for _ in range(nacks):
        link.on_nack_retransmit()
    for _ in range(timeouts):
        link.on_timeout_retransmit()
    return link


def make_signer(sha1, rng, link):
    sig_chain = HashChain(sha1, rng.random_bytes(H), 16)
    ack_chain = HashChain(sha1, rng.random_bytes(H), 16, tags=ACKNOWLEDGMENT_TAGS)
    return SignerSession(
        sha1,
        sig_chain,
        ChainVerifier(sha1, ack_chain.anchor, tags=ACKNOWLEDGMENT_TAGS),
        ChannelConfig(),
        assoc_id=1,
        link=link,
    )


def escape_outcome(nacks, timeouts):
    """Drive the endpoint's terminal rto-escape handling; returns the
    REBOOTSTRAP infos and the failure reasons it produced."""
    config = EndpointConfig()
    a = AlphaEndpoint("a", config, seed=1, obs=Observability())
    b = AlphaEndpoint("b", config, seed=2, obs=Observability())
    _, hs1 = a.connect("b")
    out = b.on_packet(hs1, "a", 0.0)
    a.on_packet(out.replies[0][1], "b", 0.0)
    split_link("b", nacks, timeouts, link=a.links.link("b"))
    a.send("b", b"queued")
    out = EndpointOutput()
    a._check_dead_peer(a.association("b"), 1.0, out, force=True)
    infos = [
        event.info for event in a.obs.tracer.events
        if event.kind is EventKind.REBOOTSTRAP
    ]
    return infos, [failure.reason for _, failure in out.failures]


@pytest.mark.parametrize("case", sorted(SPLITS))
def test_dominant_cause_boundary(case, sha1, rng):
    nacks, timeouts, cause = SPLITS[case]
    link = split_link("v", nacks, timeouts)
    assert link.split_confident
    share = nacks / (nacks + timeouts)
    assert link.loss_split() == pytest.approx((1 - share, share))
    assert (share >= DOMINANT_SHARE) is (cause == "corruption")
    assert link.dominant_cause() == cause

    signer = make_signer(sha1, rng, link)
    assert signer._probe_threshold() == (1 if cause == "corruption" else 2)
    assert signer._nack_capacity() == (2.0 if cause == "congestion" else 4.0)

    controller = AdaptiveController(signer, link=link)
    assert controller._corruption_dominated() is (cause == "corruption")

    infos, reasons = escape_outcome(nacks, timeouts)
    if cause == "corruption":
        assert len(infos) == 1 and infos[0].endswith("cause=escape-corruption")
        assert reasons == []
    else:
        assert infos == []
        assert reasons == ["dead-peer"]


def test_unconfident_split_has_no_dominant_cause():
    link = LinkHealth("v")
    for _ in range(3):
        link.on_nack_retransmit()  # pure corruption, but < MIN_SPLIT_EVENTS
    assert not link.split_confident
    assert link.dominant_cause() is None
