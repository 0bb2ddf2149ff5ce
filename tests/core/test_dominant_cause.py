"""The dominant-loss-cause rule and the one site that acts on it.

``LinkHealth.dominant_cause()`` names a cause once it holds at least
``DOMINANT_SHARE`` of a confident loss split. Only the adaptive
controller (PROTOCOL.md §11) reads it; this pins it at the boundary.
The endpoint's terminal escape handling does not: whatever the split, a
forced dead-peer check fails the queued messages as ``dead-peer``. Nor
does the signer: an observed, non-adaptive pair keeps a ledger but
never asks it for a cause (§12.3).
"""

import pytest

from repro.core.adaptive import AdaptiveController
from repro.core.endpoint import AlphaEndpoint, EndpointConfig, EndpointOutput
from repro.core.hashchain import ACKNOWLEDGMENT_TAGS, ChainVerifier, HashChain
from repro.core.linkhealth import DOMINANT_SHARE, LinkHealth
from repro.core.resilience import ResilienceStats
from repro.core.signer import ChannelConfig, SignerSession
from repro.obs import Observability
from tests.obs.test_observing_is_wire_neutral import CORRUPTION_MODES, corruption_drive

H = 20

#: (nack retransmits, timeout retransmits) -> expected dominant cause.
SPLITS = {
    "corruption-at-share": (3, 2, "corruption"),  # 3/5 = 0.6
    "corruption-below-share": (5, 4, None),  # 5/9 < 0.6, 4/9 < 0.6
    "congestion-at-share": (2, 3, "congestion"),  # 3/5 = 0.6
}


def split_link(peer, nacks, timeouts):
    """A confident one-sided split: no corrupt arrivals, so the
    nack/timeout split stands as is."""
    stats = ResilienceStats(retransmits_nack=nacks, retransmits_timeout=timeouts)
    return LinkHealth(peer, counts=lambda: stats)


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
    packets it sent (no re-bootstrap handshake) and the failure reasons
    it produced."""
    config = EndpointConfig()
    a = AlphaEndpoint("a", config, seed=1, obs=Observability())
    b = AlphaEndpoint("b", config, seed=2, obs=Observability())
    _, hs1 = a.connect("b")
    out = b.on_packet(hs1, "a", 0.0)
    a.on_packet(out.replies[0][1], "b", 0.0)
    stats = a.association("b").signer.stats
    stats.retransmits_nack, stats.retransmits_timeout = nacks, timeouts
    assert a.links.link("b").split_confident
    a.send("b", b"queued")
    out = EndpointOutput()
    a._check_dead_peer(a.association("b"), 1.0, out, force=True)
    return out.replies, [failure.reason for _, failure in out.failures]


@pytest.mark.parametrize("case", sorted(SPLITS))
def test_dominant_cause_boundary(case, sha1, rng):
    nacks, timeouts, cause = SPLITS[case]
    link = split_link("v", nacks, timeouts)
    assert link.split_confident
    share = nacks / (nacks + timeouts)
    assert link.loss_split() == pytest.approx((1 - share, share))
    assert (share >= DOMINANT_SHARE) is (cause == "corruption")
    assert link.dominant_cause() == cause

    controller = AdaptiveController(make_signer(sha1, rng, link), link=link)
    assert controller._corruption_dominated() is (cause == "corruption")

    replies, reasons = escape_outcome(nacks, timeouts)
    assert replies == []
    assert reasons == ["dead-peer"]


def test_unconfident_split_has_no_dominant_cause():
    # Pure corruption, but < MIN_SPLIT_EVENTS.
    link = split_link("v", 3, 0)
    assert not link.split_confident
    assert link.dominant_cause() is None


@pytest.mark.parametrize("mode", sorted(CORRUPTION_MODES))
def test_signer_never_reads_the_dominant_cause(mode, monkeypatch):
    """The corruption drive of the wire-neutrality test, observed and
    non-adaptive, with the rule made to raise: the signer's damper and
    probe threshold are constants, so the run matches an unobserved
    one."""

    def forbidden(self):
        raise AssertionError("a non-adaptive endpoint read dominant_cause")

    plain = corruption_drive(mode, 0, observe=False)
    monkeypatch.setattr(LinkHealth, "dominant_cause", forbidden)
    assert corruption_drive(mode, 0, observe=True) == plain
    assert plain[1]
