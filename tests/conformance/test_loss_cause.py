"""Conformance: loss-cause classification and ledger-seeded associations.

The link-health ledger splits observed loss into congestion and
corruption shares (PROTOCOL.md §11). These tests drive deterministic
netsim schedules — pure random loss, pure corruption, and a mixed
link — and check that the classifier lands on the right side.

Two calibration facts shape the assertions:

* Relays verify packets and silently drop damaged ones, so corruption
  evidence only reaches an endpoint over a *direct* link. All
  schedules here use ``Network.chain(1)``.
* Corruption evidence is strongest at the *receiving* endpoint (parse
  drops and MAC rejects are seen there directly); the sender mostly
  sees the resulting timeouts plus the explicit nacks that survive the
  return trip. Pure-corruption assertions therefore lean on the
  verifier-side ledger, while pure-congestion assertions use the
  sender's (timeouts are a sender-side signal).

The final test covers ledger seeding: when chains run dry on a lossy
link and the endpoint rekeys, the replacement association must start
in the ledger-recommended loss-protective mode, not BASE.
"""

from __future__ import annotations

import pytest

from repro.core.adaptive import AdaptiveConfig
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.modes import Mode, ReliabilityMode
from repro.netsim import Network
from repro.netsim.link import LinkConfig
from repro.obs import Observability
from repro.transports.netsim import EndpointAdapter


def run_schedule(
    *,
    loss=0.0,
    corrupt=0.0,
    seed=3,
    messages=30,
    until=150.0,
    chain_length=1024,
    rekey_threshold=0,
    spacing_s=0.0,
    observe=False,
):
    """Drive an adaptive sender/verifier pair over one direct link."""
    obs = Observability() if observe else None
    link = LinkConfig(latency_s=0.003, loss_rate=loss, corrupt_rate=corrupt)
    net = Network.chain(1, config=link, seed=seed, obs=obs)
    config = EndpointConfig(
        reliability=ReliabilityMode.RELIABLE,
        chain_length=chain_length,
        rekey_threshold=rekey_threshold,
        retransmit_timeout_s=0.15,
        max_retries=100,
        dead_peer_threshold=0,
        adaptive=AdaptiveConfig(
            decision_interval_s=0.25,
            warmup_intervals=1,
            switch_cooldown_s=1.0,
        ),
    )
    sender = EndpointAdapter(
        AlphaEndpoint("s", config, seed="seed-s", obs=obs), net.nodes["s"]
    )
    receiver = EndpointAdapter(
        AlphaEndpoint("v", config, seed="seed-v", obs=obs), net.nodes["v"]
    )
    sender.connect("v")
    net.simulator.run(until=3.0)
    if spacing_s:
        # One exchange per message: each send drains before the next.
        now = 3.0
        for i in range(messages):
            sender.send("v", b"m%02d" % i + b"." * 56)
            now += spacing_s
            net.simulator.run(until=now)
        net.simulator.run(until=now + 60.0)
    else:
        for i in range(messages):
            sender.send("v", b"m%02d" % i + b"." * 56)
        net.simulator.run(until=until)
    return sender, receiver


class TestLossCauseClassifier:
    def test_pure_congestion_schedule(self):
        sender, receiver = run_schedule(loss=0.2, seed=3)
        assert len(receiver.received) == 30
        link = sender.endpoint.links.get("v")
        congestion, corruption = link.loss_split()
        assert link.split_confident
        assert congestion == pytest.approx(1.0)
        assert corruption == pytest.approx(0.0)
        # No corruption evidence anywhere on a loss-only link.
        peer = receiver.endpoint.links.get("s")
        assert link.corrupt_arrivals == 0
        assert peer is None or peer.corrupt_arrivals == 0

    def test_pure_corruption_schedule(self):
        sender, receiver = run_schedule(corrupt=0.2, seed=3)
        assert len(receiver.received) == 30
        # The receiving endpoint sees the damage directly: every loss
        # event on its ledger is a corrupt arrival or an explicit nack,
        # none a timeout.
        peer = receiver.endpoint.links.get("s")
        assert peer is not None and peer.corrupt_arrivals > 0
        congestion, corruption = peer.loss_split()
        assert peer.split_confident
        assert corruption == pytest.approx(1.0)
        assert congestion == pytest.approx(0.0)
        # The sender's view is weaker (corrupted packets surface as
        # timeouts) but must still register corruption evidence via
        # nack-triggered retransmits and mirrored corrupt arrivals.
        link = sender.endpoint.links.get("v")
        assert link.retransmits_nack > 0
        _, sender_corruption = link.loss_split()
        assert sender_corruption > 0.0

    def test_mixed_schedule_sees_both_causes(self):
        sender, receiver = run_schedule(
            loss=0.04, corrupt=0.04, seed=3, messages=24, until=250.0
        )
        assert len(receiver.received) == 24
        link = sender.endpoint.links.get("v")
        congestion, corruption = link.loss_split()
        assert link.split_confident
        assert 0.0 < corruption < 1.0
        assert 0.0 < congestion < 1.0
        # Both evidence streams actually fired.
        assert link.retransmits_timeout > 0
        total_corrupt = link.corrupt_arrivals + (
            receiver.endpoint.links.get("s").corrupt_arrivals
            if receiver.endpoint.links.get("s")
            else 0
        )
        assert link.retransmits_nack + total_corrupt > 0


class TestLedgerSeeding:
    def test_second_association_starts_in_ledger_mode(self):
        # Tiny chains + spaced sends force natural rekeys under loss:
        # each replacement association consults the ledger on install.
        sender, receiver = run_schedule(
            loss=0.25,
            seed=5,
            messages=16,
            chain_length=12,
            rekey_threshold=8,
            spacing_s=4.0,
        )
        assert len(receiver.received) == 16
        link = sender.endpoint.links.get("v")
        assert link.associations > 1  # rekeys actually happened
        assert link.loss_ewma > 0.05  # and the link stayed lossy
        current = sender.endpoint.association("v")
        controller = current.controller
        assert controller is not None and controller.decisions
        first = controller.decisions[0]
        # The replacement's *first* decision is the ledger seed — it
        # never passed through a blind BASE-mode warmup.
        assert first.kind == "seed"
        assert first.mode is Mode.MERKLE
        assert "ledger" in first.reason
        assert current.signer.config.mode is Mode.MERKLE

    def test_seed_inherits_loss_estimate(self):
        sender, _ = run_schedule(
            loss=0.25,
            seed=5,
            messages=16,
            chain_length=12,
            rekey_threshold=8,
            spacing_s=4.0,
        )
        link = sender.endpoint.links.get("v")
        controller = sender.endpoint.association("v").controller
        seeds = [d for d in controller.decisions if d.kind == "seed"]
        assert seeds
        # The seed adopted a real ledger estimate, not the 0.0 a fresh
        # controller starts from.
        assert seeds[0].loss > 0.0

    def test_clean_link_seeds_nothing(self):
        sender, receiver = run_schedule(
            loss=0.0,
            seed=5,
            messages=16,
            chain_length=12,
            rekey_threshold=8,
            spacing_s=2.0,
        )
        assert len(receiver.received) == 16
        link = sender.endpoint.links.get("v")
        assert link.associations > 1
        controller = sender.endpoint.association("v").controller
        # Ledger known but clean: no seed decision, channel stays BASE.
        assert all(d.kind != "seed" for d in controller.decisions)
        assert sender.endpoint.association("v").signer.config.mode is Mode.BASE
