"""Extension experiment X2 — the schemes × attacks separation grid.

Quantifies the security claims of Sections 3.1.1 and 3.5: forged,
tampered, and replayed traffic dies at the *first honest relay*, so an
attack costs the network one hop of resources instead of the whole
path. Every baseline runs on the same netsim chain topology under the
same frame-level attacks (via :class:`repro.baselines.BaselineChain`),
so the grid reports — per (scheme, attack) cell — where the attack was
caught, how much attacker traffic was accepted, and what the scheme
costs the sender per message. The blind spots are part of the result:
LHAP and CSM accept insider rewrites, ProMAC accepts-then-retracts
inside its window, Guy Fawkes desynchronises on injection/reorder.

Every cell is deterministic (seeded DRBGs everywhere) and is pinned by
an exact-separation test in ``tests/security/test_separation_grid.py``:
a scheme silently starting to accept forged traffic fails tier-1.
"""

from collections import Counter

from benchmarks.conftest import format_table
from repro.attacks import (
    PacketForger,
    RelayReorderer,
    S1Flooder,
    SelectiveTagCorruptor,
    TamperingRelay,
    Wiretap,
    alpha_s2_tag_region,
)
from repro.baselines import BaselineChain, scheme_adapters
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.packets import PacketError, PacketType, peek_type
from repro.core.relay import RelayConfig
from repro.crypto.drbg import DRBG
from repro.netsim import Network
from repro.netsim.packet import Frame
from repro.transports.netsim import EndpointAdapter, RelayAdapter

HOPS = 5
N_MESSAGES = 8
N_ATTACK = 50

#: Grid axes: ALPHA, then every registered baseline.
SCHEMES = ["ALPHA", *scheme_adapters()]
ATTACKS = ["forge", "tamper", "insider", "replay", "tag-corrupt", "reorder"]


def _messages() -> list[bytes]:
    return [b"msg-%02d" % i for i in range(N_MESSAGES)]


# ---------------------------------------------------------------------------
# ALPHA on the real endpoint/relay stack.
# ---------------------------------------------------------------------------


def protected_path(seed, relay_config=None, honest=None):
    """An established ALPHA path ``s — r1..r4 — v``.

    ``honest`` selects which relay ordinals (1-based) run a
    :class:`RelayAdapter`; the rest are plain forwarders — that is what
    a *compromised* relay looks like to the protocol. Default: all.
    Returned relay adapters carry a ``hop`` attribute with their
    ordinal.
    """
    net = Network.chain(HOPS, seed=seed)
    cfg = EndpointConfig(chain_length=1024)
    s = EndpointAdapter(AlphaEndpoint("s", cfg, seed=f"{seed}s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", cfg, seed=f"{seed}v"), net.nodes["v"])
    if honest is None:
        honest = set(range(1, HOPS))
    relays = []
    for i in sorted(honest):
        adapter = RelayAdapter(net.nodes[f"r{i}"], config=relay_config)
        adapter.hop = i
        relays.append(adapter)
    s.connect("v")
    net.simulator.run(until=1.0)
    assert s.established("v")
    return net, s, v, relays


def drop_distribution(relays):
    """Total drops per honest relay, in path order."""
    return [r.engine.stats.get("dropped", 0) for r in relays]


def drop_breakdowns(relays):
    """Per-cause drop attribution, merged over the honest relays."""
    merged: dict[str, int] = {}
    for relay in relays:
        for category, count in relay.engine.drop_breakdown().items():
            merged[category] = merged.get(category, 0) + count
    return merged


def _alpha_first_drop_hop(relays):
    for relay in relays:
        if relay.engine.stats.get("dropped", 0):
            return relay.hop
    return 0


def _run_alpha_cell(attack: str, seed) -> dict:
    honest = {2, 3, 4} if attack == "insider" else None
    net, s, v, relays = protected_path(seed=seed, honest=honest)
    rng = DRBG(seed, personalization=b"grid-attacker")
    messages = _messages()
    start = 1.0
    for i, message in enumerate(messages):
        net.simulator.schedule_at(start + 0.05 * i, s.send, "v", message)
    end = start + 0.05 * (len(messages) - 1)

    tap = None
    reorderer = None
    if attack == "forge":
        forger = PacketForger(net.nodes["s"], rng=rng)
        assoc = s.endpoint.association("v").assoc_id

        def _forge():
            forger.forge_s1(assoc, "v", "s", seq=9001)
            forger.forge_s2(assoc, "v", "s", seq=9001, message=b"forged-alpha")

        net.simulator.schedule_at(start + 0.12, _forge)
        net.simulator.schedule_at(end + 0.1, _forge)
    elif attack in ("tamper", "insider"):
        # Same mutation, different trust: "tamper" damages the s—r1
        # link (r1 honest, drop at hop 1); "insider" IS r1 (first
        # honest relay is r2).
        TamperingRelay(net.nodes["r1"])
    elif attack == "replay":
        tap = Wiretap(net.nodes["r1"])

        def _replay():
            replayed = 0
            for payload in tap.payloads("alpha"):
                try:
                    if peek_type(payload) is not PacketType.S2:
                        continue
                except PacketError:
                    continue
                net.nodes["s"].send(
                    Frame(source="s", destination="v", payload=payload, kind="alpha")
                )
                replayed += 1
                if replayed >= 2:
                    return

        net.simulator.schedule_at(end + 1.0, _replay)
    elif attack == "tag-corrupt":
        SelectiveTagCorruptor(
            net.nodes["r1"], alpha_s2_tag_region, kind="alpha", rng=rng, max_frames=2
        )
    elif attack == "reorder":
        reorderer = RelayReorderer(net.nodes["r1"], window=4, kind="alpha", rng=rng)
        net.simulator.schedule_at(end + 2.0, reorderer.stop)

    net.simulator.run(until=start + 24.0)
    accepted = [message for _, message in v.received]
    sent_counter = Counter(messages)
    acc_counter = Counter(accepted)
    return _cell_result(
        scheme="ALPHA",
        attack=attack,
        sent=len(messages),
        delivered=sum((acc_counter & sent_counter).values()),
        attack_accepted=sum((acc_counter - sent_counter).values()),
        authenticated=sum((acc_counter & sent_counter).values()),
        retractions=0,
        first_drop_hop=_alpha_first_drop_hop(relays),
        relay_drops=sum(drop_distribution(relays)),
        receiver_rejects=0,
        drop_reasons=drop_breakdowns(relays),
        sender_ops=s.endpoint.hash_fn.counter.hash_ops
        + s.endpoint.hash_fn.counter.mac_ops,
    )


# ---------------------------------------------------------------------------
# The baselines on BaselineChain, same chain, same attacks.
# ---------------------------------------------------------------------------


def _run_baseline_cell(scheme: str, attack: str, seed) -> dict:
    adapter = scheme_adapters()[scheme](seed=seed, hops=HOPS)
    chain = BaselineChain(
        adapter, seed=seed, insider_at=1 if attack == "insider" else None
    )
    rng = DRBG(seed, personalization=b"grid-attacker")
    messages = _messages()
    end = chain.send_stream(messages, start=0.05, spacing=0.05)

    reorderer = None
    if attack == "forge":
        chain.inject_at(end * 0.5, lambda now: adapter.forge(rng, now))
        chain.inject_at(end + 0.025, lambda now: adapter.forge(rng, now))
    elif attack == "tamper":
        SelectiveTagCorruptor(
            chain.relays[0],
            adapter.message_region,
            kind=BaselineChain.KIND,
            rng=rng,
            max_frames=2,
        )
    elif attack == "tag-corrupt":
        SelectiveTagCorruptor(
            chain.relays[0],
            adapter.tag_regions,
            kind=BaselineChain.KIND,
            rng=rng,
            max_frames=2,
        )
    elif attack == "reorder":
        reorderer = RelayReorderer(
            chain.relays[0], window=4, kind=BaselineChain.KIND, rng=rng
        )
        chain.net.simulator.schedule_at(end + 0.02, reorderer.stop)

    drain_end = chain.drain_from(end + 0.1)
    if attack == "replay":
        chain.inject_at(
            drain_end + 0.2,
            lambda now: chain.sent_payloads[2]
            if len(chain.sent_payloads) > 2
            else None,
        )
    chain.run()

    accepted = adapter.accepted_messages()
    sent_counter = Counter(messages)
    acc_counter = Counter(accepted)
    return _cell_result(
        scheme=scheme,
        attack=attack,
        sent=len(messages),
        delivered=sum((acc_counter & sent_counter).values()),
        attack_accepted=sum((acc_counter - sent_counter).values()),
        authenticated=sum(
            (Counter(adapter.authenticated_messages()) & sent_counter).values()
        ),
        retractions=adapter.retractions(),
        first_drop_hop=chain.first_drop_hop or 0,
        relay_drops=chain.relay_drop_total,
        receiver_rejects=adapter.receiver_rejects() + chain.receiver_errors,
        drop_reasons=chain.drop_reasons(),
        sender_ops=adapter.counter.hash_ops
        + adapter.counter.mac_ops
        + adapter.counter.pk_signs,
    )


def _cell_result(**kw) -> dict:
    relay_drops = kw["relay_drops"]
    if relay_drops:
        kw["drop_site"] = f"hop{kw['first_drop_hop']}"
    elif kw["receiver_rejects"]:
        kw["drop_site"] = "receiver"
    elif kw["attack_accepted"] or kw["retractions"]:
        kw["drop_site"] = "ACCEPTED"
    else:
        kw["drop_site"] = "-"
    return kw


def run_cell(scheme: str, attack: str, seed=0) -> dict:
    """One deterministic grid cell; the unit tests/security pins."""
    if scheme == "ALPHA":
        return _run_alpha_cell(attack, seed)
    return _run_baseline_cell(scheme, attack, seed)


def run_grid(seed=0) -> list[dict]:
    return [run_cell(scheme, attack, seed) for scheme in SCHEMES for attack in ATTACKS]


# ---------------------------------------------------------------------------
# Pytest entry points (full benchmark run) and the tier-1 smoke.
# ---------------------------------------------------------------------------


def test_attack_grid(emit):
    cells = run_grid(seed=0)
    by_key = {(c["scheme"], c["attack"]): c for c in cells}

    # The paper's headline property, across the whole grid: no forged or
    # tampered payload ever reaches the ALPHA application, and on-path
    # manipulation dies at the first honest relay.
    for attack in ATTACKS:
        cell = by_key[("ALPHA", attack)]
        assert cell["attack_accepted"] == 0, (attack, cell)
        if attack in ("forge", "tamper", "tag-corrupt"):
            assert cell["drop_site"] == "hop1", (attack, cell)
        if attack == "insider":
            assert cell["drop_site"] == "hop2", cell  # first honest relay
        if attack == "replay":
            # A replayed S2 is wire-identical to a retransmission, so
            # relays forward it; the receiver's exchange state dedupes.
            assert cell["delivered"] == N_MESSAGES, cell

    # Documented blind spots must stay documented (honest feature rows).
    assert by_key[("LHAP", "insider")]["attack_accepted"] > 0
    assert by_key[("CSM", "insider")]["attack_accepted"] > 0
    assert by_key[("PROMAC", "tag-corrupt")]["retractions"] > 0
    assert by_key[("CSM", "reorder")]["delivered"] == N_MESSAGES
    assert by_key[("GUY-FAWKES", "reorder")]["delivered"] < N_MESSAGES

    rows = [
        [
            cell["scheme"],
            cell["attack"],
            cell["delivered"],
            cell["attack_accepted"],
            cell["retractions"],
            cell["drop_site"],
            dict(cell["drop_reasons"]) or "-",
        ]
        for cell in cells
    ]
    grid_table = format_table(
        ["scheme", "attack", "delivered", "attacker accepted", "retracted", "caught at", "drop causes"],
        rows,
    )

    clean = [run_cell(scheme, "forge", seed=1) for scheme in SCHEMES]
    cost_rows = [
        [
            cell["scheme"],
            round(cell["sender_ops"] / cell["sent"], 1),
        ]
        for cell in clean
    ]
    cost_table = format_table(["scheme", "sender ops/msg"], cost_rows)
    emit(
        "x2_attack_filtering",
        grid_table + "\n\nSender-side cost on the same traffic:\n" + cost_table,
    )


def test_alpha_drop_location(emit, benchmark):
    """The original X2 scenarios: volumetric attacks die at hop 1."""
    rows = []

    net, s, v, relays = protected_path(seed=1)
    assoc = s.endpoint.association("v").assoc_id
    forger = PacketForger(net.nodes["s"])
    for seq in range(1, N_ATTACK + 1):
        forger.forge_s1(assoc, "v", "s", seq)
        forger.forge_s2(assoc, "v", "s", seq, b"junk" * 32)
    net.simulator.run(until=10.0)
    drops = drop_distribution(relays)
    rows.append(["forged S1+S2 (outsider)", 2 * N_ATTACK, drops, len(v.received)])
    assert drops[0] == 2 * N_ATTACK and sum(drops[1:]) == 0
    assert v.received == []
    assert drop_breakdowns(relays).get("forged", 0) >= N_ATTACK

    net, s, v, relays = protected_path(
        seed=2, relay_config=RelayConfig(initial_s1_allowance=300)
    )
    flooder = S1Flooder(net.nodes["s"], "v", rate_pps=100, payload_bytes=1200)
    flooder.start(duration_s=0.5)
    net.simulator.run(until=3.0)
    drops = drop_distribution(relays)
    rows.append(["oversized S1 flood", flooder.stats.frames_sent, drops, len(v.received)])
    assert drops[0] == flooder.stats.frames_sent and sum(drops[1:]) == 0
    assert drop_breakdowns(relays).get("flooded", 0) == flooder.stats.frames_sent

    net, s, v, relays = protected_path(seed=3)
    assoc = s.endpoint.association("v").assoc_id
    forger = PacketForger(net.nodes["s"])
    for seq in range(100, 100 + N_ATTACK):
        forger.forge_s2(assoc, "v", "s", seq, b"unsolicited")
    net.simulator.run(until=5.0)
    drops = drop_distribution(relays)
    rows.append(["unsolicited S2s", N_ATTACK, drops, len(v.received)])
    assert drops[0] == N_ATTACK and sum(drops[1:]) == 0

    emit(
        "x2_alpha_drop_location",
        format_table(
            ["attack", "packets", "drops at r1..r4", "reached victim"], rows
        ),
    )

    # Benchmark: relay decision cost for a forged S1 (the DoS-relevant
    # number — how much CPU one junk packet costs the first relay).
    from repro.core.modes import Mode
    from repro.core.packets import S1Packet

    net, s, v, relays = protected_path(seed=9)
    engine = relays[0].engine
    assoc = s.endpoint.association("v").assoc_id
    forged = S1Packet(
        assoc, 999, Mode.BASE, 1001, b"\x00" * 20, [b"\x01" * 20], 1
    ).encode()

    benchmark(engine.handle, forged, "s", "v", 0.0)


def smoke():
    """Tier-1 smoke: the full separation grid at its normal (small) size.

    Asserts the ALPHA row accepts nothing and drops forgeries at the
    first relay; ``tests/security/test_separation_grid.py`` pins every
    cell of the grid exactly.
    """
    cells = run_grid(seed=0)
    by_key = {(c["scheme"], c["attack"]): c for c in cells}
    for attack in ATTACKS:
        assert by_key[("ALPHA", attack)]["attack_accepted"] == 0
    assert by_key[("ALPHA", "forge")]["drop_site"] == "hop1"
