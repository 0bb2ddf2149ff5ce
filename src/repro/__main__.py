"""Command-line entry point: ``python -m repro <command>``.

Small operational surface for poking at the reproduction without
writing code:

- ``tables``   — regenerate the paper's analytic tables to stdout.
- ``demo``     — run the quickstart scenario (protected 4-hop path).
- ``wsn``      — print the Section 4.1.3 sensor-network estimates.
- ``trace``    — replay a canonical exchange with the observability
  layer enabled and print its event timeline + summary (PROTOCOL.md §9).
- ``adapt``    — run the adaptive mode controller (PROTOCOL.md §10) on
  a bursty 3-hop path and print its switch/tune decisions.
- ``report``   — run a mixed-loss scenario (congestion + corruption on
  a direct link) and print the link-health report: per-link ledgers
  with the loss-cause split (PROTOCOL.md §11).
- ``export``   — same scenario, exported as Prometheus text or JSONL
  (``--format``, ``-o FILE``).
- ``selftest`` — fast internal consistency check (crypto vectors, one
  protocol round trip); exits non-zero on failure.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_tables() -> int:
    from repro import analysis
    from repro.devices import get_profile

    print("Equation 1 / Figure 5 — signed bytes per S1 (1280 B packets):")
    for n in (1, 16, 256, 4096, 65536):
        print(f"  n={n:>6}: {analysis.stotal(n, 1280):>12,} B "
              f"(overhead ratio {analysis.overhead_ratio(n, 1280):.3f})")
    print("\nTable 6 — ALPHA-M on the AR2315 mesh router:")
    for row in analysis.table6_rows([get_profile('ar2315')]):
        print(f"  leaves={row.leaves:>5}  payload={row.payload_bytes} B  "
              f"throughput={row.throughput_bps['ar2315'] / 1e6:5.1f} Mbit/s")
    plain = analysis.wsn_estimates(get_profile("cc2430"))
    print(f"\nSection 4.1.3 — WSN (CC2430): {plain.signed_payload_bps / 1e3:.0f} kbit/s "
          f"verifiable in {plain.packets_per_second:.0f} S2/s "
          f"(paper: 244 kbit/s, 460 S2/s)")
    return 0


def _cmd_demo() -> int:
    from repro.core.endpoint import AlphaEndpoint, EndpointConfig
    from repro.core.modes import Mode, ReliabilityMode
    from repro.netsim import Network
    from repro.transports.netsim import EndpointAdapter, RelayAdapter

    net = Network.chain(4)
    config = EndpointConfig(
        mode=Mode.CUMULATIVE, reliability=ReliabilityMode.RELIABLE, batch_size=4
    )
    s = EndpointAdapter(AlphaEndpoint("s", config, seed=1), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", config, seed=2), net.nodes["v"])
    relays = [RelayAdapter(net.nodes[f"r{i}"]) for i in (1, 2, 3)]
    s.connect("v")
    net.simulator.run(until=1.0)
    print(f"handshake: established={s.established('v')}")
    for i in range(4):
        s.send("v", f"demo-{i}".encode())
    net.simulator.run(until=10.0)
    print(f"delivered: {[m.decode() for _, m in v.received]}")
    for i, relay in enumerate(relays, 1):
        stats = relay.engine.stats
        print(f"relay r{i}: verified S2={stats.get('s2-ok', 0)} "
              f"dropped={stats.get('dropped', 0)}")
    return 0


def _cmd_adapt() -> int:
    from repro.core.adaptive import AdaptiveConfig
    from repro.core.endpoint import AlphaEndpoint, EndpointConfig
    from repro.core.modes import Mode, ReliabilityMode
    from repro.netsim import Network
    from repro.netsim.link import LinkConfig
    from repro.transports.netsim import EndpointAdapter, RelayAdapter

    # Gilbert-Elliott bursts, ~20% average loss: hostile enough that the
    # controller has a reason to leave BASE and pick ALPHA-M.
    link = LinkConfig(
        latency_s=0.003, ge_p_bad=0.08, ge_p_good=0.3, ge_loss_bad=0.8
    )
    net = Network.chain(3, config=link, seed=7)
    config = EndpointConfig(
        mode=Mode.BASE,
        reliability=ReliabilityMode.RELIABLE,
        chain_length=2048,
        retransmit_timeout_s=0.15,
        max_retries=100,
        rto_max_s=5.0,
        dead_peer_threshold=0,
        adaptive=AdaptiveConfig(
            decision_interval_s=0.25, warmup_intervals=1, switch_cooldown_s=1.0
        ),
    )
    s = EndpointAdapter(AlphaEndpoint("s", config, seed="adapt-s"), net.nodes["s"])
    v = EndpointAdapter(AlphaEndpoint("v", config, seed="adapt-v"), net.nodes["v"])
    for i in (1, 2):
        RelayAdapter(net.nodes[f"r{i}"])
    s.connect("v")
    net.simulator.run(until=10.0)
    print(f"handshake: established={s.established('v')}")
    for i in range(32):
        s.send("v", b"adapt-%02d" % i + b"." * 120)
    net.simulator.run(until=120.0)
    controller = s.endpoint.association("v").controller
    assert controller is not None
    print(f"delivered: {len(v.received)}/32 under ~20% burst loss")
    print(f"controller decisions ({len(controller.decisions)}):")
    for d in controller.decisions:
        print(f"  t={d.at:7.3f}s  {d.kind:<6}  {d.reason}")
    final = s.endpoint.association("v").signer.config
    print(
        f"final channel: mode={final.mode.name.lower()} "
        f"batch={final.batch_size} outstanding={final.max_outstanding}"
    )
    return 0


def _cmd_wsn() -> int:
    from repro import analysis
    from repro.devices import get_profile

    cc = get_profile("cc2430")
    for label, preacks in (("unreliable", False), ("with pre-acks", True)):
        est = analysis.wsn_estimates(cc, with_preacks=preacks)
        print(f"ALPHA-C {label:>14}: {est.signed_payload_bps / 1e3:6.1f} kbit/s, "
              f"{est.packets_per_second:5.0f} S2/s, "
              f"overhead {est.per_packet_overhead_bytes:.1f} B/pkt")
    return 0


def _cmd_selftest() -> int:
    import hashlib

    from repro.crypto.aes import AES128
    from repro.crypto.sha1 import sha1_digest
    from repro.transports import MemoryNetwork
    from repro.core.endpoint import AlphaEndpoint, EndpointConfig

    failures = []
    # FIPS-197 AES vector.
    ct = AES128(bytes.fromhex("000102030405060708090a0b0c0d0e0f")).encrypt_block(
        bytes.fromhex("00112233445566778899aabbccddeeff")
    )
    if ct.hex() != "69c4e0d86a7b0430d8cdb78070b4c55a":
        failures.append("AES-128 vector mismatch")
    # FIPS 180 SHA-1 vector + hashlib agreement.
    if sha1_digest(b"abc").hex() != "a9993e364706816aba3e25717850c26c9cd0d89d":
        failures.append("SHA-1 vector mismatch")
    if sha1_digest(b"selftest") != hashlib.sha1(b"selftest").digest():
        failures.append("SHA-1 differs from hashlib")
    # One protocol round trip in memory.
    net = MemoryNetwork()
    net.add_endpoint(AlphaEndpoint("a", EndpointConfig(chain_length=64), seed=1))
    net.add_endpoint(AlphaEndpoint("b", EndpointConfig(chain_length=64), seed=2))
    net.connect("a", "b")
    net.send("a", "b", b"selftest-payload")
    if net.received_by("b") != [b"selftest-payload"]:
        failures.append("protocol round trip failed")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "OK"))
    return 1 if failures else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.canonical import (
        ADAPTIVE_EXCHANGE,
        CANONICAL_EXCHANGES,
        MULTIHOP_EXCHANGE,
        run_canonical,
    )
    from repro.obs.format import format_summary, format_timeline

    try:
        obs = run_canonical(args.exchange, seed=args.seed)
    except ValueError:
        available = ", ".join(
            sorted([*CANONICAL_EXCHANGES, ADAPTIVE_EXCHANGE, MULTIHOP_EXCHANGE])
        )
        print(
            f"unknown exchange {args.exchange!r}, available: {available}",
            file=sys.stderr,
        )
        return 2
    print(f"# canonical exchange: {args.exchange}")
    print(format_timeline(obs.tracer.events))
    if not args.no_summary:
        print()
        print(format_summary(obs))
    return 0


def _mixed_loss_run(seed: int | str = 11):
    """Drive the telemetry scenario behind ``report`` and ``export``.

    A direct link (no verifying relay in the way — relays drop damaged
    packets before they can earn a nack) carrying both congestion-style
    loss and corruption, between adaptive reliable endpoints sharing one
    observability context. Returns ``(obs, sender_endpoint)`` — the
    sender's :class:`~repro.core.linkhealth.HealthLedger` holds the
    per-link story the report/export commands render.
    """
    from repro.core.adaptive import AdaptiveConfig
    from repro.core.endpoint import AlphaEndpoint, EndpointConfig
    from repro.core.modes import ReliabilityMode
    from repro.netsim import Network
    from repro.netsim.link import LinkConfig
    from repro.obs import Observability
    from repro.transports.netsim import EndpointAdapter

    obs = Observability()
    link = LinkConfig(latency_s=0.003, loss_rate=0.04, corrupt_rate=0.04)
    net = Network.chain(1, config=link, seed=seed, obs=obs)
    config = EndpointConfig(
        reliability=ReliabilityMode.RELIABLE,
        retransmit_timeout_s=0.15,
        max_retries=100,
        dead_peer_threshold=0,
        adaptive=AdaptiveConfig(
            decision_interval_s=0.25, warmup_intervals=1, switch_cooldown_s=1.0
        ),
    )
    s = EndpointAdapter(
        AlphaEndpoint("s", config, seed="report-s", obs=obs), net.nodes["s"]
    )
    v = EndpointAdapter(
        AlphaEndpoint("v", config, seed="report-v", obs=obs), net.nodes["v"]
    )
    s.connect("v")
    net.simulator.run(until=2.0)
    for i in range(24):
        s.send("v", b"telemetry-%02d" % i + b"." * 48)
    net.simulator.run(until=90.0)
    del v  # the receive side only exists to drive the exchange
    return obs, s.endpoint


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.export import render_report

    obs, endpoint = _mixed_loss_run(seed=args.seed)
    print(render_report(obs.registry, endpoint.links, obs.tracer), end="")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    from repro.obs.export import to_jsonl, to_prometheus

    obs, endpoint = _mixed_loss_run(seed=args.seed)
    if args.format == "prom":
        rendered = to_prometheus(obs.registry, endpoint.links)
    else:
        rendered = to_jsonl(obs.registry, endpoint.links, obs.tracer)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(rendered)
        print(f"wrote {args.format} export to {args.output}")
    else:
        print(rendered, end="")
    return 0


_COMMANDS = {
    "tables": _cmd_tables,
    "demo": _cmd_demo,
    "adapt": _cmd_adapt,
    "wsn": _cmd_wsn,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="ALPHA (CoNEXT 2008) reproduction utilities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_COMMANDS):
        sub.add_parser(name)
    trace = sub.add_parser(
        "trace",
        help="replay a canonical exchange and print its event timeline",
    )
    # No argparse choices: unknown names are handled in _cmd_trace with a
    # proper "unknown exchange, available: ..." message and exit code 2,
    # without hard-coding the canonical list here.
    trace.add_argument("exchange", nargs="?", default="reliable")
    trace.add_argument("--seed", default="0", help="replay RNG seed")
    trace.add_argument(
        "--no-summary",
        action="store_true",
        help="print only the timeline, not the counts/metrics summary",
    )
    report = sub.add_parser(
        "report",
        help="run the mixed-loss scenario and print the link-health report",
    )
    report.add_argument("--seed", default="11", help="scenario RNG seed")
    export = sub.add_parser(
        "export",
        help="run the mixed-loss scenario and export its telemetry",
    )
    export.add_argument(
        "-f", "--format", choices=("prom", "jsonl"), default="prom"
    )
    export.add_argument("-o", "--output", default="", help="write to FILE")
    export.add_argument("--seed", default="11", help="scenario RNG seed")
    args = parser.parse_args(argv)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "export":
        return _cmd_export(args)
    return _COMMANDS[args.command]()


if __name__ == "__main__":
    sys.exit(main())
