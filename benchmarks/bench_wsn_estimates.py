"""Section 4.1.3 — WSN performance estimates (ALPHA-C on the CC2430).

Regenerates the paper's sensor-network arithmetic: verifiable signed
throughput at a relay with and without pre-acks, against the published
244 / 156.56 kbit/s figures, plus the ECC comparison (Gura et al.) that
motivates limiting asymmetric cryptography to bootstrapping. Also runs a
live MMO-hashed ALPHA-C exchange to confirm the per-packet operation
counts the estimate is built from.
"""

import pytest

from benchmarks.conftest import format_table
from benchmarks.harness import build_channel, run_exchange
from repro import analysis
from repro.core.modes import Mode
from repro.crypto.mmo import mmo_digest
from repro.devices import get_profile


def test_wsn_regeneration(emit, benchmark):
    cc2430 = get_profile("cc2430")
    plain = analysis.wsn_estimates(cc2430)
    preack = analysis.wsn_estimates(cc2430, with_preacks=True)

    rows = [
        [
            "ALPHA-C (unreliable)",
            f"{plain.packets_per_second:.0f}",
            460,
            f"{plain.signed_payload_bps / 1e3:.1f}",
            244,
            f"{plain.per_packet_overhead_bytes:.1f}",
        ],
        [
            "ALPHA-C + pre-acks",
            f"{preack.packets_per_second:.0f}",
            334,
            f"{preack.signed_payload_bps / 1e3:.1f}",
            156.56,
            f"{preack.per_packet_overhead_bytes:.1f}",
        ],
    ]
    table = format_table(
        ["configuration", "S2/s", "paper", "kbit/s", "paper", "overhead B/pkt"],
        rows,
    )

    # The ECC comparison the paper closes the section with.
    avr = get_profile("atmega128-8mhz")
    ecc_rows = [
        ["MMO hash (16 B), CC2430", f"{cc2430.hash_time(16) * 1e3:.2f} ms"],
        ["MMO hash (84 B), CC2430", f"{cc2430.hash_time(84) * 1e3:.2f} ms"],
        ["ECC-160 point mult, ATmega128 (Gura)", f"{avr.pk_time('ecc160-point-mul') * 1e3:.0f} ms"],
        ["ECC-160 verify (~2 point mults)", f"{avr.pk_time('ecc160-verify') * 1e3:.0f} ms"],
        [
            "ratio: ECC verify / per-packet ALPHA-C work",
            f"{avr.pk_time('ecc160-verify') / plain.per_packet_seconds:.0f}x",
        ],
    ]
    ecc_table = format_table(["operation", "cost"], ecc_rows)
    emit(
        "wsn_estimates",
        table
        + "\n\nWhy ECC stays in the bootstrap only (Section 4.1.3):\n"
        + ecc_table
        + "\n\nIEEE 802.15.4 theoretical maximum: 250 kbit/s — the "
        "unreliable configuration runs within a few percent of the radio "
        "itself.",
    )

    # Within 5% of both published rows.
    assert plain.packets_per_second == pytest.approx(460, rel=0.05)
    assert plain.signed_payload_bps == pytest.approx(244e3, rel=0.05)
    assert preack.packets_per_second == pytest.approx(334, rel=0.05)
    assert preack.signed_payload_bps == pytest.approx(156.56e3, rel=0.05)
    # Close to (but under ~110% of) the 802.15.4 capacity.
    assert 0.9 * 250e3 < plain.signed_payload_bps < 250e3
    # ECC per-packet verification would be hundreds of times costlier.
    assert avr.pk_time("ecc160-verify") / plain.per_packet_seconds > 300

    # Live MMO ALPHA-C exchange: relay op counts per S2 match the model
    # (one message MAC + amortized chain verification).
    channel = build_channel(mode=Mode.CUMULATIVE, batch_size=5, hash_name="mmo")
    run_exchange(channel, [b"\xEE" * 64] * 5)
    before = channel.obs.registry.snapshot()
    run_exchange(channel, [b"\xEE" * 64] * 5)
    delta = channel.obs.registry.snapshot().diff(before)
    assert delta["relay.mac_ops"] == 5  # one MAC per S2
    assert delta["relay.hash_ops"] <= 4  # S1+S2+A1+A2-side chain checks per batch

    # Benchmark: the MMO hash over the paper's 84-byte measurement point.
    benchmark(mmo_digest, b"\xAB" * 84)

def smoke():
    """Tier-1 smoke: WSN arithmetic plus one tiny MMO exchange."""
    plain = analysis.wsn_estimates(get_profile("cc2430"))
    assert plain.packets_per_second > 0
    channel = build_channel(
        mode=Mode.CUMULATIVE, batch_size=2, hash_name="mmo", chain_length=64
    )
    assert run_exchange(channel, [b"\xEE" * 16] * 2) == 2
