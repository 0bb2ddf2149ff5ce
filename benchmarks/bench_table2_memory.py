"""Table 2 — memory requirements for n messages sent in parallel.

Regenerates the formula table and *measures* the verifier- and
relay-side buffer footprints from live exchanges (the columns that can
be observed without instrumenting Python object internals). Includes the
pre-signature ablation: what buffering would look like if S1 carried the
full messages instead of MACs (regular signed messages), the comparison
behind the paper's Section 3.1.1 claim.
"""


from benchmarks.conftest import format_table
from benchmarks.harness import build_channel
from repro import analysis
from repro.core.modes import Mode
from repro.core.packets import decode_packet

MESSAGE_SIZE = 1024
HASH_SIZE = 20
COUNTS = (1, 4, 16, 64)


def stage_s1(mode: Mode, n: int):
    """Run an exchange up to (and including) S1 delivery."""
    channel = build_channel(mode=mode, batch_size=n)
    for i in range(n):
        channel.signer.submit(bytes([i % 256]) * MESSAGE_SIZE)
    s1_raw = channel.signer.poll(0.0)[0]
    channel.relay.handle(s1_raw, "s", "v", 0.0)
    channel.verifier.handle_s1(decode_packet(s1_raw, HASH_SIZE), 0.0)
    return channel


def test_table2_regeneration(emit, benchmark):
    rows = []
    for n in COUNTS:
        formulas = analysis.table2_memory(n, MESSAGE_SIZE, HASH_SIZE)
        measured = {}
        if n == 1:
            base = stage_s1(Mode.BASE, 1)
            measured["ALPHA"] = (base.verifier.buffered_bytes, base.relay.buffered_bytes)
        for mode_name, mode in (("ALPHA-C", Mode.CUMULATIVE), ("ALPHA-M", Mode.MERKLE)):
            channel = stage_s1(mode, n)
            measured[mode_name] = (
                channel.verifier.buffered_bytes,
                channel.relay.buffered_bytes,
            )
        for mode_name in ("ALPHA", "ALPHA-C", "ALPHA-M"):
            f = formulas[mode_name]
            meas_v, meas_r = measured.get(mode_name, ("n/a", "n/a"))
            rows.append(
                [
                    f"n={n}",
                    mode_name,
                    f["signer"],
                    f["verifier"],
                    meas_v,
                    f["relay"],
                    meas_r,
                ]
            )
    table = format_table(
        ["n", "mode", "signer (formula)", "verifier (formula)", "verifier (measured)",
         "relay (formula)", "relay (measured)"],
        rows,
    )

    # Ablation: pre-signatures vs. carrying full messages in S1.
    ablation_rows = []
    for n in COUNTS:
        presig = n * HASH_SIZE
        fullmsg = n * MESSAGE_SIZE
        ablation_rows.append(
            [f"n={n}", presig, fullmsg, f"{fullmsg / presig:.0f}x"]
        )
    ablation = format_table(
        ["n", "relay buffer w/ pre-signatures (B)",
         "relay buffer w/ full messages (B)", "reduction"],
        ablation_rows,
    )
    emit(
        "table2_memory",
        table + "\n\nAblation — pre-signatures (Section 3.1.1) vs. buffering "
        "whole messages on relays:\n" + ablation,
    )

    # Assertions: measured buffers match the paper's formulas exactly.
    for n in COUNTS:
        formulas = analysis.table2_memory(n, MESSAGE_SIZE, HASH_SIZE)
        c = stage_s1(Mode.CUMULATIVE, n)
        assert c.verifier.buffered_bytes == formulas["ALPHA-C"]["verifier"]
        assert c.relay.buffered_bytes == formulas["ALPHA-C"]["relay"]
        m = stage_s1(Mode.MERKLE, n)
        assert m.verifier.buffered_bytes == formulas["ALPHA-M"]["verifier"]
        assert m.relay.buffered_bytes == formulas["ALPHA-M"]["relay"]

    benchmark(stage_s1, Mode.MERKLE, 64)

def smoke():
    """Tier-1 smoke: S1 staging buffers bytes on verifier and relay."""
    channel = stage_s1(Mode.CUMULATIVE, 2)
    assert channel.verifier.buffered_bytes > 0
    assert channel.relay.buffered_bytes > 0
