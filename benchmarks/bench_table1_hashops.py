"""Table 1 — hash computations for processing one message.

Regenerates the paper's Table 1 twice: (a) from the paper's printed
formulas, (b) *measured* from the instrumented implementation, by
running exchanges with per-role operation counters and dividing by the
number of messages. The bench itself times a full reliable exchange.
"""

import pytest

from benchmarks.conftest import format_table
from benchmarks.harness import build_channel, run_exchange
from repro import analysis
from repro.core.modes import Mode, ReliabilityMode

MODES = [
    ("ALPHA", Mode.BASE, 1),
    ("ALPHA-C", Mode.CUMULATIVE, 16),
    ("ALPHA-M", Mode.MERKLE, 16),
]
ROLES = ["signer", "verifier", "relay"]
WARMUP_EXCHANGES = 1
MEASURED_EXCHANGES = 8


def measure_mode(mode: Mode, batch: int) -> dict:
    """Per-message MAC/fixed-hash counts per role, measured.

    Reads the channel's metrics registry — the per-role OpCounters are
    bound into it as ``{role}.hash_ops`` / ``{role}.mac_ops`` /
    ``{role}.labels`` pull samples — so one snapshot/diff pair isolates
    the measured window for all three roles at once.
    """
    channel = build_channel(
        mode=mode, reliability=ReliabilityMode.RELIABLE, batch_size=batch
    )
    message = b"\xAB" * 256
    # Warm-up exchange so chain-creation cost is excluded the same way
    # the paper's "+" entries mark it off-line.
    for _ in range(WARMUP_EXCHANGES):
        run_exchange(channel, [message] * batch)
    before = channel.obs.registry.snapshot()
    for _ in range(MEASURED_EXCHANGES):
        delivered = run_exchange(channel, [message] * batch)
        assert delivered == batch
    total_messages = MEASURED_EXCHANGES * batch
    delta = channel.obs.registry.snapshot().diff(before)
    out = {}
    for role in ROLES:
        labels = delta[f"{role}.labels"]
        # Merkle leaves hash the message itself: reclassify them as
        # message-size ops (the paper's asterisk entries). AMT leaves
        # stay fixed-size ("amt-leaf").
        message_hashes = labels.get("merkle-leaf", 0)
        out[role] = {
            "mac_per_msg": (delta[f"{role}.mac_ops"] + message_hashes) / total_messages,
            "fixed_per_msg": (delta[f"{role}.hash_ops"] - message_hashes) / total_messages,
            "labels": labels,
        }
    return out


def test_table1_regeneration(emit, benchmark):
    measured = {name: measure_mode(mode, batch) for name, mode, batch in MODES}

    rows = []
    for name, mode, batch in MODES:
        paper = analysis.table1_paper(batch)[name]
        model = analysis.table1_measured_convention(batch)[name]
        for role in ROLES:
            m = measured[name][role]
            paper_total = paper[role].signature_mac, paper[role].runtime_fixed
            model_total = model[role].signature_mac, model[role].runtime_fixed
            rows.append(
                [
                    name,
                    f"n={batch}",
                    role,
                    f"{m['mac_per_msg']:.2f}",
                    f"{m['fixed_per_msg']:.2f}",
                    f"{model_total[0]:.2f}",
                    f"{model_total[1]:.2f}",
                    f"{paper_total[0]:.2f}",
                    f"{paper_total[1]:.2f}",
                ]
            )
    table = format_table(
        [
            "mode", "batch", "role",
            "meas MAC/msg", "meas fixed/msg",
            "model MAC", "model fixed",
            "paper MAC", "paper fixed",
        ],
        rows,
    )
    emit(
        "table1_hash_computations",
        table
        + "\n\nNotes: 'model' is this implementation's accounting convention "
        "(HC-verify counted per disclosed element, ALPHA-M tree cost "
        "1 - 1/n); 'paper' evaluates Table 1's printed formulas. Chain "
        "creation (the paper's off-line '+' entries) is excluded from the "
        "measured columns by construction.",
    )

    # Measured must match our model's totals closely (amortization noise
    # from integer exchange counts allowed).
    for name, mode, batch in MODES:
        model = analysis.table1_measured_convention(batch)[name]
        for role in ROLES:
            m = measured[name][role]
            assert m["mac_per_msg"] == pytest.approx(model[role].signature_mac, abs=0.01), (name, role)
            assert m["fixed_per_msg"] == pytest.approx(model[role].runtime_fixed, abs=0.35), (name, role)

    # Benchmark: one full reliable base exchange end to end. Channels
    # are rebuilt transparently when a chain runs out.
    state = {"channel": build_channel(reliability=ReliabilityMode.RELIABLE, chain_length=2 ** 14)}

    def one_exchange():
        if state["channel"].signer.chain.remaining_exchanges < 1:
            state["channel"] = build_channel(
                reliability=ReliabilityMode.RELIABLE, chain_length=2 ** 14
            )
        run_exchange(state["channel"], [b"x" * 256])

    benchmark(one_exchange)

def smoke():
    """Tier-1 smoke: one measured exchange through the registry path.

    Runs the BASE row and the ALPHA-M n=16 row, whose counts at every
    role depend on the Merkle verify cache (PROTOCOL.md §14.3): the
    verifier checks S2 paths through it, the signer AMT openings, and
    each relay both. A change in what the cache saves moves a pin.
    """
    import sys

    from benchmarks.conftest import scaled_down

    with scaled_down(
        sys.modules[__name__], WARMUP_EXCHANGES=1, MEASURED_EXCHANGES=1
    ):
        base = measure_mode(Mode.BASE, 1)
        merkle = measure_mode(Mode.MERKLE, 16)
    assert base["signer"]["mac_per_msg"] > 0
    assert base["verifier"]["fixed_per_msg"] > 0
    metrics = ("mac_per_msg", "fixed_per_msg")
    out = {
        f"{role}_{m}": base[role][m] for role in ("signer", "verifier") for m in metrics
    }
    for role in ROLES:
        out.update({f"alpha_m_{role}_{m}": merkle[role][m] for m in metrics})
    return out
