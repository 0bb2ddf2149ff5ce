"""Table 6 — ALPHA-M estimates: processing, payload, throughput, data/S1.

Regenerates the paper's table from the cost model for the AR2315 and
Geode profiles, *and* validates the model's operation counts against a
live ALPHA-M verification: for each leaf count the bench constructs the
tree, verifies one S2-equivalent block, and checks the verifier did
exactly ``1 message hash + log2(n) fixed hashes``.
"""

import math

import pytest

from benchmarks.conftest import format_table
from repro import analysis
from repro.core.merkle import MerkleTree, verify_merkle_path
from repro.crypto.hashes import OpCounter, get_hash
from repro.devices import get_profile


def test_table6_regeneration(emit, benchmark):
    profiles = [get_profile("ar2315"), get_profile("geode-lx800")]
    rows_out = []
    for row in analysis.table6_rows(profiles):
        paper = analysis.TABLE6_PAPER[row.leaves]
        rows_out.append(
            [
                row.leaves,
                f"{row.processing_s['ar2315'] * 1e6:.0f}",
                paper[0],
                f"{row.processing_s['geode-lx800'] * 1e6:.0f}",
                paper[1],
                row.payload_bytes,
                paper[2],
                f"{row.throughput_bps['ar2315'] / 1e6:.1f}",
                paper[3],
                f"{row.throughput_bps['geode-lx800'] / 1e6:.1f}",
                paper[4],
                f"{row.data_per_s1_bits / 1e6:.1f}",
                paper[5],
            ]
        )
    table = format_table(
        [
            "leaves",
            "AR µs", "paper", "Geode µs", "paper",
            "payload B", "paper",
            "AR Mbit/s", "paper", "Geode Mbit/s", "paper",
            "data/S1 Mbit", "paper",
        ],
        rows_out,
    )
    emit(
        "table6_alpham_estimates",
        table
        + "\n\nNote: the AR2315 column tracks the paper within ~6%. The "
        "paper's Geode *processing* column is inconsistent with its own "
        "Table 5 Geode hash costs (its increments equal the 1024 B cost, "
        "not the per-node cost); our column recomputes it consistently, "
        "so the Geode throughput is correspondingly higher. Ordering and "
        "trends match. See EXPERIMENTS.md.",
    )

    # Model-vs-implementation: verification op count is 1* + log2(n).
    sha1 = get_hash("sha1", OpCounter())
    for leaves in analysis.TABLE6_LEAVES:
        payload = analysis.per_packet_payload(leaves, 1024)
        blocks = [bytes([i % 256]) * payload for i in range(leaves)]
        tree = MerkleTree(sha1, blocks)
        key = b"\x42" * 20
        root = tree.root(key)
        path = tree.path(leaves // 2)
        before = sha1.counter.snapshot()
        assert verify_merkle_path(sha1, blocks[leaves // 2], leaves // 2, path, key, root)
        delta = sha1.counter.diff(before)
        assert delta.labels.get("merkle-leaf", 0) == 1  # the 1* entry
        fixed = delta.hash_ops - 1
        assert fixed == int(math.log2(leaves))
        # Wire overhead matches the payload column.
        assert (len(path) + 1) * 20 == 1024 - payload

    # AR2315 stays within 8% of every paper cell; payload is exact.
    for row in analysis.table6_rows([get_profile("ar2315")]):
        paper = analysis.TABLE6_PAPER[row.leaves]
        assert row.payload_bytes == paper[2]
        assert row.processing_s["ar2315"] * 1e6 == pytest.approx(paper[0], rel=0.08)
        assert row.throughput_bps["ar2315"] / 1e6 == pytest.approx(paper[3], rel=0.08)
        # The paper rounds this column to one decimal (0.1, 0.2, ...),
        # so small rows need an absolute allowance.
        assert row.data_per_s1_bits / 1e6 == pytest.approx(paper[5], rel=0.15, abs=0.06)

    # Benchmark: one 1024-leaf S2 verification (the table's last row).
    blocks = [b"\x10" * 804 for _ in range(1024)]
    tree = MerkleTree(sha1, blocks)
    key = b"\x42" * 20
    root = tree.root(key)
    path = tree.path(512)

    benchmark(
        verify_merkle_path, sha1, blocks[512], 512, path, key, root
    )

def smoke():
    """Tier-1 smoke: one Table 6 row plus one live path verification."""
    row = analysis.table6_rows([get_profile("ar2315")], leaves_list=(16,))[0]
    assert row.throughput_bps["ar2315"] > 0
    sha1 = get_hash("sha1", OpCounter())
    messages = [b"b%d" % i for i in range(4)]
    tree = MerkleTree(sha1, messages)
    key = b"\x01" * sha1.digest_size
    assert verify_merkle_path(
        sha1, messages[2], 2, tree.path(2), key, tree.root(key)
    )
