"""Figure 5 — signed bytes per S1 vs. number of signed packets.

Regenerates the four curves (total packet sizes 1280/512/256/128 B,
20-byte hashes) over n = 1..10^7 from Equation 1, cross-checks the
analytic per-packet payload against actually constructed Merkle trees
for n <= 2^10, and verifies the see-saw pattern and curve collapse the
paper highlights. The rendered series is written as a CSV-ish table.
"""


from benchmarks.conftest import format_table
from repro import analysis
from repro.core.merkle import MerkleTree
from repro.crypto.hashes import get_hash


def test_figure5_regeneration(emit, benchmark):
    counts = analysis.logspace_counts(max_exponent=7, points_per_decade=3)
    series = analysis.figure5_series(counts=counts)

    rows = []
    for n in counts:
        rows.append(
            [n]
            + [series[size][counts.index(n)][1] for size in analysis.FIGURE5_PACKET_SIZES]
        )
    table = format_table(
        ["n (S2 packets)", "1280 B", "512 B", "256 B", "128 B"], rows
    )

    drops = {
        size: analysis.seesaw_drop_points(size, max_n=2**14)[:6]
        for size in analysis.FIGURE5_PACKET_SIZES
    }
    drops_text = "\n".join(
        f"  {size:>5} B packets: payload dips right after n = {points}"
        for size, points in drops.items()
    )
    from repro.plotting import ascii_plot

    plot = ascii_plot(
        {
            f"{size}B": [(n, v) for n, v in series[size] if v > 0]
            for size in analysis.FIGURE5_PACKET_SIZES
        },
        x_label="signed packets n",
        y_label="signed bytes per S1",
    )
    emit(
        "figure5_signed_bytes",
        plot + "\n\n" + table
        + "\n\nSee-saw dip points (one new tree level costs every packet "
        "one extra hash):\n" + drops_text,
    )

    # Shape assertions, mirroring the published figure:
    # 1. Larger packets dominate everywhere.
    for i, n in enumerate(counts):
        values = [series[size][i][1] for size in (1280, 512, 256, 128)]
        assert values == sorted(values, reverse=True)
    # 2. The 128 B curve collapses to zero within the plotted range
    #    (visible as curve d's early termination in the paper).
    assert any(v == 0 for _, v in series[128])
    # 3. The 1280 B curve reaches the ~1e9 signed-byte region.
    assert max(v for _, v in series[1280]) > 5e8

    # Cross-check Equation 1 against constructed trees.
    sha1 = get_hash("sha1")
    for n in (1, 2, 3, 8, 100, 1024):
        tree = MerkleTree(sha1, [b"m"] * n)
        overhead = (len(tree.path(0)) + 1) * 20  # path + disclosed key
        assert analysis.per_packet_payload(n, 1280) == 1280 - overhead

    # Benchmark: regenerating the full four-curve figure.
    benchmark(analysis.figure5_series)

def smoke():
    """Tier-1 smoke: the Figure 5 series evaluates at a few points."""
    counts = [1, 2, 4]
    series = analysis.figure5_series(counts=counts)
    for size in analysis.FIGURE5_PACKET_SIZES:
        assert len(series[size]) == len(counts)
