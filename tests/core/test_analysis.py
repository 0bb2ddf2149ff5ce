"""The closed-form models, cross-checked against the paper's numbers
and against the instrumented implementation."""

import math

import pytest

from repro import analysis
from repro.core.merkle import MerkleTree
from repro.devices import get_profile


class TestEquation1:
    def test_examples(self):
        # n=16, 1024 B packets: 16 * (1024 - 20*5) = 14784.
        assert analysis.stotal(16, 1024) == 14784
        assert analysis.stotal(1, 1024) == 1024 - 20

    def test_collapse_to_zero(self):
        # 128-byte packets stop carrying payload once the signature
        # data exceeds the packet: h*(log2 n + 1) >= 128 at n >= 2^6.
        assert analysis.stotal(2**6, 128) == 0

    def test_per_packet_payload_matches_constructed_trees(self, sha1):
        for n in (1, 2, 5, 16, 33):
            tree = MerkleTree(sha1, [b"m"] * n)
            wire_overhead = (len(tree.path(0)) + 1) * 20
            assert analysis.per_packet_payload(n, 1024) == 1024 - wire_overhead

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.stotal(0, 1024)


class TestFigure5:
    def test_series_structure(self):
        series = analysis.figure5_series(counts=[1, 10, 100])
        assert set(series) == {1280, 512, 256, 128}
        assert all(len(points) == 3 for points in series.values())

    def test_larger_packets_always_win(self):
        series = analysis.figure5_series(counts=[1, 16, 256, 4096])
        for (n1, v1), (n2, v2) in zip(series[1280], series[512]):
            assert v1 >= v2

    def test_seesaw_pattern(self):
        # Crossing a power of two makes per-packet payload drop: stotal
        # growth is non-monotone right after each boundary.
        drops = analysis.seesaw_drop_points(256)
        assert drops  # the pattern exists for small packets
        n = drops[0]
        assert analysis.per_packet_payload(n, 256) < analysis.per_packet_payload(n - 1, 256)

    def test_monotone_growth_before_boundary(self):
        # Within one tree depth, stotal grows linearly in n.
        assert analysis.stotal(9, 1024) < analysis.stotal(15, 1024)

    def test_paper_scale_maxima(self):
        # Figure 5 shows ~10^9 signed bytes reachable with 1280 B packets
        # around n = 10^6..10^7.
        best = max(analysis.stotal(n, 1280) for n in analysis.logspace_counts())
        assert best > 1e8


class TestFigure6:
    def test_single_packet_overhead(self):
        # n=1: one hash of overhead -> ratio slightly above 1.
        assert 1.0 < analysis.overhead_ratio(1, 1280) < 1.05

    def test_ratio_grows_with_tree_depth(self):
        assert analysis.overhead_ratio(2**10, 256) > analysis.overhead_ratio(2, 256)

    def test_small_packets_hit_infinity(self):
        assert math.isinf(analysis.overhead_ratio(2**7, 128))

    def test_paper_y_range(self):
        # Figure 6's y axis spans roughly 1..5 for the plotted region.
        series = analysis.figure6_series(counts=[1, 10, 100, 1000])
        for size in (1280, 512):
            for _, ratio in series[size]:
                assert 1.0 <= ratio < 2.0


class TestTable1:
    @pytest.mark.parametrize("n", [1, 4, 16, 64])
    def test_paper_and_measured_agree_where_not_documented_delta(self, n):
        paper = analysis.table1_paper(n)
        ours = analysis.table1_measured_convention(n)
        for mode in paper:
            for role in paper[mode]:
                p, o = paper[mode][role], ours[mode][role]
                assert p.signature_mac == o.signature_mac
                assert p.hc_create == o.hc_create
                assert p.ack_nack == o.ack_nack

    def test_merkle_signer_grows_with_log_n_for_acks(self):
        t = analysis.table1_paper(64)
        assert t["ALPHA-M"]["signer"].ack_nack == 2 + 6

    def test_relay_never_creates_chains(self):
        # Relays only verify; the off-line "HC create" work is zero for
        # them in every mode (Table 1's relay column).
        for n in (1, 8, 64):
            t = analysis.table1_paper(n)
            for mode in t:
                assert t[mode]["relay"].hc_create == 0

    def test_relay_ack_verification_beats_flat_preacks_at_scale(self):
        # For ALPHA-M the relay pays 2 + log2(n) per ack opening, which
        # overtakes the verifier's amortized AMT construction (4 - 1/n)
        # once n > 4 — the paper's stated CPU/memory trade-off.
        t = analysis.table1_paper(64)
        assert t["ALPHA-M"]["relay"].ack_nack > t["ALPHA-M"]["verifier"].ack_nack

    def test_validation(self):
        with pytest.raises(ValueError):
            analysis.table1_paper(0)


class TestTables2And3:
    def test_table2_formulas(self):
        t = analysis.table2_memory(10, 1024, 20)
        assert t["ALPHA"]["signer"] == 10 * 1044
        assert t["ALPHA-C"]["relay"] == 200
        assert t["ALPHA-M"]["signer"] == 10 * 1024 + 19 * 20
        assert t["ALPHA-M"]["relay"] == 20

    def test_merkle_relay_memory_constant_in_n(self):
        small = analysis.table2_memory(2, 1024)["ALPHA-M"]["relay"]
        large = analysis.table2_memory(1024, 1024)["ALPHA-M"]["relay"]
        assert small == large

    def test_table3_formulas(self):
        t = analysis.table3_ack_memory(10, 20, 16)
        assert t["ALPHA"]["signer"] == 400
        assert t["ALPHA-M"]["verifier"] == 10 * 16 + 39 * 20
        assert t["ALPHA-M"]["relay"] == 20

    def test_amt_shifts_cost_to_verifier(self):
        t = analysis.table3_ack_memory(64)
        assert t["ALPHA-M"]["relay"] < t["ALPHA"]["relay"]
        assert t["ALPHA-M"]["verifier"] > t["ALPHA"]["verifier"]


class TestTable6:
    def test_payload_column_matches_paper_exactly(self):
        rows = analysis.table6_rows([get_profile("ar2315")])
        for row in rows:
            assert row.payload_bytes == analysis.TABLE6_PAPER[row.leaves][2]

    def test_ar2315_processing_within_8_percent(self):
        # Our model charges hash_time(40 B) per tree level; the paper's
        # increments suggest hash_time(20 B). Both stay within 8%.
        rows = analysis.table6_rows([get_profile("ar2315")])
        for row in rows:
            paper_us = analysis.TABLE6_PAPER[row.leaves][0]
            ours_us = row.processing_s["ar2315"] * 1e6
            assert abs(ours_us - paper_us) / paper_us < 0.08

    def test_ar2315_throughput_within_8_percent(self):
        rows = analysis.table6_rows([get_profile("ar2315")])
        for row in rows:
            paper_mbit = analysis.TABLE6_PAPER[row.leaves][3]
            ours_mbit = row.throughput_bps["ar2315"] / 1e6
            assert abs(ours_mbit - paper_mbit) / paper_mbit < 0.08

    def test_throughput_decreases_with_leaves(self):
        rows = analysis.table6_rows([get_profile("ar2315")])
        throughputs = [r.throughput_bps["ar2315"] for r in rows]
        assert throughputs == sorted(throughputs, reverse=True)

    def test_data_per_s1_grows_with_leaves(self):
        rows = analysis.table6_rows([get_profile("ar2315")])
        data = [r.data_per_s1_bits for r in rows]
        assert data == sorted(data)

    def test_geode_faster_than_ar(self):
        rows = analysis.table6_rows(
            [get_profile("ar2315"), get_profile("geode-lx800")]
        )
        for row in rows:
            assert row.throughput_bps["geode-lx800"] > row.throughput_bps["ar2315"]


class TestWmnAndWsn:
    def test_alpha_c_bound_commodity_roughly_20mbit(self):
        for name in ("ar2315", "bcm5365"):
            bound = analysis.alpha_c_throughput_bound(get_profile(name))
            assert 15e6 < bound < 30e6  # the paper says "about 20 Mbit/s"

    def test_alpha_c_bound_geode_roughly_120mbit(self):
        bound = analysis.alpha_c_throughput_bound(get_profile("geode-lx800"))
        assert 100e6 < bound < 150e6

    def test_wsn_plain_estimate_close_to_paper(self):
        est = analysis.wsn_estimates(get_profile("cc2430"))
        assert abs(est.packets_per_second - 460) / 460 < 0.05
        assert abs(est.signed_payload_bps / 1e3 - 244) / 244 < 0.05

    def test_wsn_preack_estimate_close_to_paper(self):
        est = analysis.wsn_estimates(get_profile("cc2430"), with_preacks=True)
        assert abs(est.packets_per_second - 334) / 334 < 0.05
        assert abs(est.signed_payload_bps / 1e3 - 156.56) / 156.56 < 0.05

    def test_wsn_close_to_802154_capacity(self):
        # The paper's point: 244 kbit/s is close to the 250 kbit/s
        # theoretical maximum of IEEE 802.15.4.
        est = analysis.wsn_estimates(get_profile("cc2430"))
        assert est.signed_payload_bps < 250e3
        assert est.signed_payload_bps > 0.9 * 250e3

    def test_wsn_overhead_exceeding_payload_rejected(self):
        with pytest.raises(ValueError):
            analysis.wsn_estimates(get_profile("cc2430"), packet_payload=30)
