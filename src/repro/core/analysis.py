"""Closed-form models behind the paper's tables and figures.

Every artifact of the paper's evaluation has a function here:

========  ==================================================================
Eq. 1     :func:`stotal` — payload covered by one ALPHA-M pre-signature
Fig. 5    :func:`figure5_series` — signed bytes per S1 vs. tree size
Fig. 6    :func:`figure6_series` — transferred bytes per signed byte
Table 1   :func:`table1_paper` / :func:`table1_measured_convention`
Table 2   :func:`table2_memory`
Table 3   :func:`table3_ack_memory`
Table 6   :func:`table6_rows` — ALPHA-M cost/throughput estimates
§4.1.3    :func:`wsn_estimates` — ALPHA-C on the CC2430 sensor platform
========  ==================================================================

Benchmarks compare these models both against the paper's published
numbers and against *measured* values from the instrumented
implementation (operation counters, buffer accounting), so disagreements
between the paper's accounting and the implementation are visible
rather than papered over. Known accounting deltas are documented per
function and in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.devices.profiles import DeviceProfile

DEFAULT_HASH_SIZE = 20  # SHA-1, the paper's default


# --------------------------------------------------------------------------
# Equation 1 / Figures 5 and 6
# --------------------------------------------------------------------------


def merkle_depth(n_packets: int) -> int:
    """``⌈log2 n⌉`` — the number of complementary-branch hashes per S2."""
    if n_packets < 1:
        raise ValueError("need at least one packet")
    return math.ceil(math.log2(n_packets)) if n_packets > 1 else 0


def stotal(n_packets: int, packet_size: int, hash_size: int = DEFAULT_HASH_SIZE) -> int:
    """Equation 1: total payload coverable by one pre-signature.

    ``stotal = n * (spacket - sh * (ceil(log2 n) + 1))``

    Returns 0 when the signature data no longer fits in the packet
    (where the paper's Figure 5 curves collapse).
    """
    per_packet = packet_size - hash_size * (merkle_depth(n_packets) + 1)
    return n_packets * max(per_packet, 0)


def per_packet_payload(n_packets: int, packet_size: int, hash_size: int = DEFAULT_HASH_SIZE) -> int:
    """Payload bytes left in one S2 after the Merkle path and key."""
    return max(packet_size - hash_size * (merkle_depth(n_packets) + 1), 0)


def overhead_ratio(
    n_packets: int, packet_size: int, hash_size: int = DEFAULT_HASH_SIZE
) -> float:
    """Figure 6: transferred bytes per signed byte.

    ``(n * spacket) / stotal`` — how many bytes cross the (energy-
    expensive) radio per byte of authenticated payload. Returns ``inf``
    once no payload fits.
    """
    total = stotal(n_packets, packet_size, hash_size)
    if total == 0:
        return math.inf
    return n_packets * packet_size / total


#: The four total-packet-size curves of Figures 5 and 6; 1280 B is the
#: minimum IPv6 MTU the paper calls out.
FIGURE5_PACKET_SIZES = (1280, 512, 256, 128)


def logspace_counts(max_exponent: int = 7, points_per_decade: int = 9) -> list[int]:
    """Distinct integer n values spread log-uniformly over 1..10^max."""
    values = set()
    for decade in range(max_exponent):
        for step in range(points_per_decade):
            value = int(round(10 ** (decade + step / points_per_decade)))
            values.add(max(value, 1))
    values.add(10**max_exponent)
    return sorted(values)


def figure5_series(
    packet_sizes: tuple[int, ...] = FIGURE5_PACKET_SIZES,
    hash_size: int = DEFAULT_HASH_SIZE,
    counts: list[int] | None = None,
) -> dict[int, list[tuple[int, int]]]:
    """Figure 5 data: ``{packet_size: [(n, stotal), ...]}``."""
    if counts is None:
        counts = logspace_counts()
    return {
        size: [(n, stotal(n, size, hash_size)) for n in counts]
        for size in packet_sizes
    }


def figure6_series(
    packet_sizes: tuple[int, ...] = FIGURE5_PACKET_SIZES,
    hash_size: int = DEFAULT_HASH_SIZE,
    counts: list[int] | None = None,
) -> dict[int, list[tuple[int, float]]]:
    """Figure 6 data: ``{packet_size: [(n, overhead_ratio), ...]}``."""
    if counts is None:
        counts = logspace_counts()
    return {
        size: [(n, overhead_ratio(n, size, hash_size)) for n in counts]
        for size in packet_sizes
    }


def seesaw_drop_points(packet_size: int, hash_size: int = DEFAULT_HASH_SIZE, max_n: int = 2**20) -> list[int]:
    """The n values where Figure 5's see-saw dips: one past each power of 2.

    Crossing a power of two adds a tree level, costing every packet one
    more hash of overhead.
    """
    drops = []
    n = 2
    while n <= max_n:
        if per_packet_payload(n + 1, packet_size, hash_size) < per_packet_payload(
            n, packet_size, hash_size
        ):
            drops.append(n + 1)
        n *= 2
    return drops


# --------------------------------------------------------------------------
# Table 1 — hash computations per message
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HashOpCounts:
    """Per-message hash operations, split like the paper's Table 1 rows.

    ``signature_mac`` counts variable-length MAC/hash passes over the
    message itself (the asterisk entries); everything else is fixed-size
    hash invocations.
    """

    signature_mac: float
    signature_fixed: float
    hc_create: float
    hc_verify: float
    ack_nack: float

    @property
    def runtime_fixed(self) -> float:
        """Fixed-size hashes on the packet path (chain creation excluded,
        matching the paper's off-line ``+`` convention)."""
        return self.signature_fixed + self.hc_verify + self.ack_nack


def table1_paper(n: int) -> dict[str, dict[str, HashOpCounts]]:
    """The paper's Table 1 formulas, evaluated for batch size ``n``."""
    if n < 1:
        raise ValueError("n must be at least 1")
    log2n = math.log2(n) if n > 1 else 0.0
    return {
        "ALPHA": {
            "signer": HashOpCounts(1, 0, 2, 1, 1),
            "verifier": HashOpCounts(1, 0, 2, 1, 2),
            "relay": HashOpCounts(1, 0, 0, 1, 1),
        },
        "ALPHA-C": {
            "signer": HashOpCounts(1, 0, 2 / n, 1 / n, 1),
            "verifier": HashOpCounts(1, 0, 2 / n, 1 / n, 2),
            "relay": HashOpCounts(1, 0, 0, 1 / n, 1),
        },
        "ALPHA-M": {
            "signer": HashOpCounts(1, 2 - 1 / n, 2 / n, 1 / n, 2 + log2n),
            "verifier": HashOpCounts(1, log2n, 2 / n, 1 / n, 4 - 1 / n),
            "relay": HashOpCounts(1, log2n, 0, 1 / n, 2 + log2n),
        },
    }


def table1_measured_convention(n: int) -> dict[str, dict[str, HashOpCounts]]:
    """What this implementation performs, in the same layout.

    The convention here is *runtime work on a reliable channel*, which
    is what the instrumented benchmarks measure. Deliberate accounting
    deltas against :func:`table1_paper` (discussed in EXPERIMENTS.md):

    - *HC verify*: the paper charges one verification per message. At
      runtime the signer checks two ack-chain elements per exchange (the
      A1 token and the A2 key disclosure), the verifier two sig-chain
      elements (S1 token, S2 key), and a relay all four — hence 2/n,
      2/n, and 4/n.
    - *ALPHA-M signer signature* is ``1* + (1 - 1/n)``: n leaf hashes
      are the 1* entries, and a padded binary tree adds ``n - 1`` inner
      node hashes (root included) for ``n`` a power of two. The paper
      lists ``1* + 2 - 1/n``.

    ``hc_create`` stays the paper's off-line figure (chains are built
    before traffic flows); the benchmarks exclude it from runtime
    measurement the same way.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    log2n = math.log2(n) if n > 1 else 0.0
    return {
        "ALPHA": {
            "signer": HashOpCounts(1, 0, 2, 2, 1),
            "verifier": HashOpCounts(1, 0, 2, 2, 2),
            "relay": HashOpCounts(1, 0, 0, 4, 1),
        },
        "ALPHA-C": {
            "signer": HashOpCounts(1, 0, 2 / n, 2 / n, 1),
            "verifier": HashOpCounts(1, 0, 2 / n, 2 / n, 2),
            "relay": HashOpCounts(1, 0, 0, 4 / n, 1),
        },
        "ALPHA-M": {
            "signer": HashOpCounts(1, 1 - 1 / n, 2 / n, 2 / n, 2 + log2n),
            "verifier": HashOpCounts(1, log2n, 2 / n, 2 / n, 4 - 1 / n),
            "relay": HashOpCounts(1, log2n, 0, 4 / n, 2 + log2n),
        },
    }


# --------------------------------------------------------------------------
# Tables 2 and 3 — memory requirements
# --------------------------------------------------------------------------


def table2_memory(n: int, message_size: int, hash_size: int = DEFAULT_HASH_SIZE) -> dict:
    """Table 2: buffering for ``n`` messages sent in parallel (bytes)."""
    m, h = message_size, hash_size
    return {
        "ALPHA": {"signer": n * (m + h), "verifier": n * h, "relay": n * h},
        "ALPHA-C": {"signer": n * (m + h), "verifier": n * h, "relay": n * h},
        "ALPHA-M": {
            "signer": n * m + (2 * n - 1) * h,
            "verifier": h,
            "relay": h,
        },
    }


def table3_ack_memory(
    n: int, hash_size: int = DEFAULT_HASH_SIZE, secret_size: int = 16
) -> dict:
    """Table 3: additional memory for ``n`` parallel acknowledgments."""
    h, s = hash_size, secret_size
    return {
        "ALPHA": {"signer": 2 * n * h, "verifier": 2 * n * h, "relay": 2 * n * h},
        "ALPHA-C": {"signer": 2 * n * h, "verifier": 2 * n * h, "relay": 2 * n * h},
        "ALPHA-M": {
            "signer": h,
            "verifier": n * s + (4 * n - 1) * h,
            "relay": h,
        },
    }


# --------------------------------------------------------------------------
# Table 6 — ALPHA-M estimates on mesh hardware
# --------------------------------------------------------------------------

TABLE6_LEAVES = (16, 32, 64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class Table6Row:
    """One line of the paper's Table 6."""

    leaves: int
    processing_s: dict  # profile name -> seconds per S2 verification
    payload_bytes: int
    throughput_bps: dict  # profile name -> verifiable bits per second
    data_per_s1_bits: float


def table6_rows(
    profiles: list[DeviceProfile],
    leaves_list: tuple[int, ...] = TABLE6_LEAVES,
    packet_size: int = 1024,
    hash_size: int = DEFAULT_HASH_SIZE,
) -> list[Table6Row]:
    """Compute Table 6 for any set of device profiles.

    Per-S2 verification work: one MAC pass over the packet payload plus
    ``log2(n)`` fixed hashes walking the Merkle path (the paper's
    ``1* + log2(n)`` relay entry in Table 1). Throughput is the upper
    bound ``payload_bits / processing_time`` with the CPU dedicated to
    verification, exactly the paper's estimation method.
    """
    rows = []
    for leaves in leaves_list:
        depth = merkle_depth(leaves)
        payload = per_packet_payload(leaves, packet_size, hash_size)
        processing = {}
        throughput = {}
        for profile in profiles:
            seconds = profile.mac_time(packet_size) + depth * profile.tree_node_time()
            processing[profile.name] = seconds
            throughput[profile.name] = payload * 8 / seconds if seconds > 0 else math.inf
        rows.append(
            Table6Row(
                leaves=leaves,
                processing_s=processing,
                payload_bytes=payload,
                throughput_bps=throughput,
                data_per_s1_bits=leaves * payload * 8,
            )
        )
    return rows


def alpha_c_throughput_bound(
    profile: DeviceProfile,
    packet_payload: int = 1024,
    presignatures_per_s1: int = 20,
) -> float:
    """Section 4.1.2: ALPHA-C verifiable-throughput upper bound (bit/s).

    Per S2 a relay computes the MAC over the payload plus an amortized
    share of one chain-element verification per S1.
    """
    per_packet = (
        profile.mac_time(packet_payload)
        + profile.chain_element_time() / presignatures_per_s1
    )
    return packet_payload * 8 / per_packet


# --------------------------------------------------------------------------
# Section 4.1.3 — WSN estimates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WsnEstimate:
    """ALPHA-C on a sensor platform, with and without pre-acks."""

    packets_per_second: float
    signed_payload_bps: float
    per_packet_overhead_bytes: float
    per_packet_seconds: float


def wsn_estimates(
    profile: DeviceProfile,
    packet_payload: int = 100,
    hash_size: int = 16,
    presignatures_per_s1: int = 5,
    with_preacks: bool = False,
) -> WsnEstimate:
    """Section 4.1.3's arithmetic, parameterised.

    Follows the paper's accounting exactly:

    - CPU per S2 on a relay: one MAC pass over the packet body (payload
      minus the rider chain element, 84 B for the default parameters)
      plus a ``1/n`` share of one chain-element verification. With
      pre-acks, one additional fixed hash verifies the opened (n)ack.
    - Signed payload per packet: payload minus the chain element, the
      MAC, and the ``h/n`` pre-signature share; pre-acks additionally
      charge the ``2h/n`` share of the A1's pre-ack pair.
    """
    mac_input = packet_payload - hash_size
    overhead = 2 * hash_size + hash_size / presignatures_per_s1
    if with_preacks:
        overhead += 2 * hash_size / presignatures_per_s1
    message_bytes = packet_payload - overhead
    if message_bytes <= 0:
        raise ValueError("overhead exceeds packet payload")
    per_packet = (
        profile.mac_time(mac_input)
        + profile.chain_element_time() / presignatures_per_s1
    )
    if with_preacks:
        per_packet += profile.hash_time(hash_size)  # verify the opened (n)ack
    rate = 1.0 / per_packet
    return WsnEstimate(
        packets_per_second=rate,
        signed_payload_bps=rate * message_bytes * 8,
        per_packet_overhead_bytes=overhead,
        per_packet_seconds=per_packet,
    )


# --------------------------------------------------------------------------
# Table 4 / Table 5 reference values (the paper's published numbers)
# --------------------------------------------------------------------------

TABLE4_PAPER_MS = {
    "Send S1": {"nokia-n770": 0.33, "xeon-3.2": 0.03},
    "Process S1, send A1": {"nokia-n770": 1.47, "xeon-3.2": 0.05},
    "Process A1, send S2": {"nokia-n770": 1.52, "xeon-3.2": 0.05},
    "Verify S2, send A2": {"nokia-n770": 1.60, "xeon-3.2": 0.05},
    "Process A2": {"nokia-n770": 0.49, "xeon-3.2": 0.05},
    "Sender (total)": {"nokia-n770": 2.34, "xeon-3.2": 0.13},
    "Receiver (total)": {"nokia-n770": 3.07, "xeon-3.2": 0.10},
    "SHA-1 Hash": {"nokia-n770": 0.02, "xeon-3.2": 0.01},
    "RSA 1024 sign": {"nokia-n770": 181.32, "xeon-3.2": 9.09},
    "RSA 1024 verify": {"nokia-n770": 10.53, "xeon-3.2": 0.15},
    "DSA 1024 sign": {"nokia-n770": 96.71, "xeon-3.2": 1.34},
    "DSA 1024 verify": {"nokia-n770": 118.73, "xeon-3.2": 1.61},
}

TABLE5_PAPER_MS = {
    "ar2315": {20: 0.059, 1024: 0.360},
    "bcm5365": {20: 0.046, 1024: 0.361},
    "geode-lx800": {20: 0.011, 1024: 0.062},
}

TABLE6_PAPER = {
    # leaves: (processing_us_ar, processing_us_geode, payload_B,
    #          throughput_ar_mbit, throughput_geode_mbit, data_per_s1_mbit)
    16: (599, 258, 924, 11.8, 27.3, 0.1),
    32: (660, 320, 904, 10.4, 21.5, 0.2),
    64: (718, 382, 884, 9.4, 17.7, 0.4),
    128: (778, 444, 864, 8.5, 14.8, 0.8),
    256: (837, 505, 844, 7.7, 12.7, 1.6),
    512: (897, 567, 824, 7.0, 11.1, 3.2),
    1024: (956, 629, 804, 6.4, 9.8, 6.3),
}

WSN_PAPER = {
    "plain": {"signed_payload_kbps": 244, "packets_per_second": 460},
    "preacks": {"signed_payload_kbps": 156.56, "packets_per_second": 334},
}


# --------------------------------------------------------------------------
# Deployment planning helpers
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """Provisioning advice for one association."""

    chain_length: int
    exchanges_supported: int
    storage_bytes_full: int
    storage_bytes_checkpointed: int
    expected_lifetime_s: float
    rekeys_per_day: float


def plan_chain(
    messages_per_second: float,
    batch_size: int = 1,
    target_lifetime_s: float = 3600.0,
    hash_size: int = DEFAULT_HASH_SIZE,
    checkpoint_interval: int = 64,
    max_length: int = 1 << 20,
) -> ChainPlan:
    """Size a hash chain for a workload.

    Each exchange covers ``batch_size`` messages and consumes two chain
    elements, so a chain of length ``n`` lasts
    ``n/2 * batch_size / rate`` seconds. Returns the smallest even
    length meeting ``target_lifetime_s`` (capped at ``max_length``)
    together with its memory footprint under full and checkpointed
    storage and the implied re-keying cadence.
    """
    if messages_per_second <= 0:
        raise ValueError("message rate must be positive")
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    if target_lifetime_s <= 0:
        raise ValueError("target lifetime must be positive")
    exchanges_needed = math.ceil(
        messages_per_second * target_lifetime_s / batch_size
    )
    length = min(max(2 * exchanges_needed, 2), max_length)
    if length % 2:
        length += 1
    exchanges = length // 2
    lifetime = exchanges * batch_size / messages_per_second
    checkpointed = (
        (length // checkpoint_interval + checkpoint_interval + 2) * hash_size
    )
    rekeys_per_day = 86_400.0 / lifetime if lifetime > 0 else float("inf")
    return ChainPlan(
        chain_length=length,
        exchanges_supported=exchanges,
        storage_bytes_full=(length + 1) * hash_size,
        storage_bytes_checkpointed=checkpointed,
        expected_lifetime_s=lifetime,
        rekeys_per_day=rekeys_per_day,
    )
