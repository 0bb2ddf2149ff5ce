"""Exact-separation pins for every (scheme, attack) grid cell.

The grid itself lives in ``benchmarks/bench_attack_filtering`` — this
module re-runs each cell deterministically (seed 0, same DRBG
personalizations) and pins the *complete* outcome: delivered count,
attacker-accepted count, retraction count, and where the attack was
caught; for the baselines also the authenticated count, relay drops,
receiver rejects, sender operations and the full drop-cause dict. A
cell drifting in any direction — a scheme silently accepting attacker
traffic, or an attack silently losing its teeth — fails here with the
exact cell named.

The acceptance columns encode the paper's claims and the baselines'
documented blind spots:

- ALPHA accepts nothing in any cell, and on-path manipulation dies at
  the first honest relay (hop 1; hop 2 when r1 itself is the insider).
- LHAP's hop tokens do not bind message bytes: on-path tampering and
  insider rewrites are *accepted* (outsider protection only).
- CSM verifies per hop but its insider re-MACs downstream: insider
  rewrites are accepted.
- ProMAC's window: corrupted aggregated fragments retract messages the
  application already consumed (accept-then-retract).
- Guy Fawkes never accepts attacker bytes, but injection and reorder
  desynchronise the stream permanently (availability, not integrity).
"""

import pytest

from benchmarks.bench_attack_filtering import ATTACKS, N_MESSAGES, SCHEMES, run_cell

# (scheme, attack) -> (drop_site, delivered, attacker_accepted, retractions)
EXPECTED = {
    ("ALPHA", "forge"): ("hop1", 8, 0, 0),
    ("ALPHA", "tamper"): ("hop1", 0, 0, 0),
    ("ALPHA", "insider"): ("hop2", 0, 0, 0),
    ("ALPHA", "replay"): ("-", 8, 0, 0),
    ("ALPHA", "tag-corrupt"): ("hop1", 6, 0, 0),
    ("ALPHA", "reorder"): ("-", 8, 0, 0),
    ("HMAC-E2E", "forge"): ("receiver", 8, 0, 0),
    ("HMAC-E2E", "tamper"): ("receiver", 6, 0, 0),
    ("HMAC-E2E", "insider"): ("receiver", 0, 0, 0),
    ("HMAC-E2E", "replay"): ("receiver", 8, 0, 0),
    ("HMAC-E2E", "tag-corrupt"): ("receiver", 6, 0, 0),
    ("HMAC-E2E", "reorder"): ("-", 8, 0, 0),
    ("PK-SIGN", "forge"): ("hop1", 8, 0, 0),
    ("PK-SIGN", "tamper"): ("hop1", 6, 0, 0),
    ("PK-SIGN", "insider"): ("hop2", 0, 0, 0),
    ("PK-SIGN", "replay"): ("hop1", 8, 0, 0),
    ("PK-SIGN", "tag-corrupt"): ("hop1", 6, 0, 0),
    ("PK-SIGN", "reorder"): ("-", 8, 0, 0),
    ("TESLA", "forge"): ("receiver", 8, 0, 0),
    ("TESLA", "tamper"): ("receiver", 6, 0, 0),
    ("TESLA", "insider"): ("receiver", 0, 0, 0),
    ("TESLA", "replay"): ("receiver", 8, 0, 0),
    ("TESLA", "tag-corrupt"): ("receiver", 6, 0, 0),
    ("TESLA", "reorder"): ("-", 8, 0, 0),
    # Injection desynchronises the Guy Fawkes stream after two verified
    # messages; reorder kills it from the first displaced packet.
    ("GUY-FAWKES", "forge"): ("receiver", 2, 0, 0),
    ("GUY-FAWKES", "tamper"): ("receiver", 6, 0, 0),
    ("GUY-FAWKES", "insider"): ("receiver", 0, 0, 0),
    ("GUY-FAWKES", "replay"): ("receiver", 8, 0, 0),
    ("GUY-FAWKES", "tag-corrupt"): ("receiver", 6, 0, 0),
    ("GUY-FAWKES", "reorder"): ("receiver", 0, 0, 0),
    ("LHAP", "forge"): ("hop1", 8, 0, 0),
    ("LHAP", "tamper"): ("ACCEPTED", 6, 2, 0),  # tokens don't bind bytes
    ("LHAP", "insider"): ("ACCEPTED", 0, 8, 0),  # insider re-tokens freely
    ("LHAP", "replay"): ("hop1", 8, 0, 0),
    ("LHAP", "tag-corrupt"): ("hop1", 6, 0, 0),
    ("LHAP", "reorder"): ("hop1", 3, 0, 0),  # displaced tokens unverifiable
    ("PROMAC", "forge"): ("receiver", 8, 0, 0),
    ("PROMAC", "tamper"): ("receiver", 6, 0, 0),
    ("PROMAC", "insider"): ("receiver", 0, 0, 0),
    ("PROMAC", "replay"): ("-", 8, 0, 0),  # duplicate seq absorbed silently
    # The Reality-Sandwich cost: the corrupted packets themselves are
    # accepted (leading fragment intact) while their damaged aggregated
    # fragments retract two earlier, genuine messages.
    ("PROMAC", "tag-corrupt"): ("ACCEPTED", 8, 0, 2),
    ("PROMAC", "reorder"): ("-", 8, 0, 0),  # orphan fragments buffer
    ("CSM", "forge"): ("hop1", 8, 0, 0),
    # Corruption stalls the generation interlock: the damaged packet
    # dies at hop 1 and the rest of its generation is held upstream.
    ("CSM", "tamper"): ("hop1", 2, 0, 0),
    ("CSM", "insider"): ("ACCEPTED", 0, 8, 0),  # insider re-MACs downstream
    ("CSM", "replay"): ("hop1", 8, 0, 0),
    ("CSM", "tag-corrupt"): ("hop1", 2, 0, 0),
    ("CSM", "reorder"): ("-", 8, 0, 0),  # window == generation size
}

#: Drop causes that must appear when an ALPHA cell drops at a relay —
#: the *reason* is part of the separation, not just the location.
EXPECTED_REASONS = {
    ("ALPHA", "tamper"): "tampered",
    ("ALPHA", "insider"): "tampered",
    ("ALPHA", "tag-corrupt"): "forged",
}

#: Sender hash + MAC + signature operations for the 8-message stream
#: plus drain, identical in every column of a baseline's row. LHAP's
#: figure is its 1024-element token chain, built at setup.
SENDER_OPS = {
    "HMAC-E2E": 8,
    "PK-SIGN": 8,
    "TESLA": 80,
    "GUY-FAWKES": 19,
    "LHAP": 1024,
    "PROMAC": 11,
    "CSM": 19,
}

# The rest of each baseline cell:
# (scheme, attack) -> (authenticated, relay_drops, receiver_rejects,
#                      drop_reasons)
EXPECTED_BASELINE = {
    ("HMAC-E2E", "forge"): (8, 0, 2, {}),
    ("HMAC-E2E", "tamper"): (6, 0, 2, {}),
    ("HMAC-E2E", "insider"): (0, 0, 8, {}),
    ("HMAC-E2E", "replay"): (8, 0, 1, {}),
    ("HMAC-E2E", "tag-corrupt"): (6, 0, 2, {}),
    ("HMAC-E2E", "reorder"): (8, 0, 0, {}),
    ("PK-SIGN", "forge"): (8, 2, 0, {"bad-signature": 2}),
    ("PK-SIGN", "tamper"): (6, 2, 0, {"bad-signature": 2}),
    ("PK-SIGN", "insider"): (0, 8, 0, {"bad-signature": 8}),
    ("PK-SIGN", "replay"): (8, 1, 0, {"bad-signature": 1}),
    ("PK-SIGN", "tag-corrupt"): (6, 2, 0, {"bad-signature": 2}),
    ("PK-SIGN", "reorder"): (8, 0, 0, {}),
    ("TESLA", "forge"): (8, 0, 2, {}),
    ("TESLA", "tamper"): (6, 0, 2, {}),
    ("TESLA", "insider"): (0, 0, 8, {}),
    ("TESLA", "replay"): (8, 0, 1, {}),
    ("TESLA", "tag-corrupt"): (6, 0, 2, {}),
    ("TESLA", "reorder"): (8, 0, 0, {}),
    ("GUY-FAWKES", "forge"): (2, 0, 8, {}),
    ("GUY-FAWKES", "tamper"): (6, 0, 2, {}),
    ("GUY-FAWKES", "insider"): (0, 0, 8, {}),
    ("GUY-FAWKES", "replay"): (8, 0, 1, {}),
    ("GUY-FAWKES", "tag-corrupt"): (6, 0, 2, {}),
    ("GUY-FAWKES", "reorder"): (0, 0, 9, {}),
    ("LHAP", "forge"): (8, 2, 0, {"bad-token": 2}),
    ("LHAP", "tamper"): (6, 0, 0, {}),
    ("LHAP", "insider"): (0, 0, 0, {}),
    ("LHAP", "replay"): (8, 1, 0, {"bad-token": 1}),
    ("LHAP", "tag-corrupt"): (6, 2, 0, {"bad-token": 2}),
    ("LHAP", "reorder"): (3, 5, 0, {"bad-token": 5}),
    # ProMAC's provisional acceptance: tag-corrupt delivers 8 but only
    # 6 reach full MAC strength.
    ("PROMAC", "forge"): (8, 0, 2, {}),
    ("PROMAC", "tamper"): (6, 0, 2, {}),
    ("PROMAC", "insider"): (0, 0, 11, {}),
    ("PROMAC", "replay"): (8, 0, 0, {}),
    ("PROMAC", "tag-corrupt"): (6, 0, 0, {}),
    ("PROMAC", "reorder"): (8, 0, 0, {}),
    # CSM's buffered-future holds are not drops: reorder holds at r1
    # and still counts none.
    ("CSM", "forge"): (8, 2, 0, {"generation-gap": 2}),
    ("CSM", "tamper"): (2, 2, 0, {"bad-mac": 2}),
    ("CSM", "insider"): (0, 0, 0, {}),
    ("CSM", "replay"): (8, 1, 0, {"stale-generation": 1}),
    ("CSM", "tag-corrupt"): (2, 2, 0, {"bad-mac": 2}),
    ("CSM", "reorder"): (8, 0, 0, {}),
}

_CELLS = [(scheme, attack) for scheme in SCHEMES for attack in ATTACKS]


def test_expectation_table_covers_the_whole_grid():
    assert set(EXPECTED) == set(_CELLS)
    assert set(EXPECTED_BASELINE) == {c for c in _CELLS if c[0] != "ALPHA"}
    assert set(SENDER_OPS) == set(SCHEMES) - {"ALPHA"}
    assert len(SCHEMES) >= 6 and len(ATTACKS) >= 4


@pytest.mark.parametrize(("scheme", "attack"), _CELLS)
def test_cell_separation(scheme, attack):
    cell = run_cell(scheme, attack, seed=0)
    site, delivered, accepted, retractions = EXPECTED[(scheme, attack)]
    observed = (
        cell["drop_site"],
        cell["delivered"],
        cell["attack_accepted"],
        cell["retractions"],
    )
    assert observed == (site, delivered, accepted, retractions), cell
    if scheme == "ALPHA":
        reason = EXPECTED_REASONS.get((scheme, attack))
        if reason is not None:
            assert cell["drop_reasons"].get(reason, 0) > 0, cell
        # The headline claim, cell by cell: nothing attacker-derived is
        # ever consumed, and genuine traffic that survives the attack
        # arrives fully authenticated.
        assert cell["attack_accepted"] == 0
        assert cell["authenticated"] == cell["delivered"]
        return
    # A baseline cell is pinned whole, so moving work between the
    # counted sender hash and the uncounted relay/receiver hash, or a
    # drop from one cause to another, fails here.
    authenticated, relay_drops, rejects, reasons = EXPECTED_BASELINE[
        (scheme, attack)
    ]
    observed = (
        cell["authenticated"],
        cell["relay_drops"],
        cell["receiver_rejects"],
        cell["sender_ops"],
        cell["drop_reasons"],
    )
    expected = (authenticated, relay_drops, rejects, SENDER_OPS[scheme], reasons)
    assert observed == expected, cell

def test_blind_spots_are_asymmetries_not_noise():
    """Each documented acceptance is absent from every *other* scheme.

    LHAP's tamper acceptance, the LHAP/CSM insider acceptance, and
    ProMAC's retraction window are the discriminating observations that
    justify the new baselines — so they must appear exactly where the
    feature matrix says and nowhere else.
    """
    accepting = {
        (scheme, attack)
        for (scheme, attack), (_, _, accepted, retracted) in EXPECTED.items()
        if accepted or retracted
    }
    assert accepting == {
        ("LHAP", "tamper"),
        ("LHAP", "insider"),
        ("CSM", "insider"),
        ("PROMAC", "tag-corrupt"),
    }


def test_goodput_without_attack_is_lossless():
    """Control row: every scheme delivers everything on a clean chain."""
    for scheme in SCHEMES:
        cell = run_cell(scheme, "replay", seed=3)
        assert cell["delivered"] == N_MESSAGES, (scheme, cell)
        assert cell["attack_accepted"] == 0, (scheme, cell)
