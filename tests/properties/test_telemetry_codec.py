"""LedgerSummary codec properties: the 16-byte telemetry field.

The ledger summary piggybacks on A1 and HS2 (PROTOCOL.md §16) as a
flag-gated fixed-width field, so its codec has to satisfy the same
contract as every other wire element: exact round-trips, typed
rejection of truncation, and no exception other than
:class:`~repro.core.wire.WireError` on damaged input. Saturation is
part of the format — counters beyond u32 clamp to the maximum rather
than wrapping, so a long-lived endpoint can never report a freshly
wrapped (tiny) corruption count.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.wire import Reader, WireError
from repro.obs.linkhealth import LedgerSummary

u32s = st.integers(min_value=0, max_value=2**32 - 1)
summaries = st.builds(
    LedgerSummary,
    corrupt_arrivals=u32s,
    verified=u32s,
    dropped=u32s,
    rtt_us=u32s,
)


@given(summary=summaries)
@settings(max_examples=200, deadline=None)
def test_roundtrip_exact(summary):
    encoded = summary.encode()
    assert len(encoded) == LedgerSummary.SIZE == 16
    assert LedgerSummary.decode(Reader(encoded)) == summary


@given(summary=summaries)
@settings(max_examples=50, deadline=None)
def test_every_truncation_raises_wire_error(summary):
    encoded = summary.encode()
    for cut in range(len(encoded)):
        with pytest.raises(WireError):
            LedgerSummary.decode(Reader(encoded[:cut]))


@given(summary=summaries, data=st.data())
@settings(max_examples=200, deadline=None)
def test_bit_flip_decodes_to_some_summary(summary, data):
    """The field is four flat u32s: any 16 damaged bytes still decode
    to *a* summary (the flag byte and packet-level checks upstream are
    what reject structural damage), and nothing but WireError may ever
    escape the codec."""
    encoded = bytearray(summary.encode())
    bit = data.draw(st.integers(min_value=0, max_value=len(encoded) * 8 - 1))
    encoded[bit // 8] ^= 1 << (bit % 8)
    decoded = LedgerSummary.decode(Reader(bytes(encoded)))
    assert isinstance(decoded, LedgerSummary)
    assert decoded != summary


@given(value=st.integers(min_value=0, max_value=2**40))
@settings(max_examples=100, deadline=None)
def test_oversized_counters_saturate_not_wrap(value):
    summary = LedgerSummary(
        corrupt_arrivals=value, verified=value, dropped=value, rtt_us=value
    )
    decoded = LedgerSummary.decode(Reader(summary.encode()))
    expected = min(value, 2**32 - 1)
    assert decoded.corrupt_arrivals == expected
    assert decoded.verified == expected
    assert decoded.dropped == expected
    assert decoded.rtt_us == expected
