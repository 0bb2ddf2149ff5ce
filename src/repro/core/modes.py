"""Operational modes of ALPHA.

The paper defines one base protocol and two bandwidth-adaptation modes
(Section 3.3), combinable with unreliable or reliable delivery
(Section 3.2). These enums are carried in the S1 packet so verifiers and
relays know how to interpret the pre-signature data.
"""

from __future__ import annotations

import enum


class Mode(enum.IntEnum):
    """Pre-signature layout of an exchange."""

    #: One message, one MAC per S1 (Section 3.1).
    BASE = 0
    #: ALPHA-C — n MACs per S1, all keyed with the same undisclosed
    #: element (Section 3.3.1).
    CUMULATIVE = 1
    #: ALPHA-M — one keyed Merkle-tree root per S1; each S2 carries its
    #: authentication path (Section 3.3.2).
    MERKLE = 2
    #: Combined ALPHA-C+M — several Merkle roots per S1, each covering a
    #: slice of the batch. "Delivering multiple MT roots per S1 packet
    #: makes possible a reduction of the computational cost for
    #: verifying {Bc} or enables the sender to send a larger number of
    #: S2 packets with constant cost" (Section 3.3.2, last paragraph).
    MERKLE_CUMULATIVE = 3

    @property
    def batched(self) -> bool:
        """True for the modes that amortize one S1 over many messages."""
        return self is not Mode.BASE

    @property
    def constant_s1(self) -> bool:
        """True when the S1 size is independent of the batch size.

        Merkle-family pre-signatures compress a whole batch into one (or
        a few) roots, so an S1 lost to a bursty link is cheap to resend —
        the property the adaptive controller exploits under loss
        (Section 3.3.2 versus the linear {Mc} list of ALPHA-C).
        """
        return self in (Mode.MERKLE, Mode.MERKLE_CUMULATIVE)


class ReliabilityMode(enum.IntEnum):
    """Acknowledgment handling of an exchange."""

    #: Fire-and-forget three-way exchange (Section 3.2.1).
    UNRELIABLE = 0
    #: Pre-ack/pre-nack in A1, opened in A2 (Section 3.2.2); for
    #: Mode.MERKLE the pre-acks live in an Acknowledgment Merkle Tree
    #: (Section 3.3.3).
    RELIABLE = 1
