"""The one real clock the sans-IO layers may reach.

The protocol engines under :mod:`repro.core` are sans-IO: every method
takes an injected ``now`` and ``scripts/check.sh`` rejects any real
clock call in ``src/repro/core`` or ``src/repro/obs``. A transport on
real sockets still needs wall time to drive them. :func:`live_clock`
is that exception: the only allowlisted real-clock call site in the
tree (marked ``lint: allow-real-clock``).
"""

from __future__ import annotations

import time


def live_clock() -> float:
    """Monotonic wall clock for driving endpoints over real sockets.

    The default ``clock`` of the UDP transport; tests inject a fake
    instead. Allowlisted: the one real-clock call site permitted by the
    check.sh lint.
    """
    return time.monotonic()  # lint: allow-real-clock
