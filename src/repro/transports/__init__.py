"""Transports: the adapters that carry ALPHA's engines over a medium.

The protocol engines are sans-IO, so any byte carrier works. Three are
provided:

- :mod:`repro.transports.memory` — a synchronous in-memory pipe with
  optional loss/reordering, handy for tests and for embedding two
  endpoints in one process.
- :mod:`repro.transports.udp` — a selectors-based UDP transport that
  runs endpoints over real sockets (demonstrated over loopback in the
  test suite). This is what a deployment on actual wireless interfaces
  would start from.
- :mod:`repro.transports.netsim` — :class:`EndpointAdapter` and
  :class:`RelayAdapter` run endpoints and relays on the discrete-event
  simulator's nodes, driven by its scheduler.

The first two are driven by the caller's loop: each turn feeds received
packets to the endpoint and polls it, and
``AlphaEndpoint.next_deadline`` says how long the loop may wait before
the next poll has work.
"""

from repro.transports.memory import MemoryNetwork
from repro.transports.udp import UdpTransport

__all__ = ["MemoryNetwork", "UdpTransport"]
