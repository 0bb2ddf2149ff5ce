"""ALPHA: the paper's contribution, as a sans-IO protocol.

Layering, bottom to top:

1. Data structures — :mod:`repro.core.hashchain` (role-bound one-way
   chains), :mod:`repro.core.merkle` (keyed Merkle trees for ALPHA-M),
   :mod:`repro.core.acktree` (the Acknowledgment Merkle Tree).
2. Wire formats — :mod:`repro.core.wire` (codec helpers),
   :mod:`repro.core.packets` (S1/A1/S2/A2 and handshake packets, and
   the ledger summary they carry).
3. Protocol engines — :mod:`repro.core.signer`,
   :mod:`repro.core.verifier`, :mod:`repro.core.relay`: sans-IO state
   machines that consume and produce packet bytes, with
   :mod:`repro.core.resilience` and the per-link
   :mod:`repro.core.linkhealth` ledger they feed.
4. Session plumbing — :mod:`repro.core.bootstrap`,
   :mod:`repro.core.adaptive`, :mod:`repro.core.endpoint` (the public
   entry point).

It imports only itself, :mod:`repro.crypto` and the :mod:`repro.obs`
flag, event and metric types (``tests/test_layering.py``); carriers,
the cost model and the canonical channel sit above it.
"""

from repro.core.modes import Mode, ReliabilityMode
from repro.core.hashchain import HashChain, ChainVerifier
from repro.core.merkle import MerkleTree, MerkleVerifyCache, verify_merkle_path
from repro.core.acktree import AckTree, verify_ack_opening
from repro.core.endpoint import AlphaEndpoint, EndpointConfig
from repro.core.resilience import (
    ExchangeFailed,
    PathManager,
    ResilienceStats,
    RttEstimator,
)
from repro.core.exceptions import (
    AlphaError,
    AuthenticationError,
    ChainExhaustedError,
    PacketError,
    ProtocolError,
)

__all__ = [
    "Mode",
    "ReliabilityMode",
    "HashChain",
    "ChainVerifier",
    "MerkleTree",
    "MerkleVerifyCache",
    "verify_merkle_path",
    "AckTree",
    "verify_ack_opening",
    "AlphaEndpoint",
    "EndpointConfig",
    "ExchangeFailed",
    "PathManager",
    "ResilienceStats",
    "RttEstimator",
    "AlphaError",
    "AuthenticationError",
    "ChainExhaustedError",
    "PacketError",
    "ProtocolError",
]
