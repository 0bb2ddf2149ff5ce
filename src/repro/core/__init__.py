"""ALPHA: the paper's contribution.

Layering, bottom to top:

1. Data structures — :mod:`repro.core.hashchain` (role-bound one-way
   chains), :mod:`repro.core.merkle` (keyed Merkle trees for ALPHA-M),
   :mod:`repro.core.acktree` (the Acknowledgment Merkle Tree).
2. Wire formats — :mod:`repro.core.wire` (codec helpers),
   :mod:`repro.core.packets` (S1/A1/S2/A2 and handshake packets).
3. Protocol engines — :mod:`repro.core.signer`,
   :mod:`repro.core.verifier`, :mod:`repro.core.relay`: sans-IO state
   machines that consume and produce packet objects.
4. Session plumbing — :mod:`repro.core.association`,
   :mod:`repro.core.bootstrap`, :mod:`repro.core.endpoint` (the public
   entry point), :mod:`repro.core.adapter` (glue onto the simulator).
5. Models — :mod:`repro.core.analysis`: the closed forms behind the
   paper's tables and figures.
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
