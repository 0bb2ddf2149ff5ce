"""Reproduction of ALPHA (CoNEXT 2008): adaptive and lightweight
hop-by-hop authentication built on interactive hash-chain signatures.

Subpackages
-----------
``repro.core``
    The paper's contribution as a sans-IO protocol: role-bound hash
    chains, the S1/A1/S2(/A2) interactive signature exchange, ALPHA-C
    cumulative mode, ALPHA-M Merkle-tree mode, reliability, link
    health, adaptation and bootstrapping.
``repro.crypto``
    From-scratch cryptographic substrate: counting hashes, HMAC, AES-128,
    the Matyas–Meyer–Oseas hash, RSA, DSA, and ECDSA.
``repro.obs``
    Observability: the enable flag, metrics registry and exchange tracer.
``repro.netsim``
    Deterministic discrete-event simulator for multi-hop networks.
``repro.devices``
    CPU/energy cost profiles for the paper's hardware platforms.
``repro.transports``
    Carriers: in-memory pipe, UDP, and the simulator adapters.
``repro.analysis``
    Closed-form cost models behind the paper's tables and figures.
``repro.canonical``
    The hand-driven signer → relays → verifier channel.
``repro.baselines``
    Comparison protocols: TESLA, end-to-end HMAC, per-packet public-key
    signatures, Guy-Fawkes-style signatures, LHAP-style hop tokens.
``repro.attacks``
    Adversary toolkit for the paper's threat model.
``repro.apps``
    HIP-like signaling, middleboxes, and streaming helpers built on the
    public API.

Imports point one way. ``repro.core`` imports only itself,
``repro.crypto`` and the ``repro.obs`` flag, event and metric types;
``obs``, ``crypto``, ``netsim`` and ``devices`` import no protocol or
driver code. ``tests/test_layering.py`` checks both rules.
"""

__version__ = "1.0.0"
