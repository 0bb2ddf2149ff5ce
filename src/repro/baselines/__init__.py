"""Baseline integrity-protection schemes the paper compares against.

Each baseline is a small sans-IO engine plus an analytical cost model,
so the benchmark harness can compare ALPHA against them both in
simulation and on paper-style estimate tables:

- :mod:`repro.baselines.hmac_e2e` — conventional shared-secret HMAC;
  cheap but opaque to relays (the paper's core motivation).
- :mod:`repro.baselines.pk_sign` — per-packet public-key signatures;
  relay-verifiable but orders of magnitude more expensive (Table 4).
- :mod:`repro.baselines.tesla` — time-based hash-chain signatures with
  delayed key disclosure [18]; needs loose time sync and delays
  verification by the disclosure lag.
- :mod:`repro.baselines.guy_fawkes` — the interactive one-packet-lag
  stream signature family ALPHA builds on [2].
- :mod:`repro.baselines.lhap` — LHAP-style hop-by-hop token
  authentication [26]; outsider protection only.
- :mod:`repro.baselines.promac` — ProMAC-style progressive MACs
  (arXiv 2103.08560); provisional acceptance with a documented
  accept-then-retract forgery window.
- :mod:`repro.baselines.chained_mode` — CSM-style chained per-hop MACs
  over coded generations (arXiv 2006.00310); reorder-tolerant and
  hop-verifiable, but no insider containment.

:mod:`repro.baselines.base` additionally provides the
:class:`~repro.baselines.base.BaselineAdapter` /
:class:`~repro.baselines.base.BaselineChain` layer that runs every
baseline on the netsim chain topology for the schemes × attacks grid.
Each adapter subclass is the one definition of its scheme, feature-matrix
row included: :func:`~repro.baselines.base.scheme_adapters` is the only
registry, and :func:`~repro.baselines.base.feature_matrix` is ALPHA's
row followed by the adapters' rows.
"""

from repro.baselines.base import (
    BaselineAdapter,
    BaselineChain,
    SchemeProperties,
    feature_matrix,
    scheme_adapters,
)

__all__ = [
    "BaselineAdapter",
    "BaselineChain",
    "SchemeProperties",
    "feature_matrix",
    "scheme_adapters",
]
