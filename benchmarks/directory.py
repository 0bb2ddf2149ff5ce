"""Relay directory: coordinated multi-hop path construction.

ALPHA authenticates hop-by-hop, so a client needs to *know* a chain of
relays before it can ride one — and PROTOCOL.md §13's failover needs
several alternates per peer to promote between. The directory is that
coordination point: relays register and heartbeat with an advertised
load, clients fetch ranked multi-hop paths, and :meth:`populate` feeds
them straight into a :class:`~repro.core.resilience.PathManager`.

The protocol itself never consults a directory; it lives beside its one
user, the flows×relays grid in :mod:`benchmarks.bench_flow_scaling`.

The chained topology mirrors the enhanced-chain-signatures routing
assumption (PAPERS.md, arXiv 0907.4085): every hop on a fetched path is
a registered, live relay, so each can be expected to hold (or
bootstrap) the pairwise chain state the per-hop re-signing needs.

The directory is sans-IO and clock-explicit: callers pass ``now``,
liveness is a TTL on the last heartbeat, and ranking is deterministic
(load, then name) so tests and benchmarks reproduce exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.resilience import PathCandidate, PathManager


@dataclass
class RelayRecord:
    """One registered relay, as the directory sees it."""

    name: str
    registered_at: float
    last_heartbeat: float
    #: Advertised load — associations currently riding the relay. The
    #: relay reports it with each heartbeat; the directory also bumps a
    #: provisional count per path handed out so that a burst of clients
    #: ranking between heartbeats still spreads across the mesh.
    load: int = 0
    #: Paths handed out through this relay since its last heartbeat.
    assigned: int = 0
    meta: dict = field(default_factory=dict)

    def effective_load(self) -> int:
        return self.load + self.assigned


class RelayDirectory:
    """Registration, liveness, and ranked path construction."""

    def __init__(self, ttl_s: float = 30.0) -> None:
        if ttl_s <= 0:
            raise ValueError("relay TTL must be positive")
        self.ttl_s = ttl_s
        self._relays: dict[str, RelayRecord] = {}
        #: Relays dropped by the TTL sweep since construction.
        self.expired = 0

    def __len__(self) -> int:
        return len(self._relays)

    def register(self, name: str, now: float, **meta) -> RelayRecord:
        """Add a relay (or refresh an existing registration)."""
        record = self._relays.get(name)
        if record is None:
            record = RelayRecord(
                name=name, registered_at=now, last_heartbeat=now, meta=meta
            )
            self._relays[name] = record
        else:
            record.last_heartbeat = now
            record.meta.update(meta)
        return record

    def heartbeat(self, name: str, now: float, load: int | None = None) -> None:
        """Refresh a relay's liveness; optionally update its load."""
        record = self._relays.get(name)
        if record is None:
            raise LookupError(f"unknown relay {name!r}")
        record.last_heartbeat = now
        if load is not None:
            record.load = load
            record.assigned = 0

    def deregister(self, name: str) -> None:
        self._relays.pop(name, None)

    def live(self, now: float) -> list[RelayRecord]:
        """Sweep expired relays, return the live set (stable order)."""
        dead = [
            name for name, record in self._relays.items()
            if now - record.last_heartbeat > self.ttl_s
        ]
        for name in dead:
            del self._relays[name]
            self.expired += 1
        return list(self._relays.values())

    def paths(
        self,
        client: str,
        server: str,
        now: float,
        hops: int = 1,
        count: int = 3,
    ) -> list[PathCandidate]:
        """Ranked multi-hop paths from ``client`` toward ``server``.

        Returns up to ``count`` paths of ``hops`` relays each, least
        loaded relays first, hop-disjoint while the live set allows it
        (a failover that abandons one path should not land on the same
        dying relay). Endpoints never relay for themselves: ``client``
        and ``server`` are excluded even if registered.
        """
        if hops < 1:
            raise ValueError("a relayed path needs at least one hop")
        pool = [
            record for record in self.live(now)
            if record.name not in (client, server)
        ]
        paths: list[PathCandidate] = []
        seen_ids: set[str] = set()
        used: set[str] = set()
        for _ in range(count):
            ranked = sorted(
                pool,
                key=lambda r: (r.name in used, r.effective_load(), r.name),
            )
            if len(ranked) < hops:
                break
            chosen = ranked[:hops]
            hop_names = tuple(record.name for record in chosen)
            path_id = "via:" + ">".join(hop_names)
            if path_id in seen_ids:
                # The pool is too small to offer another distinct path;
                # further attempts would only repeat this one.
                break
            seen_ids.add(path_id)
            for record in chosen:
                record.assigned += 1
                used.add(record.name)
            paths.append(PathCandidate(path_id=path_id, hops=hop_names))
        return paths

    def populate(
        self,
        manager: PathManager,
        client: str,
        server: str,
        now: float,
        hops: int = 1,
        count: int = 3,
    ) -> int:
        """Fetch paths and register the new ones with a PathManager.

        Returns how many candidates were actually added (paths the
        manager already knows are skipped, so repeated refreshes are
        idempotent).
        """
        known = {c.path_id for c in manager.candidates(server)}
        added = 0
        for candidate in self.paths(client, server, now, hops=hops, count=count):
            if candidate.path_id in known:
                continue
            manager.register(server, candidate.path_id, hops=candidate.hops)
            added += 1
        return added
