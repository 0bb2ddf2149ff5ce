#!/usr/bin/env bash
# Repo gate: lint (when ruff is available), the tier-1 test suite, and
# a smoke run of the host-CPU benchmark's four workloads.
#
#   scripts/check.sh            # what CI / a pre-commit hook should run
#   scripts/check.sh --bench    # additionally diff bench snapshots
#                               # (scripts/bench_track.py) after the suite
#   scripts/check.sh --perf     # additionally run the host-CPU benchmark's
#                               # own tests
#   scripts/check.sh --security # additionally run the security test
#                               # tier + the separation-grid smoke and
#                               # gate attacker-acceptance counts
#   CHECK_STRICT_LINT=0 scripts/check.sh   # tolerate a missing ruff
#
# ruff is configured in pyproject.toml ([tool.ruff]) but not bundled
# with the runtime image. The gate tries a best-effort user-level
# bootstrap once. Lint is strict *by default*: a missing ruff fails
# the gate, so CI cannot silently go green without ever linting. Known
# offline images (no pip, no network) opt out explicitly with
# CHECK_STRICT_LINT=0, which degrades the lint step to a notice.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_BENCH=0
RUN_PERF=0
RUN_SECURITY=0
for arg in "$@"; do
    case "$arg" in
        --bench) RUN_BENCH=1 ;;
        --perf) RUN_PERF=1 ;;
        --security) RUN_SECURITY=1 ;;
        *) echo "unknown option: $arg (supported: --bench, --perf, --security)" >&2
           exit 2 ;;
    esac
done

if ! command -v ruff >/dev/null 2>&1; then
    # Best-effort bootstrap; quiet no-op on images without network/pip.
    python -m pip install --user --quiet ruff >/dev/null 2>&1 || true
    # a user-site install lands outside PATH on some images
    USER_BIN="$(python -c 'import site; print(site.USER_BASE)' 2>/dev/null)/bin"
    [ -d "$USER_BIN" ] && export PATH="$PATH:$USER_BIN"
fi

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
elif [ "${CHECK_STRICT_LINT:-1}" != "0" ]; then
    echo "== ruff not installed (strict lint is the default): failing =="
    echo "== set CHECK_STRICT_LINT=0 to tolerate offline images =="
    exit 1
else
    echo "== ruff not installed; skipping lint (CHECK_STRICT_LINT=0) =="
fi

# Sans-IO clock lint: the protocol engines (src/repro/core) and the
# observability layer (src/repro/obs) are driven exclusively by an
# injected `now` — a real clock call in either breaks deterministic
# replay and the simulated-time benchmarks. The only two legitimate
# call sites are the audited helpers in repro/obs/telemetry.py, each
# carrying a `lint: allow-real-clock` marker; everything else must
# route through them.
echo "== real-clock lint (src/repro/core, src/repro/obs) =="
CLOCK_VIOLATIONS=$(grep -rnE 'time\.(time|monotonic)\(' src/repro/core src/repro/obs \
    | grep -v '# lint: allow-real-clock' || true)
if [ -n "$CLOCK_VIOLATIONS" ]; then
    echo "real-clock calls outside the allowlist:" >&2
    echo "$CLOCK_VIOLATIONS" >&2
    exit 1
fi
ALLOWED=$(grep -c '# lint: allow-real-clock' src/repro/obs/telemetry.py || true)
if [ "$ALLOWED" != "2" ]; then
    echo "expected exactly 2 allowlisted real-clock sites in" >&2
    echo "src/repro/obs/telemetry.py, found ${ALLOWED:-0}" >&2
    exit 1
fi

echo "== tier-1 tests =="
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -x -q

# perf/tracing.py patches names inside src/repro/core by module path,
# and tier-1 (testpaths = tests) never imports perf/: this ~2 s test
# fails when a core refactor drops or moves one of those names.
echo "== perf tracing targets =="
python -m pytest -q perf/tests/test_tracing.py

# The smoke drives all four workloads end to end through the public
# endpoint API (cumulative-lossy covers the timeout/backoff path) and
# exits 1 on any exactly-once, order or full-delivery violation.
echo "== host-CPU benchmark smoke =="
python3 -m perf run --smoke

if [ "$RUN_BENCH" = "1" ]; then
    # The suite above just wrote fresh results/bench/BENCH_*.json
    # snapshots; diff them against the previous generation, and gate
    # the e2e goodput and flow-scaling grid saturation goodput against
    # the median of their history ring (>10% below median fails).
    # Both are simulated-time figures: behaviour pins, not performance.
    # Host-CPU performance is perf/'s job (--perf).
    echo "== bench regression tracking + perf smoke =="
    python scripts/bench_track.py --perf-smoke
fi

if [ "$RUN_PERF" = "1" ]; then
    # perf/ drives the library through its public endpoint API, and the
    # tier-1 run (testpaths = tests) never imports it.
    echo "== host-CPU benchmark tests =="
    python -m pytest perf/tests -q
fi

if [ "$RUN_SECURITY" = "1" ]; then
    # The separation tier pins every (scheme, attack) grid cell to its
    # exact drop location or documented acceptance; the grid smoke
    # refreshes the bench_attack_filtering snapshot; the tracker gate
    # then enforces the two security invariants (ALPHA accepts nothing,
    # no scheme's attacker-acceptance count climbs between runs).
    echo "== security tier =="
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest tests/security -q
    echo "== separation-grid smoke + acceptance gate =="
    PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest \
        tests/benchmarks/test_bench_smoke.py -q \
        -k bench_attack_filtering
    python scripts/bench_track.py --security-smoke
fi
