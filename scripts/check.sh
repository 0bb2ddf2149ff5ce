#!/usr/bin/env bash
# Repo gate: lint (when ruff is available), the tier-1 test suite, and
# a smoke run of the host-CPU benchmark's four workloads.
#
#   scripts/check.sh            # what CI / a pre-commit hook should run
#   scripts/check.sh --perf     # additionally run the host-CPU benchmark's
#                               # own tests
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

RUN_PERF=0
for arg in "$@"; do
    case "$arg" in
        --perf) RUN_PERF=1 ;;
        *) echo "unknown option: $arg (supported: --perf)" >&2
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
    ruff check src tests benchmarks scripts examples
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
# route through them. The pattern also catches the other stdlib clocks
# (and their _ns forms), datetime's wall-clock constructors, and the
# import forms that would hide a clock call from it.
echo "== real-clock lint (src/repro/core, src/repro/obs) =="
CLOCK_PATTERN='time\.(time|monotonic|perf_counter|process_time|thread_time)(_ns)?\('
CLOCK_PATTERN+='|datetime\.(now|utcnow|today)\(|from time import|import time as'
CLOCK_VIOLATIONS=$(grep -rnE "$CLOCK_PATTERN" src/repro/core src/repro/obs \
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

# perf/hypotheses.py also wraps private names (EXTRA_TARGETS, e.g.
# ChainVerifier._prune_derived, _ChannelObserver.buffered_bytes) that
# the test above does not check. Resolve each the way the wrapper does
# (a KeyError names the missing one), so a rename fails here instead of
# breaking `python3 -m perf hypotheses`.
echo "== perf hypotheses targets =="
python - <<'EOF'
import importlib

from perf.hypotheses import EXTRA_TARGETS

for module_name, owner_name, attribute, _ in EXTRA_TARGETS:
    owner = importlib.import_module(module_name)
    vars(getattr(owner, owner_name) if owner_name else owner)[attribute]
EOF

# The smoke drives all four workloads end to end through the public
# endpoint API (cumulative-lossy covers the timeout/backoff path) and
# exits 1 on any exactly-once, order or full-delivery violation.
echo "== host-CPU benchmark smoke =="
python3 -m perf run --smoke

if [ "$RUN_PERF" = "1" ]; then
    # perf/ drives the library through its public endpoint API, and the
    # tier-1 run (testpaths = tests) never imports it.
    echo "== host-CPU benchmark tests =="
    python -m pytest perf/tests -q
fi
