"""Shared infrastructure for the benchmark harness.

Each ``bench_*`` file regenerates one artifact of the paper's evaluation
(a table or a figure) and times its dominant operation with
pytest-benchmark. Regenerated tables are printed *and* written under
``results/`` so a run leaves a reviewable record. One command runs every
bench:

    pytest benchmarks/ -s

Not ``--benchmark-only``: that flag skips each test without a
``benchmark`` fixture, and the flow-scaling and attack-filtering grids
take none.
"""

from __future__ import annotations

import contextlib
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@contextlib.contextmanager
def scaled_down(module, **overrides):
    """Temporarily shrink a bench module's size constants.

    Used by each bench's ``smoke()`` (run in tier-1 by
    ``tests/benchmarks/test_bench_smoke.py``) to drive the real
    measurement code at toy scale, so bench bit-rot fails fast without
    paying full benchmark runtimes.
    """
    saved = {name: getattr(module, name) for name in overrides}
    try:
        for name, value in overrides.items():
            setattr(module, name, value)
        yield
    finally:
        for name, value in saved.items():
            setattr(module, name, value)


@pytest.fixture(scope="session")
def emit():
    """Print a regenerated artifact and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _emit(name: str, text: str) -> None:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}")
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _emit


def format_table(headers: list[str], rows: list[list], widths: list[int] | None = None) -> str:
    """Minimal fixed-width table formatter."""
    cells = [[str(c) for c in row] for row in rows]
    if widths is None:
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
            for i in range(len(headers))
        ]
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)
