"""The import graph points one way: protocol core below, drivers above.

``repro.core`` is the sans-IO protocol (paper §3): it may lean on
``repro.crypto`` and on the observability flag, event and metric types,
and on nothing else in the package. The substrates below or beside it
(``obs``, ``crypto``, ``netsim``, ``devices``) import no protocol code
and no driver. Two halves hold that:

- a static half walks every import statement in ``src/repro`` with
  ``ast`` — module-level, function-level and ``TYPE_CHECKING`` imports
  alike, so a deferred import cannot hide an upward edge;
- a runtime half imports the packages in a fresh interpreter and lists
  what actually got loaded, which also catches edges made through
  package ``__init__`` re-exports.

``repro.core`` also holds only the protocol: every public class,
function and method it defines is named by an identifier in
``src/repro`` code (docstrings do not count), or sits on a short
allowlist with its reason, so a helper only tests call lives with the
tests. And the tests drive endpoints through ``MemoryNetwork``: a test
module's own loop calling ``.on_packet`` and ``.poll`` needs an
allowlist entry.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: What ``repro.core`` may import from the package.
CORE_MAY_IMPORT = ("repro.core", "repro.crypto")
CORE_MAY_IMPORT_EXACT = {"repro.obs", "repro.obs.trace", "repro.obs.metrics"}

#: Substrates, and what none of them may import.
SUBSTRATES = ("repro.obs", "repro.crypto", "repro.netsim", "repro.devices")
ABOVE_SUBSTRATES = (
    "repro.core",
    "repro.transports",
    "repro.apps",
    "repro.attacks",
    "repro.baselines",
    "repro.analysis",
    "repro.canonical",
)

#: Observability modules a core import may load (``repro.obs`` pulls in
#: its time series alongside the registry).
CORE_LOADS_OBS = {
    "repro.obs",
    "repro.obs.trace",
    "repro.obs.metrics",
    "repro.obs.timeseries",
}
CORE_NEVER_LOADS = (
    "repro.netsim",
    "repro.devices",
    "repro.transports",
    "repro.apps",
    "repro.attacks",
    "repro.baselines",
    "repro.analysis",
    "repro.canonical",
)


def _under(name: str, prefixes) -> bool:
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_module(name: str) -> bool:
    base = SRC.joinpath(*name.split("."))
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _imports(path: Path) -> set[str]:
    """Every ``repro`` module ``path`` imports, wherever the statement sits."""
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                source = ".".join(base + ([node.module] if node.module else []))
            else:
                source = node.module
            for alias in node.names:
                # ``from pkg import submodule`` imports the submodule.
                candidate = f"{source}.{alias.name}"
                found.add(candidate if _is_module(candidate) else source)
    return {name for name in found if _under(name, ("repro",))}


def _edges() -> list[tuple[str, str]]:
    return sorted(
        (_module_name(path), target)
        for path in SRC.joinpath("repro").rglob("*.py")
        for target in _imports(path)
    )


def test_the_walk_sees_the_package():
    edges = _edges()
    assert ("repro.core.endpoint", "repro.core.signer") in edges
    assert ("repro.transports.netsim", "repro.netsim.node") in edges


def test_core_imports_only_core_crypto_and_the_obs_flag():
    upward = [
        (source, target)
        for source, target in _edges()
        if _under(source, ("repro.core",))
        and not _under(target, CORE_MAY_IMPORT)
        and target not in CORE_MAY_IMPORT_EXACT
    ]
    assert upward == []


def test_substrates_import_no_protocol_or_driver_code():
    upward = [
        (source, target)
        for source, target in _edges()
        if _under(source, SUBSTRATES) and _under(target, ABOVE_SUBSTRATES)
    ]
    assert upward == []


def _loaded_after(statement: str) -> list[str]:
    """``repro`` modules loaded by ``statement`` in a fresh interpreter."""
    probe = (
        f"import json, sys\n{statement}\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'repro' or m.startswith('repro.'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return json.loads(result.stdout)


def test_importing_core_loads_no_simulator_device_or_driver_module():
    loaded = _loaded_after(
        "import pkgutil, importlib, repro.core\n"
        "for info in pkgutil.walk_packages(repro.core.__path__, 'repro.core.'):\n"
        "    importlib.import_module(info.name)"
    )
    assert "repro.core.endpoint" in loaded
    stray = [
        name for name in loaded
        if _under(name, CORE_NEVER_LOADS)
        or (_under(name, ("repro.obs",)) and name not in CORE_LOADS_OBS)
    ]
    assert stray == []


def test_importing_obs_loads_no_core_module():
    loaded = _loaded_after("import repro.obs")
    assert "repro.obs" in loaded
    assert [name for name in loaded if _under(name, ("repro.core",))] == []


@pytest.mark.parametrize(
    "old_path",
    [
        "repro.core.adapter",
        "repro.core.analysis",
        "repro.obs.canonical",
        "repro.obs.linkhealth",
    ],
)
def test_no_module_left_at_a_pre_layering_path(old_path):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(old_path)


#: Public ``repro.core`` names that no ``src/repro`` code names, and why
#: each stays.
CORE_UNNAMED_ALLOWED = {
    "AlphaEndpoint.peer_down": "application API: has dead-peer detection "
    "given up on this peer",
    "RelayEngine.drop_breakdown": "the attack bench's drops by cause "
    "(benchmarks/bench_attack_filtering.py)",
    "RelayEngine.association_count": "the relay-table size perf reads "
    "(perf/workloads.py)",
    "establish_static": "application API: pre-provisioned pairs "
    "(examples/wsn_streaming.py)",
    "provision_relays": "application API: relays of a pre-provisioned "
    "pair (examples/wsn_streaming.py)",
    "AlphaEndpoint.set_channel_config": "application API: per-peer "
    "channel knobs (benchmarks/bench_ablations.py)",
}


def _core_definitions():
    """``(qualified name, name)`` of each public class and function at
    the top of a ``repro.core`` module, and of each public method of a
    public class."""
    def public(node) -> bool:
        return isinstance(node, (ast.ClassDef, ast.FunctionDef)) and not (
            node.name.startswith("_")
        )

    for path in sorted(SRC.joinpath("repro", "core").glob("*.py")):
        for node in filter(public, ast.parse(path.read_text(), str(path)).body):
            yield node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield f"{node.name}.{item.name}", item.name


def _identifiers(tree: ast.AST) -> set[str]:
    """Names, attributes, imported names and keyword arguments."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg:
            found.add(node.arg)
    return found


def test_core_defines_only_what_src_names():
    named = set()
    for path in SRC.joinpath("repro").rglob("*.py"):
        named |= _identifiers(ast.parse(path.read_text(), str(path)))
    unnamed = {
        qualified for qualified, name in _core_definitions() if name not in named
    }
    assert unnamed == set(CORE_UNNAMED_ALLOWED)


TESTS = Path(__file__).resolve().parent

#: Test modules that may move datagrams between endpoints in a loop of
#: their own, and why each cannot use ``MemoryNetwork``.
OWN_DRIVE_ALLOWED = {
    "core/test_endpoint_edge_cases.py": "the weakref drive: a network "
    "object would keep the endpoints it checks are freed alive",
}


def _drives_its_own_loop(tree: ast.AST) -> bool:
    """Does a loop in ``tree`` call both ``.on_packet`` and ``.poll``?"""
    for loop in ast.walk(tree):
        if isinstance(loop, (ast.For, ast.While)):
            called = {
                node.func.attr
                for node in ast.walk(loop)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            }
            if {"on_packet", "poll"} <= called:
                return True
    return False


def test_tests_drive_endpoints_through_the_memory_network():
    own_drives = {
        path.relative_to(TESTS).as_posix()
        for path in TESTS.rglob("*.py")
        if _drives_its_own_loop(ast.parse(path.read_text(), str(path)))
    }
    assert own_drives == set(OWN_DRIVE_ALLOWED)

