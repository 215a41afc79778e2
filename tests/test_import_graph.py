"""What ``repro serve`` and the package re-exports load, and when.

The serving path must not load the simulator: ``repro``, ``repro.core``
and ``repro.serve`` resolve their re-exported names on first use, and
the CLI fills in only the command it runs. Module sets are read from
fresh interpreters, since this test process has imported everything.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import types

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

#: subpackages and modules that only the simulator half needs
SIMULATOR = (
    "sim",
    "experiments",
    "store",
    "overlay",
    "churn",
    "apps",
    "backends",
    "metrics",
    "scenarios",
)

PACKAGES = ("repro", "repro.core", "repro.serve")

#: run in a fresh interpreter after a snippet: its ``repro`` modules, one line
REPORT = (
    "import sys\n"
    "print(' '.join(sorted(m for m in sys.modules"
    " if m == 'repro' or m.startswith('repro.'))))\n"
)

#: ``python -m repro ARGS`` inside the interpreter (``sys.exit`` caught)
RUN_CLI = (
    "import runpy, sys\n"
    "sys.argv = ['repro'] + {argv!r}\n"
    "try:\n"
    "    runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
)

SERVE = ["serve", "--strategy", "simple", "-C", "3", "--port", "0"]


def fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )


def loaded(code: str) -> list:
    """The ``repro`` modules a fresh interpreter holds after running ``code``."""
    return fresh(code + REPORT).stdout.splitlines()[-1].split()


def simulator_modules(modules: list) -> list:
    return [m for m in modules if set(m.split(".")[1:2]) & set(SIMULATOR)]


@pytest.mark.parametrize("name", PACKAGES)
def test_importing_a_package_loads_it_alone(name):
    assert loaded(f"import {name}\n") == sorted({"repro", name})


def test_the_null_servers_imports_load_the_wire_and_the_limiter_only():
    modules = loaded(
        "from repro.serve import wire\nfrom repro.serve.limiter import Decision\n"
    )
    assert simulator_modules(modules) == []
    assert "repro.serve.cluster" not in modules
    assert len(modules) <= 11, modules


def test_serve_help_loads_no_simulator_module():
    modules = loaded(RUN_CLI.format(argv=["serve", "--help"]))
    assert simulator_modules(modules) == []


def test_repro_serve_loads_the_serving_path_only():
    modules = loaded(RUN_CLI.format(argv=SERVE + ["--duration", "0.2"]))
    assert simulator_modules(modules) == []
    assert "repro.serve.cluster" not in modules
    assert "repro.serve.loadgen" not in modules
    assert len(modules) <= 17, modules


def test_a_cluster_router_loads_no_simulator_and_its_workers_import_nothing():
    # Each worker reports what it imported after its fork, on its way out.
    patch = (
        "import sys\n"
        "from repro.serve import cluster\n"
        "serve_worker = cluster._serve_worker\n"
        "def reporting(*args):\n"
        "    before = set(sys.modules)\n"
        "    try:\n"
        "        serve_worker(*args)\n"
        "    finally:\n"
        "        print('worker', *sorted(set(sys.modules) - before), flush=True)\n"
        "cluster._serve_worker = reporting\n"
    )
    argv = SERVE + ["--workers", "1", "--duration", "0.2"]
    out = fresh(patch + RUN_CLI.format(argv=argv) + REPORT).stdout.splitlines()
    router = out[-1].split()
    assert "repro.core.kernel" in router  # imported before the fork
    assert simulator_modules(router) == []
    (worker,) = [line.split()[1:] for line in out if line.startswith("worker")]
    assert [m for m in worker if m.startswith(("repro", "numpy"))] == []


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_is_its_defining_modules_object(name):
    package = importlib.import_module(name)
    owners = {
        export: module
        for module, exports in package._EXPORTS.items()
        for export in exports
    }
    assert set(owners) == set(package.__all__) - {"__version__"}
    for export, module in owners.items():
        value = getattr(package, export)
        assert value is getattr(importlib.import_module(module), export)
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == module  # the table names the definer


@pytest.mark.parametrize("name", PACKAGES)
def test_star_import_and_dir_cover_every_export(name):
    package = importlib.import_module(name)
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_an_unknown_name_is_an_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        getattr(package, "frobnicate")
    with pytest.raises(ImportError):
        exec(f"from {name} import frobnicate", {})


def help_choices() -> dict:
    """Each command's choice lists, straight from where they are defined."""
    from repro.experiments.scale import scale_names
    from repro.experiments.sweep import sweepable_strategies
    from repro.registry import (
        ALL_REGISTRIES,
        applications,
        backends,
        churn_models,
        overlays,
        strategies,
    )
    from repro.scenarios import ARRIVAL_PATTERNS, SCENARIOS

    apps, scales = applications.names(), scale_names()
    figure = [apps, scales]
    suite = [apps, sweepable_strategies(), SCENARIOS, scales]
    return {
        "": [
            (
                "run",
                "list",
                "figure",
                "sweep",
                "suite",
                "report",
                "store",
                "serve",
                "loadgen",
                "trace",
            ),
        ],
        "run": [
            apps,
            strategies.names(),
            SCENARIOS,
            churn_models.names(),
            overlays.names(),
            backends.names(),
        ],
        "list": [tuple(ALL_REGISTRIES)],
        "figure": figure,
        "sweep": suite,
        "suite": suite,
        "report": [("figure", "suite")],
        "report figure": figure,
        "report suite": suite,
        "store": [("ls", "gc", "diff")],
        "store ls": [],
        "store gc": [],
        "store diff": [],
        "serve": [strategies.names()],
        "loadgen": [ARRIVAL_PATTERNS],
        "trace": [],
    }


@pytest.mark.parametrize("command", list(help_choices()))
def test_every_help_lists_exactly_the_defined_choices(command, capsys):
    with pytest.raises(SystemExit) as exited:
        main(command.split() + ["--help"])
    assert exited.value.code == 0
    shown = set(re.findall(r"\{[^{}\s]*\}", capsys.readouterr().out))
    expected = {"{" + ",".join(names) + "}" for names in help_choices()[command]}
    assert shown == expected
