"""What each CLI subcommand loads, and the lazy ``fmaf`` package.

A subcommand imports only the layers it uses, so ``fmaf check`` never
pays for the simulator or the viewpoint projections.  The module sets
are read in fresh interpreters, because this test process has already
imported everything; so is the code that importing every layer
generates and compiles, which no bytecode cache keeps.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmaf
from fmaf.casestudy import load_bundle
from fmaf.model import PartitionResult

from _event_check import FIELDS, frozen_types

SRC = str(Path(fmaf.__file__).resolve().parents[1])

# Runs the CLI's main on the given arguments, then prints the fmaf modules loaded.
RUN_MAIN = """
import sys
from fmaf.cli import main
main(sys.argv[1:])
print(",".join(sorted(m for m in sys.modules if m == "fmaf" or m.startswith("fmaf."))))
"""

CHECK_SET = {"fmaf", "fmaf.cli", "fmaf.dsl", "fmaf.model", "fmaf.checker"}

# Imports every layer and prints the source texts compiled in "exec" mode
# or passed to exec on the way, one repr per line.  importlib compiles
# module files from bytes, and typing compiles string annotations in
# "eval" mode.
COUNT_GENERATED = """
import builtins
texts = []
real_compile, real_exec = builtins.compile, builtins.exec

def compile(source, filename, mode, *args, **kwargs):
    if isinstance(source, str) and mode == "exec":
        texts.append(source)
    return real_compile(source, filename, mode, *args, **kwargs)

def exec(source, *args, **kwargs):
    if isinstance(source, str):
        texts.append(source)
    return real_exec(source, *args, **kwargs)

builtins.compile, builtins.exec = compile, exec
import fmaf.casestudy, fmaf.cli, fmaf.simulator, fmaf.viewgen
builtins.compile, builtins.exec = real_compile, real_exec
for text in texts:
    print(repr(text))
"""

# What Python 3.13's dataclass execs for a class it adds no method to.
EMPTY_BUILDER = "def __create_fn__():\n\n return ()"


def loaded_modules(code: str, *argv: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert "Traceback" not in proc.stderr, proc.stderr
    last = proc.stdout.splitlines()[-1] if proc.stdout else ""
    return set(last.split(",")) if last else set()


@pytest.fixture(scope="module")
def fault3():
    return str(load_bundle("fault3").model_file)


class TestSubcommandModules:
    def test_check_loads_only_the_checking_layers(self, fault3):
        assert loaded_modules(RUN_MAIN, "check", fault3) == CHECK_SET

    def test_simulate_adds_only_the_simulator(self, fault3):
        argv = ("simulate", fault3, "--scenario", "F3.2")
        assert loaded_modules(RUN_MAIN, *argv) == CHECK_SET | {"fmaf.simulator"}

    def test_export_adds_only_viewgen(self, fault3):
        argv = ("export", fault3, "--view", "fef")
        assert loaded_modules(RUN_MAIN, *argv) == CHECK_SET | {"fmaf.viewgen"}

    def test_export_of_a_scenario_adds_the_simulator_too(self, fault3):
        argv = ("export", fault3, "--view", "erroneous-scenario", "--focus", "F3.2")
        expected = CHECK_SET | {"fmaf.viewgen", "fmaf.simulator"}
        assert loaded_modules(RUN_MAIN, *argv) == expected

    def test_import_fmaf_loads_no_submodule(self):
        code = 'import sys, fmaf\nprint(",".join(m for m in sys.modules if m.startswith("fmaf")))'
        assert loaded_modules(code) == {"fmaf"}


def test_import_compiles_one_function_per_value_type_and_slot_maker():
    # The bytecode cache keeps no generated code, so every CLI process
    # compiles it again: one __init__ per public frozen type and one
    # constructor per slot-built type, nothing per method.
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_GENERATED], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    texts = [t for t in proc.stdout.splitlines() if t != repr(EMPTY_BUILDER)]
    frozen = frozen_types() | {PartitionResult}
    assert len(frozen) == 36
    assert len(texts) <= len(frozen) + len(FIELDS), texts


class TestLazyPackage:
    def test_every_public_name_is_its_home_modules_object(self):
        homes = [
            importlib.import_module(f"fmaf.{name}")
            for name in ("model", "dsl", "checker", "simulator", "viewgen", "casestudy")
        ]
        for name in fmaf.__all__:
            if name == "__version__":
                continue
            value = getattr(fmaf, name)
            defining = [m for m in homes if hasattr(m, name)]
            assert defining, name
            assert all(getattr(m, name) is value for m in defining), name

    def test_star_import_binds_all(self):
        namespace: dict = {}
        exec("from fmaf import *", namespace)
        assert set(fmaf.__all__) <= set(namespace)

    def test_dir_covers_all(self):
        assert set(fmaf.__all__) <= set(dir(fmaf))

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fmaf.no_such_name  # noqa: B018
        assert not hasattr(fmaf, "no_such_name")

    def test_submodules_still_import_from_the_package(self):
        namespace: dict = {}
        exec("from fmaf import casestudy, viewgen", namespace)
        assert namespace["casestudy"] is sys.modules["fmaf.casestudy"]
        assert namespace["viewgen"] is sys.modules["fmaf.viewgen"]

    def test_view_kinds_has_one_definition(self):
        from fmaf import model, viewgen

        assert viewgen.VIEW_KINDS is model.VIEW_KINDS is fmaf.VIEW_KINDS
