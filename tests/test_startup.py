"""What each CLI subcommand loads, and the lazy ``fmaf`` package.

A subcommand imports only the layers it uses, so ``fmaf check`` never
pays for the simulator or the viewpoint projections.  The module sets
are read in fresh interpreters, because this test process has already
imported everything.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fmaf
from fmaf.casestudy import load_bundle

SRC = str(Path(fmaf.__file__).resolve().parents[1])

# Runs the CLI's main on the given arguments, then prints the fmaf modules loaded.
RUN_MAIN = """
import sys
from fmaf.cli import main
main(sys.argv[1:])
print(",".join(sorted(m for m in sys.modules if m == "fmaf" or m.startswith("fmaf."))))
"""

CHECK_SET = {"fmaf", "fmaf.cli", "fmaf.dsl", "fmaf.model", "fmaf.checker"}


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
