"""Only the simulator imports numpy, and the package loads the simulator only
when one of its names is used: the counter, the client and `analyze` run on
the standard library alone."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rollcall
from rollcall import protocol, sim, stats

from test_cli import write_log

SRC = Path(rollcall.__file__).resolve().parents[1]


def simulator_modules_after(code):
    """Which of numpy and rollcall.sim a fresh interpreter holds after `code`."""
    code += "\nimport sys\nprint(*(m for m in ('numpy', 'rollcall.sim') if m in sys.modules))\n"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    return out.stdout.splitlines()[-1]


def test_counter_and_client_start_without_numpy():
    code = (
        "import rollcall, rollcall.cli, rollcall.counter, rollcall.client, rollcall.timesync\n"
        "rollcall.cli.build_parser()"
    )
    assert simulator_modules_after(code) == ""


def test_analyze_runs_without_numpy(tmp_path):
    log = tmp_path / "done.log"
    write_log(log, [98, 102, 100, 96, 104], 90)
    code = (
        "import rollcall.cli\n"
        f"assert rollcall.cli.main(['analyze', '--log', {str(log)!r}]) == rollcall.cli.EXIT_COPING"
    )
    assert simulator_modules_after(code) == ""


def test_every_public_name_is_its_module_object():
    for name in rollcall.__all__:
        if name == "__version__":
            continue
        owner = next(m for m in (protocol, stats, sim) if name in vars(m))
        assert getattr(rollcall, name) is vars(owner)[name], name
    assert rollcall.run_scenario is sim.run_scenario
    assert rollcall.DEFENSE is sim.DEFENSE and rollcall.COPING is sim.COPING


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from rollcall import *", namespace)
    assert set(rollcall.__all__) <= namespace.keys()
    assert namespace["monte_carlo"] is sim.monte_carlo


def unused_imports(source):
    """The names that `source` imports and never references;
    `from __future__` imports bind no name and are left out."""
    tree = ast.parse(source)
    referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    return [name for name in imported if name not in referenced]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports("import os.path, re\nfrom a import b as c, d\nre, d") == ["os", "c"]
    # the package's own `__init__` imports names only to re-export them
    modules = sorted(path for path in SRC.joinpath("rollcall").glob("*.py")
                     if path.name != "__init__.py")
    here = Path(__file__).resolve().parent
    tests, demos = sorted(here.glob("*.py")), sorted(here.parent.joinpath("demos").glob("*.py"))
    assert modules and tests and demos
    for path in modules + tests + demos:
        assert unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def unreferenced_private_definitions(sources):
    """The module-level private functions and classes of `sources` (module name
    to source text) that no code references outside their own definition, as a
    name, an attribute or an imported name; dunder names are left out."""
    defined, referenced = [], set()
    for module, source in sources.items():
        for top in ast.parse(source).body:
            own = None
            if (isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and top.name.startswith("_") and not top.name.startswith("__")):
                own = top.name
                defined.append((module, own))
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [f"{module}.{name}" for module, name in defined if name not in referenced]


def test_no_private_helper_is_dead():
    example = {
        "a": "def _dead():\n    _dead()\nclass _Used:\n    pass\ndef __getattr__(n): pass\n",
        "b": "from a import _Used\ndef _called(): pass\nx = m._called\n",
    }
    assert unreferenced_private_definitions(example) == ["a._dead"]
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in SRC.joinpath("rollcall").glob("*.py")}
    assert unreferenced_private_definitions(sources) == []


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rollcall.no_such_name
    with pytest.raises(ImportError):
        exec("from rollcall import no_such_name", {})
