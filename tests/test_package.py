import ast
import ctypes
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import freqlab

MODULES = ["config", "data", "errors", "experiments", "losses", "nn", "poisson", "reporting", "spectral"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"freqlab.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements; a check the package relies on must raise instead
    found = []
    for path in sorted(Path(freqlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


#: module-level names a module keeps without reading them: experiments' tracer
#: placeholders, which perfbench/tracer.py wraps, and the package's submodules
UNREAD_ON_PURPOSE = {
    "experiments": {"run_hybrid", "nufft_direct"},
    "__init__": set(MODULES),
}


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _defined(body: list[ast.stmt]) -> set[str]:
    """The names that the statements of body define by def, class or assignment."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _unread_names(tree: ast.Module) -> set[str]:
    """tree's module-level imports and private definitions, and its classes'
    private members and self._ fields, that no code in the module reads."""
    imports = {alias.asname or alias.name.split(".")[0] for node in tree.body
               if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
               for alias in node.names}
    names = imports | {n for n in _defined(tree.body) if _private(n)}
    members = set()
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        members |= {n for n in _defined(cls.body) if _private(n)}
        members |= {n.attr for n in ast.walk(cls) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                    and isinstance(n.value, ast.Name) and n.value.id == "self" and _private(n.attr)}
    loads = [n for n in ast.walk(tree) if isinstance(getattr(n, "ctx", None), ast.Load)]
    return (names - {n.id for n in loads if isinstance(n, ast.Name)}) | \
        (members - {n.attr for n in loads if isinstance(n, ast.Attribute)})


@pytest.mark.parametrize("path", sorted(Path(freqlab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_and_private_name_is_read_or_exported(path):
    module = importlib.import_module("freqlab" if path.stem == "__init__" else f"freqlab.{path.stem}")
    unread = _unread_names(ast.parse(path.read_text(), filename=str(path)))
    assert unread - set(getattr(module, "__all__", ())) - UNREAD_ON_PURPOSE.get(path.stem, set()) == set()


def test_every_name_unread_on_purpose_is_still_unread():
    # an exemption outlives its reason silently unless it is checked too
    package = Path(freqlab.__file__).parent
    for stem, names in UNREAD_ON_PURPOSE.items():
        assert names - _unread_names(ast.parse((package / f"{stem}.py").read_text())) == set(), stem


#: the parameters every experiments._RUNNERS function takes, whether it reads them or not
RUNNER_PARAMETERS = {"cfg", "seed", "out_dir"}


def _unread_parameters(tree: ast.Module, exempt: dict[str, set[str]]) -> list[str]:
    """name.parameter for each parameter of a function or lambda in tree that
    its body never reads, but for the exempt parameters of the named functions."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = fn.args
        params = {arg.arg for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg] if arg}
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(fn, "name", "<lambda>")
        found += [f"{name}.{p}" for p in sorted(params - read - exempt.get(name, set()))]
    return found


@pytest.mark.parametrize("path", sorted(Path(freqlab.__file__).parent.glob("*.py")), ids=lambda p: p.stem)
def test_every_parameter_is_read(path):
    runners = {fn.__name__: RUNNER_PARAMETERS for fn in freqlab.experiments._RUNNERS.values()}
    exempt = runners if path.stem == "experiments" else {}
    assert _unread_parameters(ast.parse(path.read_text(), filename=str(path)), exempt) == []


def test_bundled_openblas_runs_one_thread_although_numpy_loaded_first():
    # pytest's process imports numpy before freqlab, so the environment pin came too late
    if freqlab._bundled_openblas() is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    getter = freqlab._openblas_function("get_num_threads")
    assert getter is not None, "bundled OpenBLAS exports no known thread getter, so nothing was pinned"
    getter.argtypes, getter.restype = [], ctypes.c_int
    assert getter() == 1


def test_importing_the_cli_loads_no_network_modules():
    # urllib.request and ssl, which xml.sax.saxutils pulls in, cost a sixth of the start-up
    src = str(Path(freqlab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import freqlab.cli\n"
              "print(sorted({'urllib.request', 'ssl'} & (set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"
