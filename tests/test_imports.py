import ast
import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_numpy_only_modules_load_no_scipy():
    # a fresh interpreter, since this one has scipy loaded by other tests;
    # only focksim needs scipy
    code = ("import sys\n"
            "import latticebounds.cli, latticebounds.torus, "
            "latticebounds.kernels, latticebounds.weyl, "
            "latticebounds.lightcone, latticebounds.genbounds, "
            "latticebounds.anharmonic, latticebounds.clustering\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_only_focksim_imports_scipy():
    importers = []
    for path in sorted((SRC / "latticebounds").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(n.split(".")[0] == "scipy" for n in names):
                importers.append(path.stem)
    assert set(importers) == {"focksim"}


def test_reference_runs_outside_focksim_load_no_scipy(tmp_path):
    # genbound, anharm and clustering reach power_law_zeta
    code = ("import sys\n"
            "from latticebounds.cli import main\n"
            "for model in ('genbound', 'anharm', 'clustering'):\n"
            "    assert main([model, '--config', "
            "f'scenarios/{model}_ref.json', '--out', "
            f"f'{tmp_path}/{{model}}']) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=SRC.parent, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_numpy():
    # main sets the BLAS thread variables from --threads, which only take
    # effect if numpy is first imported after that
    code = ("import sys\n"
            "import latticebounds.cli\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('numpy', 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    for path in sorted((SRC / "latticebounds").glob("*.py")):
        module = importlib.import_module(f"latticebounds.{path.stem}")
        stale = [n for n in getattr(module, "__all__", ())
                 if not hasattr(module, n)]
        assert not stale, (path.stem, stale)


def _module_imports(tree):
    """Names bound by the module-level imports of tree, but __future__'s."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_unused_module_imports():
    unused = {}
    for path in sorted((SRC / "latticebounds").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        names = sorted(set(_module_imports(tree)) - read)
        if names:
            unused[path.stem] = names
    assert not unused
