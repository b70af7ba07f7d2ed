import importlib
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_numpy_only_modules_load_no_scipy():
    # a fresh interpreter, since this one has scipy loaded by other tests;
    # only focksim (and power_law_zeta, lazily) needs scipy
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
