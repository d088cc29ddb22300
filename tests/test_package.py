"""The package surface: lazy names and submodules, and ``python -m di2pc``."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import di2pc
from di2pc.cli import main

SRC = str(pathlib.Path(di2pc.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports from SRC."""
    prelude = f"import sys; sys.path.insert(0, {SRC!r}); "
    return subprocess.run([sys.executable, "-c", prelude + code], capture_output=True,
                          text=True, check=True).stdout


def test_import_loads_no_submodule_and_no_numpy():
    out = run_fresh("import di2pc; print(sorted(m for m in sys.modules "
                    "if m == 'numpy' or m.startswith(('numpy.', 'di2pc.'))))")
    assert out.strip() == "[]"


def test_submodule_resolves_as_an_attribute():
    out = run_fresh("import di2pc; b = di2pc.bounds; "
                    "print(b is sys.modules['di2pc.bounds'], b.__name__, "
                    "'di2pc.adversary' in sys.modules)")
    assert out.split() == ["True", "di2pc.bounds", "False"]


def test_every_name_is_its_submodules_object():
    for name, module in di2pc._ORIGIN.items():
        source = importlib.import_module(f"di2pc.{module}")
        assert getattr(di2pc, name) is getattr(source, name), name
    assert sorted(di2pc.__all__) == sorted(di2pc._ORIGIN)
    assert len(set(di2pc.__all__)) == len(di2pc.__all__)


def test_dir_and_star_import_cover_all():
    assert set(di2pc.__all__) <= set(dir(di2pc))
    assert {"bounds", "adversary", "cli", "__version__"} <= set(dir(di2pc))
    namespace: dict = {}
    exec("from di2pc import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(di2pc.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        di2pc.no_such_name
    with pytest.raises(ImportError):
        exec("from di2pc import no_such_name", {})


def test_python_m_runs_the_command(capsys):
    argv = ["bound", "--n", "100", "--d", "2", "--S", "2.7", "--gamma", "0.01"]
    assert main(argv) == 0
    expect = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "di2pc", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC}, check=True)
    assert proc.stdout == expect.encode()


# What each subcommand loads in a fresh interpreter: only the modules it
# runs. Every command loads di2pc.cli and di2pc.errors besides these.
_BOUNDS = {"bounds", "chsh", "matcore"}
_DEVICE = {"chsh", "jordan", "matcore", "protocols"}
_ALL = _BOUNDS | _DEVICE | {"adversary"}
_LOADS = [
    (["--help"], set()),
    (["bound", "--help"], set()),
    (["bound", "--n", "10", "--S", "2.7"], set()),         # usage error: no --d
    (["bound", "--n", "10", "--d", "2", "--S", "2.7"], _BOUNDS),
    (["region", "--s-steps", "3", "--gamma-steps", "3"], _BOUNDS),
    (["min-n", "--d", "2", "--zeta", "0.1", "--eps", "1e-3"], _BOUNDS),
    (["curve", "--d", "2", "--eps", "1e-3", "--s-steps", "2"], _BOUNDS),
    (["chsh", "--device", "DEVICE", "--rounds", "100"], _DEVICE),
    (["jordan", "--device", "DEVICE"], _DEVICE),
    (["simulate", "wse", "--device", "DEVICE", "--n", "10"], _DEVICE),
    (["simulate", "pv", "--device", "DEVICE", "--n", "10"], _DEVICE),
    (["attack", "--device", "DEVICE", "--strategy", "breidbart", "--n", "1", "--d", "1"],
     _ALL),
    (["verify", "norm-lemma", "--trials", "1"], _ALL),
]
_REPORT_LOADS = """
import json, sys
from di2pc.cli import main
try:
    main(sys.argv[1:])
except SystemExit:
    pass
print(json.dumps([sorted(m[6:] for m in sys.modules if m.startswith("di2pc.")),
                  "numpy" in sys.modules]), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules", _LOADS,
                         ids=[" ".join(a) for a, _ in _LOADS])
def test_subcommand_loads_only_the_modules_it_runs(tmp_path, argv, modules):
    from di2pc.protocols import ideal_bb84_device
    device = tmp_path / "device.json"
    device.write_text(json.dumps(ideal_bb84_device().to_obj()))
    argv = [str(device) if a == "DEVICE" else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", _REPORT_LOADS, *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    loaded, numpy_loaded = json.loads(proc.stderr.splitlines()[-1])
    assert set(loaded) == {"cli", "errors"} | modules
    assert numpy_loaded == bool(modules)
