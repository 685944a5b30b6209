"""The package resolves its names lazily: every exported name reaches its
defining module's object, and a cold CLI command loads only the layers it
runs."""
import os
import subprocess
import sys

import pytest

import adelic
from adelic.checks import _PACKAGE_ROOT, _battery

LAYERS = ("primepow", "adele", "radial", "heatkernel", "markov", "cauchy")


def _fresh(code: str, cwd=None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=_PACKAGE_ROOT), timeout=60, cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_export_is_its_defining_modules_object():
    for layer, names in adelic._EXPORTS.items():
        module = getattr(adelic, layer)
        for name in names:
            assert getattr(adelic, name) is getattr(module, name), name
    errors = adelic.errors
    assert adelic.AdelicError is errors.AdelicError
    assert adelic.ToleranceError is errors.ToleranceError
    assert adelic.IndeterminateCancellation is errors.IndeterminateCancellation


def test_all_lists_each_name_once():
    assert len(adelic.__all__) == len(set(adelic.__all__)) == 61
    assert set(adelic.__all__) <= set(dir(adelic))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        adelic.nope
    with pytest.raises(ImportError):
        exec("from adelic import nope", {})


def test_star_import_binds_every_name():
    namespace = {}
    exec("from adelic import *", namespace)
    assert set(adelic.__all__) <= set(namespace)


def test_importing_a_layer_binds_its_names_on_the_package():
    # perfbench's tracer wraps the bindings it finds in vars(adelic)
    out = _fresh(
        "import adelic\n"
        "before = 'normalization' in vars(adelic)\n"
        "import adelic.heatkernel\n"
        "print(before, vars(adelic)['normalization']"
        " is adelic.heatkernel.normalization, 'phi' in vars(adelic),"
        " 'RadialStep' in vars(adelic))\n"
    )
    assert out == "False True True False\n"


@pytest.mark.parametrize("args,loaded", [
    (["phi", "10"], {"primepow"}),
    (["ppow", "next", "8"], {"primepow"}),
    (["norm", "2:-1:1"], {"primepow", "adele"}),
])
def test_light_commands_leave_the_analytic_layers_unloaded(args, loaded):
    out = _fresh(
        "import sys, adelic.cli\n"
        f"assert adelic.cli.main({args!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('adelic.')))\n"
    )
    modules = set(eval(out.splitlines()[-1]))
    assert {m for m in modules if m[len("adelic."):] in LAYERS} == {
        f"adelic.{m}" for m in loaded
    }


@pytest.mark.parametrize("args", [
    ["phi", "10"],
    ["norm", "2:-1:1"],
    ["kernel", "eval", "--radius", "2", "--t", "1", "--alpha", "2"],
])
def test_commands_that_never_sample_leave_hashlib_unloaded(tmp_path, args):
    # hashlib feeds only the seeded sampling streams
    out = _fresh(
        "import sys\n"
        "preloaded = 'hashlib' in sys.modules\n"
        "import adelic.cli\n"
        f"assert adelic.cli.main({args!r}) == 0\n"
        "print(preloaded, 'hashlib' in sys.modules)\n",
        cwd=tmp_path,
    )
    preloaded, loaded = out.splitlines()[-1].split()
    if preloaded == "True":
        pytest.skip("the interpreter loads hashlib at start-up")
    assert loaded == "False"


# commands whose cold run reads and writes no JSON
NO_JSON = ("phi", "ppow", "norm", "volume", "kernel", "transition")


@pytest.mark.parametrize("index", range(18))
def test_commands_leave_dataclasses_inspect_and_json_unloaded(tmp_path,
                                                              index):
    # the records are closures, not generated source, and json is imported
    # by the functions that read or write it
    args = _battery(str(tmp_path))[index][0]
    out = _fresh(
        "import sys\n"
        "watched = ('dataclasses', 'inspect', 'json')\n"
        "preloaded = [m for m in watched if m in sys.modules]\n"
        "import adelic.cli\n"
        f"assert adelic.cli.main({args!r}) == 0\n"
        "print(preloaded)\n"
        "print([m for m in (*watched, 'numpy') if m in sys.modules])\n",
        cwd=tmp_path,
    )
    preloaded, loaded = map(set, map(eval, out.splitlines()[-2:]))
    expected_absent = {"dataclasses", "inspect"}
    if "numpy" in loaded:  # numpy imports inspect itself (solve adelic)
        expected_absent.discard("inspect")
    if args[0] in NO_JSON:
        expected_absent.add("json")
    if expected_absent & preloaded:
        pytest.skip(f"the interpreter loads {expected_absent & preloaded} "
                    "at start-up")
    assert not expected_absent & loaded, " ".join(args)


def test_verify_volumes_loads_only_its_checks_layers():
    out = _fresh(
        "import sys, adelic.cli\n"
        "assert adelic.cli.main(['verify', 'volumes']) == 0\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('adelic.') or m == 'numpy'))\n"
    )
    modules = set(eval(out.splitlines()[-1]))
    assert "numpy" not in modules
    assert {m for m in modules if m[len("adelic."):] in LAYERS} == {
        "adelic.primepow", "adelic.adele",
    }


@pytest.mark.parametrize("command", [
    "kernel eval", "kernel normalize", "transition", "solve duhamel",
])
def test_analytic_commands_leave_numeric_libraries_unloaded(tmp_path,
                                                            command):
    # the analytic layers are pure Python; numpy, scipy or mpmath in one
    # of them would add its import to every cold run of these commands
    args = next(
        args for args, _ in _battery(str(tmp_path))
        if " ".join(args).startswith(command)
    )
    out = _fresh(
        "import sys, adelic.cli\n"
        f"assert adelic.cli.main({args!r}) == 0\n"
        "print(sorted({'numpy', 'scipy', 'mpmath'} & set(sys.modules)))\n",
        cwd=tmp_path,
    )
    assert out.splitlines()[-1] == "[]"
