"""The package namespace and the CLI load only the layers that are used."""

import json
import os
import subprocess
import sys

import pytest

import gl3weights

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
TYPE = ["--xi", "123", "--mu", "17,9,0"]
EVERY_LAYER = {"arith", "weights", "tame_types", "breuil", "predicted",
               "induction", "elimination", "cycling", "slopes", "sweeps"}
CYCLE_LAYERS = EVERY_LAYER - {"sweeps", "slopes"}

# command line -> package modules (besides cli) its process may hold
COMMAND_LAYERS = [
    (["decompose", "--n", "10", "--p", "7"], {"arith"}),
    (["dims", "--p", "29", "--F", "15,8,0"], {"arith", "weights"}),
    (["predict", "--p", "29", *TYPE], {"arith", "weights", "tame_types", "predicted"}),
    (["eliminate", "--p", "29", "--F", "32,16,0", "--orbit-rep", "163"],
     {"arith", "weights", "tame_types", "breuil", "predicted", "elimination"}),
    (["breuil", "--p", "7", "--heights", "684,684,684", "--k0", "100"],
     {"arith", "breuil"}),
    (["cycle", "--p", "29", "--start", "15,8,0", *TYPE], CYCLE_LAYERS),
    (["cycle", "--p", "29", "--start", "15,8,0", *TYPE, "--dot"], CYCLE_LAYERS),
    # a sweep loads the layers of its suite only, and fractions only for slopes
    (["sweep", "--suite", "slopes", "--count", "2"],
     {"arith", "weights", "induction", "slopes", "sweeps"}),
    (["sweep", "--count", "2", "--suite", "weights"], {"arith", "weights", "sweeps"}),
]

PROBE = """
import json, sys
from gl3weights.cli import run
code = run(sys.argv[1:])
sys.stdout.flush()
print(json.dumps({
    "code": code,
    "layers": sorted(m.split(".", 1)[1] for m in sys.modules
                     if m.startswith("gl3weights.") and m != "gl3weights.cli"),
    "fractions": "fractions" in sys.modules,
    "record machinery": sorted({"dataclasses", "inspect"} & set(sys.modules)),
}), file=sys.stderr)
"""


def _python(code, *args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=60, text=True)


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS,
                         ids=[" ".join(argv[:1] + argv[-1:]) for argv, _ in COMMAND_LAYERS])
def test_command_loads_only_its_layers(argv, layers):
    proc = _python(PROBE, *argv)
    seen = json.loads(proc.stderr.splitlines()[-1])
    assert seen["code"] == 0
    assert set(seen["layers"]) == layers
    assert seen["fractions"] == (argv[:3] == ["sweep", "--suite", "slopes"])
    assert seen["record machinery"] == []


def test_bare_import_loads_no_layer():
    proc = _python("import sys, gl3weights; "
                   "print(sorted(m for m in sys.modules if m.startswith('gl3weights')))")
    assert proc.stdout.strip() == "['gl3weights']"


def test_submodule_attribute_without_prior_import():
    proc = _python("import gl3weights; print(gl3weights.cycling.__name__, "
                   "gl3weights.sweeps.__name__, gl3weights.cycle.__module__)")
    assert proc.stdout.split() == ["gl3weights.cycling", "gl3weights.sweeps",
                                   "gl3weights.cycling"]


def test_every_export_is_its_home_object():
    from importlib import import_module

    for name in gl3weights.__all__:
        value = getattr(gl3weights, name)
        home = import_module(f"gl3weights.{gl3weights._HOME[name]}")
        assert value is getattr(home, name), name
    assert len(set(gl3weights.__all__)) == len(gl3weights.__all__)
    assert set(gl3weights.__all__) <= set(dir(gl3weights))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from gl3weights import *", namespace)
    for name in gl3weights.__all__:
        assert namespace[name] is getattr(gl3weights, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        gl3weights.nope
    assert not hasattr(gl3weights, "_private")
    assert gl3weights.__version__ == "0.1.0"


def test_every_command_has_a_layer_expectation():
    from gl3weights.cli import COMMANDS

    assert {argv[0] for argv, _ in COMMAND_LAYERS} == set(COMMANDS)
