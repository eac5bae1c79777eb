"""Command-line interface: wire formats, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
import time

import pytest

from gl3weights.cli import run


def invoke(capsys, *argv, stdin=None):
    code = run(list(argv), stdin=io.StringIO(stdin) if stdin else None)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_exact_bytes(capsys):
    code, out, _ = invoke(capsys, "decompose", "--n", "10", "--p", "7")
    assert code == 0
    assert out == '{"case":"I","x":3,"y":1,"z":0}\n'


def test_decompose_divisible(capsys):
    code, out, _ = invoke(capsys, "decompose", "--n", "114", "--p", "7")
    assert code == 0
    assert json.loads(out) == {"case": "divisible"}


def test_dims(capsys):
    code, out, _ = invoke(capsys, "dims", "--p", "7", "--F", "5,3,1")
    assert code == 0
    assert json.loads(out) == {"p": 7, "F": [5, 3, 1], "dim": 27, "alcove": "lower"}


def test_dims_canonicalizes_input(capsys):
    code, out, _ = invoke(capsys, "dims", "--p", "29", "--F", "8,-1,-12")
    assert code == 0
    assert json.loads(out)["F"] == [36, 27, 16]


def test_predict(capsys):
    code, out, _ = invoke(
        capsys, "predict", "--p", "29", "--xi", "123", "--mu", "17,9,0"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["type"]["niveau"] == 3
    assert len(doc["weights"]) == 9
    assert [15, 8, 0] in doc["weights"]
    assert doc["weights"] == sorted(doc["weights"])


def test_predict_by_orbit_rep_agrees(capsys):
    code1, out1, _ = invoke(
        capsys, "predict", "--p", "29", "--xi", "123", "--mu", "17,9,0"
    )
    rep = json.loads(out1)["type"]["orbit_rep"]
    code2, out2, _ = invoke(capsys, "predict", "--p", "29", "--orbit-rep", str(rep))
    assert code1 == code2 == 0
    assert json.loads(out1)["weights"] == json.loads(out2)["weights"]


def test_eliminate(capsys):
    code, out, _ = invoke(
        capsys, "eliminate", "--p", "29", "--F", "32,16,0", "--orbit-rep", "163"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["branch"] == "intersection"
    assert doc["verdict"] == "consistent"
    assert doc["intersection"] == [163, 499, 527, 1003]
    assert set(doc["lift_sets"]) == {
        "principal_series", "cuspidal", "cuspidal_dual",
    }


def test_cycle_json(capsys):
    code, out, _ = invoke(
        capsys, "cycle", "--p", "29", "--start", "15,8,0",
        "--xi", "123", "--mu", "17,9,0",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "complete"
    assert doc["case"] == "direct"
    assert len(doc["nodes"]) == 9
    assert len(doc["edges"]) == 12
    assert len(doc["non_singletons"]) == 6
    assert doc["stuck"] is None


def test_cycle_dot(capsys):
    args = ("cycle", "--p", "29", "--start", "15,8,0",
            "--xi", "123", "--mu", "17,9,0", "--dot")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    assert out.startswith("digraph weight_cycling {")
    assert out.count("->") == 12
    code2, out2, _ = invoke(capsys, *args)
    assert out2 == out


def test_breuil(capsys):
    code, out, _ = invoke(
        capsys, "breuil", "--p", "7", "--d", "3", "--r", "2",
        "--heights", "684,684,684", "--k0", "100",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa0"] == 214
    assert doc["is_maximal"] is True
    assert doc["exponents"] == [100, 16, 112]


def test_breuil_inconsistent_heights_is_domain_error(capsys):
    code, out, _ = invoke(
        capsys, "breuil", "--p", "29", "--d", "3", "--r", "2",
        "--heights", "3,1,2", "--k0", "100",
    )
    assert code == 1
    assert "error" in json.loads(out)


def test_sweep_deterministic(capsys):
    args = ("sweep", "--suite", "weights", "--p", "7", "--seed", "1",
            "--count", "25")
    code, out, _ = invoke(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == []
    assert doc["checks"] > 0
    _, out2, _ = invoke(capsys, *args)
    assert out2 == out


@pytest.mark.parametrize("jobs", ["0", "-5"])
def test_sweep_rejects_jobs_below_one(capsys, jobs):
    code, out, _ = invoke(capsys, "sweep", "--suite", "weights", "--p", "7",
                          "--count", "4", "--jobs", jobs)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValueError"
    assert f"jobs must be at least 1, got {jobs}" in doc["error"]["message"]
    env = json.dumps({"version": 1, "command": "sweep",
                      "params": {"suite": "decompose", "jobs": int(jobs)}})
    code, out, _ = invoke(capsys, "query", stdin=env)
    assert code == 1
    assert "jobs must be at least 1" in json.loads(out)["error"]["message"]

def test_domain_error_exit_code(capsys):
    code, out, _ = invoke(capsys, "dims", "--p", "7", "--F", "9,3,1")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["type"] == "ValueError"


def test_usage_error_missing_type(capsys):
    code, out, err = invoke(capsys, "predict", "--p", "29")
    assert code == 2
    assert out == ""
    assert "error" in err


def test_query_envelope(capsys):
    env = json.dumps(
        {"version": 1, "command": "decompose", "params": {"n": 10, "p": 7}}
    )
    code, out, _ = invoke(capsys, "query", stdin=env)
    assert code == 0
    assert out == '{"case":"I","x":3,"y":1,"z":0}\n'


def test_query_envelope_full_commands(capsys):
    env = json.dumps({
        "version": 1,
        "command": "eliminate",
        "params": {
            "p": 29,
            "weight": [32, 16, 0],
            "type": {"xi": "132", "mu": [17, 6, 0]},
        },
    })
    code, out, _ = invoke(capsys, "query", stdin=env)
    assert code == 0
    assert json.loads(out)["branch"] == "intersection"


def test_query_bad_version(capsys):
    env = json.dumps({"version": 2, "command": "dims", "params": {}})
    code, out, err = invoke(capsys, "query", stdin=env)
    assert (code, out) == (2, "")
    assert "version" in err


def test_query_boolean_version(capsys):
    env = json.dumps({"version": True, "command": "decompose",
                      "params": {"n": 10, "p": 7}})
    code, out, err = invoke(capsys, "query", stdin=env)
    assert (code, out) == (2, "")
    assert "version" in err


def test_query_unknown_suite_is_domain_error(capsys):
    env = json.dumps({"version": 1, "command": "sweep",
                      "params": {"suite": "nope", "jobs": 2}})
    code, out, _ = invoke(capsys, "query", stdin=env)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"
    assert "unknown suite 'nope'" in json.loads(out)["error"]["message"]


def test_python_m_matches_entry_point():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    args = ["decompose", "--n", "4", "--p", "31"]
    outs = [
        subprocess.run(cmd + args, capture_output=True, env=env, timeout=60, check=True)
        for cmd in (
            [sys.executable, "-m", "gl3weights"],
            [sys.executable, "-c", "from gl3weights.cli import main; main()"],
        )
    ]
    assert outs[0].stdout == outs[1].stdout == b'{"case":"I","x":4,"y":0,"z":0}\n'


def test_python_m_cli_matches_python_m_package():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    args = ["decompose", "--n", "5", "--p", "8"]  # a domain error: exit 1
    package, module = (
        subprocess.run([sys.executable, "-m", mod] + args, capture_output=True,
                       env=env, timeout=60)
        for mod in ("gl3weights", "gl3weights.cli")
    )
    assert package.returncode == module.returncode == 1
    assert package.stdout == module.stdout
    assert json.loads(module.stdout)["error"]["type"] == "ValueError"


def test_query_unknown_command(capsys):
    env = json.dumps({"version": 1, "command": "nope", "params": {}})
    code, out, err = invoke(capsys, "query", stdin=env)
    assert (code, out) == (2, "")
    assert "unknown command" in err


def test_query_malformed(capsys):
    code, out, err = invoke(capsys, "query", stdin="not json")
    assert (code, out) == (2, "")
    assert "malformed" in err


@pytest.mark.parametrize("command, params", [
    ("predict", {"p": 29, "type": {"xi": "123", "mu": 5}}),
    ("predict", {"p": 29, "type": {"xi": 123, "mu": [17, 9, 0]}}),
    ("predict", {"p": 29, "type": {"orbit_rep": "278"}}),
    ("predict", {"p": 29, "type": {"mu": [17, 9, 0]}}),
    ("predict", {"p": 29}),
    ("dims", {"p": 29, "weight": [1.5, 0, 0]}),
    ("dims", {"p": 29, "weight": [True, 0, 0]}),
    ("dims", {"p": 29, "weight": [15, 8]}),
    ("dims", {"p": "29", "weight": [15, 8, 0]}),
    ("decompose", {"p": 7}),
    ("decompose", {"n": 10.0, "p": 7}),
    ("decompose", {"n": 10, "p": False}),
    ("cycle", {"p": 29, "start": [15, 8, 0], "type": {"orbit_rep": 278}, "dot": 1}),
    ("breuil", {"p": 7, "d": 3, "r": 2, "heights": [684, 684], "k0": 100}),
    ("breuil", {"p": 7, "d": 3, "r": 2, "heights": [684, 684, 684]}),
    ("sweep", {"suite": "weights", "count": 2.5}),
    ("sweep", {"suite": 3}),
    # a missing type is reported even though p=9 is also a domain error
    ("eliminate", {"p": 9, "weight": [15, 8, 0]}),
])
def test_query_schema_errors_are_usage_errors(capsys, command, params):
    env = json.dumps({"version": 1, "command": command, "params": params})
    code, out, err = invoke(capsys, "query", stdin=env)
    assert code == 2
    assert out == ""
    assert err.startswith("gl3weights: error: ")


@pytest.mark.parametrize("text", [
    '{"version": 1, "command": "decompose", "params": {"n": ' + "9" * 5000 + ', "p": 7}}',
    "[" * 100_000 + "]" * 100_000,
])
def test_query_unparseable_envelope_is_usage_error(capsys, text):
    code, out, err = invoke(capsys, "query", stdin=text)
    assert (code, out) == (2, "")
    assert "malformed" in err


@pytest.mark.parametrize("text", [
    "not json",
    json.dumps({"version": 2, "command": "dims", "params": {}}),
], ids=["malformed", "version"])
def test_envelope_error_exits_2_from_a_process(text):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "gl3weights", "query"], input=text.encode(),
                          capture_output=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.startswith(b"gl3weights: error: ")


def test_query_domain_error_keeps_exit_1(capsys):
    env = json.dumps({"version": 1, "command": "predict",
                      "params": {"p": 29, "type": {"xi": "321", "mu": [17, 9, 0]}}})
    code, out, _ = invoke(capsys, "query", stdin=env)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ValueError"


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_traceback(unbuffered):
    # the reader closes its end before any output; buffered, the document
    # fails in the final flush, unbuffered in print
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=src, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {}))
    args = ["cycle", "--p", "29", "--xi", "123", "--mu", "17,9,0", "--start", "15,8,0"]
    proc = subprocess.Popen([sys.executable, "-m", "gl3weights", *args], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""


def test_huge_prime_is_refused_quickly():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "gl3weights", "decompose", "--n", "5",
         "--p", "1152921504606846883"],
        capture_output=True, env=env, timeout=10,
    )
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["error"]["type"] == "ValueError"
    assert "65536" in doc["error"]["message"]


@pytest.mark.parametrize("given", [{"k0": 0}, {"exponents": [0] * 16000}])
def test_huge_niveau_is_refused_quickly(capsys, given):
    # refused before any integer of size p**d is built, on both paths
    env = envelope("breuil", {"p": 7, "d": 16000, "r": 0, "heights": [0] * 16000, **given})
    start = time.perf_counter()
    code, out = outcome(capsys, ["query"], stdin=env)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert json.loads(out)["error"]["message"] == "niveau must be one of (1, 2, 3), got 16000"


def outcome(capsys, argv, stdin=None):
    """(exit code, stdout) of one invocation, an argparse exit included."""
    try:
        code = run(argv, stdin=io.StringIO(stdin) if stdin is not None else None)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def envelope(command, params):
    return json.dumps({"version": 1, "command": command, "params": params})


MU = {"xi": "123", "mu": [17, 9, 0]}
# flags and the equivalent envelope params, over every command
FLAG_FORMS = [
    (["decompose", "--n", "10", "--p", "7"], "decompose", {"n": 10, "p": 7}),
    (["decompose", "--n", "5", "--p", "8"], "decompose", {"n": 5, "p": 8}),
    (["dims", "--p", "29", "--F", "8,-1,-12"], "dims", {"p": 29, "weight": [8, -1, -12]}),
    (["dims", "--p", "7", "--F", "-1,-2,-3"], "dims", {"p": 7, "weight": [-1, -2, -3]}),
    (["predict", "--p", "29", "--xi", "123", "--mu", "17,9,0"], "predict",
     {"p": 29, "type": MU}),
    (["predict", "--p", "29", "--xi", "132", "--mu", "17,9,0"], "predict",
     {"p": 29, "type": {"xi": "132", "mu": [17, 9, 0]}}),
    (["predict", "--p", "29", "--xi", "321", "--mu", "17,9,0"], "predict",
     {"p": 29, "type": {"xi": "321", "mu": [17, 9, 0]}}),
    (["predict", "--p", "29", "--xi", "123", "--mu", "-1,-9,-17"], "predict",
     {"p": 29, "type": {"xi": "123", "mu": [-1, -9, -17]}}),
    (["predict", "--p", "29", "--xi", "123", "--m", "-1,-9,-17"], "predict",
     {"p": 29, "type": {"xi": "123", "mu": [-1, -9, -17]}}),
    (["eliminate", "--p", "29", "--F", "32,16,0", "--orbit-rep", "163"], "eliminate",
     {"p": 29, "weight": [32, 16, 0], "type": {"orbit_rep": 163}}),
    (["eliminate", "--p", "29", "--F", "54,27,0", "--orbit-rep", "278"], "eliminate",
     {"p": 29, "weight": [54, 27, 0], "type": {"orbit_rep": 278}}),
    (["cycle", "--p", "29", "--start", "15,8,0", "--xi", "123", "--mu", "17,9,0"],
     "cycle", {"p": 29, "start": [15, 8, 0], "type": MU}),
    (["cycle", "--p", "29", "--start", "15,8,0", "--xi", "123", "--mu", "17,9,0", "--dot"],
     "cycle", {"p": 29, "start": [15, 8, 0], "type": MU, "dot": True}),
    (["breuil", "--p", "7", "--heights", "684,684,684", "--k0", "100"], "breuil",
     {"p": 7, "heights": [684, 684, 684], "k0": 100}),
    (["breuil", "--p", "7", "--d", "3", "--r", "2", "--heights", "684,684,684",
      "--exponents", "100,16,112"], "breuil",
     {"p": 7, "d": 3, "r": 2, "heights": [684, 684, 684], "exponents": [100, 16, 112]}),
    (["breuil", "--p", "29", "--heights", "3,1,2", "--k0", "100"], "breuil",
     {"p": 29, "heights": [3, 1, 2], "k0": 100}),
    (["breuil", "--p", "7", "--heig", "-1,2,3", "--k0", "1"], "breuil",
     {"p": 7, "heights": [-1, 2, 3], "k0": 1}),
    (["sweep"], "sweep", {}),
    (["sweep", "--suite", "weights", "--p", "11", "--seed", "1", "--count", "3"], "sweep",
     {"suite": "weights", "p": 11, "seed": 1, "count": 3}),
    (["sweep", "--suite", "cycling", "--p", "17", "--count", "2"], "sweep",
     {"suite": "cycling", "p": 17, "count": 2}),
    (["sweep", "--suite", "nope"], "sweep", {"suite": "nope"}),
    (["sweep", "--suite", "decompose", "--p", "1031"], "sweep", {"suite": "decompose", "p": 1031}),
    (["sweep", "--count", "100001"], "sweep", {"count": 100001}),
]


def test_flag_forms_cover_every_command():
    from gl3weights.cli import COMMANDS

    assert {command for _, command, _ in FLAG_FORMS} == set(COMMANDS)


@pytest.mark.parametrize("argv, command, params", FLAG_FORMS,
                         ids=[" ".join(argv) for argv, _, _ in FLAG_FORMS])
def test_flags_and_envelope_agree(capsys, argv, command, params):
    by_flags = outcome(capsys, argv)
    by_envelope = outcome(capsys, ["query"], envelope(command, params))
    assert by_flags == by_envelope
    assert by_flags[0] in (0, 1) and by_flags[1]


@pytest.mark.parametrize("argv, command, params", [
    (["sweep", "--jbos", "2"], "sweep", {"jbos": 2}),
    (["breuil", "--p", "7", "--heights", "684,684,684", "--k0", "100",
      "--exponents", "100,16,112"], "breuil",
     {"p": 7, "heights": [684, 684, 684], "k0": 100, "exponents": [100, 16, 112]}),
    (["predict", "--p", "29", "--orbit-rep", "278", "--xi", "123", "--mu", "17,9,0"],
     "predict", {"p": 29, "type": {"orbit_rep": 278, "xi": "123", "mu": [17, 9, 0]}}),
    (["predict", "--p", "29", "--orbit-rep", "278", "--xi", "123"],
     "predict", {"p": 29, "type": {"orbit_rep": 278, "xi": "123"}}),
    (["breuil", "--p", "7", "--heights", "684,684"], "breuil",
     {"p": 7, "heights": [684, 684]}),
    (["cycle", "--p", "29", "--start", "15,8,0", "--xi", "123", "--mu", "17,9,0", "--dot", "-5"],
     "cycle", {"p": 29, "start": [15, 8, 0], "type": MU, "dot": -5}),
])
def test_conflicting_or_unknown_parameters_are_usage_errors(capsys, argv, command, params):
    assert outcome(capsys, argv) == (2, "")
    assert outcome(capsys, ["query"], envelope(command, params)) == (2, "")


def test_unknown_envelope_key_is_usage_error(capsys):
    doc = {"version": 1, "command": "decompose", "params": {"n": 10, "p": 7}, "parms": {}}
    assert outcome(capsys, ["query"], json.dumps(doc)) == (2, "")


@pytest.mark.parametrize("argv, message", [
    (["--suite", "slopes", "--p", "9"], "prime >= 5, got 9"),
    (["--suite", "slopes", "--p", "100000"], "below 65536, got 100000"),
    (["--count", "-5"], "count must be at least 0, got -5"),
    (["--suite", "cycling", "--p", "17"], "suite 'cycling' needs p >= 19, got 17"),
    (["--suite", "elimination", "--p", "13"], "needs p >= 17, got 13"),
    (["--suite", "candidates", "--p", "7"], "needs p >= 11, got 7"),
    (["--suite", "decompose", "--p", "1031"], "suite 'decompose' needs p <= 1021, got 1031"),
    (["--suite", "cycling", "--p", "29", "--count", "100001"],
     "count must be at most 100000, got 100001"),
])
def test_sweep_inputs_are_domain_errors(capsys, argv, message):
    code, out = outcome(capsys, ["sweep", *argv])
    assert code == 1
    assert message in json.loads(out)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ["dims", "--p", "1", "--F", "1,2,3"],
    ["predict", "--p", "1", "--orbit-rep", "5"],
    ["breuil", "--p", "1", "--heights", "1,1,1", "--k0", "0"],
    ["eliminate", "--p", "1", "--F", "3,2,1", "--orbit-rep", "5"],
    ["cycle", "--p", "1", "--start", "3,2,1", "--xi", "123", "--mu", "5,3,1"],
], ids=lambda argv: argv[0])
def test_characteristic_one_is_refused_before_any_modulo(capsys, argv):
    code, out = outcome(capsys, argv)
    assert code == 1
    assert json.loads(out) == {"error": {"type": "ValueError", "message":
                                         "characteristic must be a prime >= 5, got 1"}}
