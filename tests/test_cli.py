import argparse
import codecs
import csv
import io
import json
import locale
import os
import random
import shlex
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sumsetlab
from sumsetlab.cli import _VERIFY_CHUNK, _indented, build_parser, main
from sumsetlab.core import IntegerSet
from sumsetlab.lattice import successive_minima
from sumsetlab.theory import verify_main_theorem


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_profile_json(capsys):
    code, out, _ = run_cli(capsys, ["sumset", "profile", "--set", "0,2,18,25", "--horizon", "12"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sizes"] == [4, 10, 20, 34, 52, 74, 100, 130, 162, 193, 222, 249]
    assert payload["deficits"][:6] == [0, 0, 0, 1, 4, 10]


# Every README CLI example that prints JSON, at small sizes.
README_JSON_EXAMPLES = [
    ["sumset", "profile", "--set", "0,2,18,25", "--horizon", "12"],
    ["sumset", "compute", "--set", "0,1,3,4", "--h", "3"],
    ["lattice", "basis", "--set", "1,5,96,100"],
    ["lattice", "minima", "--set", "1,5,96,100", "--count", "2", "--cap", "200"],
    ["theory", "predict", "--h", "6", "--k", "4", "--h1", "4"],
    ["theory", "verify", "--set", "0,2,18,25"],
    ["theory", "verify", "--file", "{sets}"],
    ["theory", "construct-lemma", "--a", "2", "--b", "3", "--k", "5"],
    ["theory", "construct-cute", "--b", "5"],
    ["theory", "extremes", "--h", "10", "--k", "4"],
    ["types", "type", "--set", "0,1,2", "--h", "2"],
    ["types", "type", "--set", "2,3,4,6", "--h", "2", "--product"],
    ["types", "separation", "--set", "0,1/2,2", "--h", "2"],
    ["types", "embed", "--set", "0,1/3,5/7,1", "--h", "3"],
    ["types", "to-product", "--set", "0,1,2"],
    ["types", "to-sum", "--set", "2,3,4,6", "--h", "2"],
    ["experiment", "random", "--n", "100", "--k", "4", "--h", "5", "--samples", "300",
     "--seed", "7", "--workers", "1"],
    ["experiment", "scan", "--n", "12", "--k", "4", "--h", "3"],
    ["experiment", "minima-stats", "--n", "10000", "--k", "4", "--samples", "20",
     "--seed", "7", "--cap", "1024"],
    ["experiment", "type-census", "--n", "8", "--k", "4", "--h", "2"],
]


def _subcommands():
    """{(group, cmd): parser} for every subcommand build_parser() declares."""
    def choices(parser):
        (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return action.choices

    return {(group, cmd): p
            for group, g in choices(build_parser()).items() for cmd, p in choices(g).items()}


def _option(parser, flag):
    return next((a for a in parser._actions if flag in a.option_strings), None)


SUBCOMMANDS = _subcommands()
# The first README example of each subcommand: small inputs that exit 0.
SMALL_ARGVS = {}
for _argv in README_JSON_EXAMPLES:
    SMALL_ARGVS.setdefault(tuple(_argv[:2]), _argv)
CSV_COMMANDS = {
    ("sumset", "profile"), ("lattice", "basis"), ("lattice", "minima"), ("theory", "extremes"),
    ("experiment", "random"), ("experiment", "scan"), ("experiment", "minima-stats"),
    ("experiment", "type-census"),
}
SET_COMMANDS = sorted(name for name, p in SUBCOMMANDS.items() if _option(p, "--set"))


def test_parser_contract():
    assert len(SUBCOMMANDS) == 18
    assert {name for name, p in SUBCOMMANDS.items()
            if "csv" in _option(p, "--format").choices} == CSV_COMMANDS
    assert len(SET_COMMANDS) == 10


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS), ids=" ".join)
def test_csv_format_only_where_offered(name, capsys):
    argv = SMALL_ARGVS[name] + ["--format", "csv"]
    if name not in CSV_COMMANDS:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'csv'" in capsys.readouterr().err
        return
    code, out, err = run_cli(capsys, argv)
    assert code == 0 and err == ""
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert rows and all(len(row) >= 2 for row in rows)
    rewritten = io.StringIO()
    csv.writer(rewritten).writerows(rows)
    assert rewritten.getvalue() == out


@pytest.mark.parametrize("name", SET_COMMANDS, ids=" ".join)
def test_malformed_set_is_usage_error_everywhere(name, capsys):
    argv = list(SMALL_ARGVS[name])
    argv[argv.index("--set") + 1] = "1,x"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err


def _readme_cli_block():
    """The `sumsetlab ...` lines of the README's CLI code block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [line for line in block.splitlines() if line.startswith("sumsetlab ")]


def test_readme_cli_examples_parse():
    lines = _readme_cli_block()
    assert len(lines) == 20
    parser = build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.func), line


def test_json_round_trip_identity(tmp_path, capsys):
    sets = tmp_path / "sets.txt"
    sets.write_text("0,2,18,25\n1,5,96,100\n0,1,3,4,9\n")
    for argv in README_JSON_EXAMPLES:
        code, out, _ = run_cli(capsys, [a.format(sets=sets) for a in argv])
        assert code == 0, argv
        payload = json.loads(out)
        # parse-then-serialize is the identity on the canonical encoding
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out, argv


def test_lattice_basis_bytes(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "basis", "--set", "1,5,96,100"])
    assert code == 0
    assert out == (
        '{\n  "rows": [\n    [\n      91,\n      -95,\n      4,\n      0\n    ],\n'
        '    [\n      1,\n      -1,\n      -1,\n      1\n    ]\n  ],\n'
        '  "set": [\n    1,\n    5,\n    96,\n    100\n  ]\n}\n'
    )


def _encoded(encode, value):
    """encode(value), or the type of the exception it raised."""
    try:
        return encode(value)
    except Exception as exc:  # compared by type below
        return type(exc)


def _stdlib(value):
    return json.dumps(value, indent=2, sort_keys=True)


def _direct(value):
    return _indented(value, "\n")


# non-ASCII text, and every character JSON escapes
_strings = st.text() | st.sampled_from(
    ["\u00e9\u4e2d\U0001f600", "\"\\/\b\f\n\r\t\x00\x1f\x7f", ""])
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64 - 2, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")]),
    _strings,
)
# one key family per dict, so that every dict sorts
_sortable_keys = [
    _strings,
    st.integers() | st.booleans() | st.floats(allow_nan=True),
    st.none(),
]
# keys of mixed families, and unsupported keys and values, which must fail
# as the stdlib fails
_failing_keys = [st.one_of(st.text(), st.integers(), st.none()), st.tuples(st.integers())]
_unsupported = st.sampled_from([Fraction(1, 3), {1, 2}, 1j, object(), b"bytes"])


def _containers(key_families):
    def extend(children):
        return st.one_of(
            st.lists(children, max_size=5),
            st.lists(children, max_size=5).map(tuple),
            *[st.dictionaries(keys, children, max_size=5) for keys in key_families],
            st.dictionaries(st.text(), st.integers(), max_size=5).map(Counter),
        )
    return extend


@settings(max_examples=150, deadline=None)
@given(st.recursive(_json_scalars, _containers(_sortable_keys), max_leaves=15))
def test_direct_emitter_matches_json_dumps(value):
    assert _direct(value) == _stdlib(value)


@settings(max_examples=60, deadline=None)
@given(st.recursive(_json_scalars | _unsupported,
                    _containers(_sortable_keys + _failing_keys), max_leaves=10))
def test_direct_emitter_fails_as_json_dumps_fails(value):
    assert _encoded(_direct, value) == _encoded(_stdlib, value)


def test_workers_env_default(monkeypatch):
    import sumsetlab.cli as cli

    monkeypatch.setenv("SUMSETLAB_WORKERS", "6")
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "scan", "--n", "10", "--k", "3", "--h", "2"])
    assert args.workers == 6
    monkeypatch.setenv("SUMSETLAB_WORKERS", "junk")
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "scan", "--n", "10", "--k", "3", "--h", "2"])
    assert args.workers == 1


def test_workers_env_invalid_warns_once(monkeypatch, capsys):
    import sumsetlab.cli as cli

    monkeypatch.setenv("SUMSETLAB_WORKERS", "junk")
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "minima-stats", "--n", "10", "--k", "4",
                              "--samples", "1", "--cap", "16"])
    assert args.workers == 1
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert "SUMSETLAB_WORKERS" in err
    monkeypatch.setenv("SUMSETLAB_WORKERS", "3")
    cli.build_parser()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_workers_env_below_one_warns(monkeypatch, capsys, raw):
    import sumsetlab.cli as cli

    monkeypatch.setenv("SUMSETLAB_WORKERS", raw)
    parser = cli.build_parser()
    args = parser.parse_args(["experiment", "scan", "--n", "10", "--k", "3", "--h", "2"])
    assert args.workers == 1
    err = capsys.readouterr().err
    assert err.count("warning:") == 1
    assert f"SUMSETLAB_WORKERS={raw!r}" in err


def test_sumset_compute(capsys):
    code, out, _ = run_cli(capsys, ["sumset", "compute", "--set", "0,1,2", "--h", "3"])
    assert code == 0
    assert json.loads(out)["sumset"] == list(range(7))


def test_lattice_basis(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "basis", "--set", "0,1,3,4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


def test_lattice_minima_matches_full_sweep_oracle(capsys):
    """lattice minima certifies through find_minima; the oracle sweeps the
    whole L1 ball of radius --cap. Minima, minimizers, truncation and CSV
    rows agree, and the payload's cap is the radius of the last sweep: --cap
    when the report is truncated, else between lambda_count and --cap."""
    rng = random.Random(29)
    cases = 0
    for k, span, caps in ((3, 60, (4, 8, 30, 64)), (4, 120, (4, 16, 64, 200)),
                          (5, 40, (4, 12, 32, 64)), (6, 25, (4, 10, 24))):
        for _ in range(6):
            A = IntegerSet(rng.sample(range(span), k))
            text = ",".join(map(str, A.elements))
            for count in range(1, k - 1):
                for cap in caps:
                    oracle = successive_minima(A, count, cap)
                    argv = ["lattice", "minima", "--set", text, "--count", str(count),
                            "--cap", str(cap)]
                    code, out, err = run_cli(capsys, argv)
                    assert (code, err) == (0, ""), argv
                    payload = json.loads(out)
                    expected = oracle.to_dict()
                    assert payload["minima"] == expected["minima"], argv
                    assert payload["minimizers"] == expected["minimizers"], argv
                    assert payload["truncated"] == expected["truncated"], argv
                    if payload["truncated"]:
                        assert payload["cap"] == cap, argv
                    else:
                        assert payload["minima"][-1] <= payload["cap"] <= cap, argv
                    code, out, _ = run_cli(capsys, argv + ["--format", "csv"])
                    rows = [(n,) + v for n, v in zip(oracle.minima, oracle.minimizers)]
                    assert code == 0
                    assert [tuple(map(int, r)) for r in csv.reader(io.StringIO(out))] == rows
                    cases += 1
    assert cases > 100


def test_lattice_minima_cap_bounds_the_certificate_not_the_sweep(capsys):
    # The whole ball of radius 1024 passes the vector budget, but the
    # minima are certified by the first sweep, at cap 4.
    argv = ["lattice", "minima", "--set", "0,1,2,3,4,5", "--count", "4", "--cap", "1024"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["minima"] == [4, 4, 4, 4]
    assert payload["cap"] == 4 and payload["truncated"] is False


def test_theory_commands(capsys):
    code, out, _ = run_cli(capsys, ["theory", "predict", "--h", "6", "--k", "4", "--h1", "4"])
    assert code == 0 and json.loads(out)["predicted_size"] == 74

    code, out, _ = run_cli(capsys, ["theory", "construct-lemma", "--a", "2", "--b", "3"])
    assert code == 0 and json.loads(out)["set"] == [0, 1, 3, 4]

    code, out, _ = run_cli(capsys, ["theory", "construct-cute", "--b", "5"])
    assert code == 0 and json.loads(out)["set"] == [0, 1, 16, 19]

    code, out, _ = run_cli(capsys, ["theory", "verify", "--set", "0,2,18,25"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] and payload["h1"] == 4 and payload["h2"] == 9

    code, out, _ = run_cli(capsys, ["theory", "extremes", "--h", "10", "--k", "4"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["min_size"], payload["max_size"]) == (31, 286)


def test_verify_file_batch(tmp_path, capsys):
    path = tmp_path / "sets.txt"
    path.write_text("0,2,18,25\n1,5,96,100\n")
    code, out, _ = run_cli(capsys, ["theory", "verify", "--file", str(path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_match"] and len(payload["reports"]) == 2


def test_types_commands(capsys):
    code, out, _ = run_cli(capsys, ["types", "type", "--set", "0,1,2", "--h", "2"])
    assert code == 0 and json.loads(out)["class_count"] == 5

    code, out, _ = run_cli(capsys, ["types", "separation", "--set", "0,1/2,2", "--h", "2"])
    assert code == 0 and json.loads(out)["separation"] == "1/2"

    code, out, _ = run_cli(capsys, ["types", "embed", "--set", "0,1/2,1", "--h", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["trace"]["epsilons"][0] == "0"

    code, out, _ = run_cli(capsys, ["types", "embed", "--set", "0,1/2,1", "--h", "2", "--positive"])
    assert code == 0 and min(json.loads(out)["result"]) >= 1

    code, out, _ = run_cli(capsys, ["types", "to-product", "--set", "0,1,2"])
    assert code == 0 and json.loads(out)["result"] == [1, 2, 4]

    code, out, _ = run_cli(capsys, ["types", "to-sum", "--set", "2,3,4,6", "--h", "2"])
    assert code == 0
    result = json.loads(out)["result"]
    assert len(result) == 4

    code, out, _ = run_cli(capsys, ["types", "type", "--set", "1,2,4", "--h", "2", "--product"])
    assert code == 0 and json.loads(out)["class_count"] == 5


def test_experiment_commands(capsys):
    code, out, _ = run_cli(capsys, ["experiment", "scan", "--n", "12", "--k", "3", "--h", "2"])
    assert code == 0
    assert json.loads(out)["histogram"]["total"] == 220

    code, out, _ = run_cli(capsys, ["experiment", "scan", "--n", "12", "--k", "3",
                                    "--h", "2", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "size,count,proportion"

    code, out, _ = run_cli(capsys, ["experiment", "random", "--n", "100", "--k", "4", "--h", "5",
                                    "--samples", "300", "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["histogram"]["total"] == 300

    code, out2, _ = run_cli(capsys, ["experiment", "random", "--n", "100", "--k", "4", "--h", "5",
                                     "--samples", "300", "--seed", "7"])
    assert out == out2  # seed fully determines the report

    code, out, _ = run_cli(capsys, ["experiment", "minima-stats", "--n", "60", "--k", "4",
                                    "--samples", "50", "--seed", "3", "--cap", "64"])
    assert code == 0
    assert "h1_histogram" in json.loads(out)

    code, out, _ = run_cli(capsys, ["experiment", "type-census", "--n", "4", "--k", "3", "--h", "2"])
    assert code == 0
    assert json.loads(out)["type_count"] == 2


def test_type_census_nonpositive_k_is_computation_error(capsys):
    code, out, err = run_cli(capsys, ["experiment", "type-census", "--n", "4", "--k", "0", "--h", "2"])
    assert code == 1
    assert out == ""
    assert "k must be positive" in err


@pytest.mark.parametrize("k", ["0", "-1"])
def test_scan_nonpositive_k_is_computation_error(capsys, k):
    code, out, err = run_cli(capsys, ["experiment", "scan", "--n", "8", "--k", k, "--h", "2"])
    assert code == 1
    assert out == ""
    assert err == "error: k must be positive\n"


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, ["theory", "predict", "--h", "3", "--k", "4", "--h1", "4",
                                    "--format", "text"])
    assert code == 0
    assert "predicted_size: 20" in out


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, ["sumset", "profile", "--set", "0,1,3,4", "--horizon", "4",
                                  "--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text())["sizes"] == [4, 9, 13, 17]


def test_computation_error_exit_code(capsys):
    code, _, err = run_cli(capsys, ["lattice", "minima", "--set", "1,2", "--count", "1", "--cap", "64"])
    assert code == 1
    assert "error:" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sumset", "profile", "--horizon", "4"])
    assert exc.value.code == 2


@pytest.mark.parametrize("cap", ["9", "2", "0", "-4", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["lattice", "minima", "--set", "0,2,18,25", "--count", "2", "--cap"],
        ["experiment", "minima-stats", "--n", "50", "--k", "4", "--samples", "3", "--cap"],
        ["theory", "verify", "--set", "0,2,18,25", "--max-cap"],
    ],
)
def test_bad_cap_is_usage_error(argv, cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [cap])
    assert exc.value.code == 2
    assert argv[-1] in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "random", "--n", "10", "--k", "3", "--h", "2", "--samples", "5"],
        ["experiment", "scan", "--n", "10", "--k", "3", "--h", "2"],
        ["experiment", "minima-stats", "--n", "50", "--k", "4", "--samples", "3", "--cap", "64"],
    ],
)
def test_bad_workers_is_usage_error(argv, workers, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"--workers={workers}"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "-3", "x"])
@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "random", "--n", "10", "--k", "3", "--h", "2", "--samples", "5"],
        ["experiment", "minima-stats", "--n", "50", "--k", "4", "--samples", "3", "--cap", "64"],
    ],
)
def test_negative_seed_is_usage_error(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--cap", "9", "argument --cap: cap must be an even integer >= 4, got '9'"),
        ("--workers", "0", "argument --workers: must be a positive integer, got '0'"),
        ("--seed", "-1", "argument --seed: must be a nonnegative integer, got '-1'"),
    ],
)
def test_integer_option_messages(option, value, message, capsys):
    argv = ["experiment", "minima-stats", "--n", "50", "--k", "4", "--samples", "3",
            "--cap", "64"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [f"{option}={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["experiment", "random", "--k", "4", "--h", "3", "--samples", "10"],
        ["experiment", "minima-stats", "--k", "4", "--samples", "10", "--cap", "64"],
    ],
)
def test_sampled_n_beyond_two_to_the_63_is_computation_error(argv, capsys):
    code, out, err = run_cli(capsys, argv + ["--n", str(2**64)])
    assert code == 1 and out == ""
    assert err == f"error: sampled runs need n <= 2^63 = {2**63}\n"


@pytest.mark.parametrize("n, k", [("3", "4"), ("50", "2")])
def test_minima_stats_needs_n_at_least_k_at_least_3(n, k, capsys):
    code, out, err = run_cli(capsys, ["experiment", "minima-stats", "--n", n, "--k", k,
                                      "--samples", "3", "--cap", "64"])
    assert code == 1 and out == ""
    assert err == "error: need n >= k >= 3\n"


def test_product_type_needs_an_integer_set(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["types", "type", "--product", "--set", "1/2,3", "--h", "2"])
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err

    code, out, _ = run_cli(capsys, ["types", "type", "--product", "--set", "3.0,2", "--h", "2"])
    assert code == 0
    _, expected, _ = run_cli(capsys, ["types", "type", "--product", "--set", "2,3", "--h", "2"])
    assert out == expected


def _module_run(argv):
    package_root = Path(sumsetlab.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(package_root), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "sumsetlab", *argv],
                          capture_output=True, env=env)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["sumset", "compute", "--set", "0,1", "--h", "2"]
    code, out, _ = run_cli(capsys, argv)
    proc = _module_run(argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode()

    proc = _module_run(["sumset", "compute", "--set", "1,x", "--h", "2"])
    assert proc.returncode == 2
    assert b"--set" in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["theory", "verify"],
        ["theory", "verify", "--set", "0,2,18,25", "--file", "sets.txt"],
    ],
)
def test_verify_needs_exactly_one_source(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err


def test_main_builds_parser_once(monkeypatch, capsys):
    import sumsetlab.cli as cli

    original = cli.build_parser
    built = []

    def counting_build_parser():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    try:
        argv = ["types", "to-sum", "--set", "2,3,4,6", "--h", "2"]
        first = run_cli(capsys, argv)
        second = run_cli(capsys, argv)
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert first == second and first[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["sumset", "compute", "--set", "1,x", "--h", "2"],
        ["types", "type", "--set", "1/2,x", "--h", "2"],
        ["types", "type", "--set", "1/0", "--h", "2"],
    ],
)
def test_malformed_set_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--set" in capsys.readouterr().err


def test_verify_file_read_errors(tmp_path, capsys):
    # a missing path and a directory both fail to open
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run_cli(capsys, ["theory", "verify", "--file", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("error: [Errno ") and err.endswith(f": {str(path)!r}\n")

    # a truncated second minimum on line 2 is raised before the reader
    # reaches the undecodable byte at the end of an 80 KB file
    path = tmp_path / "sets.txt"
    lines = ["0,2,18,25", "1,5,96,100"] + ["0,2,18,25"] * 8000
    path.write_bytes(("\n".join(lines) + "\n").encode() + b"\xff\n")
    assert path.stat().st_size > 80_000
    code, out, err = run_cli(capsys, ["theory", "verify", "--file", str(path), "--max-cap", "64"])
    truncated = "second minimum of [1, 5, 96, 100] exceeds cap 64"
    assert (code, out, err) == (1, "", f"error: {path} line 2: {truncated}\n")
    if codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8":
        pytest.skip("the decode error needs a UTF-8 locale")
    code, out, err = run_cli(capsys, ["theory", "verify", "--file", str(path)])
    # the path alone: the reader decodes ahead of the line it yields
    undecodable = "not UTF-8 text: invalid start byte (byte 0xff)"
    assert (code, out, err) == (1, "", f"error: {path}: {undecodable}\n")


def test_verify_file_chunk_edges(tmp_path, capsys):
    """theory verify --file reads _VERIFY_CHUNK non-blank lines at a time;
    files that end on, or fail on either side of, a chunk edge give each
    line's own report or that line's error."""
    path = tmp_path / "sets.txt"
    filler = ["0,2,18,25", "0,1,3,4,24", "1,4,9,30,41", "0,1,3,4"]
    expected = {line: verify_main_theorem(IntegerSet.from_text(line), 64).to_dict()
                for line in filler}

    def verify(lines):
        path.write_text("".join(line + "\n" for line in lines))
        return run_cli(capsys, ["theory", "verify", "--file", str(path), "--max-cap", "64"])

    full = [filler[i % len(filler)] for i in range(2 * _VERIFY_CHUNK)]
    for lines in (full[:_VERIFY_CHUNK], [x for line in full for x in (line, "")]):
        code, out, err = verify(lines)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["reports"] == [expected[line] for line in lines if line]
        assert payload["all_match"] is True

    parse = "invalid literal for int() with base 10: 'x'"
    for number, bad, message in ((_VERIFY_CHUNK, "1,x", parse),
                                 (_VERIFY_CHUNK + 1, "1,x", parse),
                                 (_VERIFY_CHUNK + 44, "1,2,4", "verification requires k >= 4")):
        lines = list(full)
        lines[number - 1] = bad
        assert verify(lines) == (1, "", f"error: {path} line {number}: {message}\n"), number

    for lines in ([], ["", "  ", "\t", ""]):
        code, out, err = verify(lines)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"all_match": True, "reports": []}


def test_malformed_verify_file_line_is_computation_error(tmp_path, capsys):
    path = tmp_path / "sets.txt"
    path.write_text("0,2,18,25\n1,x\n")
    code, _, err = run_cli(capsys, ["theory", "verify", "--file", str(path)])
    assert code == 1
    assert err.startswith(f"error: {path} line 2: ")

    # Past the first chunk, the first failing line still decides, even when
    # a set above a parse error fails only once it is verified. Each
    # filler line verifies at --max-cap 64; the blank lines count.
    filler = ["0,2,18,25", "", "0,1,3,4,24", "1,4,9,30,41"] * (_VERIFY_CHUNK // 2)
    parse = "invalid literal for int() with base 10: 'x'"
    small = "verification requires k >= 4"
    truncated = "second minimum of [1, 5, 96, 100] exceeds cap 64"
    cases = [
        (["1,x,3"], 0, parse),
        (["1,2,4", "1,x"], 0, small),
        (["1,5,96,100", "1,2,4"], 0, truncated),
        (["0,1,3,4", "1,5,96,100", "0,2,18,25", "1,x"], 1, truncated),
    ]
    for tail, failing, message in cases:
        lines = filler + tail + filler[:5]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(
            capsys, ["theory", "verify", "--file", str(path), "--max-cap", "64"])
        number = len(filler) + failing + 1
        assert (code, out, err) == (1, "", f"error: {path} line {number}: {message}\n"), tail
