import json

import pytest

from sumsetlab.cli import main


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


def test_json_round_trip_identity(capsys):
    commands = [
        ["lattice", "minima", "--set", "1,5,96,100", "--count", "2", "--cap", "200"],
        ["sumset", "profile", "--set", "0,2,18,25", "--horizon", "6"],
        ["types", "type", "--set", "0,1,2", "--h", "2"],
        ["theory", "extremes", "--h", "4", "--k", "4"],
    ]
    for argv in commands:
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        # parse-then-serialize is the identity on the canonical encoding
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out


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


def test_sumset_compute(capsys):
    code, out, _ = run_cli(capsys, ["sumset", "compute", "--set", "0,1,2", "--h", "3"])
    assert code == 0
    assert json.loads(out)["sumset"] == list(range(7))


def test_lattice_basis(capsys):
    code, out, _ = run_cli(capsys, ["lattice", "basis", "--set", "0,1,3,4"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2


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

    code, _, err = run_cli(capsys, ["lattice", "minima", "--set", "0,2,18,25",
                                    "--count", "2", "--cap", "9"])
    assert code == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["sumset", "profile", "--horizon", "4"])
    assert exc.value.code == 2


def test_csv_unavailable_is_reported(capsys):
    code, _, err = run_cli(capsys, ["theory", "predict", "--h", "3", "--k", "4", "--h1", "4",
                                    "--format", "csv"])
    assert code == 1
    assert "CSV" in err or "csv" in err


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


def test_malformed_verify_file_line_is_computation_error(tmp_path, capsys):
    path = tmp_path / "sets.txt"
    path.write_text("0,2,18,25\n1,x\n")
    code, _, err = run_cli(capsys, ["theory", "verify", "--file", str(path)])
    assert code == 1
    assert "error:" in err
