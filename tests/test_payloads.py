"""The payload ledger: every command line of record_payloads.COMMANDS,
run through `sumsetlab.cli.main` in process, must give the exit code,
stdout digest and error text tests/payload_digests.json holds for it. A
change that is meant to alter CLI output re-records the ledger with
`python tests/record_payloads.py` and lists each changed entry in
CHANGES.md."""

import json

import pytest

import record_payloads
from test_cli import SUBCOMMANDS


def _ledger() -> dict:
    return json.loads(record_payloads.LEDGER.read_text())


def _check_ledger(directory, commands):
    """Run commands in directory, which gets record_payloads.FILES, and
    assert that each gives its ledger entry."""
    ledger = _ledger()
    record_payloads.write_files(directory)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        changed = [command for command in commands if record_payloads.run(command) != ledger[command]]
    assert changed == [], "re-record tests/payload_digests.json if these changes are fixes"


def test_payloads_match_the_ledger(tmp_path):
    assert list(_ledger()) == record_payloads.COMMANDS
    _check_ledger(tmp_path, record_payloads.COMMANDS)


def test_workers_change_no_payload():
    ledger = _ledger()
    pairs = [(command.replace("--workers 2", "--workers 1"), command)
             for command in ledger if "--workers 2" in command]
    assert len(pairs) == 7
    for one, two in pairs:
        assert ledger[two] == ledger[one] and ledger[one]["exit"] == 0, two


def test_ledger_covers_every_subcommand_and_exit_code():
    assert {tuple(command.split()[:2]) for command in record_payloads.COMMANDS} == set(SUBCOMMANDS)
    assert {entry["exit"] for entry in _ledger().values()} == {0, 1, 2}
