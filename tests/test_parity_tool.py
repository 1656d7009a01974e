"""tools/parity.py: how it names the difference between two stdouts."""

import collections
import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
SPEC = importlib.util.spec_from_file_location("parity", PATH)
parity = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(parity)


@pytest.mark.parametrize(
    "out, other, keys",
    [
        ('{"b": [0.0, 1.5], "n": 2}', '{"b": [-0.0, 1.5], "n": 2}', "b"),  # bytes, not values
        ('{"a": 1, "residual": 1e-16}', '{"a": 2, "residual": 2e-16}', "a, residual"),
        ('{"a": 1}', '{"a": 1, "error": null}', "error"),
        ('{"a": 1}\n', '{"a": 1}\n', ""),  # the same stdout: exit code or stderr differ
        ("", '{"a": 1}\n', None),
        ("[1]", "[2]", None),
    ],
)
def test_differing_keys(out, other, keys):
    assert parity._differing_keys(out, other) == keys


def test_declined_argv_are_declined_by_the_grammar_table(monkeypatch, capsys):
    # each DECLINED argv goes to the full parser, so parity covers it
    from simpow import cli

    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    for argv in parity.DECLINED:
        built.clear()
        with contextlib.suppress(SystemExit):
            cli._parse_args(argv)
        assert built == [1], argv
    capsys.readouterr()


def test_declined_argv_run_on_their_inputs(tmp_path):
    # in a directory holding INPUTS, no DECLINED argv crashes; help exits 0,
    # argparse's errors 2, and the argv argparse reads answer with a report
    for name, data in parity.INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    jobs, out = tmp_path / "jobs.json", tmp_path / "out.json"
    jobs.write_text(json.dumps([[str(tmp_path), argv] for argv in parity.DECLINED]))
    with contextlib.chdir(tmp_path):
        parity.run(str(PATH.parents[1]), str(jobs), str(out))
    codes = collections.Counter(rc for rc, _, _ in json.loads(out.read_text()))
    assert set(codes) == {0, 1, 2}
    assert codes[0] > len([argv for argv in parity.DECLINED if {"-h", "--help"} & set(argv)])


def test_spec_argv_answer_with_their_witness(tmp_path):
    # every SPECS argv answers; solve-b's polynomial witness is null at [17]
    # alone, whose monomial coefficients lose it to rounding
    for name, data in parity.INPUTS.items():
        (tmp_path / name).write_text(json.dumps(data))
    jobs, out = tmp_path / "jobs.json", tmp_path / "out.json"
    jobs.write_text(json.dumps([[str(tmp_path), argv] for argv in parity.SPECS]))
    with contextlib.chdir(tmp_path):
        parity.run(str(PATH.parents[1]), str(jobs), str(out))
    for argv, (rc, stdout, _) in zip(parity.SPECS, json.loads(out.read_text())):
        assert rc == 0, argv
        if argv[0] == "solve-b":
            witness = json.loads(stdout)["polynomial_in_a_q"]
            assert (witness is None) == (argv[1] == "one17.json"), argv
