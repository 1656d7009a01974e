"""tools/parity.py: how it names the difference between two stdouts."""

import importlib.util
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
