"""Tests for ``tests/pins.py``: the files it covers and what it reports."""

import json

import pytest

import pins


def test_every_pin_file_is_registered_or_an_oracle():
    """No ``pinned_*.json`` file bypasses the tool."""
    names = sorted(path.name for path in pins.TESTS.glob("pinned_*.json"))
    assert sorted([pin.path.name for pin in pins.PINS] + list(pins.ORACLES)) == names


def solve(beta, atom="0x0.0p+0 0x0.0p+0 0x1.0p+0"):
    return {"beta": beta.hex(), "q_star": [atom], "per_pair": []}


DERIVED = {
    "same": solve(1.5),
    "moved": solve(2.5, "moved"),
    "broke": {"error": "control LP failed: unbounded"},
    "line": {"exit_code": 1, "stdout_sha256": "ab", "stderr": "no\n"},
}
PINNED = {**DERIVED, "moved": solve(2.0), "broke": solve(0.5)}
PINNED["line"] = {"exit_code": 0, "stdout_sha256": "ab", "stderr": ""}
LINES = [
    "pinned_x.json moved: beta 2.0 → beta 2.5 (+2.50e-01 relative; q_star moved)",
    "pinned_x.json broke: beta 0.5 → error 'control LP failed: unbounded'",
    "pinned_x.json line: exit_code 0 → 1; stderr '' → 'no\\n'",
]


@pytest.mark.parametrize(
    "pinned, lines", [(PINNED, LINES), (DERIVED, [])], ids=["moved", "unchanged"]
)
def test_check_prints_each_moved_record(pinned, lines, tmp_path, monkeypatch, capsys):
    """``--check`` prints, per moved record, its old → new beta with the
    relative change, the message of a solve that now raises, or a command
    line's changed fields, and exits 1; unchanged records print nothing and
    exit 0.  ``--write`` then leaves the derived records in one format."""
    path = tmp_path / "pinned_x.json"
    path.write_text(json.dumps(pinned))
    monkeypatch.setattr(pins, "PINS", (pins.Pin(path, tuple(DERIVED), str, DERIVED.get),))
    assert pins.main(["--check"]) == (1 if lines else 0)
    assert capsys.readouterr().out.splitlines() == lines
    assert pins.main(["--write"]) == 0
    assert path.read_text() == json.dumps(DERIVED, indent=1) + "\n"
