"""The mutant table of tests/mutants.py: each mutant is killed by its tests."""

from __future__ import annotations

import mutants


def test_every_mutant_is_killed(capsys):
    assert mutants.main([]) == 0, capsys.readouterr().out


def test_a_survivor_or_a_lost_source_text_fails(monkeypatch, capsys):
    test = ("tests/test_model.py::TestNumberPath::test_depth_limit",)
    monkeypatch.setattr(
        mutants,
        "MUTANTS",
        (
            # The same code spelled another way: no test can kill it.
            mutants.Mutant("equivalent", "model.py", "if len(segments) > MAX_DEPTH:", "if MAX_DEPTH < len(segments):", test),
            mutants.Mutant("moved", "model.py", "text that is not in the file", "", test),
            # Its tests would fail on the import, not on the mutant.
            mutants.Mutant("broken", "model.py", "if len(segments) > MAX_DEPTH:", "if len(segments) > MAX_DEPTH", test),
        ),
    )
    assert mutants.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "SURVIVED equivalent",
        "NOT FOUND moved: source text occurs 0 times in model.py",
    ]
    assert lines[2].startswith("BROKEN broken: ")
