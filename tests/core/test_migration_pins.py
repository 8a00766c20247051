"""Hex pins for the migration path's simulated output.

The migration CLI (with and without the auditor) and the smoke study
(whose migration cells run the study dirtier) print JSON; these pin the
SHA-256 of those exact bytes.  A change that moves any of them changes
simulated output and must say so.
"""

import hashlib
import os

import pytest

from repro.cli import main

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["migration", "--json"],
            "f9240e02d08e53b7327c5a289b7dcf8740e4353ffc13574cb29338578f3e3fb2",
        ),
        (
            ["migration", "--audit", "--json"],
            "280db7b0bd35115e75ddf0a771f0bb76ebe71b8ba52bfadb94d2f703a4e1dc3d",
        ),
        (
            ["study", "--spec", os.path.join(EXAMPLES, "study_smoke.json"), "--json"],
            "7c8b04bea39522654e23b334a783d8bb25aa13189c637e004454c1a4d7e059a5",
        ),
    ],
    ids=["migration", "migration-audit", "study-smoke"],
)
def test_cli_output_pins(capsys, argv, digest):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
