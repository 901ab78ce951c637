"""`report --json` on kinked (piecewise-linear) problems, against a snapshot.

``data/kinked_reports.json`` maps each document of ``helpers.kinked_docs``
to the report ``stochdual report DOC --json`` printed for it: |z| hedging
on binary trees of horizon 2 to 5 and the horizon-3 Bolza LP |x| + |w|.
Their primal, dual and annihilator bound are read off the multipliers of
the active-set engine, so a change to that engine's arithmetic shows here.
Strings, integers and booleans must match exactly; floats within
1e-12 * max(1, |x|) (``test_fixture_reports.differences``).

A change that moves a report on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_kinked_reports.py

and says which fields moved.
"""

import json
import pathlib

import pytest

from stochdual.cli import run

from helpers import kinked_docs, write_doc
from test_fixture_reports import differences

DATA = pathlib.Path(__file__).parent / "data" / "kinked_reports.json"
DOCS = kinked_docs()
SNAPSHOT = json.loads(DATA.read_text()) if DATA.exists() else {}


def report(name, directory):
    _, rep = run(["report", write_doc(directory, name, DOCS[name]), "--json"])
    return json.loads(json.dumps(rep))  # as the command prints it


def test_snapshot_covers_every_document():
    assert sorted(SNAPSHOT) == sorted(DOCS)


@pytest.mark.parametrize("name", sorted(SNAPSHOT))
def test_kinked_report_matches_snapshot(name, tmp_path):
    assert differences(report(name, tmp_path), SNAPSHOT[name]) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: report(name, pathlib.Path(tmp)) for name in sorted(DOCS)}
    DATA.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
