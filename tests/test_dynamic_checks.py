"""`check --checker C --json` on dynamic problems, against a snapshot.

``data/dynamic_checks.json`` maps each document and checker to the report
``stochdual check DOC --checker C --json`` printed for it, for every
checker of the document's family other than its default (which
``report`` already runs in the fixture and dynamic report snapshots).
The documents are those of ``helpers.dynamic_docs`` (Bolza trees of
horizon 2 to 5 and a horizon-3 Kabanov market) and the bundled
``bolza-*.json`` and ``kabanov-conical.json`` fixtures.  The Euler-Lagrange
and Hamiltonian certificates read the stage costs, their conjugates and
the Hamiltonians, so a change to those rules shows here.  Strings,
integers and booleans must match exactly; floats within 1e-12 * max(1,
|x|) (``test_fixture_reports.differences``).

A change that moves a certificate on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_dynamic_checks.py

and says which fields moved.
"""

import json
import pathlib

import pytest

from stochdual.cli import _CHECKERS, fixture_path, parse_problem_file, run

from helpers import dynamic_docs, write_doc
from test_fixture_reports import FIXTURE_DIR, differences

DATA = pathlib.Path(__file__).parent / "data" / "dynamic_checks.json"
DOCS = dynamic_docs()
FIXTURES = sorted(p.name for p in FIXTURE_DIR.glob("bolza-*.json")) + ["kabanov-conical.json"]
SNAPSHOT = json.loads(DATA.read_text()) if DATA.exists() else {}


def document_path(name, directory):
    return fixture_path(name) if name in FIXTURES else write_doc(directory, name, DOCS[name])


def cases():
    """(document, checker) for every non-default checker of each
    document's family."""
    with_paths = [(name, fixture_path(name)) for name in FIXTURES]
    return [f"{name}:{checker}" for name, path in with_paths
            for checker in _CHECKERS[parse_problem_file(path)[1]][1:]] + [
        f"{name}:{checker}" for name in sorted(DOCS)
        for checker in _CHECKERS[DOCS[name]["model"]["family"]][1:]]


def check(case, directory):
    name, checker = case.split(":")
    _, rep = run(["check", document_path(name, directory), "--checker", checker, "--json"])
    return json.loads(json.dumps(rep))  # as the command prints it


def test_snapshot_covers_every_case():
    assert sorted(SNAPSHOT) == sorted(cases())


@pytest.mark.parametrize("case", sorted(SNAPSHOT))
def test_dynamic_check_matches_snapshot(case, tmp_path):
    assert differences(check(case, tmp_path), SNAPSHOT[case]) == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        checks = {case: check(case, pathlib.Path(tmp)) for case in sorted(cases())}
    DATA.write_text(json.dumps(checks, indent=1, sort_keys=True) + "\n")
