"""`report --json` on problems solved by Newton's method, against a snapshot.

``data/newton_reports.json`` maps each document's name to the report
``stochdual report DOC --json`` printed for it: the two bundled fixtures
with an exponential (``exponential-hedging.json``, ``kkt-exponential.json``)
and the documents of ``newton_docs``, 16-leaf e^z - 1 hedging, 16-leaf
Bolza problems with state cost e^x - 1 and x log x - x, and a horizon-2
Kabanov market with e^c - 1 disutilities.  Status, verdict, exit code,
method, iteration counts and every other string, integer and boolean must
match exactly; floats (and the ``value_repr`` strings, read as floats)
within 1e-12 * max(1, |x|).

A change that moves a report on purpose regenerates the snapshot with

    PYTHONPATH=src python tests/test_newton_reports.py

and says which fields moved.
"""

import json
import pathlib
import sys

import numpy as np
import pytest

from stochdual.cli import fixture_path, run

from helpers import kabanov_doc, write_doc
from test_fixture_reports import differences

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "bench"))
import workloads  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data" / "newton_reports.json"
FIXTURES = ("exponential-hedging.json", "kkt-exponential.json")
EXP = {"kind": "exponential", "offset": -1}  # e^z - 1


def newton_docs():
    """The generated documents of the snapshot, by name."""
    return {
        "hedging-exp-16": workloads.hedging_doc(
            4, EXP, np.random.default_rng(4).uniform(-0.5, 0.5, 16)),
        "bolza-exp-16": workloads.bolza_doc(4, EXP, np.random.default_rng(4)),
        "bolza-entropy-16": workloads.bolza_doc(4, {"kind": "entropy"},
                                                np.random.default_rng(4)),
        "kabanov-exp-H2": kabanov_doc(2, np.random.default_rng(2),
                                      {"kind": "separable", "parts": [EXP, EXP]}),
    }


def report(name, directory):
    path = fixture_path(name) if name in FIXTURES else write_doc(
        directory, name, newton_docs()[name])
    _, rep = run(["report", path, "--json"])
    return json.loads(json.dumps(rep))  # as the command prints it


def reprs_as_floats(report):
    """The report with each ``*_repr`` string read as the float it spells,
    so that ``differences`` compares it within its float tolerance."""
    if isinstance(report, dict):
        return {k: float(v) if k.endswith("_repr") and isinstance(v, str) else reprs_as_floats(v)
                for k, v in report.items()}
    if isinstance(report, list):
        return [reprs_as_floats(v) for v in report]
    return report


SNAPSHOT = json.loads(DATA.read_text()) if DATA.exists() else {}


def test_snapshot_covers_every_document():
    assert sorted(SNAPSHOT) == sorted([*FIXTURES, *newton_docs()])


@pytest.mark.parametrize("name", sorted(SNAPSHOT))
def test_newton_report_matches_snapshot(name, tmp_path):
    got = report(name, tmp_path)
    assert got["primal"]["method"] == "newton"
    assert differences(reprs_as_floats(got), reprs_as_floats(SNAPSHOT[name])) == []


def test_repr_strings_are_compared_as_floats():
    want = reprs_as_floats({"value": 1.5, "value_repr": "1.5", "rows": [{"status": "optimal"}]})
    assert want == {"value": 1.5, "value_repr": 1.5, "rows": [{"status": "optimal"}]}
    assert differences(reprs_as_floats({"value": 1.5, "value_repr": "1.5000000000001",
                                        "rows": [{"status": "optimal"}]}), want) == []
    assert differences(reprs_as_floats({"value": 1.5, "value_repr": "1.50001",
                                        "rows": [{"status": "optimal"}]}), want)
    assert differences(reprs_as_floats({"value": 1.5, "value_repr": "1.5",
                                        "rows": [{"status": "gap-open"}]}), want)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = {name: report(name, pathlib.Path(tmp))
                   for name in sorted([*FIXTURES, *newton_docs()])}
    DATA.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
