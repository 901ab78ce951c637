"""`report --json` on every bundled fixture against a committed snapshot.

``data/fixture_reports.json`` maps each fixture's file name to the report
``stochdual report FIXTURE --json`` printed for it.  Strings, integers,
booleans and nulls must match exactly; floats within 1e-12 * max(1, |x|),
which leaves room for the last-digit differences between numpy builds
and no more.  A change that moves a report on purpose regenerates the
snapshot with the same command and says why.

``data/dynamic_reports.json`` does the same for larger dynamic problems,
the documents of ``helpers.dynamic_docs`` written with
``helpers.write_doc``: Bolza trees of up to 63 nodes, whose blocks share
one stage cost, and a multi-block Kabanov market.
"""

import json
import pathlib

import pytest

from stochdual.cli import fixture_path, run

from helpers import dynamic_docs, write_doc

DATA = pathlib.Path(__file__).parent / "data"
SNAPSHOT = json.loads((DATA / "fixture_reports.json").read_text())
DYNAMIC = json.loads((DATA / "dynamic_reports.json").read_text())
DYNAMIC_DOCS = dynamic_docs()
FIXTURE_DIR = pathlib.Path(fixture_path("binomial-alm.json")).parent


def differences(got, want, where="report"):
    """Where ``got`` departs from ``want``, as readable strings."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [d for k in want for d in differences(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r} != {want!r}"]
        return [d for i, (g, w) in enumerate(zip(got, want))
                for d in differences(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and type(got) is float:
        if abs(got - want) <= 1e-12 * max(1.0, abs(want)):
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{where}: {got!r} != {want!r}"]


def test_snapshot_covers_every_fixture():
    assert sorted(SNAPSHOT) == sorted(p.name for p in FIXTURE_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SNAPSHOT))
def test_report_matches_snapshot(name):
    _, report = run(["report", fixture_path(name), "--json"])
    # through the JSON the command prints, as the snapshot was taken
    assert differences(json.loads(json.dumps(report)), SNAPSHOT[name]) == []


def test_dynamic_snapshot_covers_every_document():
    assert sorted(DYNAMIC) == sorted(DYNAMIC_DOCS)


@pytest.mark.parametrize("name", sorted(DYNAMIC))
def test_dynamic_report_matches_snapshot(name, tmp_path):
    _, report = run(["report", write_doc(tmp_path, name, DYNAMIC_DOCS[name]), "--json"])
    assert differences(json.loads(json.dumps(report)), DYNAMIC[name]) == []


def test_differences_sees_types_and_tolerance():
    want = {"a": [1, 2.0, True, None, "x"], "b": 1.0}
    assert differences(want, want) == []
    assert differences({"a": [1, 2.0 + 1e-13, True, None, "x"], "b": 1.0}, want) == []
    assert differences({"a": [1, 2.0 + 1e-11, True, None, "x"], "b": 1.0}, want)
    assert differences({"a": [1.0, 2.0, True, None, "x"], "b": 1.0}, want)
    assert differences({"a": [1, 2.0, 1, None, "x"], "b": 1.0}, want)
    assert differences({"a": [1, 2.0, True, None, "x"]}, want)
