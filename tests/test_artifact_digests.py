"""The comparison of ``tools/artifact_digests.py --against``, on synthetic
digest lines.  The script is loaded by file path, as ``tools`` is not a
package."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


@pytest.fixture(scope="module")
def digests():
    spec = importlib.util.spec_from_file_location("artifact_digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = ["run_default frames.csv aaa", "run_default summary.json bbb", "solve_readme stdout ccc"]


def test_identical_listings_have_no_difference(digests):
    assert digests.differences(PARENT, list(PARENT)) == []
    assert digests.differences([], []) == []


def test_a_changed_digest_is_one_line_out_and_one_in(digests):
    here = ["run_default frames.csv aaa", "run_default summary.json bbX", "solve_readme stdout ccc"]
    assert digests.differences(PARENT, here) == ["- run_default summary.json bbb", "+ run_default summary.json bbX"]


def test_missing_and_new_artifacts_are_each_listed_in_order(digests):
    here = ["run_default frames.csv aaa", "solve_readme stdout ccc", "run_new frames.csv ddd", "run_new x.csv eee"]
    assert digests.differences(PARENT, here) == [
        "- run_default summary.json bbb", "+ run_new frames.csv ddd", "+ run_new x.csv eee"]
    assert digests.differences(here, PARENT) == [
        "- run_new frames.csv ddd", "- run_new x.csv eee", "+ run_default summary.json bbb"]


def test_against_prints_the_differences_and_exits_1(digests, monkeypatch, capsys):
    here = ["run_default frames.csv aaa", "run_default summary.json bbX", "solve_readme stdout ccc"]
    monkeypatch.setattr(digests, "digest_lines", lambda: here)
    monkeypatch.setattr(digests, "lines_at", lambda rev: PARENT if rev == "REV" else here)
    assert digests.main(["--against", "REV"]) == 1
    assert capsys.readouterr().out.splitlines() == ["- run_default summary.json bbb",
                                                    "+ run_default summary.json bbX"]
    assert digests.main(["--against", "SAME"]) == 0
    assert capsys.readouterr().out == "all 3 lines identical at SAME\n"
    assert digests.main([]) == 0
    assert capsys.readouterr().out.splitlines() == here
