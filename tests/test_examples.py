"""Smoke tests: the example scripts must run and produce their key output.

The two large recovery examples (TPC-H, MusicBrainz) are exercised by
the integration tests and benchmarks at controlled scale; here the
fast examples run end-to-end exactly as a user would invoke them.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, argv: list[str], capsys) -> str:
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv
    return capsys.readouterr().out


class TestExampleScripts:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", [], capsys)
        assert "Step 1 - FD discovery: 12 minimal FDs" in out
        assert "Lossless-join check passed" in out
        assert "CREATE TABLE" in out

    def test_fd_discovery_tour(self, capsys):
        out = run_example("fd_discovery_tour.py", ["--dataset", "planets"], capsys)
        assert "All three algorithms agree" in out
        assert "Atmosphere -> Rings" in out

    def test_interactive_scripted(self, capsys):
        out = run_example("interactive_normalization.py", [], capsys)
        assert "The user stopped normalizing" in out

    def test_data_errors(self, capsys):
        out = run_example("data_errors.py", [], capsys)
        assert "Postcode -> City (g3=" in out
        assert "Frankfrt" in out  # the reported exception row

    def test_beyond_the_paper(self, capsys):
        out = run_example("beyond_the_paper.py", [], capsys)
        assert "teacher ->> book" in out
        assert "functional-dependency" in out
        assert "digraph schema" in out

    @pytest.mark.parametrize(
        "name",
        ["tpch_normalization.py", "musicbrainz_normalization.py"],
    )
    def test_large_examples_are_importable(self, name):
        """The heavy examples at least parse and expose main()."""
        module = runpy.run_path(str(EXAMPLES / name), run_name="not_main")
        assert callable(module["main"])
