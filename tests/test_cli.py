"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def db_path(tmp_path):
    return str(tmp_path / "cli.db")


def _ingest(db_path, capsys):
    code = main(
        [
            "ingest", "--corpus", "ca", "--docs", "1", "--lines", "4",
            "--db", db_path, "--k", "4", "--m", "6",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "ingested 4 lines" in out
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_search_defaults(self):
        args = build_parser().parse_args(
            ["search", "--db", "x.db", "--pattern", "%a%"]
        )
        assert args.approach == "staccato"
        assert args.num_ans == 100
        assert not args.indexed


class TestCommands:
    def test_ingest_reports_storage(self, db_path, capsys):
        """One line per approach the ingest stored: the default ones."""
        out = _ingest(db_path, capsys)
        assert "staccato  storage" in out
        assert "kmap      storage" in out
        assert "fullsfa" not in out

    def test_an_approach_the_file_does_not_store_is_an_error(
        self, db_path, capsys
    ):
        _ingest(db_path, capsys)
        for command in (
            ["search", "--pattern", "%the%"],
            ["sql", "--query", "SELECT DocId FROM Claims WHERE DocData LIKE '%a%'"],
        ):
            code = main([*command, "--db", db_path, "--approach", "fullsfa"])
            captured = capsys.readouterr()
            assert code == 2
            assert "'fullsfa'" in captured.err and not captured.out

    def test_search(self, db_path, capsys):
        _ingest(db_path, capsys)
        code = main(
            [
                "search", "--db", db_path, "--pattern", "%the%",
                "--approach", "map",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "answers in" in out

    def test_sql(self, db_path, capsys):
        _ingest(db_path, capsys)
        code = main(
            [
                "sql", "--db", db_path, "--approach", "map",
                "--query", "SELECT DocId, Year FROM Claims",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "rows in" in out
        assert "DocId" in out

    def test_index_then_indexed_search(self, db_path, capsys):
        _ingest(db_path, capsys)
        code = main(
            ["index", "--db", db_path, "--terms", "public", "law", "congress"]
        )
        assert code == 0
        assert "postings" in capsys.readouterr().out
        code = main(
            [
                "search", "--db", db_path, "--indexed",
                "--pattern", r"REGEX:Public Law (8|9)\d",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "indexed" in out

    def test_tune(self, capsys):
        code = main(
            [
                "tune", "--corpus", "ca", "--docs", "1", "--lines", "4",
                "--sample", "4", "--size-fraction", "0.5",
                "--recall", "0.1", "--queries", "%the%",
            ]
        )
        out = capsys.readouterr().out
        assert "m=" in out and "k=" in out
        assert code in (0, 1)
