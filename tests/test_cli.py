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


#: Out-of-range numbers, each refused by the parser.
_BAD_NUMBERS = [
    ["ingest", "--k", "0"],
    ["ingest", "--m", "0"],
    ["ingest", "--workers", "0"],
    ["serve", "--k", "0"],
    ["serve", "--m", "0"],
    ["serve", "--pool-size", "0"],
    ["serve", "--workers", "0"],
    ["serve", "--replicas", "0"],
    ["serve", "--trace-ring", "0"],
    ["serve", "--port", "70000"],
    ["serve", "--port", "-1"],
]


class TestNumberBounds:
    @pytest.mark.parametrize("argv", _BAD_NUMBERS, ids=" ".join)
    def test_out_of_range_is_a_usage_error_that_touches_no_file(
        self, tmp_path, capsys, argv
    ):
        with pytest.raises(SystemExit) as exited:
            main([*argv, "--db", str(tmp_path / "bad.db")])
        assert exited.value.code == 2
        assert "error:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["serve", "--db", "x.db", "--port", "65535", "--pool-size", "1"]
        )
        assert (args.port, args.pool_size) == (65535, 1)
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
