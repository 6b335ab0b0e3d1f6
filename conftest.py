"""Repository-wide pytest options (loaded for every invocation)."""


def pytest_addoption(parser):
    parser.addoption(
        "--write-reports",
        action="store_true",
        default=False,
        help="regenerate the tracked tables under benchmarks/reports/ "
        "(by default the benchmark suite only prints them, so a test "
        "run leaves the tree clean)",
    )
