def pytest_addoption(parser):
    parser.addoption(
        "--rewrite-acceptance-lines", action="store_true",
        help="write the A-lines that tests/test_acceptance.py prints into "
        "tests/acceptance_lines.txt instead of checking them against it",
    )
