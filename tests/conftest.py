import pytest

from periodkit.cli import default_fixture_path, ingest_curves

ACCEPTANCE_FILE = "test_acceptance.py"
_acceptance_docs: dict = {}
_acceptance_outcomes: dict = {}


def pytest_collection_modifyitems(items):
    for item in items:
        if ACCEPTANCE_FILE in item.nodeid and item.obj.__doc__:
            _acceptance_docs[item.nodeid] = item.obj.__doc__.strip().splitlines()[0]


def pytest_runtest_logreport(report):
    if ACCEPTANCE_FILE not in report.nodeid:
        return
    if report.when == "call" or (report.when == "setup" and report.outcome != "passed"):
        _acceptance_outcomes[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_outcomes):
        verdict = "PASS" if _acceptance_outcomes[nodeid] == "passed" else "FAIL"
        doc = _acceptance_docs.get(nodeid, nodeid.rsplit("::", 1)[-1])
        terminalreporter.write_line(f"{verdict}  {doc}")


@pytest.fixture(scope="session")
def bundled_records():
    return ingest_curves(default_fixture_path())


@pytest.fixture(scope="session")
def record_by_label(bundled_records):
    return {r.label: r for r in bundled_records}

