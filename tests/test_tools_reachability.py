"""tools/reachability.py on a fixture package: which functions it lists, and how long."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import reachability  # noqa: E402

MODULE = '''\
import functools


def called():
    return 1


def uncalled():
    value = 1
    return value


@functools.lru_cache(maxsize=None)
def called_decorated():
    return 2


@functools.lru_cache(maxsize=None)
def uncalled_decorated():
    return 3


def uncalled_outer():
    def nested():
        return 4
    return nested


def allowed_helper():
    return 5


class Thing:
    def method(self):
        def inner():
            return called()
        return inner()

    def unused_method(self):
        return 6
'''

ENTRY = "import pkg.mod as m; m.called(); m.called_decorated(); m.Thing().method()"


def test_lists_exactly_the_unreached_functions(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(MODULE)
    records = tmp_path / "records"
    records.mkdir()
    log = []
    ok = reachability.probe([("entry", reachability.command(sys.executable, "-c", ENTRY))],
                            records, package, [tmp_path], log=log.append)
    assert ok, log

    allowlist = {"pkg/mod.py:allowed_helper": "kept for the test"}
    listed, lines = reachability.report(package, reachability.read_records(records), allowlist)

    assert [(f.path, f.qualname, f.lines) for f in listed] == [
        ("pkg/mod.py", "uncalled", 3),
        ("pkg/mod.py", "uncalled_decorated", 3),
        ("pkg/mod.py", "uncalled_outer", 4),
        ("pkg/mod.py", "Thing.unused_method", 2),
    ]
    assert lines[0] == "unreached outside the allowlist: 4 functions, 12 lines"
    assert lines[-1].endswith("unreached 14 (2 allowlisted)")


def test_every_allowlist_entry_has_a_reason():
    assert reachability.ALLOWLIST
    assert all(reason.strip() for reason in reachability.ALLOWLIST.values())


class _Everything:
    """An entered set that holds every function, so the walk descends into all."""

    def __contains__(self, record):
        return True


def test_every_allowlist_entry_matches_a_function():
    """Static: no probe run.  Nested functions count, hence ``_Everything``."""
    found = [function for function, _ in
             reachability.functions(reachability.PACKAGE, _Everything())]
    stale = [pattern for pattern in reachability.ALLOWLIST
             if not any(reachability._matches(function, pattern) for function in found)]
    assert stale == []
