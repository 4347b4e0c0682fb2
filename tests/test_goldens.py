"""The golden set of ``scripts/trace_digests.py`` as a test: every config's
trace, report and verdicts equal those recorded in ``goldens.json``.

A change that moves a golden on purpose regenerates the file with

    PYTHONPATH=src python3 scripts/trace_digests.py --no-counts tests/goldens.json

so that its diff shows which configs moved."""

import json
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS = os.path.join(REPO, "tests", "goldens.json")


def test_every_golden_config_is_unchanged(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(REPO, "scripts"))
    import trace_digests

    out = tmp_path / "digests.json"
    # exit 1 means a warm-cache rerun differed from its cold run
    assert trace_digests.digest(str(out), counts=False) == 0
    with open(GOLDENS) as fh:
        golden = json.load(fh)
    with open(out) as fh:
        digests = json.load(fh)
    moved = sorted(name for name in golden.keys() | digests.keys()
                   if golden.get(name) != digests.get(name))
    if moved:
        capsys.readouterr()
        trace_digests.compare(GOLDENS, str(out))
        report = capsys.readouterr().out
        raise AssertionError(f"{len(moved)} golden configs moved: {', '.join(moved)}\n{report}")


def test_options_are_recorded_and_compared_by_name(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(REPO, "scripts"))
    import trace_digests

    package = tmp_path / "package"
    package.mkdir()
    (package / "mod.py").write_text(
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    def inner(e=3):\n"
        "        return lambda g=4: g\n"
        "@dataclass\n"
        "class State:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    def step(self, z=None):\n"
        "        pass\n")
    assert trace_digests._src_options(str(package)) == {"mod.py": [
        "mod.py:f.b", "mod.py:f.c", "mod.py:f.inner.e", "mod.py:f.inner.<lambda>.g",
        "mod.py:State.y", "mod.py:State.step.z"]}

    for name, names in (("a.json", ["m.py:f.a", "m.py:f.b"]), ("b.json", ["m.py:f.b", "m.py:g.c"])):
        (tmp_path / name).write_text(json.dumps({trace_digests.SRC_OPTION_NAMES: names}))
    assert trace_digests.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    out = capsys.readouterr().out
    assert "options removed: m.py:f.a\n" in out and "options added: m.py:g.c\n" in out


def test_compare_against_a_file_without_option_names(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(os.path.join(REPO, "scripts"))
    import trace_digests

    (tmp_path / "old.json").write_text(json.dumps({}))
    (tmp_path / "new.json").write_text(json.dumps({trace_digests.SRC_OPTION_NAMES: ["m.py:f.a"]}))
    assert trace_digests.compare(str(tmp_path / "old.json"), str(tmp_path / "new.json")) == 0
    out = capsys.readouterr().out
    assert "option names n/a\n" in out and "options removed" not in out
