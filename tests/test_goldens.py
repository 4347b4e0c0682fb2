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
