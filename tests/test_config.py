"""The config schema: every shipped config passes it, and configs drawn from
the table either run to a schema-valid report or name their one violation."""

import json
import os
import tempfile

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from geodescent import harness
from geodescent.config import (NONNEGATIVE, PATH, POSITIVE, POSITIVE_INT, SCHEMA, SECTIONS,
                               SEED, value)
from geodescent.traces import build_manifold, load_trace

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_shipped_config_passes_the_schema(tmp_path, monkeypatch):
    # demos/configs, the golden set (which holds the seed-0 benchmark
    # configs) and the benchmark configs of seeds 1 and 2
    monkeypatch.syspath_prepend(os.path.join(REPO, "bench"))
    monkeypatch.syspath_prepend(os.path.join(REPO, "scripts"))
    import trace_digests
    import workloads

    paths = trace_digests._write_configs(str(tmp_path / "golden"))
    for w in workloads.WORKLOADS:
        for seed in (1, 2):
            groups = workloads.generate(w, seed)
            paths += workloads.write_configs(groups, str(tmp_path / f"{w}-{seed}")).values()
    assert len(paths) > 100
    for path in paths:
        harness.load_config(path)


def test_the_readme_lists_every_key():
    with open(os.path.join(REPO, "README.md")) as fh:
        readme = fh.read()
    assert [k for (_, k) in SCHEMA if f"`{k}`" not in readme] == []


# ---------------------------------------------------------------------------
# configs drawn from the table

def _or_null(numbers):
    # a null number one draw in ten: it passes the table and reaches the
    # builder, which derives the value or rejects it
    return st.integers(0, 9).flatmap(lambda i: st.none() if i == 0 else numbers)


# valid values of each type, kept small so a drawn run stays short
_VALID = {
    POSITIVE: _or_null(st.floats(0.1, 2.0)),
    NONNEGATIVE: _or_null(st.floats(0.0, 1.5)),
    POSITIVE_INT: st.integers(1, 3),
    SEED: st.integers(0, 2**16),
    PATH: st.sampled_from(["a.jsonl", "sub/b.json", "c.out"]),
}
_INVALID = {
    POSITIVE: [-1.0, 0.0, True, "1", float("nan"), float("inf")],
    NONNEGATIVE: [-0.5, True, "0", float("inf")],
    POSITIVE_INT: [0, -3, 2.5, True, None, "2"],
    SEED: [-1, 1.5, True, None, "7"],
    PATH: [".", "..", "", 3, None],
}


def _is_vector(entry):
    return entry.type.words.startswith("a list of")


def _dims(sections):
    """The manifold's (n, ambient dimension), or None for a manifold with a
    null number, whose vectors load_config leaves unchecked."""
    try:
        m = build_manifold(sections["manifold"])
    except TypeError:
        return None
    return m.dim, m.ambient_dim


def _reads(section, sections, key):
    """Whether the section's kinds read ``key`` (the kind included)."""
    kinds = SCHEMA[section, key].kinds
    spec = sections[section]
    if kinds is None or key == "kind":
        return True
    readers = {spec["kind"]}
    if spec["kind"] == "accelerated":
        readers.add(value(section, spec, "oracle"))
    return bool(readers.intersection(kinds))


@st.composite
def _valid_configs(draw):
    sections = {name: {} for name in SECTIONS}
    # kinds and choices first, since they decide which keys are read
    for (section, key), entry in SCHEMA.items():
        if entry.type.options and _reads(section, sections, key) and (
                key == "kind" or draw(st.booleans())):
            sections[section][key] = draw(st.sampled_from(entry.type.options))
    # the table lists the manifold's keys first, so they are drawn before
    # a vector needs the manifold's dimensions
    for (section, key), entry in SCHEMA.items():
        if entry.type.options or not _reads(section, sections, key) or not (
                key == "k_max" or draw(st.booleans())):
            continue
        if _is_vector(entry):
            # a vector that is not a point of the manifold fails in its builder
            if (dims := _dims(sections)) is None:
                continue
            length = next(n for n in dims if entry.type.ok([0.0] * n, dims))
            sections[section][key] = draw(st.lists(st.floats(-1.0, 1.0), min_size=length,
                                                   max_size=length))
        else:
            sections[section][key] = draw(_VALID[entry.type])
    assume(not harness._cross_section_violations(sections))
    return sections


def _write(directory, sections):
    path = os.path.join(directory, "config.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(sections, fh)
    return path


def _assert_schema_valid_report(result, cfg):
    report = result.report
    with open(result.report_path) as fh:
        assert json.load(fh) == json.loads(json.dumps(report))
    assert report["schema"] == harness.REPORT_SCHEMA
    assert report["config"] == cfg.as_dict() and report["config_hash"] == cfg.config_hash
    assert all(isinstance(e, str) for e in report["errors"])
    for g in report["guarantees"].values():
        assert g["pass"] in (True, False, None)
        assert (g["worst_slack"] is None) == (g["pass"] is None)
    failed = any(g["pass"] is False for g in report["guarantees"].values())
    assert report["exit_code"] == result.exit_code == int(failed or bool(report["errors"]))
    assert load_trace(result.trace_path).meta["config_hash"] == cfg.config_hash


_PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])


@_PROPERTY
@given(_valid_configs())
def test_a_valid_draw_runs_to_a_report_or_a_builder_error(sections):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = harness.load_config(_write(tmp, sections))
        try:
            result = harness.run_experiment(cfg, os.path.join(tmp, "out"))
        except harness.ConfigError as e:
            assert e.violations and all(v.startswith(("cannot build the experiment",
                                                      "run.domain_radius exceeds"))
                                        for v in e.violations)
            return
        _assert_schema_valid_report(result, cfg)


@st.composite
def _one_violation(draw):
    """A valid config with one key made invalid or unread; returns the
    sections and the ``section.key`` that the violation must name."""
    sections = draw(_valid_configs())
    dims = _dims(sections)
    candidates = [(s, k) for (s, k), e in SCHEMA.items() if k != "kind"
                  and (e.type in _INVALID or e.type.options or _is_vector(e) and dims)
                  and _reads(s, sections, k)]
    section, key = draw(st.sampled_from(candidates + [("unread", None)]))
    if section == "unread":
        section = draw(st.sampled_from(SECTIONS))
        unread = [k for (s, k) in SCHEMA if s == section and not _reads(s, sections, k)]
        key = draw(st.sampled_from(unread + [f"{section}_typo"]))
        sections[section][key] = 1.0
        return sections, f"{section}.{key}"
    entry = SCHEMA[section, key]
    if entry.type.options:
        bad = "bogus"
    elif _is_vector(entry):
        bad = draw(st.sampled_from([[0.0] * (dims[1] + 1), "x", [True] * dims[0]]))
    else:
        bad = draw(st.sampled_from(_INVALID[entry.type]))
    sections[section][key] = bad
    return sections, f"{section}.{key}"


@_PROPERTY
@given(_one_violation())
def test_one_violation_is_named(drawn):
    sections, name = drawn
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(harness.ConfigError) as ei:
            harness.load_config(_write(tmp, sections))
    assert len(ei.value.violations) == 1, ei.value.violations
    assert name in ei.value.violations[0]
