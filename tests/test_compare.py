"""Tests for benchmarks/compare.py, the perf-regression gate."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_COMPARE = Path(__file__).parent.parent / "benchmarks" / "compare.py"


@pytest.fixture(scope="module")
def compare_mod():
    spec = importlib.util.spec_from_file_location("compare", _COMPARE)
    mod = importlib.util.module_from_spec(spec)
    sys.modules["compare"] = mod
    spec.loader.exec_module(mod)
    yield mod
    sys.modules.pop("compare", None)


def _record(algorithm="match4", backend="numpy", n=4096, p=256, seed=0,
            time=141, work=31689, wall_s=0.004, phases=(), extra=None):
    return {
        "type": "run", "schema": 1, "kind": "matching",
        "algorithm": algorithm, "backend": backend, "n": n, "p": p,
        "seed": seed, "time": time, "work": work, "wall_s": wall_s,
        "phases": [list(ph) for ph in phases], "version": "1.0.0",
        "git_rev": "deadbee", "extra": extra or {},
    }


def _manifest(tmp_path, name, records):
    path = tmp_path / name
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


class TestGate:
    def test_synthetic_2x_step_regression_fails(self, compare_mod, tmp_path):
        """The acceptance case: doubled step count -> non-zero exit."""
        base = _manifest(tmp_path, "base.jsonl", [_record(time=141)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(time=282)])
        rc = compare_mod.main([base, cur, "--ignore-wallclock"])
        assert rc == 1

    def test_identical_manifests_pass(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record()])
        cur = _manifest(tmp_path, "cur.jsonl", [_record()])
        assert compare_mod.main([base, cur]) == 0

    def test_any_step_increase_fails(self, compare_mod, tmp_path):
        """Step counts are deterministic: +1 is already a regression."""
        base = _manifest(tmp_path, "base.jsonl", [_record(time=141)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(time=142)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1

    def test_step_tol_grants_allowance(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(time=100)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(time=104)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1
        assert compare_mod.main(
            [base, cur, "--ignore-wallclock", "--step-tol", "0.05"]) == 0

    def test_step_improvement_passes(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(time=141)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(time=100)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0

    def test_phase_regression_detected(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl",
                         [_record(phases=[("sort", 10, 100, 10)])])
        cur = _manifest(tmp_path, "cur.jsonl",
                        [_record(phases=[("sort", 20, 100, 10)])])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1


class TestWallclock:
    def test_within_tolerance_passes(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(wall_s=0.100)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(wall_s=0.105)])
        assert compare_mod.main([base, cur]) == 0

    def test_beyond_tolerance_fails(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(wall_s=0.100)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(wall_s=0.150)])
        assert compare_mod.main([base, cur]) == 1

    def test_custom_tolerance(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(wall_s=0.100)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(wall_s=0.150)])
        assert compare_mod.main([base, cur, "--wallclock-tol", "0.6"]) == 0

    def test_ignore_wallclock(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(wall_s=0.001)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(wall_s=9.0)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0


class TestPairing:
    def test_missing_workload_fails(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl",
                         [_record(), _record(algorithm="match1", time=99)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record()])
        assert compare_mod.main([base, cur]) == 1
        assert compare_mod.main([base, cur, "--allow-missing"]) == 0

    def test_new_workload_passes(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record()])
        cur = _manifest(tmp_path, "cur.jsonl",
                        [_record(), _record(algorithm="match1", time=99)])
        assert compare_mod.main([base, cur]) == 0

    def test_different_extra_does_not_pair(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl",
                         [_record(extra={"layout": "random"})])
        cur = _manifest(tmp_path, "cur.jsonl",
                        [_record(time=999, extra={"layout": "sawtooth"})])
        # unrelated workloads: baseline one is missing -> still gated
        assert compare_mod.main([base, cur]) == 1


class TestFormats:
    def test_bench_json_format(self, compare_mod, tmp_path):
        def bench(v):
            return {"n": 4096, "reps": 7, "results": {
                "match4": {"reference_s": 0.5, "numpy_s": v,
                           "speedup": 0.5 / v}}}

        base = tmp_path / "base.json"
        base.write_text(json.dumps(bench(0.010)))
        cur = tmp_path / "cur.json"
        cur.write_text(json.dumps(bench(0.013)))
        assert compare_mod.main([str(base), str(cur)]) == 1
        assert compare_mod.main(
            [str(base), str(cur), "--wallclock-tol", "0.5"]) == 0

    def test_unrecognized_format_rejected(self, compare_mod, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"hello": "world"}))
        ok = _manifest(tmp_path, "ok.jsonl", [_record()])
        with pytest.raises(SystemExit):
            compare_mod.main([str(bad), ok])

    def test_span_lines_skipped(self, compare_mod, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            json.dumps({"type": "span", "name": "phase.sort"}) + "\n"
            + json.dumps(_record()) + "\n")
        base = _manifest(tmp_path, "base.jsonl", [_record()])
        assert compare_mod.main([base, str(path)]) == 0

    def test_report_written(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record(time=100)])
        cur = _manifest(tmp_path, "cur.jsonl", [_record(time=200)])
        report = tmp_path / "report.json"
        rc = compare_mod.main([base, cur, "--ignore-wallclock",
                               "--report", str(report)])
        assert rc == 1
        data = json.loads(report.read_text())
        assert data["passed"] is False
        assert any(f["kind"] == "regression" for f in data["findings"])

    def test_committed_baselines_parse(self, compare_mod):
        """The checked-in baseline files stay loadable."""
        basedir = _COMPARE.parent / "baselines"
        runs = compare_mod.load_metrics(basedir / "runs_baseline.jsonl")
        assert len(runs) == 3
        pre = compare_mod.load_metrics(
            basedir / "wallclock_pre_telemetry.json")
        post = compare_mod.load_metrics(
            basedir / "wallclock_post_telemetry.json")
        assert set(pre) == set(post)
        # the committed overhead demonstration still passes its gate
        findings = compare_mod.compare(pre, post, wallclock_tol=0.05)
        assert not [f for f in findings if f["kind"] == "regression"]


class TestServiceRecords:
    """Service-shaped manifests must not break the gate (robustness
    hardening: operational records carry container-valued ``extra``
    entries and may omit step counts)."""

    def _service_record(self, served=10, shed=None):
        rec = _record(n=served, p=1, time=100, work=1000)
        rec["kind"] = "service"
        rec["extra"] = {
            "drain": "clean", "drain_reason": "SIGTERM",
            "served": served,
            "shed": shed or {"queue_full": 3},
            "cache": {"hits": 4, "misses": 6, "evictions": 0},
        }
        return rec

    def test_service_manifest_loads(self, compare_mod, tmp_path):
        path = _manifest(tmp_path, "svc.jsonl", [self._service_record()])
        metrics = compare_mod.load_metrics(path)
        assert len(metrics) == 1
        (key,) = metrics
        assert key[0] == "service"

    def test_container_extras_pair_across_dict_order(
            self, compare_mod, tmp_path):
        """Identity must be stable under dict insertion order."""
        a = self._service_record()
        b = self._service_record()
        b["extra"]["cache"] = {"evictions": 0, "misses": 6, "hits": 4}
        base = _manifest(tmp_path, "base.jsonl", [a])
        cur = _manifest(tmp_path, "cur.jsonl", [b])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0

    def test_missing_step_counts_tolerated(self, compare_mod, tmp_path):
        rec = self._service_record()
        rec["time"] = None
        rec["work"] = None
        path = _manifest(tmp_path, "svc.jsonl", [rec])
        metrics = compare_mod.load_metrics(path)
        (key,) = metrics
        assert metrics[key]["ints"] == {}

    def test_mixed_manifest_still_gates_matching_records(
            self, compare_mod, tmp_path):
        """A service record sharing the manifest must not mask a real
        regression in the matching records."""
        base = _manifest(tmp_path, "base.jsonl",
                         [_record(time=141), self._service_record()])
        cur = _manifest(tmp_path, "cur.jsonl",
                        [_record(time=282), self._service_record()])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1


def _without_kind(rec):
    rec = dict(rec)
    del rec["kind"]
    return rec


_CACHE = {"hits": 4, "misses": 6, "evictions": 0}
_CACHE_REORDERED = {"evictions": 0, "misses": 6, "hits": 4}

#: ``(a, b, same workload?)``: one row per identity rule.
_KEY_PAIRS = [
    pytest.param(_record(extra={"cache": _CACHE}),
                 _record(extra={"cache": _CACHE_REORDERED}), True,
                 id="dict-extra-key-order"),
    pytest.param(_record(extra={"cache": _CACHE}),
                 _record(extra={"cache": {**_CACHE, "hits": 5}}), False,
                 id="dict-extra-value"),
    pytest.param(_record(extra={"sizes": [64, 256]}),
                 _record(extra={"sizes": [64, 256]}), True,
                 id="list-extra"),
    pytest.param(_record(extra={"sizes": [64, 256]}),
                 _record(extra={"sizes": [256, 64]}), False,
                 id="list-extra-order"),
    pytest.param(_record(extra={"layout": "random"}),
                 _record(extra={"layout": "random",
                                "resources": {"peak_alloc_b": 1}}), True,
                 id="resources-excluded"),
    pytest.param(_record(seed=None), _record(seed=None), True,
                 id="seed-none"),
    pytest.param(_record(seed=None), _record(seed=0), False,
                 id="seed-none-vs-0"),
    pytest.param(_without_kind(_record()), _record(), True,
                 id="kind-omitted"),
    pytest.param(_without_kind(_record()),
                 {**_record(), "kind": "service"}, False,
                 id="kind-omitted-vs-service"),
]


class TestKeyParity:
    """``compare.py`` stays stdlib-only, so it restates
    :meth:`RunRecord.key`; this pins the two to the same pairing."""

    @pytest.mark.parametrize("a,b,same", _KEY_PAIRS)
    def test_record_key_matches_runrecord_key(self, compare_mod, a, b,
                                              same):
        from repro.telemetry.runrecord import RunRecord

        script = [compare_mod._record_key(r) for r in (a, b)]
        library = [RunRecord.from_dict(r).key() for r in (a, b)]
        assert script == library
        assert (script[0] == script[1]) is same


class TestPeakAlloc:
    """The peak_alloc_b column from embedded resource accounts."""

    def _rec(self, peak, **kw):
        resources = {"peak_alloc_b": peak,
                     "ledger": {"bytes_out": 0, "bytes_in": 0}}
        return _record(extra={"resources": resources}, **kw)

    def test_resources_excluded_from_identity(self, compare_mod, tmp_path):
        """Two runs of the same workload pair up even though their
        measured resource payloads differ."""
        base = _manifest(tmp_path, "base.jsonl", [self._rec(1000)])
        cur = _manifest(tmp_path, "cur.jsonl", [self._rec(1010)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0

    def test_regression_beyond_tolerance_fails(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [self._rec(1000)])
        cur = _manifest(tmp_path, "cur.jsonl", [self._rec(2000)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1

    def test_within_default_tolerance_passes(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [self._rec(1000)])
        cur = _manifest(tmp_path, "cur.jsonl", [self._rec(1200)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0

    def test_custom_tolerance_flag(self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [self._rec(1000)])
        cur = _manifest(tmp_path, "cur.jsonl", [self._rec(2000)])
        assert compare_mod.main(
            [base, cur, "--ignore-wallclock",
             "--peak-alloc-tol", "1.5"]) == 0

    def test_ignore_wallclock_keeps_peak_alloc_gated(
            self, compare_mod, tmp_path):
        """--ignore-wallclock is about machine speed; allocation volume
        does not depend on it and must stay gated."""
        base = _manifest(tmp_path, "base.jsonl",
                         [self._rec(1000, wall_s=0.001)])
        cur = _manifest(tmp_path, "cur.jsonl",
                        [self._rec(5000, wall_s=9.0)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 1

    def test_baseline_without_resources_tolerates_current_with(
            self, compare_mod, tmp_path):
        base = _manifest(tmp_path, "base.jsonl", [_record()])
        cur = _manifest(tmp_path, "cur.jsonl", [self._rec(1000)])
        assert compare_mod.main([base, cur, "--ignore-wallclock"]) == 0

    def test_metrics_expose_the_column(self, compare_mod, tmp_path):
        path = _manifest(tmp_path, "m.jsonl", [self._rec(4096)])
        metrics = compare_mod.load_metrics(path)
        (key,) = metrics
        assert metrics[key]["floats"]["peak_alloc_b"] == 4096.0
