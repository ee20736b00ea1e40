"""Tests for the parallel sweep runner: specs, cache, fan-out, metrics."""

import pickle

import pytest

from repro.analysis.tables import table4, table5
from repro.core.comparison import run_standard_comparison
from repro.protocols.registry import PAPER_CORE_SCHEMES
from repro.runner import ResultCache, RunSpec, run_sweep, sweep_grid
from repro.trace.stream import SharingModel

#: Tiny traces so the whole module stays fast.
SCALE = 1.0 / 1024.0


class TestRunSpec:
    def test_normalises_names(self):
        spec = RunSpec(protocol="DIR0B", trace="pops", scale=SCALE)
        assert spec.protocol == "dir0b" and spec.trace == "POPS"

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            RunSpec(protocol="nonesuch", trace="POPS")

    def test_unknown_protocol_suggests_close_name(self):
        with pytest.raises(ValueError, match="did you mean 'dir0b'"):
            RunSpec(protocol="dir0bb", trace="POPS")

    @pytest.mark.parametrize("spelling", [None, "", "inf", "infinite", "INF"])
    def test_infinite_geometry_spellings_normalise_to_none(self, spelling):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE, geometry=spelling)
        assert spec.geometry is None
        assert spec.build_geometry() is None

    def test_geometry_accepts_instance_and_spec_string(self):
        from repro.memory import CacheGeometry

        by_string = RunSpec(
            protocol="dir0b", trace="POPS", scale=SCALE, geometry="64X4"
        )
        by_instance = RunSpec(
            protocol="dir0b",
            trace="POPS",
            scale=SCALE,
            geometry=CacheGeometry(n_sets=64, associativity=4),
        )
        assert by_string.geometry == by_instance.geometry == "64x4"
        assert by_string.build_geometry() == CacheGeometry(64, 4)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError, match="bad cache geometry"):
            RunSpec(protocol="dir0b", trace="POPS", scale=SCALE, geometry="64y4")

    def test_rejects_unknown_trace(self):
        with pytest.raises(ValueError, match="unknown trace"):
            RunSpec(protocol="dir0b", trace="NOPE")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", scale=0)
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", n_caches=0)
        with pytest.raises(ValueError):
            RunSpec(protocol="dir0b", trace="POPS", block_size=-4)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_rejects_non_finite_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            RunSpec(protocol="dir0b", trace="POPS", scale=scale)

    def test_run_matches_direct_simulation(self):
        from repro.core import simulate
        from repro.protocols import create_protocol
        from repro.trace import standard_trace

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        direct = simulate(
            create_protocol("dir0b", 4),
            standard_trace("POPS", scale=SCALE),
            trace_name="POPS",
        )
        via_spec = spec.run()
        assert via_spec.counters.events == direct.counters.events
        assert via_spec.counters.ops.ops == direct.counters.ops.ops

    def test_is_picklable(self):
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        assert pickle.loads(pickle.dumps(spec)) == spec


class TestCacheKey:
    def test_stable_across_instances(self):
        a = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        b = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize(
        "changed",
        [
            dict(protocol="dragon"),
            dict(trace="THOR"),
            dict(scale=SCALE / 2),
            dict(n_caches=8),
            dict(block_size=32),
            dict(sharing_model=SharingModel.PROCESSOR),
            dict(seed=99),
            dict(geometry="64x4"),
            dict(characterization="non-pipelined"),
        ],
    )
    def test_every_axis_changes_the_key(self, changed):
        base = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        other = RunSpec(
            **{
                "protocol": base.protocol,
                "trace": base.trace,
                "scale": base.scale,
                "n_caches": base.n_caches,
                "block_size": base.block_size,
                "sharing_model": base.sharing_model,
                "seed": base.seed,
                "geometry": base.geometry,
                **changed,
            }
        )
        assert base.cache_key() != other.cache_key()

    def test_package_version_bump_invalidates_the_key(self, monkeypatch):
        """Upgrading repro must retire every previously cached result."""
        import repro.runner.spec as spec_module

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        before = spec.cache_key()
        monkeypatch.setattr(spec_module, "PACKAGE_VERSION", "999.0.0")
        assert spec.cache_key() != before

    def test_schema_revision_bump_invalidates_the_key(self, monkeypatch):
        import repro.runner.spec as spec_module

        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        before = spec.cache_key()
        monkeypatch.setattr(
            spec_module,
            "CACHE_SCHEMA_VERSION",
            spec_module.CACHE_SCHEMA_VERSION + 1,
        )
        assert spec.cache_key() != before

    def test_version_bump_misses_a_warm_cache(self, tmp_path, monkeypatch):
        import repro.runner.spec as spec_module

        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.put(spec.cache_key(), spec.run())
        assert cache.get(spec.cache_key()) is not None
        monkeypatch.setattr(spec_module, "PACKAGE_VERSION", "999.0.0")
        assert cache.get(spec.cache_key()) is None


class TestSweepGrid:
    def test_cross_product_shape_and_order(self):
        specs = sweep_grid(
            ("dir0b", "dragon"), traces=("POPS", "THOR"), scale=SCALE
        )
        assert len(specs) == 4
        assert [(s.protocol, s.trace) for s in specs] == [
            ("dir0b", "POPS"),
            ("dir0b", "THOR"),
            ("dragon", "POPS"),
            ("dragon", "THOR"),
        ]

    def test_block_size_axis(self):
        specs = sweep_grid(
            ("dir0b",), traces=("POPS",), scale=SCALE, block_sizes=(16, 32)
        )
        assert [s.block_size for s in specs] == [16, 32]

    def test_geometry_axis(self):
        specs = sweep_grid(
            ("dir0b",),
            traces=("POPS",),
            scale=SCALE,
            geometries=(None, "8x2", "64x4"),
        )
        assert [s.geometry for s in specs] == [None, "8x2", "64x4"]

    def test_empty_protocols_rejected(self):
        with pytest.raises(ValueError):
            sweep_grid(())


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        assert cache.get(key) is None
        result = spec.run()
        cache.put(key, result)
        replayed = cache.get(key)
        assert replayed is not None
        assert replayed.counters.events == result.counters.events
        assert (cache.hits, cache.misses) == (1, 1)
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        key = spec.cache_key()
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_wrong_type_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.path_for("bogus").write_bytes(pickle.dumps({"not": "a result"}))
        assert cache.get("bogus") is None

    def test_clear_removes_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.put(spec.cache_key(), spec.run())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_hit_rate(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.hit_rate == 0.0
        spec = RunSpec(protocol="dir0b", trace="POPS", scale=SCALE)
        cache.get(spec.cache_key())
        cache.put(spec.cache_key(), spec.run())
        cache.get(spec.cache_key())
        assert cache.hit_rate == 0.5


class TestRunSweep:
    def test_rejects_empty_grid_and_bad_jobs(self):
        with pytest.raises(ValueError):
            run_sweep([])
        with pytest.raises(ValueError):
            run_sweep(sweep_grid(("dir0b",), scale=SCALE), jobs=0)

    def test_serial_and_parallel_are_bit_identical(self):
        specs = sweep_grid(("dir0b", "dragon"), scale=SCALE)
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert serial.cell_table() == parallel.cell_table()
        assert (
            table5(serial.comparison()).render()
            == table5(parallel.comparison()).render()
        )
        assert (
            table4(serial.comparison()).render()
            == table4(parallel.comparison()).render()
        )
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.result.counters.events == right.result.counters.events
            assert left.result.counters.ops.ops == right.result.counters.ops.ops

    def test_finite_geometry_grid_is_bit_identical_across_jobs(self):
        """Acceptance: sweeps including finite geometries match serially."""
        specs = sweep_grid(
            ("dir0b", "wti"),
            traces=("POPS",),
            scale=SCALE,
            geometries=(None, "8x2"),
        )
        serial = run_sweep(specs, jobs=1)
        parallel = run_sweep(specs, jobs=2)
        assert serial.cell_table() == parallel.cell_table()
        for left, right in zip(serial.outcomes, parallel.outcomes):
            assert left.result.counters.events == right.result.counters.events
            assert left.result.counters.ops.ops == right.result.counters.ops.ops
            assert left.result.counters.evictions == right.result.counters.evictions

    def test_warm_cache_rerun_of_table5_grid_simulates_nothing(self, tmp_path):
        """Acceptance: the full Table 5 grid, rerun warm, hits cache only."""
        specs = sweep_grid(PAPER_CORE_SCHEMES, scale=SCALE)
        cache = ResultCache(tmp_path / "cache")
        cold = run_sweep(specs, cache=cache)
        assert cold.simulations == len(specs)
        assert cold.cache_hits == 0
        warm = run_sweep(specs, cache=cache)
        assert warm.simulations == 0
        assert warm.cache_hits == len(specs)
        assert (
            table5(warm.comparison()).render()
            == table5(cold.comparison()).render()
        )

    def test_progress_hook_fires_once_per_cell(self):
        specs = sweep_grid(("dir0b",), scale=SCALE)
        seen = []
        run_sweep(specs, progress=seen.append)
        assert [outcome.spec for outcome in seen] == specs
        assert all(not outcome.cached for outcome in seen)

    def test_metrics_accounting(self, tmp_path):
        specs = sweep_grid(("dir0b",), traces=("POPS",), scale=SCALE)
        cache = ResultCache(tmp_path)
        cold = run_sweep(specs, cache=cache)
        assert cold.cells == 1
        assert cold.simulated_references == cold.total_references > 0
        assert cold.refs_per_sec > 0
        assert cold.worker_timings()  # one worker, one cell
        warm = run_sweep(specs, cache=cache)
        assert warm.cache_hit_rate == 1.0
        assert warm.simulated_references == 0
        assert warm.worker_timings() == {}
        rendered = warm.render_metrics()
        assert "1 hits" in rendered and "100.0% hit rate" in rendered

    def test_comparison_rejects_collapsed_grid_violations(self):
        specs = sweep_grid(
            ("dir0b",), traces=("POPS",), scale=SCALE, block_sizes=(16, 32)
        )
        report = run_sweep(specs)
        with pytest.raises(ValueError, match="multiple results"):
            report.comparison()

    def test_comparison_rejects_incomplete_cross_product(self):
        specs = [
            RunSpec(protocol="dir0b", trace="POPS", scale=SCALE),
            RunSpec(protocol="dir0b", trace="THOR", scale=SCALE),
            RunSpec(protocol="dragon", trace="POPS", scale=SCALE),
        ]
        report = run_sweep(specs)
        with pytest.raises(ValueError, match="full cross product"):
            report.comparison()


class TestStandardComparisonViaRunner:
    def test_runner_path_matches_serial_path(self, tmp_path):
        serial = run_standard_comparison(("dir0b", "dragon"), scale=SCALE)
        parallel = run_standard_comparison(
            ("dir0b", "dragon"),
            scale=SCALE,
            jobs=2,
            cache_dir=str(tmp_path / "cache"),
        )
        assert table5(serial).render() == table5(parallel).render()
        assert table4(serial).render() == table4(parallel).render()
        # and the cached rerun still matches
        cached = run_standard_comparison(
            ("dir0b", "dragon"), scale=SCALE, cache_dir=str(tmp_path / "cache")
        )
        assert table5(cached).render() == table5(serial).render()
