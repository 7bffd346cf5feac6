import json
import math
import random

import pytest

from latticeineq import fuzz
from latticeineq.certify import DEFAULT_TOL, SET_INEQUALITIES, Inequality, check
from latticeineq.fileio import load_input, summary_to_dict
from latticeineq.fuzzing import P_CYCLE, _sample_function, run_instance
from latticeineq.errors import InvalidInputError
from oracles import oracle_sample_function


class TestThreadResolution:
    def test_default_serial(self, monkeypatch):
        # no setting but `threads` starts a pool, the environment included
        sizes = self._inline_pool(monkeypatch, 64)
        monkeypatch.setenv("LATTICE_INEQ_THREADS", "3")
        serial = summary_to_dict(fuzz(600, 2, seed=5))
        assert sizes == []
        assert serial == summary_to_dict(fuzz(600, 2, seed=5, threads=1))

    @pytest.mark.parametrize("threads", [0, -3])
    def test_argument_below_one_rejected(self, threads):
        with pytest.raises(InvalidInputError,
                           match=f"^--threads must be >= 1, got {threads}$"):
            fuzz(10, 2, threads=threads)

    @staticmethod
    def _inline_pool(monkeypatch, cpus):
        """Report `cpus` CPUs and run the pool's chunks inline, so no
        process starts; returns the list the pool sizes are recorded in."""
        import concurrent.futures
        import os

        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    def test_pool_never_exceeds_chunk_count(self, monkeypatch):
        sizes = self._inline_pool(monkeypatch, 64)
        serial = summary_to_dict(fuzz(600, 2, seed=5, threads=1))
        assert sizes == []
        for threads in (2, 64, 10_000):
            assert summary_to_dict(fuzz(600, 2, seed=5, threads=threads)) == serial
        # 600 instances in chunks of at least 256 make 3 chunks
        assert sizes == [2, 3, 3]

    def test_pool_never_exceeds_cpu_count(self, monkeypatch):
        sizes = self._inline_pool(monkeypatch, 2)
        serial = summary_to_dict(fuzz(3000, 2, seed=5, threads=1))
        assert sizes == []
        # uncapped, 10 000 threads would cut 3 000 instances into 12 chunks
        # of 256 and start 12 workers
        assert summary_to_dict(fuzz(3000, 2, seed=5, threads=10_000)) == serial
        assert sizes == [2]

    def test_ties_across_chunks(self, monkeypatch):
        # every deficit ties at 0.0 on a point mass, so the earliest index
        # must win in each chunk and in the merge of the 3 chunks
        sizes = self._inline_pool(monkeypatch, 64)
        serial = fuzz(600, 2, seed=5, window=1, q=1.0, threads=1)
        pooled = fuzz(600, 2, seed=5, window=1, q=1.0, threads=2)
        assert sizes == [2]
        assert summary_to_dict(pooled) == summary_to_dict(serial)
        for name in ("GN", "SOBOLEV", "ISOPERIMETRIC", "BL", "LW"):
            assert serial.per_inequality[name].worst_index == 0, name


class TestFuzz:
    def test_small_run_no_violations(self):
        summary = fuzz(300, 2, seed=42)
        assert summary.violations == 0
        obj = summary_to_dict(summary)
        assert obj["line_bound"] == {"checks": 300, "failures": 0}
        assert obj["chain"] == {"checks": 300, "failures": 0}
        for stats in summary.per_inequality.values():
            assert stats.count == 300
            assert stats.violations == 0
            assert stats.min_deficit >= 0 or abs(stats.min_deficit) < 1e-9

    def test_three_dimensional(self):
        summary = fuzz(60, 3, seed=7, window=4)
        assert summary.violations == 0

    def test_deterministic_rerun(self):
        a = summary_to_dict(fuzz(120, 2, seed=42))
        b = summary_to_dict(fuzz(120, 2, seed=42))
        assert a == b

    def test_seed_changes_stream(self):
        a = summary_to_dict(fuzz(50, 2, seed=1))
        b = summary_to_dict(fuzz(50, 2, seed=2))
        assert a != b

    def test_worker_count_does_not_change_summary(self):
        serial = summary_to_dict(fuzz(400, 2, seed=5, threads=1))
        parallel = summary_to_dict(fuzz(400, 2, seed=5, threads=2))
        assert serial == parallel

    def test_degenerate_singleton_generator(self):
        # window 1, q = 1: every instance is a positive multiple of a point mass
        summary = fuzz(1, 2, seed=0, window=1, q=1.0)
        assert summary.violations == 0
        for name, stats in summary.per_inequality.items():
            assert abs(stats.min_deficit) < 1e-12, name
            assert abs(stats.max_deficit) < 1e-12, name

    def test_empty_draw_falls_back_to_one_point(self):
        # at q = 1e-12 no window point is drawn, so each support is one
        # random point
        assert fuzz(5, 2, q=1e-12).violations == 0
        for index in range(5):
            inputs = run_instance(0, index, 2, 5, 1e-12, 64, DEFAULT_TOL)["inputs"]
            for ineq, x in inputs.items():
                size = len(x) if ineq in SET_INEQUALITIES else x.support_size()
                assert size == 1, ineq

    def test_worst_input_retained(self):
        summary = fuzz(40, 2, seed=3)
        gn = summary.per_inequality["GN"]
        assert gn.worst_input is not None
        assert gn.worst_index is not None
        assert "entries" in gn.worst_input

    @pytest.mark.parametrize("n,window,count,seed", [(2, 5, 300, 7), (3, 4, 60, 3)])
    def test_worst_inputs_replay(self, n, window, count, seed, tmp_path):
        # each echoed worst input is what its checker saw: read back from a
        # file, it gives the same deficit
        summary = fuzz(count, n, seed=seed, window=window)
        for name, stats in summary.per_inequality.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(stats.worst_input))
            p = P_CYCLE[stats.worst_index % len(P_CYCLE)]
            report = check(Inequality(name), load_input(str(path)), p, summary.tol,
                           normalize=True)
            assert report.deficit == stats.min_deficit, name

    def test_invalid_params(self):
        with pytest.raises(InvalidInputError):
            fuzz(0, 2)
        with pytest.raises(InvalidInputError):
            fuzz(5, 1)
        with pytest.raises(InvalidInputError):
            fuzz(5, 2, q=0.0)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_tol_refused(self, tol):
        with pytest.raises(InvalidInputError, match="tol must be finite and positive"):
            fuzz(20, 2, seed=1, tol=tol)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("denominator", [1, 2, 3, 63, 64, 65, 2 ** 70 + 1])
def test_sampler_draws_the_randint_stream(denominator, n):
    # the inline rejection draw takes Random.randint's values and leaves
    # the generator where randint leaves it
    for seed in range(50):
        for signed in (False, True):
            rng, ref = random.Random(seed), random.Random(seed)
            assert (_sample_function(rng, n, 3, 0.4, denominator, signed)
                    == oracle_sample_function(ref, n, 3, 0.4, denominator, signed))
            assert rng.getstate() == ref.getstate()
