"""Hot-path profiling (repro.obs.profile): the module → stage map and
the statistical sampler's idle/busy attribution.

Deterministic frame tests build real frames with controlled filenames
via ``compile(..., fake_path, "exec")`` — no monkeypatching of frame
internals, no reliance on the sampler catching a race.
"""

import sys
import threading

import pytest

from repro.obs.profile import (
    StackSampler,
    classify_frame,
    classify_path,
)


def run_in_fake_file(path, source, name, *args):
    """Execute *source* as if it lived at *path*; call its *name*."""
    namespace: dict = {}
    exec(compile(source, path, "exec"), namespace)
    return namespace[name](*args)


class TestClassifyPath:
    @pytest.mark.parametrize(
        "path, stage",
        [
            ("/x/src/repro/core/database_generator.py",
             "database_generator"),
            ("/x/src/repro/core/schema_generator.py", "schema_generator"),
            ("/x/src/repro/core/result_schema.py", "schema_generator"),
            ("/x/src/repro/graph/schema_graph.py", "schema_generator"),
            ("/x/src/repro/text/index.py", "match"),
            ("/x/src/repro/relational/database.py", "storage"),
            ("/x/src/repro/storage/memory.py", "storage"),
            ("/x/src/repro/nlg/translator.py", "translate"),
            ("/x/src/repro/cache/lru.py", "cache"),
            ("/x/src/repro/core/engine.py", "engine"),
            ("/x/src/repro/core/answer.py", "engine"),
            ("/x/src/repro/service/service.py", "service"),
            ("/x/src/repro/obs/metrics.py", "observability"),
            ("/x/src/repro/datasets/movies.py", "engine"),  # catch-all
        ],
    )
    def test_stage_map(self, path, stage):
        assert classify_path(path) == stage

    def test_non_repro_paths_are_unclassified(self):
        assert classify_path("/usr/lib/python3/json/decoder.py") is None
        assert classify_path("tests/obs/test_profile.py") is None

    def test_windows_separators_normalize(self):
        assert (
            classify_path("C:\\src\\repro\\text\\index.py") == "match"
        )

    def test_rightmost_repro_marker_wins(self):
        # a checkout under /home/repro/ must not shadow the package dir
        assert (
            classify_path("/home/repro/src/repro/nlg/t.py") == "translate"
        )


class TestClassifyFrame:
    def test_innermost_repro_frame_names_the_stage(self):
        # stdlib leaf called from a (fake) engine frame: rolls up to
        # the repro caller
        stage = run_in_fake_file(
            "/fake/repro/core/database_generator.py",
            "def generate(probe):\n    return probe()\n",
            "generate",
            lambda: classify_frame(sys._getframe()),
        )
        assert stage == "database_generator"

    def test_idle_leaves_beat_the_stage_walk(self):
        # a frame whose leaf is threading...wait is parked, even when
        # repro frames sit below it on the stack
        stage = run_in_fake_file(
            "/fake/threading.py",
            "def wait(probe):\n    return probe()\n",
            "wait",
            lambda: classify_frame(sys._getframe(1)),
        )
        assert stage == "idle"

    def test_pure_runtime_stack_is_runtime(self):
        assert classify_frame(sys._getframe()) == "runtime"


class TestStackSampler:
    def test_busy_fake_engine_thread_is_attributed(self):
        stop = threading.Event()
        source = (
            "def spin(stop):\n"
            "    while not stop.is_set():\n"
            "        sum(range(200))\n"
        )
        namespace: dict = {}
        exec(
            compile(source, "/fake/repro/core/engine.py", "exec"),
            namespace,
        )
        worker = threading.Thread(
            target=namespace["spin"], args=(stop,), daemon=True
        )
        sampler = StackSampler(interval_s=0.001)
        worker.start()
        try:
            with sampler:
                stop.wait(0.15)
        finally:
            stop.set()
            worker.join(timeout=10)
            assert not worker.is_alive()
        report = sampler.breakdown()
        assert report["samples"] > 10
        assert report["stages"].get("engine", 0) > 0
        # the main thread was parked in Event.wait the whole time:
        # idle samples exist but are excluded from attribution
        assert report["stages"].get("idle", 0) > 0
        assert report["attributed_fraction"] > 0.9
        fractions = report["fractions"]
        assert "idle" not in fractions
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_lifecycle_and_validation(self):
        with pytest.raises(ValueError):
            StackSampler(interval_s=0.0)
        sampler = StackSampler(interval_s=0.01)
        sampler.start()
        with pytest.raises(RuntimeError):
            sampler.start()
        report = sampler.stop()
        assert set(report) == {
            "samples", "stages", "fractions", "attributed_fraction",
        }
        # stop is idempotent
        sampler.stop()

