"""An engine instance handed to the run pipeline is used as given.

The server once wrapped engine resolution in a per-signature engine pool;
the pool is gone, but the pass-through it promised is ``resolve_engine``'s
own: the sanitizer tests hand fault-injected engines straight to the
decomposed drivers, and an unregistered subclass must reach them unchanged.
"""

from __future__ import annotations

from repro.engine import ExecutionEngine, resolve_engine


class TestEnginePool:
    def test_engine_instances_pass_through_unchanged(self):
        class FakeEngine(ExecutionEngine):
            name = "fake"

            def create_communicator(self, size):  # pragma: no cover
                raise NotImplementedError

            def solve(self, problem, comm):  # pragma: no cover
                raise NotImplementedError

        engine = FakeEngine()
        assert resolve_engine(engine) is engine
        assert resolve_engine(engine, workers=3) is engine
