import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO))
sys.path.insert(0, str(REPO / "tests"))

os.environ.setdefault("RAY_DEDUP_LOGS", "0")


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (local, 4 CPUs)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
    except Exception:
        pass
    yield
    ray.shutdown()


@pytest.fixture
def exchange_width(monkeypatch):
    """Set the keyed exchange's width (``_bucket.NUM_BUCKETS``) for one
    test: ``exchange_width(n)`` routes every exchange whose plan is built
    after the call into ``n`` buckets, so a small input puts many keys in
    one bucket. The width is read when the plan is built, so it reaches
    the Ray tasks."""
    from schisma_ray.stages import _bucket

    def set_width(n: int) -> None:
        monkeypatch.setattr(_bucket, "NUM_BUCKETS", n)

    return set_width


@pytest.fixture(scope="session")
def sf_dir():
    return "/root/testdata/sf0.001"
