"""Cached tables publish through a temp path of their own: concurrent
writers of the same table never delete each other's half-written
files, a writer that loses the final rename keeps the winner's
complete copy, and a killed writer's partial file is never returned."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

GENERATE = """
import sys, time
sys.path.insert(0, {repo!r})
from schisma_ray.sources import image_table
time.sleep(max(0.0, {start} - time.time()))
out = image_table.generate(3000, seed=7)
print(out)
"""


def test_two_processes_generate_the_same_table(tmp_path):
    start = time.time() + 3.0  # both processes begin writing together
    env = {**os.environ, "SCHISMA_RAY_CACHE": str(tmp_path)}
    code = GENERATE.format(repo=str(REPO), start=start)
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
             for _ in range(2)]
    results = [p.communicate(timeout=300) for p in procs]
    for p, (out, err) in zip(procs, results):
        assert p.returncode == 0, err[-2000:]
    outs = {out.strip() for out, _ in results}
    assert len(outs) == 1
    table = Path(outs.pop())
    assert (table / "_SUCCESS").exists()
    assert sorted(p.name for p in (table / "images").iterdir())
    # no temp dir survives, whichever writer won
    assert [p.name for p in tmp_path.iterdir()] == [table.name]


def test_lost_rename_keeps_the_winner(tmp_path):
    from schisma_ray.sources.image_table import publish_dir

    out = tmp_path / "t"
    out.mkdir()
    (out / "_SUCCESS").touch()
    mine = tmp_path / "t.tmp-1"
    mine.mkdir()
    (mine / "part").write_text("x")
    publish_dir(mine, out)  # another writer won: no error
    assert sorted(p.name for p in out.iterdir()) == ["_SUCCESS"]

    half = tmp_path / "h"
    half.mkdir()
    (half / "part").write_text("partial, no _SUCCESS")
    other = tmp_path / "h.tmp-1"
    other.mkdir()
    (other / "part").write_text("x")
    with pytest.raises(OSError):
        publish_dir(other, half)  # a partial directory is not a winner


KILLED_WRITE = """
import os, signal, sys
sys.path.insert(0, {repo!r})
from schisma_ray.sources import image_table

def build(tmp):
    tmp.write_bytes(b"the first half of a parquet file")
    os.kill(os.getpid(), signal.SIGKILL)

image_table.cached("model/artifact.parquet", build)
"""


def test_a_killed_write_is_never_returned(tmp_path, monkeypatch):
    """``image_table.cached``: a writer killed mid-build leaves only its
    temporary file, and the next call builds the entry again."""
    import signal

    from schisma_ray.sources import image_table

    env = {**os.environ, "SCHISMA_RAY_CACHE": str(tmp_path)}
    killed = subprocess.run(
        [sys.executable, "-c", KILLED_WRITE.format(repo=str(REPO))],
        env=env, capture_output=True, timeout=120)
    assert killed.returncode == -signal.SIGKILL
    left = [p.name for p in (tmp_path / "model").iterdir()]
    assert len(left) == 1 and left[0] != "artifact.parquet"

    monkeypatch.setattr(image_table, "CACHE_ROOT", tmp_path)
    out = image_table.cached("model/artifact.parquet",
                             lambda tmp: tmp.write_bytes(b"complete"))
    assert out == tmp_path / "model" / "artifact.parquet"
    assert out.read_bytes() == b"complete"


def test_a_failed_build_publishes_nothing(tmp_path, monkeypatch):
    from schisma_ray.sources import image_table

    monkeypatch.setattr(image_table, "CACHE_ROOT", tmp_path)

    def build(tmp):
        tmp.mkdir()
        (tmp / "part.parquet").write_bytes(b"partial")
        raise RuntimeError("writer failed")

    with pytest.raises(RuntimeError):
        image_table.cached("fixture_dir", build)
    assert list(tmp_path.iterdir()) == []
    out = image_table.cached("fixture_dir", lambda tmp: tmp.mkdir())
    assert out.is_dir()
