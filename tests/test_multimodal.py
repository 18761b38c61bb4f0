"""Tests for the multimodal stages (resize / features / frame sampling)."""

import numpy as np
import pytest

from schisma_ray.sources import codec, image_table


@pytest.fixture(scope="module")
def images(ray_session):
    from schisma_ray.pipelines.validate_pipeline import read_images

    d = image_table.generate(500)
    return read_images(d)


def test_image_resize(images):
    from schisma_ray.stages.multimodal import ImageResize

    out = images.map_batches(
        ImageResize(target_w=16, target_h=16),
        batch_format="pyarrow",
        batch_size=128,
    ).to_pandas()
    ok = out[out["bytes"].notna()]
    assert len(ok) >= 490  # only the seeded truncated rows fail decode
    row = ok.iloc[0]
    pixels, fmt = codec.decode(row["bytes"])
    assert pixels.shape == (16, 16, 3)
    assert row["w"] == 16 and row["h"] == 16
    assert fmt == row["fmt"]


def test_image_features(images):
    from schisma_ray.stages.multimodal import ImageFeatures, features_of

    ds = images.map_batches(
        ImageFeatures(),
        batch_format="pyarrow",
        batch_size=128,
    )
    vecs = []
    for batch in ds.iter_batches(batch_format="pyarrow", batch_size=256):
        vecs.extend(v for v in batch["features"].to_pylist() if v is not None)
    assert len(vecs) >= 490
    vec = np.asarray(vecs[0])
    assert vec.shape == (14,)  # 3 means + 3 stds + 8 hist bins
    assert np.isfinite(vec).all()
    # deterministic: same pixels -> same features
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, (20, 20, 3), dtype=np.uint8)
    assert np.array_equal(features_of(px), features_of(px))


def test_frame_sample(images):
    from schisma_ray.stages.multimodal import frame_sample

    total = images.count()
    sampled = frame_sample(images, every_k=10)
    n = sampled.count()
    assert 0 < n < total
    # deterministic across runs
    assert frame_sample(images, every_k=10).count() == n


def test_scene_cut_detector(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from schisma_ray.sources import av_codec
    from schisma_ray.stages.multimodal import scene_cuts

    rng = np.random.default_rng(5)
    base1 = rng.integers(0, 256, (10, 12, 3), dtype=np.int16)
    base2 = rng.integers(0, 256, (10, 12, 3), dtype=np.int16)
    frames = []
    for _ in range(3):  # scene 1: jittered copies of base1
        j = rng.integers(-4, 5, base1.shape, dtype=np.int16)
        frames.append(np.clip(base1 + j, 0, 255).astype(np.uint8))
    for _ in range(2):  # scene 2 starts at index 3
        j = rng.integers(-4, 5, base2.shape, dtype=np.int16)
        frames.append(np.clip(base2 + j, 0, 255).astype(np.uint8))
    blob = av_codec.encode_video(frames, fps=10, fmt="png")
    t = pa.table({
        "video_id": pa.array(["v1", "v2"], pa.string()),
        "bytes": pa.array([blob, None], pa.binary()),  # null -> skipped
    })
    out = scene_cuts(rd.from_arrow(t)).to_pandas()
    assert list(out["video_id"]) == ["v1"]
    assert list(out["frame_idx"]) == [3]
    assert (out["diff_e6"] > 20_000_000).all()


def test_silence_run_detector(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from schisma_ray.sources import av_codec
    from schisma_ray.stages.multimodal import silence_runs

    W = 160
    sig = av_codec.synth_audio(99, duration_s=0.5)[:, 0].copy()
    sig[2 * W:4 * W] = 0          # planted run: windows 2..3
    sig[7 * W:8 * W] = 0          # planted run: window 7
    blob = av_codec.encode_audio(sig.astype(np.int16), 8000)
    t = pa.table({
        "audio_id": pa.array(["a", "b"], pa.string()),
        "bytes": pa.array([blob, b"bogus"], pa.binary()),  # b undecodable
    })
    out = silence_runs(rd.from_arrow(t), window=W).to_pandas()
    got = {(r.audio_id, r.win_start, r.win_end)
           for r in out.itertuples(index=False)}
    assert got == {("a", 2, 4), ("a", 7, 8)}
