"""Audio/video plumbing tests: codec roundtrips, actor-pool stages,
undecodable handling, true frame explosion."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from schisma_ray.sources import av_codec, codec


def test_audio_codec_roundtrip():
    s = av_codec.synth_audio(7, sample_rate=8000, duration_s=0.25, channels=2)
    data = av_codec.encode_audio(s, 8000)
    out, sr = av_codec.decode_audio(data)
    assert sr == 8000 and np.array_equal(out, s)
    for bad in (None, b"", b"XXXX" + data[4:], data[:10], data[:-4]):
        with pytest.raises(av_codec.AVCodecError):
            av_codec.decode_audio(bad)


def test_video_codec_roundtrip_and_sampling():
    rng = np.random.default_rng(3)
    frames = [rng.integers(0, 256, (12, 10, 3), dtype=np.uint8) for _ in range(9)]
    data = av_codec.encode_video(frames, fps=10, fmt="png")
    assert av_codec.decode_video_header(data) == (10, 9)
    # every_k=3 -> frames 0, 3, 6; png is lossless so pixels match
    got = list(av_codec.iter_video_frames(data, every_k=3))
    assert [g[0] for g in got] == [0, 3, 6]
    for fi, px, fmt in got:
        assert fmt == "png" and np.array_equal(px, frames[fi])
    with pytest.raises(av_codec.AVCodecError):
        list(av_codec.iter_video_frames(data[: len(data) // 2]))


def _audio_batch():
    rows = []
    for i in range(4):
        s = av_codec.synth_audio(i, sample_rate=8000, duration_s=0.2)
        rows.append((f"a{i}", av_codec.encode_audio(s, 8000), 8000, len(s)))
    # seeded defects: wrong sample_rate label, truncated payload
    rows[1] = (rows[1][0], rows[1][1], 44100, rows[1][3])
    rows[2] = (rows[2][0], rows[2][1][:12], rows[2][2], rows[2][3])
    return pa.table(
        {
            "audio_id": pa.array([r[0] for r in rows]),
            "bytes": pa.array([r[1] for r in rows], pa.binary()),
            "sample_rate": pa.array([r[2] for r in rows], pa.int32()),
            "n_samples": pa.array([r[3] for r in rows], pa.int32()),
        }
    )


def test_audio_stages(ray_session):
    import ray.data as rd

    from schisma_ray.stages.multimodal import AudioDecodeValidator, AudioFeatures

    ds = rd.from_arrow(_audio_batch())
    vio = ds.map_batches(
        AudioDecodeValidator(), batch_format="pyarrow"
    ).to_pandas()
    got = set(zip(vio["row_ref"], vio["path"]))
    assert got == {("a1", "sample_rate"), ("a2", "bytes")}

    def collect(dataset):
        # arrow iteration: nullable list<float> breaks pandas tensor
        # casting (documented pitfall, NOTES.md)
        parts = [
            b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
            for b in dataset.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        t = pa.concat_tables([p for p in parts if p.num_rows])
        return dict(zip(t["audio_id"].to_pylist(), t["features"].to_pylist()))

    by_id = collect(ds.map_batches(AudioFeatures(), batch_format="pyarrow"))
    assert by_id["a2"] is None  # undecodable -> null
    v0 = np.asarray(by_id["a0"], dtype=np.float32)
    assert len(v0) == 11 and abs(v0[0] - 0.2) < 1e-3  # duration feature
    assert 0.0 < v0[1] < 1.0  # rms in range
    # deterministic: same input -> same features
    by_id2 = collect(ds.map_batches(AudioFeatures(), batch_format="pyarrow"))
    assert np.array_equal(v0, np.asarray(by_id2["a0"], dtype=np.float32))


def test_video_frame_sampler(ray_session):
    import ray.data as rd

    from schisma_ray.stages.multimodal import VideoFrameSampler

    rng = np.random.default_rng(11)
    vids = []
    for v in range(3):
        frames = [rng.integers(0, 256, (8, 8, 3), dtype=np.uint8) for _ in range(7)]
        vids.append((f"v{v}", av_codec.encode_video(frames, fps=5, fmt="png")))
    vids.append(("bad", b"not a video"))
    ds = rd.from_arrow(
        pa.table(
            {
                "video_id": pa.array([v[0] for v in vids]),
                "bytes": pa.array([v[1] for v in vids], pa.binary()),
            }
        )
    )
    out = ds.map_batches(
        VideoFrameSampler(2), batch_format="pyarrow"
    ).to_pandas()
    # frames 0, 2, 4, 6 per good video; bad container contributes nothing
    assert sorted(set(out["video_id"])) == ["v0", "v1", "v2"]
    assert sorted(out[out["video_id"] == "v0"]["frame_idx"]) == [0, 2, 4, 6]
    row = out.iloc[0]
    px, fmt = codec.decode(row["bytes"])
    assert px.shape == (8, 8, 3) and fmt == "png"
