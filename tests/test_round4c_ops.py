"""Round-4 third batch: embedding-validity list checks, stratum
coverage gaps, FD group sizes, caption-conflict audit."""

import numpy as np
import pyarrow as pa
import ray.data as rd


def test_validate_list_column_validity_checks(ray_session):
    from schisma_ray.stages.struct_validate import validate_list_column
    from schisma_ray.stages.table_schema import finite_check

    t = pa.table({
        "vec_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "embedding": pa.array(
            [
                [0.5, -0.5, 1.0],          # clean
                [0.0, float("nan"), 1.0],  # NaN at idx 1
                [float("inf"), 0.0, 0.0],  # +inf at idx 0
                [0.0, 0.0, 0.0],           # zero vector
                [0.1, None, 0.2],          # null element at idx 1
                [0.1],                     # too short
                None,                      # null list -> no emission
            ],
            pa.list_(pa.float32()),
        ),
    })
    out = validate_list_column(
        rd.from_arrow(t).repartition(3),
        col="embedding", id_col="vec_id",
        element_checks=[finite_check()],
        min_len=2, max_len=4,
        forbid_null_elements=True, forbid_zero_vector=True,
    ).to_pandas()
    got = set(map(tuple, out[["vec_id", "path", "expected"]]
                  .itertuples(index=False)))
    assert got == {
        (2, "embedding.1", "finite"),
        (3, "embedding.0", "finite"),
        (4, "embedding", "non-zero vector"),
        (5, "embedding.1", "non-null element"),
        (6, "embedding", "length in [2, 4]"),
    }
    assert (out["code"] == "invalid").all()


def test_zero_vector_edge_cases(ray_session):
    from schisma_ray.stages.struct_validate import validate_list_column

    t = pa.table({
        "vec_id": pa.array([1, 2, 3, 4], pa.int64()),
        "embedding": pa.array(
            [
                [],                         # empty list: NOT a zero vector
                [None, None],               # all-null: zero vector
                [0.0, float("nan")],        # NaN counts as non-zero
                [0.0, -0.0],                # signed zero is still zero
            ],
            pa.list_(pa.float32()),
        ),
    })
    out = validate_list_column(
        rd.from_arrow(t), col="embedding", id_col="vec_id",
        forbid_zero_vector=True,
    ).to_pandas()
    assert sorted(out["vec_id"]) == [2, 4]


def test_coverage_gaps_bruteforce(ray_session):
    from schisma_ray.stages.profile import coverage_gaps

    t = pa.table({
        "fmt": pa.array(["png", "png", "jpeg", None, "png"], pa.string()),
        "b": pa.array([1, 2, 1, 1, None], pa.int64()),
    })
    out = coverage_gaps(
        rd.from_arrow(t).repartition(2),
        cols=["fmt", "b"],
        expected={"fmt": ["jpeg", "png"], "b": [1, 2]},
    ).to_pandas()
    got = set(map(tuple, out.itertuples(index=False)))
    # observed: (png,1) (png,2) (jpeg,1); null rows witness nothing
    assert got == {("jpeg", 2)}


def test_coverage_gaps_empty_observed(ray_session):
    from schisma_ray.stages.profile import coverage_gaps

    t = pa.table({
        "fmt": pa.array([None, None], pa.string()),
        "b": pa.array([1, 2], pa.int64()),
    })
    out = coverage_gaps(
        rd.from_arrow(t), cols=["fmt", "b"],
        expected={"fmt": ["png"], "b": [1]},
    ).to_pandas()
    assert set(map(tuple, out.itertuples(index=False))) == {("png", 1)}


def test_fd_violations_reports_group_size(ray_session):
    from schisma_ray.stages.profile import fd_violations

    t = pa.table({
        "k": pa.array(["a"] * 5 + ["b"] * 2, pa.string()),
        "v": pa.array(["x", "x", "y", "y", "z", "p", "p"], pa.string()),
    })
    out = fd_violations(
        rd.from_arrow(t).repartition(3), lhs="k", rhs="v"
    ).to_pandas()
    assert dict(zip(out["k"], out["n_rows"])) == {"a": 5}
    assert dict(zip(out["k"], out["n_rhs"])) == {"a": 3}


def test_pair_fidelity_bruteforce(ray_session):
    from schisma_ray.sources import codec
    from schisma_ray.stages.multimodal import PairFidelity

    rng = np.random.default_rng(3)
    px = rng.integers(0, 256, (16, 16, 3), np.uint8)
    identical = codec.encode(px, "png")
    lossy = codec.encode(px, "jpeg")          # >= 40 dB by codec design
    noisy = codec.encode(
        np.clip(px.astype(np.int64)
                + rng.integers(-60, 61, px.shape), 0, 255).astype(np.uint8),
        "png")
    other_shape = codec.encode(px[:8, :8], "png")

    t = pa.table({
        "image_id": pa.array(["same", "lossy", "noisy", "shape", "undec",
                              "caption"], pa.string()),
        "bytes_a": pa.array([identical] * 6, pa.binary()),
        "bytes_b": pa.array([identical, lossy, noisy, other_shape,
                             b"junk", identical], pa.binary()),
        "caption_a": pa.array(["c", "c", "c", "c", "c", "c"], pa.string()),
        "caption_b": pa.array(["c", "c", "c", "c", "c", "DIFFERENT"],
                              pa.string()),
    })
    out = (rd.from_arrow(t).repartition(2)
           .map_batches(PairFidelity(), batch_format="pyarrow")
           .to_pandas().set_index("image_id"))
    assert out.loc["same", "sse"] == 0 and out.loc["same", "ok"]
    assert out.loc["lossy", "psnr_ok"] and out.loc["lossy", "sse"] > 0
    assert not out.loc["noisy", "psnr_ok"]
    assert out.loc["shape", "sse"] == -1 and not out.loc["shape", "psnr_ok"]
    assert out.loc["undec", "sse"] == -1 and not out.loc["undec", "psnr_ok"]
    assert out.loc["caption", "psnr_ok"] and not out.loc["caption", "ok"]
    # integer threshold == float PSNR threshold on the lossy row
    pb, _ = codec.decode(lossy)
    assert (codec.psnr(px, pb) >= 40.0) == bool(out.loc["lossy", "psnr_ok"])


def test_pair_fidelity_threshold_exact():
    """10^4 * sse <= 255^2 * n is EXACTLY PSNR >= 40, at the boundary."""
    from schisma_ray.stages.multimodal import PairFidelity

    pf = PairFidelity()
    n = 10_000 * 3
    sse_edge = 65025 * n // 10_000          # MSE == 255^2/10^4 exactly
    assert pf.ratio * sse_edge <= 65025 * n          # boundary passes
    assert not (pf.ratio * (sse_edge + 1) <= 65025 * n)


def test_lm_trainer_scorer_char_coherence(ray_session):
    """Trainer keys == scorer keys on non-ascii text: a bigram seen in
    multi-byte training text must NOT score as unseen (the former
    byte-vs-char incoherence)."""
    from schisma_ray.stages.text import lm_score, train_char_bigram_lm

    model = train_char_bigram_lm(["héllo héllo héllo"])
    lut = dict(zip(model["bigram"].to_pylist(), model["lp_e6"].to_pylist()))
    floor = lut.pop("")
    assert "hé" in lut and "él" in lut      # char keys, not byte pairs
    assert all(len(b) == 2 for b in lut)    # no utf-8 byte artifacts

    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array(["héllo"])})
    out = lm_score(rd.from_arrow(t), model).to_pandas()
    want = sum(lut.get("héllo"[i:i + 2], floor) for i in range(4))
    assert int(out["lp_e6"][0]) == want
    assert want > 4 * floor                 # seen bigrams beat the floor


def test_corrupt_embeddings_fixture_deterministic(tmp_path):
    import pyarrow.parquet as pq

    from schisma_ray.sources.embedding_fixture import corrupt_embeddings

    base = pa.table({
        "vec_id": pa.array(range(200), pa.int64()),
        "embedding": pa.array(
            [[0.1 * (i % 7) + 0.05, 0.2, 0.3, 0.4, 0.5] for i in range(200)],
            pa.list_(pa.float32()),
        ),
    })
    pq.write_table(base, tmp_path / "embeddings.parquet")
    p1 = corrupt_embeddings(str(tmp_path))
    t1 = pq.read_table(p1)
    assert corrupt_embeddings(str(tmp_path)) == p1  # cache hit
    vecs = t1["embedding"].to_pylist()
    assert np.isnan(vecs[3][3])            # 3 % 97 == 3 -> NaN at 3 % 5
    assert vecs[5][0] == float("inf")      # 5 % 89 == 5 -> +inf at 5 % 5
    assert vecs[7][2] == float("-inf")     # 7 % 83 == 7 -> -inf at 7 % 5
    assert all(v == 0.0 for v in vecs[11])  # 11 % 79 == 11 -> zero vector
    assert vecs[13][3] is None             # 13 % 73 == 13 -> null at 13 % 5
    assert len(vecs[17]) == 3              # 17 % 71 == 17 -> truncated
    assert vecs[0] == vecs[0] and len(vecs[0]) == 5  # row 0 untouched
