"""Property tests for round-3 kernels, brute-forced against definitional
implementations on randomized inputs (seeded Ray-operator equivalences
kept to a few fixed seeds like test_round2_property).

* segmented as-of resolve == pandas merge_asof per random event streams
* grouped_rolling_mean == pandas groupby.rolling (nulls included)
* pack_sequences arithmetic == a plain Python cumsum
* hamming banding recall: EVERY pair within distance 3 is found
* funnel counts == a per-user brute-force scan
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_asof_matches_merge_asof(ray_session, exchange_width, seed):
    rng = np.random.default_rng(seed)
    n_l, n_r = 60, 40
    left = pd.DataFrame({
        "user_id": rng.integers(0, 8, n_l),
        "ts": rng.integers(0, 10_000, n_l) * 1_000_000,
        "event_id": np.arange(n_l),
    })
    right = pd.DataFrame({
        "user_id": rng.integers(0, 8, n_r),
        "ts": rng.integers(0, 10_000, n_r) * 1_000_000,
    })
    from schisma_ray.stages.asof import asof_join_latest

    exchange_width(4)
    got = (
        asof_join_latest(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            key="user_id",
        )
        .to_pandas()
        .set_index("row_id")["asof_epoch_s"]
        .sort_index()
    )
    exp = pd.merge_asof(
        left.sort_values("ts", kind="stable"),
        right.sort_values("ts", kind="stable").assign(rts=lambda d: d["ts"]),
        on="ts", by="user_id", direction="backward",
    ).set_index("event_id")["rts"].sort_index()
    for eid in left["event_id"]:
        e = exp.loc[eid]
        g = got.loc[eid]
        if pd.isna(e):
            assert pd.isna(g)
        else:
            assert g == e // 1_000_000


@pytest.mark.parametrize("seed", [3, 4])
def test_rolling_mean_matches_pandas(ray_session, exchange_width, seed):
    rng = np.random.default_rng(seed)
    n = 80
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 6, n),
        "ts": rng.choice(np.arange(n) * 1_000_000, n, replace=False),
        "value": np.where(rng.random(n) < 0.15, np.nan,
                          np.round(rng.random(n) * 100, 2)),
    })
    from schisma_ray.stages.window import grouped_rolling_mean

    exchange_width(4)
    got = (
        grouped_rolling_mean(rd.from_pandas(df).repartition(3), window=3)
        .to_pandas()
        .set_index("event_id")["rolling_mean"]
        .sort_index()
    )
    exp = (
        df.sort_values(["user_id", "ts", "event_id"])
        .groupby("user_id")["value"]
        .rolling(3, min_periods=1)
        .mean()
        .round(6)
        .reset_index(level=0, drop=True)
    )
    exp.index = df.sort_values(["user_id", "ts", "event_id"])["event_id"].to_numpy()
    exp = exp.sort_index()
    for eid in df["event_id"]:
        e, g = exp.loc[eid], got.loc[eid]
        if pd.isna(e):
            assert pd.isna(g)
        else:
            assert g == pytest.approx(e, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=20),
       st.integers(min_value=2, max_value=17))
def test_pack_arithmetic_brute_force(token_counts, seq_len):
    # pure arithmetic check of the assignment formulas
    start = 0
    for n in token_counts:
        pack = start // seq_len
        off = start % seq_len
        spans = (start + n - 1) // seq_len - pack + 1
        # definitional: walk the tokens
        first = start // seq_len
        last = (start + n - 1) // seq_len
        assert pack == first and spans == last - first + 1
        assert 0 <= off < seq_len
        start += n


@pytest.mark.parametrize("seed", [7, 8])
def test_hamming_banding_full_recall(ray_session, seed):
    """Pigeonhole guarantee: every pair within Hamming distance 3 must
    surface (4 bands x 16 bits, <=3 flipped bits leave >=1 band intact)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-(2**63), 2**63 - 1, size=12, dtype=np.int64)
    sigs, ids = [], []
    for i, b in enumerate(base):
        sigs.append(b)
        ids.append(2 * i)
        flip = rng.choice(64, size=rng.integers(0, 4), replace=False)
        v = np.int64(base[i]).view(np.uint64)
        for f in flip:
            v = v ^ (np.uint64(1) << np.uint64(f))
        sigs.append(np.int64(v.astype(np.uint64).view(np.int64)))
        ids.append(2 * i + 1)
    tbl = pa.table({"id": pa.array(ids, pa.int64()),
                    "sig": pa.array([int(x) for x in sigs], pa.int64())})
    from schisma_ray.stages.dedup import _hamming64, hamming_near_dup_pairs

    got = hamming_near_dup_pairs(
        rd.from_arrow(tbl), sig_col="sig", id_col="id", max_hamming=3
    ).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    # brute force ALL pairs
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            d = _hamming64(int(sigs[i]), int(sigs[j]))
            if d <= 3:
                assert (ids[i], ids[j]) in got_pairs
            else:
                assert (ids[i], ids[j]) not in got_pairs


@pytest.mark.parametrize("seed", [11])
def test_funnel_matches_brute_force(ray_session, exchange_width, seed):
    rng = np.random.default_rng(seed)
    n = 120
    steps = ("view", "click", "purchase")
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 15, n),
        "ts": rng.choice(np.arange(10 * n) * 1_000_000, n, replace=False),
        "event_type": rng.choice(["view", "click", "purchase", "error"], n),
    })
    from schisma_ray.stages.window import funnel_counts

    exchange_width(4)
    got = (
        funnel_counts(rd.from_pandas(df).repartition(4), steps)
        .to_pandas()
        .set_index("step")["users"]
    )
    exp = {1: 0, 2: 0, 3: 0}
    for _, g in df.groupby("user_id"):
        g = g.sort_values("ts")
        t_prev = None
        for i, s in enumerate(steps):
            sub = g[g["event_type"] == s]
            if t_prev is not None:
                sub = sub[sub["ts"] > t_prev]
            if len(sub) == 0:
                break
            t_prev = sub["ts"].min()
            exp[i + 1] += 1
    for i in (1, 2, 3):
        assert got.loc[i] == exp[i]


def _brute_jaccard_pairs(texts: dict, threshold: float, shingle: int = 3):
    from schisma_ray.stages.dedup import jaccard

    out = set()
    ids = sorted(texts)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if jaccard(texts[a], texts[b], shingle) >= threshold:
                out.add((a, b))
    return out


@pytest.mark.parametrize("seed,threshold", [(0, 0.8), (1, 0.8), (2, 0.6)])
def test_ngram_jaccard_matches_bruteforce(ray_session, exchange_width, seed,
                                          threshold):
    """Prefix-filtered AllPairs is EXACT: on random corpora with planted
    near-dups, the distributed pair set equals the all-pairs brute force
    (100% recall AND precision — no sketch, no probabilistic bound)."""
    from schisma_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(seed)
    vocab = [f"w{i}" for i in range(30)]
    texts = {}
    for d in range(60):
        texts[d] = " ".join(rng.choice(vocab, size=rng.integers(4, 20)))
    # planted near-dups: copy with a small tail edit
    for d in range(60, 75):
        src = texts[int(rng.integers(0, 60))]
        words = src.split()
        if rng.random() < 0.5 and len(words) > 4:
            words = words[:-1]
        texts[d] = " ".join(words)
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(sorted(texts), pa.int64()),
                  "text": pa.array([texts[k] for k in sorted(texts)])})
    ).repartition(4)
    exchange_width(4)
    got = ngram_jaccard_pairs(
        ds, "text", "doc_id", threshold=threshold
    ).to_pandas()
    got_pairs = set(zip(got["a"], got["b"]))
    assert got_pairs == _brute_jaccard_pairs(texts, threshold)


def test_ngram_jaccard_dataset_chain_parity(ray_session, exchange_width,
                                           monkeypatch):
    """Both sides of every size switch (pair emission and verification
    forced per bucket) return the driver side's pair set."""
    from schisma_ray.stages import _bucket, dedup
    from schisma_ray.stages.dedup import ngram_jaccard_pairs

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(20)]
    texts = {d: " ".join(rng.choice(vocab, size=12)) for d in range(40)}
    for d in range(40, 50):
        texts[d] = texts[d - 40]
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(sorted(texts), pa.int64()),
                  "text": pa.array([texts[k] for k in sorted(texts)])})
    ).repartition(3)
    exchange_width(4)
    drv = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.8).to_pandas()
    monkeypatch.setattr(_bucket, "_DRIVER_FOLD_ROWS", 0)
    monkeypatch.setattr(dedup, "_VERIFY_DRIVER_PAIRS", 0)
    chain = ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.8).to_pandas()
    drv_pairs = set(zip(drv["a"], drv["b"]))
    assert drv_pairs and set(zip(chain["a"], chain["b"])) == drv_pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_line_dedup_matches_bruteforce_random(ray_session, seed,
                                             exchange_width):
    """Random corpora with a small line vocabulary (forcing heavy
    cross-doc and intra-doc collisions): line_dedup == the sequential
    first-occurrence scan, at several bucket counts."""
    from schisma_ray.stages.lines import line_dedup

    rng = np.random.default_rng(seed)
    vocab = [f"line {i} text" for i in range(12)]
    docs = {
        did: "\n".join(rng.choice(vocab, size=rng.integers(1, 8)))
        for did in range(25)
    }
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})

    seen, want = set(), {}
    for did in sorted(docs):
        lines = docs[did].split("\n")
        kept = [ln for ln in lines if ln not in seen and not seen.add(ln)]
        if kept:
            want[did] = ("\n".join(kept), len(kept), len(lines))

    exchange_width(5)
    out = line_dedup(
        rd.from_arrow(tbl).repartition(4)
    ).to_pandas()
    got = {int(r.doc_id): (r.text, int(r.n_kept), int(r.n_total))
           for r in out.itertuples()}
    assert got == want


@pytest.mark.parametrize("seed", [0, 1])
def test_concat_chunks_matches_bruteforce_random(ray_session, exchange_width,
                                                 seed):
    from schisma_ray.stages.corpus import concat_chunks

    rng = np.random.default_rng(seed)
    docs = {
        did: " ".join(f"t{did}_{j}" for j in range(rng.integers(1, 40)))
        for did in range(20)
    }
    tbl = pa.table({"doc_id": pa.array(sorted(docs), pa.int64()),
                    "text": pa.array([docs[k] for k in sorted(docs)])})
    stream = []
    for did in sorted(docs):
        stream.extend(docs[did].split())
        stream.append("<|eos|>")
    C = int(rng.integers(5, 40))
    want = {k: " ".join(stream[k * C:(k + 1) * C])
            for k in range((len(stream) + C - 1) // C)}
    exchange_width(4)
    out = concat_chunks(
        rd.from_arrow(tbl).repartition(6), chunk_tokens=C
    ).to_pandas()
    got = dict(zip(out["chunk_id"].astype(int), out["text"]))
    assert got == want


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_event_time_dedup_matches_bruteforce_random(ray_session, seed,
                                                    exchange_width):
    from schisma_ray.stages.window import event_time_dedup

    rng = np.random.default_rng(seed)
    n = 120
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 6, n),
        "event_type": rng.choice(["a", "b"], n),
        "ts_i": rng.integers(0, 3000, n) * 1_000_000,
    })
    gap_s = 600
    # brute force: lag over (ts, event_id) within key
    want = set()
    for (_, _), g in df.groupby(["user_id", "event_type"]):
        g = g.sort_values(["ts_i", "event_id"])
        prev = None
        for r in g.itertuples():
            if prev is None or r.ts_i - prev > gap_s * 1_000_000:
                want.add(r.event_id)
            prev = r.ts_i
    t = pa.table({
        "event_id": pa.array(df["event_id"], pa.int64()),
        "user_id": pa.array(df["user_id"], pa.int64()),
        "event_type": pa.array(df["event_type"]),
        "ts": pa.array(df["ts_i"], pa.timestamp("us")),
    })
    exchange_width(4)
    out = event_time_dedup(
        rd.from_arrow(t).repartition(5), min_gap_s=gap_s
    ).to_pandas()
    assert set(out["event_id"]) == want


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet=" abcdefgthe.!?", min_size=0, max_size=60),
                min_size=1, max_size=8))
def test_gopher_stats_values_bruteforce(texts):
    import re

    import pyarrow as pa

    from schisma_ray.stages.text import GOPHER_STOPWORDS, gopher_stats_values

    arr = pa.array(texts, pa.string())
    words, mean_e6, n_stop = gopher_stats_values(arr)
    for i, t in enumerate(texts):
        ws = re.findall(r"\S+", t)
        assert words[i] == len(ws)
        if ws:
            chars = sum(len(w) for w in ws)
            import math
            assert mean_e6[i] == math.floor(chars * 1e6 / len(ws) + 0.5)
        else:
            assert mean_e6[i] == 0
        n = sum(1 for sw in GOPHER_STOPWORDS
                if re.search(rf"\b{sw}\b", t))
        assert n_stop[i] == n


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4000), st.integers(1, 4000)),
                min_size=1, max_size=30))
def test_aspect_bucket_distance_bruteforce(dims):
    import math

    from schisma_ray.stages.multimodal import DEFAULT_AR_BUCKETS

    b_e6 = [math.floor(bw * 1e6 / bh + 0.5) for bw, bh in DEFAULT_AR_BUCKETS]
    for w, h in dims:
        ar = math.floor(w * 1e6 / h + 0.5)
        dists = [abs(ar - b) for b in b_e6]
        want = dists.index(min(dists))
        # numpy argmin must agree (first-min tie-break)
        import numpy as np
        got = int(np.argmin(np.abs(np.int64(ar) - np.asarray(b_e6, np.int64))))
        assert got == want
