"""CLI smoke tests. They call ``cli.main`` in this process against the
session's Ray cluster, which ``main`` leaves running; one test runs
``python -m schisma_ray.cli`` as a subprocess that starts and stops its
own Ray session."""

import contextlib
import io
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _cluster(ray_session):
    """Every CLI call joins the session's cluster instead of starting one."""


def _run(*args):
    """``main(args)`` with its exit code and captured output, as a
    subprocess would report them."""
    from schisma_ray.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["--num-cpus", "4", *args])
        except SystemExit as ex:  # argparse
            code = ex.code
        except Exception:
            traceback.print_exc()
            code = 1
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def test_cli_module_runs_with_its_own_ray_session(sf_dir):
    env = {k: v for k, v in os.environ.items() if k != "RAY_ADDRESS"}
    res = subprocess.run(
        [sys.executable, "-m", "schisma_ray.cli", "--num-cpus", "1", "infer",
         "--table", f"{sf_dir}/events.parquet"],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr[-2000:]
    lit = json.loads(res.stdout.strip().splitlines()[-1])
    assert lit["event_id"] == "BigInt"


def test_cli_generate_validate_report(tmp_path):
    gen = _run("generate", "--rows", "1500")
    assert gen.returncode == 0, gen.stderr[-2000:]
    table_dir = gen.stdout.strip().splitlines()[-1]
    out = tmp_path / "vio"
    val = _run("validate", "--table", table_dir, "--out", str(out), "--resumable")
    assert val.returncode == 0, val.stderr[-2000:]
    assert json.loads(val.stdout.strip().splitlines()[-1])["partitions_run"] >= 1
    rep = _run("report", "--out", str(out))
    assert rep.returncode == 0
    records = [json.loads(line) for line in rep.stdout.strip().splitlines()]
    assert records and all("violation_counts" in r for r in records)
    # resume: second run does nothing
    val2 = _run("validate", "--table", table_dir, "--out", str(out), "--resumable")
    assert json.loads(val2.stdout.strip().splitlines()[-1])["partitions_run"] == 0


def test_cli_infer():
    res = _run("infer", "--table", "/root/testdata/sf0.001/events.parquet")
    assert res.returncode == 0, res.stderr[-2000:]
    lit = json.loads(res.stdout.strip().splitlines()[-1])
    assert lit["event_type"] == "String"
    assert lit["value"] == "Number"
    assert lit["event_id"] == "BigInt"

    import ray

    assert ray.is_initialized()  # main stops only a session it started


def test_cli_prepare(tmp_path):
    out = tmp_path / "chunks"
    res = _run(
        "prepare", "--docs", "/root/testdata/sf0.001/documents.parquet",
        "--out", str(out), "--langs", "en", "--cap-per-source", "5",
        "--chunk-size", "100", "--chunk-stride", "80",
    )
    assert res.returncode == 0, res.stderr[-2000:]
    info = json.loads(res.stdout.strip().splitlines()[-1])
    assert info["chunks_written"] > 0
    import pyarrow.dataset as pads

    t = pads.dataset(str(out)).to_table()
    assert sorted(t.column_names) == ["chunk_idx", "chunk_text", "doc_id"]
    assert all(len(c) <= 100 for c in t["chunk_text"].to_pylist())


def _write_commit(out_dir, pid, violations):
    d = Path(out_dir) / "_commits"
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{pid}.json").write_text(json.dumps({
        "partition_id": pid,
        "input_rows": 100,
        "row_count": sum(violations.values()),
        "violation_counts": violations,
    }))


def test_cli_report_compare_to(tmp_path, capsys):
    """--compare-to: REGRESSED / MISSING fail the gate; STABLE /
    IMPROVED / NEW pass (in-process — the report path never inits Ray)."""
    from schisma_ray.cli import main

    prev, cur = tmp_path / "prev", tmp_path / "cur"
    _write_commit(prev, "p0", {"bad_w": 3})
    _write_commit(prev, "p1", {"bad_w": 5, "bad_fmt": 1})
    _write_commit(prev, "p2", {"bad_w": 2})
    _write_commit(cur, "p0", {"bad_w": 3})              # STABLE
    _write_commit(cur, "p1", {"bad_w": 4})              # IMPROVED (6 -> 4)
    _write_commit(cur, "p3", {"bad_w": 9})              # NEW
    # p2 vanished -> MISSING

    rc = main(["report", "--out", str(cur), "--compare-to", str(prev)])
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    trends = {r["partition_id"]: r["trend"] for r in lines}
    assert trends == {"p0": "STABLE", "p1": "IMPROVED", "p3": "NEW",
                      "p2": "MISSING"}
    assert rc == 1  # MISSING is lost coverage -> fail

    # replace the missing partition; p1 now regresses
    _write_commit(cur, "p2", {"bad_w": 2})
    assert main(["report", "--out", str(cur), "--compare-to", str(prev)]) == 0
    capsys.readouterr()
    _write_commit(cur, "p1", {"bad_w": 7})
    rc = main(["report", "--out", str(cur), "--compare-to", str(prev)])
    lines = [json.loads(s) for s in capsys.readouterr().out.strip().splitlines()]
    p1 = next(r for r in lines if r["partition_id"] == "p1")
    assert p1["trend"] == "REGRESSED" and p1["violations_prev"] == 6
    assert rc == 1


def test_cli_prepare_sharded(tmp_path):
    out = tmp_path / "chunks"
    res = _run(
        "prepare", "--docs", "/root/testdata/sf0.001/documents.parquet",
        "--out", str(out), "--langs", "en", "--chunk-size", "100",
        "--chunk-stride", "80", "--shards", "4",
    )
    assert res.returncode == 0, res.stderr[-2000:]
    info = json.loads(res.stdout.strip().splitlines()[-1])
    assert info["chunks_written"] > 0
    dirs = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert dirs and all(d.startswith("shard=") for d in dirs)
    import pyarrow.dataset as pads

    t = pads.dataset(str(out), partitioning="hive").to_table()
    assert t.num_rows == info["chunks_written"]
    # sharding is md5-deterministic: same doc never splits across shards
    df = t.select(["doc_id", "shard"]).to_pandas()
    assert (df.groupby("doc_id")["shard"].nunique() == 1).all()


def test_cli_report_compare_to_missing_dir(tmp_path, capsys):
    """A mistyped --compare-to path must FAIL the gate, not pass as
    all-NEW."""
    from schisma_ray.cli import main

    cur = tmp_path / "cur"
    _write_commit(cur, "p0", {"bad_w": 1})
    rc = main(["report", "--out", str(cur),
               "--compare-to", str(tmp_path / "typo")])
    assert rc == 2
    assert "_commits" in capsys.readouterr().err


def test_cli_curate(tmp_path):
    gen = _run("generate", "--rows", "1200")
    table_dir = gen.stdout.strip().splitlines()[-1]
    out = tmp_path / "survivors"
    res = _run("curate", "--table", table_dir, "--out", str(out))
    assert res.returncode == 0, res.stderr[-2000:]
    info = json.loads(res.stdout.strip().splitlines()[-1])
    assert 0 < info["survivors"] < 1200


def test_cli_validate_stats_out(tmp_path):
    gen = _run("generate", "--rows", "1500")
    assert gen.returncode == 0, gen.stderr[-2000:]
    table_dir = gen.stdout.strip().splitlines()[-1]
    out = tmp_path / "vio"
    stats = tmp_path / "stats.txt"
    val = _run("validate", "--table", table_dir, "--out", str(out),
               "--stats-out", str(stats))
    assert val.returncode == 0, val.stderr[-2000:]
    text = stats.read_text()
    # the executed-plan report names the pipeline's operators
    assert "ReadParquet" in text or "Read" in text
    assert "MapBatches" in text


def test_cli_profile():
    res = _run("profile", "--table", "/root/testdata/sf0.001/orders.parquet",
               "--columns", "o_orderkey,o_totalprice,o_orderstatus",
               "--cooccurrence")
    assert res.returncode == 0, res.stderr[-2000:]
    lines = [json.loads(x) for x in res.stdout.strip().splitlines()
             if x.startswith("{")]
    cols = {r["column"]: r for r in lines if "column" in r}
    assert cols["o_orderkey"]["n_rows"] == 1500
    assert cols["o_orderkey"]["min"] == 0
    assert cols["o_totalprice"]["null_rate"] == 0.0
    assert "std" in cols["o_totalprice"]          # float column gets Std
    assert "std" not in cols["o_orderkey"]        # int column skips Std
    assert "min" not in cols["o_orderstatus"]     # non-numeric: nulls only
    pairs = [r for r in lines if r.get("pair")]
    assert len(pairs) == 3
    assert all(p["n_both_null"] == 0 for p in pairs)


def test_cli_run_list_and_query(tmp_path):
    ls = _run("run", "--list")
    assert ls.returncode == 0, ls.stderr[-2000:]
    names = dict(line.split("\t") for line in ls.stdout.strip().splitlines())
    assert len(names) >= 200
    assert names["benford_totalprice"] == "oracle"

    res = _run("run", "--query", "benford_totalprice",
               "--sf", "/root/testdata/sf0.001")
    assert res.returncode == 0, res.stderr[-2000:]
    rows = [json.loads(x) for x in res.stdout.strip().splitlines()
            if x.startswith("{")]
    assert len(rows) == 9 and rows[0]["digit"] == 1

    out = tmp_path / "vd.parquet"
    res2 = _run("run", "--query", "event_volume_drift",
                "--sf", "/root/testdata/sf0.001", "--out", str(out))
    assert res2.returncode == 0, res2.stderr[-2000:]
    assert json.loads(res2.stdout.strip().splitlines()[-1])["rows"] == 5

    bad = _run("run", "--query", "nope_not_real")
    assert bad.returncode == 2


def test_cli_validate_incremental_new_shard(tmp_path):
    import shutil

    gen = _run("generate", "--rows", "1500")
    assert gen.returncode == 0, gen.stderr[-2000:]
    src = Path(gen.stdout.strip().splitlines()[-1])
    table = tmp_path / "table"
    shutil.copytree(src, table)
    out = tmp_path / "vio"
    v1 = _run("validate", "--table", str(table), "--out", str(out),
              "--resumable", "--files-per-partition", "1")
    assert v1.returncode == 0, v1.stderr[-2000:]
    n1 = json.loads(v1.stdout.strip().splitlines()[-1])["partitions_run"]
    assert n1 >= 1

    # a NEW shard lands in the table dir: only its partition may run
    files = sorted((table / "images").glob("*.parquet"))
    shutil.copy(files[0], table / "images" / "part-zz-new.parquet")
    v2 = _run("validate", "--table", str(table), "--out", str(out),
              "--resumable", "--files-per-partition", "1")
    assert v2.returncode == 0, v2.stderr[-2000:]
    assert json.loads(v2.stdout.strip().splitlines()[-1])["partitions_run"] == 1


def test_cli_diff(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    old = tmp_path / "old.parquet"
    new = tmp_path / "new.parquet"
    pq.write_table(pa.table({
        "id": pa.array([1, 2, 3], pa.int64()),
        "v": pa.array(["a", "b", "c"], pa.string()),
    }), old)
    pq.write_table(pa.table({
        "id": pa.array([2, 3, 4], pa.int64()),      # 1 removed, 4 added
        "v": pa.array(["b", "CHANGED", "d"], pa.string()),
    }), new)
    res = _run("diff", "--old", str(old), "--new", str(new), "--key", "id")
    assert res.returncode == 0, res.stderr[-2000:]
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    assert (summary["added"], summary["removed"], summary["changed"]) == (1, 1, 1)
    assert summary["columns"] == ["v"]

    out = tmp_path / "diff.parquet"
    res2 = _run("diff", "--old", str(old), "--new", str(new), "--key", "id",
                "--out", str(out))
    assert res2.returncode == 0, res2.stderr[-2000:]
    s2 = json.loads(res2.stdout.strip().splitlines()[-1])
    assert (s2["added"], s2["removed"], s2["changed"]) == (1, 1, 1)


def test_cli_prepare_classifier(tmp_path):
    from schisma_ray.pipelines.catalog import _word_classifier_file

    sf = "/root/testdata/sf0.001"
    model = str(_word_classifier_file(sf))
    out = tmp_path / "chunks"
    res = _run("prepare", "--docs", f"{sf}/documents.parquet",
               "--out", str(out), "--classifier-model", model,
               "--min-classifier-e6", "0")
    assert res.returncode == 0, res.stderr[-2000:]
    n_clf = json.loads(res.stdout.strip().splitlines()[-1])["chunks_written"]
    out2 = tmp_path / "chunks_plain"
    res2 = _run("prepare", "--docs", f"{sf}/documents.parquet",
                "--out", str(out2))
    n_plain = json.loads(res2.stdout.strip().splitlines()[-1])["chunks_written"]
    assert 0 < n_clf < n_plain


def test_cli_diff_guards_and_stable_tally(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    old = tmp_path / "old.parquet"
    new = tmp_path / "new.parquet"
    pq.write_table(pa.table({
        "id": pa.array([1, 2], pa.int64()),
        "v": pa.array(["a", "b"], pa.string()),
    }), old)
    pq.write_table(pa.table({
        "id": pa.array([1, 3], pa.int64()),
        "v": pa.array(["a", "c"], pa.string()),
    }), new)
    # unknown / empty column entries fail fast with exit 2
    bad = _run("diff", "--old", str(old), "--new", str(new), "--key", "id",
               "--columns", "v,")
    assert bad.returncode == 2 and "not shared" in bad.stderr
    # reusing --out must not double-count stale files from a prior run
    out = tmp_path / "d"
    r1 = _run("diff", "--old", str(old), "--new", str(new), "--key", "id",
              "--out", str(out))
    r2 = _run("diff", "--old", str(old), "--new", str(new), "--key", "id",
              "--out", str(out))
    s1 = json.loads(r1.stdout.strip().splitlines()[-1])
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert (s1["added"], s1["removed"]) == (1, 1)
    assert (s2["added"], s2["removed"]) == (1, 1)


def test_cli_prepare_classifier_threshold_requires_model(tmp_path):
    res = _run("prepare", "--docs",
               "/root/testdata/sf0.001/documents.parquet",
               "--out", str(tmp_path / "o"), "--min-classifier-e6", "5")
    assert res.returncode == 2
    assert "--classifier-model" in res.stderr


def test_cli_prepare_resumable(tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = tmp_path / "docs"
    docs.mkdir()
    for frag in range(2):
        ids = list(range(frag * 8, frag * 8 + 8))
        pq.write_table(
            pa.table({
                "doc_id": pa.array(ids, pa.int64()),
                "text": pa.array(
                    [f"a perfectly fine english document number {i % 4} "
                     "with plenty of words" for i in ids], pa.string()),
                "lang": pa.array(["en"] * 8, pa.string()),
                "source": pa.array(["web"] * 8, pa.string()),
            }),
            docs / f"part-{frag:02d}.parquet",
        )
    out = tmp_path / "out"
    res = _run("prepare", "--docs", str(docs), "--out", str(out),
               "--resumable", "--files-per-partition", "1",
               "--min-quality", "0.2", "--chunk-size", "40",
               "--chunk-stride", "30")
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout.strip().splitlines()[-1])["partitions_run"] == 2
    assert (out / "_plan" / "plan.json").exists()
    # resume: nothing left to run
    res2 = _run("prepare", "--docs", str(docs), "--out", str(out),
                "--resumable", "--files-per-partition", "1",
                "--min-quality", "0.2", "--chunk-size", "40",
                "--chunk-stride", "30")
    assert json.loads(res2.stdout.strip().splitlines()[-1])["partitions_run"] == 0
    # corpus-rewrite modes refuse loudly
    bad = _run("prepare", "--docs", str(docs), "--out", str(tmp_path / "x"),
               "--resumable", "--line-dedup")
    assert bad.returncode == 2
    assert "--line-dedup" in bad.stderr


def test_cli_audit(tmp_path):
    out = tmp_path / "verdict.json"
    res = _run(
        "audit", "--docs", "/root/testdata/sf0.001/documents.parquet",
        "--max-split-diff-e6", "-1", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr[-2000:]
    verdict = json.loads(out.read_text())
    assert verdict["verdict"] == "PASS"
    assert [c["check"] for c in verdict["checks"]] == [
        "split_balance", "dedup_mixture_shift", "exact_dup_rate",
        "vocab_stats", "template_share", "split_leakage"]
    # a gated check that fails must flip the verdict and the exit code
    res2 = _run(
        "audit", "--docs", "/root/testdata/sf0.001/documents.parquet",
        "--max-split-diff-e6", "-1", "--max-template-share-e6", "0",
    )
    assert res2.returncode == 1
    assert json.loads(res2.stdout)["verdict"] == "FAIL"


def test_cli_plan():
    res = _run(
        "plan", "--left", "/root/testdata/sf0.001/lineitem.parquet",
        "--right", "/root/testdata/sf0.001/orders.parquet",
        "--left-key", "l_orderkey", "--right-key", "o_orderkey",
        "--target-rows-per-partition", "1000",
    )
    assert res.returncode == 0, res.stderr[-2000:]
    plan = json.loads(res.stdout)
    assert plan["est_rows"] == plan["left_rows"]  # FK join: 1:N
    rec = plan["recommendation"]
    assert "num_partitions" not in rec  # no join reads a partition count
    assert rec["salt_hot_keys"] is False
