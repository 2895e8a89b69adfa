"""`tools/bench_pairs.py`'s verdicts on synthetic runs.

`summarize` pairs parent and change runs by pair index. The claim rule holds
when the change is better in at least 9 of 10 pairs and its median is better
by more than the parent's interquartile range; the regression verdict is the
same rule turned round. Neither verdict is given from fewer than 10 pairs.
"""

import json
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import bench_pairs  # noqa: E402
from bench_pairs import summarize, sweep_times, sweep_timings, time_sweep  # noqa: E402

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.2, 9.8]


def runs(metric: str, change: list, parent: list = PARENT) -> list:
    """Run records of one metric, the parent and change sides alternating first."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        sides = [("parent", p), ("change", c)]
        for side, value in sides if i % 2 == 0 else sides[::-1]:
            out.append({"side": side, "pair": i, "metrics": {metric: value}})
    return out


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_clear_gain_holds_and_is_not_worse(better):
    shift = -2.0 if better == "lower" else 2.0
    row = summarize(runs("m", [p + shift for p in PARENT]), {"m": better})["m"]
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (10, 0)
    assert row["rule_holds"] and not row["regressed"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_a_clear_loss_is_worse(better):
    shift = 2.0 if better == "lower" else -2.0
    row = summarize(runs("m", [p + shift for p in PARENT]), {"m": better})["m"]
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (0, 10)
    assert row["regressed"] and not row["rule_holds"]


def test_a_loss_inside_the_parents_spread_is_not_worse():
    # Worse in every pair, but the medians differ by less than the parent's IQR.
    row = summarize(runs("m", [p + 0.01 for p in PARENT]), {"m": "lower"})["m"]
    assert row["change_worse_pairs"] == 10
    assert row["parent_iqr"] > 0.01
    assert not row["regressed"] and not row["rule_holds"]


def test_a_loss_in_8_of_10_pairs_is_not_worse():
    change = [p + 2.0 for p in PARENT]
    change[3] = change[7] = 0.0
    row = summarize(runs("m", change), {"m": "lower"})["m"]
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (2, 8)
    assert not row["regressed"]
    change[7] = PARENT[7] + 2.0
    assert summarize(runs("m", change), {"m": "lower"})["m"]["regressed"]


def test_ties_count_for_neither_side():
    row = summarize(runs("m", list(PARENT)), {"m": "lower"})["m"]
    assert (row["change_better_pairs"], row["change_worse_pairs"]) == (0, 0)
    assert not row["regressed"] and not row["rule_holds"]


@pytest.mark.parametrize("shift", [2.0, -2.0], ids=["loss", "gain"])
def test_two_pairs_give_no_verdict(shift):
    # 2 of 2 pairs agree, and the medians differ by far more than the IQR.
    row = summarize(runs("m", [p + shift for p in PARENT[:2]], PARENT[:2]), {"m": "lower"})["m"]
    assert row["pairs"] == 2
    assert max(row["change_better_pairs"], row["change_worse_pairs"]) == 2
    assert not row["regressed"] and not row["rule_holds"]
    assert not row["resolved"]


def test_detail_timings_get_medians_and_no_verdict():
    # Each run carries run.py's `detail` block; the change halves every timing.
    records = runs("m", [p - 2.0 for p in PARENT])
    for record in records:
        scale = 0.5 if record["side"] == "change" else 1.0
        base = 0.010 + 0.001 * record["pair"]
        record["detail"] = {"primary_ms_p50": 5.0 * scale, "secondary_ms_p50": base * scale,
                            "secondary_ms_p90": 2 * base * scale, "cycles": 100}
    summary = summarize(records, {"m": "lower"})
    assert summary["m"]["gated"] and summary["m"]["rule_holds"]
    assert sorted(name for name, row in summary.items() if not row["gated"]) == [
        "primary_ms_p50", "secondary_ms_p50", "secondary_ms_p90"]
    row = summary["secondary_ms_p50"]
    assert row["parent_median"] == pytest.approx(0.0145)
    assert row["change_median"] == pytest.approx(0.00725)
    assert row["ratio"] == pytest.approx(0.5)
    assert (row["pairs"], row["unit"]) == (10, "ms")
    assert "rule_holds" not in row and "regressed" not in row
    # Runs without the block (a CLI set) or missing one timing get no row for it.
    del records[3]["detail"]["secondary_ms_p90"]
    assert "secondary_ms_p90" not in summarize(records, {"m": "lower"})
    for record in records:
        del record["detail"]
    assert list(summarize(records, {"m": "lower"})) == ["m"]


@pytest.mark.parametrize("pairs", [10, 4])
def test_sweep_timings_get_verdicts_but_no_gate(pairs):
    # A sweep set's metric is not in BENCHMARK.json: it is read as
    # lower-is-better, marked ungated, and judged by the same rules.
    name = "sweep_ms.adaptive-R"
    faster = [0.7 * p for p in PARENT[:pairs]]
    directions = {"primary_ref_p50": "lower"}
    row = summarize(runs(name, faster, PARENT[:pairs]), directions)[name]
    assert not row["gated"] and row["better"] == "lower"
    assert row["ratio"] == pytest.approx(0.7)
    assert row["resolved"] == (pairs >= 10)
    assert row["rule_holds"] == (pairs >= 10) and not row["regressed"]
    slower = summarize(runs(name, [1.3 * p for p in PARENT[:pairs]], PARENT[:pairs]),
                       directions)[name]
    assert slower["regressed"] == (pairs >= 10) and not slower["rule_holds"]
    # A gated metric keeps its gate beside it.
    assert summarize(runs("primary_ref_p50", faster, PARENT[:pairs]),
                     directions)["primary_ref_p50"]["gated"]


class FakeClock:
    """A clock that a fake sweep moves on by its own length."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


@pytest.mark.parametrize("length,count", [(0.15, 7), (0.6, 3), (2.5, 3)])
def test_a_sweep_child_times_sweeps_for_about_a_second(length, count):
    # Sweeps run until a second has passed and three have run, each on its
    # own seed: seven 0.15 s sweeps, or three of 0.6 s or 2.5 s.
    clock, seeds = FakeClock(), []

    def sweep(seed):
        seeds.append(seed)
        clock.now += length

    times = sweep_times(sweep, 4, clock)
    assert len(times) == count
    assert times == pytest.approx([1e3 * length] * count)
    assert seeds == [4 * bench_pairs.SEED_STRIDE + j for j in range(count)]
    assert (bench_pairs.SWEEP_SECONDS, bench_pairs.SWEEP_LEAST) == (1.0, 3)


def test_a_sweep_child_times_its_first_sweep_on_its_own():
    # The first sweep runs at the pair's seed and costs 0.9 s, the set-up a
    # one-call process pays; the timed sweeps after it cost 0.2 s each.
    clock, seeds = FakeClock(), []

    def sweep(seed):
        seeds.append(seed)
        clock.now += 0.9 if len(seeds) == 1 else 0.2

    out = sweep_timings(sweep, 4, clock)
    assert out["first_ms"] == pytest.approx(900.0)
    assert out["ms"] == pytest.approx(200.0) and out["sweeps"] == 5
    assert seeds == [4] + [4 * bench_pairs.SEED_STRIDE + j for j in range(5)]


def test_a_sweep_set_records_the_first_sweep_ungated(monkeypatch, tmp_path):
    # Each side's child reports its first sweep beside the median; the set
    # records both per run and summarizes the first sweep without a gate.
    def fake_sweep(root, config, runs, seed):
        scale = 0.5 if root == str(ROOT) else 1.0
        return {"experiment": "adaptive-R", "ms": 10.0 * scale, "first_ms": 900.0 * scale,
                "sweeps": 5, "failed": 0}

    monkeypatch.setattr(bench_pairs, "time_sweep", fake_sweep)
    out = tmp_path / "bench.json"
    parent = tmp_path / "parent"
    (parent / "src" / "latsched").mkdir(parents=True)
    (parent / "src" / "latsched" / "cli.py").write_text("")
    assert bench_pairs.main(["--parent", str(parent), "--sweep", "configs/noise_mismatch.json",
                             "--runs", "6", "--pairs", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert [r["metrics"] for r in doc["runs"] if r["side"] == "parent"] == [
        {"sweep_ms.adaptive-R": 10.0, "sweep_first_ms.adaptive-R": 900.0}] * 2
    row = doc["summary"]["A"]["sweep_first_ms.adaptive-R"]
    assert not row["gated"] and row["ratio"] == pytest.approx(0.5)
    assert row["change_better_pairs"] == 2 and not row["resolved"]


def test_a_cut_set_describes_the_pairs_it_saved(monkeypatch, tmp_path):
    # A call for 10 pairs whose runs fail in the third pair: the file keeps
    # two pairs, and the set's description says two pairs of seeds 5..6.
    calls = []

    def fake_run(root, args, seed):
        calls.append(seed)
        if len(calls) > 4:
            raise RuntimeError("run cut")
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"primary_ref_p50": {"value": 1.0}}}
        head = {"machine": {"git_commit": "c", "source_sha256": "s", "nproc": 2,
                            "python": "3", "numpy": "2", "blas": "b"}, "detail": {}}
        return {"head": head, "result": result}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").write_text("")
    with pytest.raises(RuntimeError, match="run cut"):
        bench_pairs.main(["--parent", str(parent), "--workload", "mc-adaptive", "--pairs", "10",
                          "--seconds", "25", "--seed", "5", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert calls == [5, 5, 6, 6, 7]
    assert doc["sets"] == {"A": "mc-adaptive, 2 pairs, --seed 5..6, --seed2 0, --seconds 25, "
                                "--trace 0"}
    assert len(doc["runs"]) == 4
    assert doc["summary"]["A"]["primary_ref_p50"]["pairs"] == 2


def test_a_sweep_child_times_several_sweeps():
    # A real child on a one-run sweep of a few ms: it times many in its
    # second, and reports their median.
    out = time_sweep(str(ROOT), str(ROOT / "configs" / "noise_mismatch.json"), 1, 2)
    assert out["experiment"] == "adaptive-R" and out["failed"] == 0
    assert out["sweeps"] > bench_pairs.SWEEP_LEAST
    assert 0.0 < out["ms"] < 1e3 * bench_pairs.SWEEP_SECONDS
    assert out["first_ms"] > 0.0


def stub_checkout(root: Path, experiment: str) -> Path:
    """A checkout whose `latsched` only reads a config's experiment name and sweeps nothing.

    Its `configs/sweep.json` names `experiment`, so a sweep child reports
    which checkout's file it loaded.
    """
    package = root / "src" / "latsched"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "def monte_carlo(cfg, runs, seed, jobs):\n    return [{'run': 0}]\n")
    (package / "cli.py").write_text("")
    (package / "config.py").write_text(
        "import json\nfrom types import SimpleNamespace\n\n\n"
        "def load_scenario(path):\n"
        "    with open(path) as fh:\n"
        "        name = json.load(fh)['experiment']['name']\n"
        "    return SimpleNamespace(experiment=SimpleNamespace(name=name))\n")
    (root / "configs").mkdir()
    (root / "configs" / "sweep.json").write_text(json.dumps({"experiment": {"name": experiment}}))
    return root


def test_a_sweep_child_reads_a_relative_config_inside_its_checkout(tmp_path):
    # The parent's configs/sweep.json differs from this checkout's (which has
    # none): a child started in the parent loads the parent's own file.
    parent = stub_checkout(tmp_path / "parent", "parent-config")
    out = time_sweep(str(parent), "configs/sweep.json", 1, 2)
    assert out["experiment"] == "parent-config" and out["failed"] == 0
    assert not (ROOT / "configs" / "sweep.json").exists()


@pytest.mark.parametrize("absolute", [False, True])
def test_a_sweep_set_hands_each_side_its_own_config(monkeypatch, tmp_path, absolute):
    # A relative CONFIG reaches each side's child as it was given, to be read
    # inside that side's checkout; an absolute one names one file for both.
    seen = []

    def fake_sweep(root, config, runs, seed):
        path = os.path.join(root, config)
        with open(path) as fh:
            name = json.load(fh)["experiment"]["name"]
        seen.append((root, path))
        return {"experiment": "sweep", "ms": 1.0 if name == "parent-config" else 0.5,
                "first_ms": 1.0, "sweeps": 3, "failed": 0}

    monkeypatch.setattr(bench_pairs, "time_sweep", fake_sweep)
    parent = stub_checkout(tmp_path / "parent", "parent-config")
    change = stub_checkout(tmp_path / "change", "change-config")
    monkeypatch.setattr(bench_pairs, "CHANGE_ROOT", str(change))
    monkeypatch.setattr(bench_pairs, "directions", dict)
    config = str(parent / "configs" / "sweep.json") if absolute else "configs/sweep.json"
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(parent), "--sweep", config, "--runs", "2",
                             "--pairs", "2", "--out", str(out)]) == 0
    assert {root for root, _ in seen} == {str(parent), str(change)}
    files = {root: path for root, path in seen}
    if absolute:
        assert set(files.values()) == {config}
    else:
        assert files == {str(root): str(root / "configs" / "sweep.json")
                         for root in (parent, change)}
    row = json.loads(out.read_text())["summary"]["A"]["sweep_ms.sweep"]
    assert row["ratio"] == pytest.approx(1.0 if absolute else 0.5)
