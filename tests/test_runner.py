import json
import subprocess
import sys
from pathlib import Path

import pytest

import shufflesim
from shufflesim import runner
from shufflesim.ledger import DepthLedger

from conftest import cli_env

GOLDEN = Path(__file__).resolve().parent / "golden"


def _cli(args, tmp_path, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "shufflesim", *args],
        capture_output=True,
        text=True,
        env=cli_env(env_extra),
        cwd=tmp_path,
        timeout=300,
    )


def test_parse_range():
    assert runner.parse_range("3") == [3]
    assert runner.parse_range("2..5") == [2, 3, 4, 5]
    assert runner.parse_range("1,4..6") == [1, 4, 5, 6]
    assert runner.parse_range(" 2 , 7 ") == [2, 7]
    with pytest.raises(ValueError):
        runner.parse_range("x")


def test_csv_header_is_pinned():
    assert runner.CSV_HEADER == [
        "experiment", "n", "d", "adversary", "trials", "success",
        "ci_lo", "ci_hi", "oracle_layers_mean", "classical_queries_mean", "seconds",
    ]
    rec = runner.ResultRecord("solve", 3, 1, "solver", 10, 1.0, 0.72, 1.0, 3.0, 2.2, 0.0)
    text = runner.records_to_csv([rec])
    lines = text.splitlines()
    assert lines[0] == ",".join(runner.CSV_HEADER)
    assert lines[1].startswith("solve,3,1,solver,10,1.0,")


def test_layers_per_circuit_zero_circuits():
    assert runner._layers_per_circuit(DepthLedger()) == 0.0


def test_run_cells_deterministic_and_parallel_equal():
    cells = [runner._Cell("solve", 2, 1, "solver", "materialized", None)]
    a = runner.run_cells(cells, trials=16, seed=5)
    b = runner.run_cells(cells, trials=16, seed=5)
    assert a == b
    c = runner.run_cells(cells, trials=16, seed=5, jobs=2)
    assert a == c
    # every solver circuit is one round of exactly 2d+1 layers
    assert a[0].oracle_layers_mean == 3.0
    assert a[0].success >= 0.9


def test_run_cells_builds_one_pool_per_run(monkeypatch):
    built = []
    real = runner.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        built.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", counting_pool)
    cells = [
        runner._Cell("solve", 2, 1, "solver", "materialized", None),
        runner._Cell("classical", 3, 0, "classical", "materialized", 4),
        runner._Cell("truncated", 2, 1, "truncated", "materialized", 1),
    ]
    serial = runner.run_cells(cells, trials=8, seed=9)
    assert built == []
    pooled = runner.run_cells(cells, trials=8, seed=9, jobs=2)
    assert len(built) == 1
    assert pooled == serial


def test_run_cells_sizes_the_pool_by_trials(monkeypatch):
    # no pool is started here: the fake only records the size it was given
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", FakePool)
    cells = [runner._Cell("solve", 2, 1, "solver", "materialized", None)]
    serial = runner.run_cells(cells, trials=2, seed=9)
    assert runner.run_cells(cells, trials=2, seed=9, jobs=64) == serial
    assert runner.run_cells(cells, trials=3, seed=9, jobs=2) == runner.run_cells(cells, trials=3, seed=9)
    assert runner.run_cells(cells, trials=1, seed=9, jobs=64) == runner.run_cells(cells, trials=1, seed=9)
    assert sizes == [2, 2]


def test_cli_child_imports_package_under_test(tmp_path):
    # CLI tests run their child in tmp_path; it must import this very package,
    # not fail to find it nor pick up another installed copy.
    res = subprocess.run(
        [sys.executable, "-c", "import shufflesim; print(shufflesim.__file__)"],
        capture_output=True,
        text=True,
        env=cli_env(),
        cwd=tmp_path,
        timeout=60,
    )
    assert res.returncode == 0, res.stderr
    assert Path(res.stdout.strip()).resolve() == Path(shufflesim.__file__).resolve()


def test_solve_rerun_bytes_identical(tmp_path):
    args = ["solve", "--n", "3", "--d", "1", "--trials", "200", "--seed", "7",
            "--out", "run.json"]
    assert _cli(args, tmp_path).returncode == 0
    first = (tmp_path / "run.json").read_bytes()
    assert _cli(args, tmp_path).returncode == 0
    assert (tmp_path / "run.json").read_bytes() == first
    rows = json.loads(first)
    assert rows[0]["success"] >= 0.99
    assert rows[0]["oracle_layers_mean"] == 3.0
    assert rows[0]["seconds"] == 0.0


def test_jobs_do_not_change_output(tmp_path):
    base = ["solve", "--n", "2", "--d", "1", "--trials", "40", "--seed", "9"]
    serial = _cli([*base, "--jobs", "1", "--out", "serial.json"], tmp_path)
    parallel = _cli([*base, "--jobs", "4", "--out", "parallel.json"], tmp_path)
    assert serial.returncode == 0 and parallel.returncode == 0
    assert (tmp_path / "serial.json").read_bytes() == (tmp_path / "parallel.json").read_bytes()


def test_sweep_grid_rows_and_separation(tmp_path):
    res = _cli(
        ["sweep", "--n", "2..3", "--d", "1..2", "--trials", "40", "--seed", "3",
         "--format", "csv"],
        tmp_path,
    )
    assert res.returncode == 0
    lines = res.stdout.strip().splitlines()
    assert lines[0] == ",".join(runner.CSV_HEADER)
    rows = [line.split(",") for line in lines[1:]]
    # 2x2 grid, default adversaries solver and truncated
    assert len(rows) == 8
    for row in rows:
        kind, success = row[3], float(row[5])
        d = int(row[2])
        layers = float(row[8])
        if kind == "solver":
            assert success >= 0.9
            assert layers == 2 * d + 1
        else:
            assert kind == "truncated"
            assert 0.13 <= success <= 0.87


def test_env_overrides_and_flag_precedence(tmp_path):
    res = _cli(
        ["solve", "--n", "2", "--d", "0", "--seed", "1"],
        tmp_path,
        env_extra={"SHUFFLESIM_TRIALS": "7"},
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)[0]["trials"] == 7
    res = _cli(
        ["solve", "--n", "2", "--d", "0", "--seed", "1", "--trials", "5"],
        tmp_path,
        env_extra={"SHUFFLESIM_TRIALS": "7"},
    )
    assert res.returncode == 0
    assert json.loads(res.stdout)[0]["trials"] == 5


def test_violating_adversary_aborts(tmp_path):
    res = _cli(
        ["adversary", "--kind", "violating", "--n", "2", "--d", "1",
         "--trials", "5", "--seed", "2"],
        tmp_path,
    )
    assert res.returncode == 3
    assert res.stdout == ""
    assert res.stderr == "aborted: depth budget of 2 layers per circuit exceeded (1 violation(s) recorded)\n"


def test_solver_error_aborts_with_one_line(capsys):
    # one round at n=14 leaves 2^13 - 1 null-space candidates, over the cap
    argv = ["adversary", "--kind", "decision", "--n", "14", "--d", "0", "--rounds", "1",
            "--backend", "lazy", "--trials", "2"]
    assert runner.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "aborted: 8191 null-space candidates exceed the cap of 4096; collect more rounds\n"


def test_o2h_membership_miss_aborts_with_one_line(tmp_path):
    # one l=2 trial whose draw leaves point 0 outside round 1's superset
    res = _cli(["o2h", "--n", "2", "--d", "2", "--l", "2", "--trials", "1", "--seed", "0"], tmp_path)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == "aborted: no draws satisfied the conditioning event; increase trials\n"


def test_o2h_report_shape(tmp_path):
    res = _cli(
        ["o2h", "--n", "2", "--d", "2", "--l", "1", "--trials", "200",
         "--samples", "5", "--resamples", "20", "--seed", "4"],
        tmp_path,
    )
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert set(report) == {"n", "d", "l", "membership", "hiding", "find_bound"}
    assert set(report["hiding"]) == {
        "lhs", "rhs", "per_sample_pass", "samples",
        "max_per_sample_slack", "mean_p_find", "pooled_holds",
    }
    assert report["hiding"]["per_sample_pass"] == report["hiding"]["samples"] == 5
    assert report["hiding"]["pooled_holds"] is True
    assert len(report["membership"]) == 2
    for entry in report["membership"]:
        assert entry["within_3sigma"]
    assert report["find_bound"]["holds"] is True
    assert report["find_bound"]["precondition_respected"] is True


def test_o2h_refuses_the_lazy_backend(monkeypatch):
    # hidden-set sampling reads whole level sets, which only tables hold
    def no_sampling(*args, **kwargs):
        raise AssertionError("o2h sampled an oracle")

    monkeypatch.setattr(runner, "sample_shuffling", no_sampling)
    with pytest.raises(SystemExit) as exc:
        runner.main(["o2h", "--n", "2", "--d", "2", "--backend", "lazy"])
    assert "needs the materialized backend" in str(exc.value)
    assert "\n" not in str(exc.value)


def test_sample_oracle_dump(tmp_path):
    args = ["sample-oracle", "--n", "2", "--d", "1", "--kind", "simon",
            "--paths", "2", "--seed", "6"]
    res = _cli(args, tmp_path)
    assert res.returncode == 0
    report = json.loads(res.stdout)
    assert set(report) == {"instance", "d", "backend", "paths", "core_probe", "transcript"}
    assert len(report["paths"]) == 2
    # a path visits d+2 points: input, one per injection, core answer
    assert all(len(p) == 3 for p in report["paths"])
    # the transcript is the classical queries in order: d+1 steps per path, then the probe
    transcript = report["transcript"]
    assert len(transcript) == 2 * 2 + 1
    for entry in transcript:
        assert set(entry) == {"level", "input", "answer"}
        assert entry["answer"] == "bot" or isinstance(entry["answer"], int)
    assert transcript[0]["level"] == 0 and transcript[0]["input"] == report["paths"][0][0]
    probe = report["core_probe"]
    assert transcript[-1] == {"level": 1, "input": probe["x"], "answer": probe["answer"]}
    again = _cli(args, tmp_path)
    assert again.stdout == res.stdout


_SWEEP = ["sweep", "--n", "2..3", "--d", "0..1", "--trials", "10", "--seed", "12",
          "--adversaries", "solver,decision,truncated,cq-solver,qc-solver,classical"]


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("sweep_materialized.json", [*_SWEEP, "--backend", "materialized"]),
        ("sweep_lazy.json", [*_SWEEP, "--backend", "lazy"]),
        # d >= 2: chains of several links, walked and routed by the lazy backend
        ("sweep_lazy_deep.json", [*_SWEEP[:3], "--d", "2..3", *_SWEEP[5:], "--backend", "lazy"]),
        ("solve.json", ["solve", "--n", "3", "--d", "2", "--trials", "30", "--seed", "7"]),
        ("o2h.json", ["o2h", "--n", "2", "--d", "2", "--l", "1", "--trials", "300",
                      "--samples", "20", "--resamples", "50", "--seed", "5"]),
        # the probe answers bot and every path step an int, on both backends
        *((f"sample_oracle_{backend}.json",
           ["sample-oracle", "--n", "3", "--d", "2", "--kind", "random", "--paths", "4",
            "--seed", "9", "--backend", backend]) for backend in ("materialized", "lazy")),
    ],
    ids=["sweep-materialized", "sweep-lazy", "sweep-lazy-deep", "solve", "o2h",
         "sample-oracle-materialized", "sample-oracle-lazy"],
)
def test_outputs_match_golden_bytes(golden, argv, tmp_path, monkeypatch):
    # golden files were written by an earlier build; any moved seeded output,
    # in any strategy or on either backend, shows up here
    for name in ("SEED", "TRIALS", "BACKEND", "JOBS"):
        monkeypatch.delenv(f"SHUFFLESIM_{name}", raising=False)
    out = tmp_path / golden
    assert runner.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--n", "10", "--d", "1"], "exceeds the materialized cap"),
        (["solve", "--trials", "0"], "--trials must be at least 1"),
        (["solve", "--n", "0"], "--n must be at least 1"),
        (["solve", "--d", "-1"], "--d must be at least 0"),
        (["sweep", "--n", "2,10", "--d", "1"], "exceeds the materialized cap"),
        (["sweep", "--adversaries", "classical", "--q", "-1"], "--q must be at least 0"),
        (["sweep", "--adversaries", "truncated", "--budget", "-1"], "--budget must be at least 0"),
        (["adversary", "--kind", "qc-solver", "--rounds", "0"], "--rounds must be at least 1"),
        (["solve", "--max-rounds", "-1"], "--max-rounds must be at least 0"),
        (["sweep", "--adversaries", ","], "--adversaries names no adversary kind"),
        (["sweep", "--adversaries", "oracle"], "unknown adversary kind 'oracle'"),
        (["o2h", "--samples", "0"], "--samples must be at least 1"),
        (["o2h", "--resamples", "-1"], "--resamples must be at least 1"),
        (["sample-oracle", "--n", "2", "--d", "1", "--paths", "-3", "--backend", "lazy"],
         "--paths must be at least 0"),
    ],
    ids=[
        "materialized-cap", "zero-trials", "zero-n", "negative-d", "one-oversize-sweep-cell",
        "negative-q", "negative-budget", "zero-rounds", "negative-max-rounds", "no-adversaries",
        "unknown-adversary", "zero-samples", "negative-resamples", "negative-paths",
    ],
)
def test_unrunnable_inputs_exit_before_any_trial(argv, message, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError(f"trial or draw {args} started")

    monkeypatch.setattr(runner, "_run_trial", no_trial)
    monkeypatch.setattr(runner, "sample_shuffling", no_trial)
    with pytest.raises(SystemExit) as exc:
        runner.main(argv)
    assert message in str(exc.value)
    assert "\n" not in str(exc.value)


def test_sample_oracle_probes_a_wide_lazy_domain(tmp_path):
    # (d+2)n = 64 bits: the core probe exceeds the generator's int64 range
    out = tmp_path / "oracle.json"
    argv = ["sample-oracle", "--n", "1", "--d", "62", "--backend", "lazy", "--seed", "3"]
    assert runner.main([*argv, "--out", str(out)]) == 0
    probe = json.loads(out.read_text())["core_probe"]
    assert 0 <= probe["x"] < 1 << 64
