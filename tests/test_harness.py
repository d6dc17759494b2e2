import csv

import numpy as np
import pytest

from beetleopt import benchmarks
from beetleopt.cli import main as cli_main
from beetleopt.core import ConfigurationError
from beetleopt.harness import (
    ALGORITHMS,
    ENTRIES,
    ExperimentPlan,
    emit_convergence,
    emit_summary,
    parse_config,
    run_and_emit,
    run_experiment,
    summarize_cells,
    worker_count,
)
from beetleopt.stats import rank_functions


class TestParseConfig:
    def test_empty_config_is_full_default_plan(self):
        plan = parse_config("")
        assert plan.algorithms == tuple(ALGORITHMS)
        assert plan.functions == tuple(benchmarks.ids())
        assert len(plan.cells()) == 7 * 23 == 161
        assert len(plan.cells()) * plan.runs == 1610
        assert plan.runs == 10
        assert plan.population == 30
        assert plan.iterations == 1000

    def test_single_cell_plan(self):
        plan = parse_config("algorithms = bbo\nfunctions = f1\n")
        assert plan.cells() == [("bbo", "f1")]

    def test_comments_and_blank_lines(self):
        plan = parse_config("# a comment\n\nruns = 3  # trailing\n")
        assert plan.runs == 3

    def test_comma_separated_lists(self):
        plan = parse_config("algorithms = bbo, pso\nfunctions = f1 f9,f14\n")
        assert plan.algorithms == ("bbo", "pso")
        assert plan.functions == ("f1", "f9", "f14")

    def test_zero_runs_rejected_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("runs = 0")

    def test_unknown_key_reported_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 2.*unknown key"):
            parse_config("runs = 2\nswarm = big\n")

    def test_unknown_ids_reported(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            parse_config("algorithms = abc")
        with pytest.raises(ConfigurationError, match="unknown function"):
            parse_config("functions = f99")

    def test_multiple_errors_all_reported(self):
        try:
            parse_config("runs = x\nbogus = 1\npopulation = 1\n")
        except ConfigurationError as exc:
            message = str(exc)
        assert "line 1" in message and "line 2" in message and "line 3" in message

    def test_malformed_line_reported(self):
        with pytest.raises(ConfigurationError, match="line 1"):
            parse_config("just words\n")

    def test_choice_keys(self):
        plan = parse_config(
            "chaos_map = singer\npredator_mode = random-agent\n"
            "bound_mode = reflect\nrank_statistic = mean\n"
        )
        assert plan.chaos_map == "singer"
        assert plan.predator_mode == "random-agent"
        assert plan.bound_mode == "reflect"
        assert plan.rank_statistic == "mean"
        with pytest.raises(ConfigurationError):
            parse_config("chaos_map = lorenz")


def tiny_plan(**overrides):
    defaults = dict(
        algorithms=("bbo", "pso"),
        functions=("f1", "f16"),
        runs=2,
        population=4,
        iterations=10,
        base_seed=7,
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def run_cell(algorithm, function, config):
    """One run of a cell through the algorithm's own entry."""
    return ENTRIES[algorithm].run(config, benchmarks.get(function))


def swap_runs(monkeypatch, run):
    """Swap every runner in ``ALGORITHMS`` for ``run(algorithm, function,
    config)``, as a tracer does; the harness then runs each run alone."""
    for algorithm in ALGORITHMS:
        monkeypatch.setitem(ALGORITHMS, algorithm, lambda config, spec, a=algorithm: run(a, spec.id, config))


class TestRunExperiment:
    def test_seed_derivation_and_counts(self):
        plan = tiny_plan()
        result = run_experiment(plan)
        assert len(result.records) == 2 * 2 * 2
        assert not result.failures
        seeds = {(r.algorithm, r.benchmark): [] for r in result.records}
        for record in result.records:
            seeds[(record.algorithm, record.benchmark)].append(record.seed)
        for cell_seeds in seeds.values():
            assert cell_seeds == [7, 8]

    def test_rerun_is_identical(self):
        plan = tiny_plan()
        a = run_experiment(plan)
        b = run_experiment(plan)
        for ra, rb in zip(a.records, b.records):
            assert ra.algorithm == rb.algorithm and ra.benchmark == rb.benchmark
            assert np.array_equal(ra.trace, rb.trace)

    def test_serial_and_concurrent_agree(self):
        plan = tiny_plan()
        serial = run_experiment(plan, jobs=1)
        parallel = run_experiment(plan, jobs=2)
        assert len(serial.records) == len(parallel.records)
        for ra, rb in zip(serial.records, parallel.records):
            assert (ra.algorithm, ra.benchmark, ra.seed) == (rb.algorithm, rb.benchmark, rb.seed)
            assert np.array_equal(ra.trace, rb.trace)

    def test_failures_recorded_not_fatal(self, monkeypatch):
        real = run_cell

        def flaky(algorithm, function, config):
            if algorithm == "pso" and config.seed == 8:
                raise RuntimeError("boom")
            return real(algorithm, function, config)

        swap_runs(monkeypatch, flaky)
        result = run_experiment(tiny_plan())
        assert len(result.failures) == 2  # pso seed-8 run on both functions
        assert len(result.records) == 6
        assert all(message == "boom" for *_key, message in result.failures)

    def test_failure_message_with_comma_and_newline_stays_one_field(self, tmp_path, monkeypatch):
        real = run_cell

        def failing_bbo(algorithm, function, config):
            if algorithm == "bbo":
                raise ValueError("a,b\nc")
            return real(algorithm, function, config)

        swap_runs(monkeypatch, failing_bbo)
        run_and_emit(tiny_plan(out_dir=str(tmp_path)))
        with open(tmp_path / "failures.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows == [
            ["algorithm", "function", "run", "error"],
            ["bbo", "f1", "0", "a,b\nc"],
            ["bbo", "f1", "1", "a,b\nc"],
            ["bbo", "f16", "0", "a,b\nc"],
            ["bbo", "f16", "1", "a,b\nc"],
        ]


    def test_an_output_directory_that_cannot_be_created_raises_before_any_group_runs(self, tmp_path, monkeypatch):
        from beetleopt import harness

        groups, execute_group = [], harness.execute_group
        monkeypatch.setattr(harness, "execute_group", lambda *args: groups.append(args) or execute_group(*args))
        (tmp_path / "file").write_text("not a directory\n")
        with pytest.raises(ConfigurationError, match="cannot create output directory"):
            run_and_emit(tiny_plan(out_dir=str(tmp_path / "file")))
        assert groups == []

    def test_a_clean_rerun_removes_the_failures_of_an_earlier_one(self, tmp_path, monkeypatch):
        real = run_cell

        def f16_fails(algorithm, function, config):
            if function == "f16":
                raise RuntimeError("boom")
            return real(algorithm, function, config)

        plan = tiny_plan(algorithms=("pso",), out_dir=str(tmp_path))
        with monkeypatch.context() as patch:
            swap_runs(patch, f16_fails)
            assert len(run_and_emit(plan).failures) == 2
        assert len((tmp_path / "failures.csv").read_text(encoding="utf-8").splitlines()) == 3
        assert run_and_emit(plan).failures == []
        assert not (tmp_path / "failures.csv").exists()

    def test_a_rerun_removes_the_artifacts_of_an_earlier_plan_and_nothing_else(self, tmp_path):
        run_and_emit(tiny_plan(algorithms=("pso",), out_dir=str(tmp_path)))
        for name in ("notes.txt", "convergence/mine.csv", "summary/f24.csv"):
            (tmp_path / name).write_text("kept\n")
        run_and_emit(tiny_plan(algorithms=("pso",), functions=("f1",), out_dir=str(tmp_path)))
        files = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file())
        assert files == [
            "convergence/mine.csv",
            "convergence/pso_f1.csv",
            "notes.txt",
            "ranks.csv",
            "summary/f1-f7.csv",
            "summary/f1-f7.txt",
            "summary/f24.csv",
        ]
        assert (tmp_path / "ranks.csv").read_text(encoding="utf-8") == "algorithm,sum_rank,mean_rank\npso,1,1.00\n"


class TestWorkerCount:
    def test_bounded_by_cpus_and_tasks(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert worker_count(2, 21) == 2
        assert worker_count(64, 21) == 2
        assert worker_count(64, 1) == 1
        assert worker_count(1, 21) == 1
        assert worker_count(0, 21) == 1
        assert worker_count(2, 0) == 1

    def test_unknown_cpu_count_means_serial(self, monkeypatch):
        # without an affinity mask the CPU count caps the workers
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert worker_count(8, 21) == 1
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        assert worker_count(8, 21) == 2

    def test_bounded_by_the_affinity_mask_not_the_cpu_count(self, monkeypatch):
        # 8 CPUs on the machine, one of them allowed to this process
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3}, raising=False)
        assert worker_count(8, 21) == 1

    def test_single_worker_takes_the_serial_path(self, monkeypatch):
        def no_fork():
            raise AssertionError("a worker was forked")

        monkeypatch.setattr("os.fork", no_fork)
        result = run_experiment(tiny_plan(algorithms=("pso",), functions=("f1",), runs=1), jobs=64)
        assert len(result.records) == 1 and not result.failures

    @pytest.mark.parametrize("platform, workers", [("linux", 2), ("darwin", 1), ("win32", 1), ("freebsd14", 1)])
    def test_only_linux_forks_workers(self, monkeypatch, platform, workers):
        # macOS does not fork by default and Windows cannot
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr("sys.platform", platform)
        assert worker_count(8, 21) == workers


class TestEmission:
    def test_convergence_files(self, tmp_path):
        plan = tiny_plan()
        result = run_experiment(plan)
        paths = emit_convergence(result.records, tmp_path)
        assert sorted(p.name for p in paths) == [
            "bbo_f1.csv",
            "bbo_f16.csv",
            "pso_f1.csv",
            "pso_f16.csv",
        ]
        lines = (tmp_path / "convergence" / "bbo_f1.csv").read_text().splitlines()
        assert lines[0] == "iteration,run,best_so_far"
        assert len(lines) == 1 + plan.runs * plan.iterations
        series = {}
        for row in lines[1:]:
            iteration, run, value = row.split(",")
            assert 1 <= int(iteration) <= plan.iterations
            assert int(run) in (0, 1)
            series.setdefault(int(run), []).append(float(value))
        for values in series.values():
            assert all(b <= a for a, b in zip(values, values[1:]))

    def test_convergence_values_round_trip(self, tmp_path):
        plan = tiny_plan(runs=1)
        result = run_experiment(plan)
        emit_convergence(result.records, tmp_path)
        record = next(r for r in result.records if (r.algorithm, r.benchmark) == ("bbo", "f1"))
        lines = (tmp_path / "convergence" / "bbo_f1.csv").read_text().splitlines()[1:]
        values = [float(row.split(",")[2]) for row in lines]
        assert values == list(record.trace)

    def test_emission_deterministic(self, tmp_path):
        result = run_experiment(tiny_plan())
        emit_convergence(result.records, tmp_path / "one")
        emit_convergence(result.records, tmp_path / "two")
        a = (tmp_path / "one" / "convergence" / "pso_f16.csv").read_bytes()
        b = (tmp_path / "two" / "convergence" / "pso_f16.csv").read_bytes()
        assert a == b

    def test_summary_tables(self, tmp_path):
        plan = tiny_plan()
        result = run_experiment(plan)
        paths = emit_summary(result.records, tmp_path)
        names = sorted(p.name for p in paths)
        assert names == ["f1-f7.csv", "f1-f7.txt", "f14-f23.csv", "f14-f23.txt", "ranks.csv"]

        lines = (tmp_path / "summary" / "f1-f7.csv").read_text().splitlines()
        assert lines[0] == "function,statistic,pso,bbo"
        col = lines[0].split(",").index("bbo") - 2
        by_key = {tuple(row.split(",")[:2]): row.split(",")[2:] for row in lines[1:]}
        finals = [r.final_best for r in result.records if (r.algorithm, r.benchmark) == ("bbo", "f1")]
        assert float(by_key[("f1", "best")][col]) == pytest.approx(min(finals), rel=1e-2, abs=1e-12)
        best_v, mean_v, worst_v = (
            float(by_key[("f1", s)][col]) for s in ("best", "mean", "worst")
        )
        assert best_v <= mean_v * (1 + 1e-9) + 1e-300 and mean_v <= worst_v * (1 + 1e-9) + 1e-300

    def test_summary_single_cell_rank_one(self, tmp_path):
        plan = tiny_plan(algorithms=("gwo",), functions=("f16",), runs=1)
        result = run_experiment(plan)
        emit_summary(result.records, tmp_path)
        lines = (tmp_path / "summary" / "f14-f23.csv").read_text().splitlines()
        by_key = {tuple(row.split(",")[:2]): row.split(",")[2:] for row in lines[1:]}
        assert by_key[("f16", "rank")] == ["1"]
        assert by_key[("f16", "std")] == ["NA"]
        assert by_key[("all", "sum_rank")] == ["1"]
        assert by_key[("all", "mean_rank")] == ["1.00"]

    def test_ranks_csv_covers_all_functions(self, tmp_path):
        plan = tiny_plan()
        result = run_experiment(plan)
        emit_summary(result.records, tmp_path)
        lines = (tmp_path / "ranks.csv").read_text().splitlines()
        assert lines[0] == "algorithm,sum_rank,mean_rank"
        rows = {row.split(",")[0]: row.split(",")[1:] for row in lines[1:]}
        assert set(rows) == {"bbo", "pso"}
        for sum_rank, mean_rank in rows.values():
            assert float(sum_rank) >= 2.0  # two functions, rank >= 1 each
            assert float(mean_rank) == pytest.approx(float(sum_rank) / 2, abs=5e-3)

    def test_tabular_scientific_formatting(self, tmp_path):
        plan = tiny_plan(algorithms=("pso",), functions=("f1",))
        result = run_experiment(plan)
        emit_summary(result.records, tmp_path)
        lines = (tmp_path / "summary" / "f1-f7.csv").read_text().splitlines()
        value = lines[1].split(",")[2]
        mantissa, exponent = value.split("E")
        assert len(mantissa.split(".")[1]) == 2
        assert exponent[0] in "+-"

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_convergence([], tmp_path)
        with pytest.raises(ValueError):
            emit_summary([], tmp_path)


class TestSummarizeCells:
    def test_grouping(self):
        result = run_experiment(tiny_plan())
        table = summarize_cells(result.records)
        assert set(table) == {"f1", "f16"}
        assert set(table["f1"]) == {"bbo", "pso"}
        row = table["f1"]["bbo"]
        assert row.best <= row.mean <= row.worst


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bbo" in out and "f23" in out

    def test_show_defaults_round_trips(self, capsys):
        assert cli_main(["show-defaults"]) == 0
        out = capsys.readouterr().out
        plan = parse_config(out)
        assert plan.runs == 10
        assert plan.population == 30

    def test_run_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "plan.txt"
        config.write_text("algorithms = pso\nfunctions = f16\nruns = 2\npopulation = 4\niterations = 5\n")
        out_dir = tmp_path / "out"
        assert cli_main(["run", str(config), "--out", str(out_dir), "--seed", "3"]) == 0
        assert (out_dir / "convergence" / "pso_f16.csv").exists()
        assert (out_dir / "summary" / "f14-f23.csv").exists()
        assert (out_dir / "ranks.csv").exists()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        config = tmp_path / "plan.txt"
        config.write_text("runs = banana\n")
        assert cli_main(["run", str(config)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_run_missing_config(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path / "nope.txt")]) == 2

    def test_run_directory_config(self, tmp_path, capsys):
        assert cli_main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot read config file") and err.count("\n") == 1

    def test_run_non_utf8_config(self, tmp_path, capsys):
        config = tmp_path / "plan.txt"
        config.write_bytes(b"runs = 2\n# caf\xe9\n")
        assert cli_main(["run", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config file is not UTF-8 text") and err.count("\n") == 1

    def test_run_reads_a_plan_that_starts_with_a_byte_order_mark(self, tmp_path, capsys):
        config = tmp_path / "plan.txt"
        plan = "algorithms = pso\nfunctions = f16\nruns = 1\npopulation = 4\niterations = 2\n"
        config.write_text(plan, encoding="utf-8-sig")
        assert config.read_bytes().startswith(b"\xef\xbb\xbfalgorithms")
        assert cli_main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "convergence" / "pso_f16.csv").exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_run_refuses_an_output_directory_it_cannot_create_before_running(self, tmp_path, capsys, monkeypatch, out):
        from beetleopt import harness

        groups, execute_group = [], harness.execute_group
        monkeypatch.setattr(harness, "execute_group", lambda *args: groups.append(args) or execute_group(*args))
        config = tmp_path / "plan.txt"
        config.write_text("algorithms = pso\nfunctions = f16\nruns = 1\npopulation = 4\niterations = 2\n")
        (tmp_path / "file").write_text("not a directory\n")
        assert cli_main(["run", str(config), "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot create output directory") and err.count("\n") == 1
        assert groups == []

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_run_rejects_jobs_below_one(self, tmp_path, capsys, jobs):
        config = tmp_path / "plan.txt"
        config.write_text("algorithms = pso\nfunctions = f16\nruns = 1\npopulation = 4\niterations = 2\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(config), "--out", str(tmp_path / "out"), "--jobs", jobs])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-5", "-1"])
    def test_run_rejects_a_negative_seed(self, tmp_path, capsys, seed):
        config = tmp_path / "plan.txt"
        config.write_text("algorithms = pso\nfunctions = f16\nruns = 1\npopulation = 4\niterations = 2\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", str(config), "--out", str(tmp_path / "out"), "--seed", seed])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPlanEdges:
    def test_duplicate_ids_rejected_with_line_number(self):
        with pytest.raises(ConfigurationError, match="line 1: duplicate algorithm id 'bbo'"):
            parse_config("algorithms = bbo pso bbo\nfunctions = f1\n")
        with pytest.raises(ConfigurationError, match="line 2: duplicate function id 'f1'"):
            parse_config("algorithms = bbo\nfunctions = f1, f1\nruns = 2\n")

    @pytest.mark.parametrize(
        "text",
        [
            "population = 2\n",
            "algorithms = gwo bbo\npopulation = 2\n",
            "population = 2\nalgorithms = pso cdo\n",
        ],
    )
    def test_population_below_an_algorithms_minimum_rejected(self, text):
        lineno = text.splitlines().index("population = 2") + 1
        with pytest.raises(ConfigurationError, match=f"line {lineno}: population must be >= 3"):
            parse_config(text)

    def test_population_two_allowed_without_three_leader_algorithms(self):
        plan = parse_config("population = 2\nalgorithms = bbo pso sso gsa bto\n")
        assert plan.population == 2
        result = run_experiment(
            tiny_plan(algorithms=plan.algorithms, functions=("f16",), population=2, iterations=2)
        )
        assert not result.failures

    def test_partial_failure_emits_na_cells_and_failures(self, tmp_path, monkeypatch):
        real = run_cell

        def bbo_fails_on_f1(algorithm, function, config):
            if algorithm == "bbo" and function == "f1":
                raise RuntimeError("boom")
            return real(algorithm, function, config)

        swap_runs(monkeypatch, bbo_fails_on_f1)
        result = run_and_emit(tiny_plan(out_dir=str(tmp_path)))
        assert len(result.records) == 6 and len(result.failures) == 2

        with open(tmp_path / "failures.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] == [["bbo", "f1", "0", "boom"], ["bbo", "f1", "1", "boom"]]

        table = (tmp_path / "summary" / "f1-f7.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "function,statistic,pso,bbo"
        for statistic in ("best", "mean", "worst", "std"):
            (row,) = [line for line in table if line.startswith(f"f1,{statistic},")]
            assert row.endswith(",NA") and row.count("NA") == 1
        assert "f1,rank,1,2" in table

        f16 = rank_functions(summarize_cells(result.records)["f16"], "best")
        sum_ranks = {
            line.split(",")[0]: int(line.split(",")[1])
            for line in (tmp_path / "ranks.csv").read_text(encoding="utf-8").splitlines()[1:]
        }
        assert sum_ranks == {"pso": 1 + f16["pso"], "bbo": 2 + f16["bbo"]}
        assert (tmp_path / "convergence" / "pso_f1.csv").exists()
        assert not (tmp_path / "convergence" / "bbo_f1.csv").exists()

    def test_algorithm_whose_every_run_fails_keeps_its_column_and_rank(self, tmp_path, monkeypatch):
        real = run_cell

        def bbo_always_fails(algorithm, function, config):
            if algorithm == "bbo":
                raise RuntimeError("boom")
            return real(algorithm, function, config)

        swap_runs(monkeypatch, bbo_always_fails)
        result = run_and_emit(tiny_plan(out_dir=str(tmp_path)))
        assert len(result.records) == 4 and len(result.failures) == 4

        table = (tmp_path / "summary" / "f1-f7.csv").read_text(encoding="utf-8").splitlines()
        assert table[0] == "function,statistic,pso,bbo"
        for statistic in ("best", "mean", "worst", "std"):
            (row,) = [line for line in table if line.startswith(f"f1,{statistic},")]
            assert row.endswith(",NA") and row.count("NA") == 1
        assert "f1,rank,1,2" in table

        ranks = (tmp_path / "ranks.csv").read_text(encoding="utf-8").splitlines()
        assert ranks == ["algorithm,sum_rank,mean_rank", "pso,2,1.00", "bbo,4,2.00"]

    def test_complete_plan_summary_unchanged_by_the_plans_algorithms(self, tmp_path):
        plan = tiny_plan(out_dir=str(tmp_path / "with"))
        result = run_experiment(plan)
        emit_summary(result.records, tmp_path / "with", plan.rank_statistic, plan.algorithms)
        emit_summary(result.records, tmp_path / "without", plan.rank_statistic)
        for name in ("ranks.csv", "summary/f1-f7.csv", "summary/f14-f23.csv", "summary/f14-f23.txt"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()

    def test_function_whose_every_run_fails_keeps_its_rows_and_rank(self, tmp_path, monkeypatch):
        real = run_cell

        def f16_always_fails(algorithm, function, config):
            if function == "f16":
                raise RuntimeError("boom")
            return real(algorithm, function, config)

        swap_runs(monkeypatch, f16_always_fails)
        result = run_and_emit(tiny_plan(out_dir=str(tmp_path)))
        assert len(result.records) == 4 and len(result.failures) == 4

        f1 = rank_functions(summarize_cells(result.records)["f1"], "best")
        table = (tmp_path / "summary" / "f14-f23.csv").read_text(encoding="utf-8").splitlines()
        assert table == [
            "function,statistic,pso,bbo",
            "f16,best,NA,NA",
            "f16,mean,NA,NA",
            "f16,worst,NA,NA",
            "f16,std,NA,NA",
            "f16,rank,1,1",
            "all,sum_rank,1,1",
            "all,mean_rank,1.00,1.00",
        ]
        assert (tmp_path / "summary" / "f14-f23.txt").exists()
        ranks = (tmp_path / "ranks.csv").read_text(encoding="utf-8").splitlines()
        assert ranks == [
            "algorithm,sum_rank,mean_rank",
            f"pso,{f1['pso'] + 1},{(f1['pso'] + 1) / 2:.2f}",
            f"bbo,{f1['bbo'] + 1},{(f1['bbo'] + 1) / 2:.2f}",
        ]

    def test_complete_plan_summary_unchanged_by_the_plans_functions(self, tmp_path):
        plan = tiny_plan(out_dir=str(tmp_path / "with"))
        result = run_experiment(plan)
        emit_summary(result.records, tmp_path / "with", plan.rank_statistic, plan.algorithms, plan.functions)
        emit_summary(result.records, tmp_path / "without", plan.rank_statistic, plan.algorithms)
        for name in ("ranks.csv", "summary/f1-f7.csv", "summary/f14-f23.csv", "summary/f14-f23.txt"):
            assert (tmp_path / "with" / name).read_bytes() == (tmp_path / "without" / name).read_bytes()
