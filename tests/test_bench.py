import csv
import io
from dataclasses import fields
from pathlib import Path

import pytest

from cliquesplit import BenchConfig, RunRecord, bench, emit_csv, parse_config, run_experiment


def strip_wall_columns(csv_text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(csv_text)))
    header = rows[0]
    keep = [i for i, name in enumerate(header) if not name.endswith("_wall_s")]
    return [[row[i] for i in keep] for row in rows]


class TestRunExperiment:
    def test_complete_graph_single_call(self):
        cfg = BenchConfig(graph="gnp", n=10, p=1.0, vertex_limit=45, seeds=(0,))
        records = run_experiment(cfg)
        assert len(records) == 2  # one run + median summary
        run = records[0]
        assert run.clique_size == 10
        assert run.solver_calls == 1
        assert records[1].seed == "median"

    def test_modeled_total_formula(self):
        cfg = BenchConfig(graph="gnp", n=30, p=0.4, vertex_limit=10, seeds=(1, 2))
        for record in run_experiment(cfg):
            assert record.modeled_total_wall_s == pytest.approx(
                record.split_time_wall_s + record.per_call_time_model_s * record.solver_calls
            )

    def test_deterministic_columns_reproduce(self):
        cfg = BenchConfig(graph="gnp", n=40, p=0.3, vertex_limit=15, seeds=(3, 4), repetitions=2)
        a = strip_wall_columns(emit_csv(run_experiment(cfg)))
        b = strip_wall_columns(emit_csv(run_experiment(cfg)))
        assert a == b

    def test_builds_each_seed_graph_once(self, monkeypatch):
        built = []
        build_graph = bench.build_graph

        def counting_build_graph(cfg, seed):
            built.append(seed)
            return build_graph(cfg, seed)

        monkeypatch.setattr(bench, "build_graph", counting_build_graph)
        cfg = BenchConfig(graph="cm", rows=2, cols=2, shore=2, contractions=3,
                          vertex_limit=16, seeds=(0, 1), repetitions=3)
        records = run_experiment(cfg)
        assert built == [0, 1]
        assert [(r.seed, r.repetition) for r in records[:-1]] == [(s, k) for s in (0, 1) for k in range(3)]
        for seed_runs in (records[0:3], records[3:6]):
            assert len({(r.n, r.m, r.clique_size, r.solver_calls) for r in seed_runs}) == 1

    def test_density_sweep_trend(self):
        import statistics

        medians = []
        for p in (0.15, 0.30):
            cfg = BenchConfig(graph="gnp", n=120, p=p, vertex_limit=30, seeds=tuple(range(5)))
            records = run_experiment(cfg)
            medians.append(statistics.median(r.solver_calls for r in records[:-1]))
        assert medians[0] < medians[1]

    def test_fixed_average_degree_mode(self):
        cfg = BenchConfig(graph="gnp", n=200, avg_degree=10.0, vertex_limit=40, seeds=(0,))
        records = run_experiment(cfg)
        run = records[0]
        assert "p=0.0502513" in run.graph
        assert run.m < 1500  # ~ n * d / 2 = 1000

    def test_chimera_source(self):
        cfg = BenchConfig(graph="cm", rows=2, cols=2, shore=2, contractions=3,
                          vertex_limit=16, seeds=(0,))
        records = run_experiment(cfg)
        assert records[0].n == 13

    def test_split_time_roughly_linear_at_fixed_degree(self):
        # Fixed average degree 50: splitting time should grow about
        # linearly with the vertex count (R^2 of a linear fit >= 0.9).
        # Each size's time is the fastest of three runs on one graph, so
        # a stall of the host in one run does not move the fit.
        import numpy as np

        sizes = [3000, 6000, 9000, 12000, 15000, 18000]
        times = []
        for n in sizes:
            cfg = BenchConfig(graph="gnp", n=n, avg_degree=50.0, vertex_limit=45, seeds=(0,), repetitions=3)
            records = run_experiment(cfg)
            times.append(min(r.split_time_wall_s for r in records[:-1]))
        xs = np.array(sizes, dtype=float)
        ys = np.array(times)
        slope, intercept = np.polyfit(xs, ys, 1)
        residual = ys - (slope * xs + intercept)
        r2 = 1.0 - float(np.sum(residual**2) / np.sum((ys - ys.mean()) ** 2))
        assert slope > 0
        assert r2 >= 0.9, f"times {times} fit poorly (R2={r2:.3f})"


class TestEmitCsv:
    def test_empty_records_header_only(self):
        text = emit_csv([])
        lines = text.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("experiment,graph,n,m,solver,vertex_limit")

    def test_one_record_two_lines(self):
        record = RunRecord(
            experiment="x", graph="g", n=5, m=4, solver="exact", vertex_limit=3,
            per_call_time_model_s=0.15, seed=1, repetition=0, clique_size=2,
            solver_calls=3, split_time_wall_s=0.5, modeled_total_wall_s=0.95,
        )
        lines = emit_csv([record]).strip().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("x,g,5,4,exact,3,0.15,1,0,2,3,")

    def test_numeric_round_trip(self):
        record = RunRecord(
            experiment="x", graph="g", n=5, m=4, solver="exact", vertex_limit=3,
            per_call_time_model_s=0.15, seed=1, repetition=0, clique_size=2,
            solver_calls=3, split_time_wall_s=0.123456, modeled_total_wall_s=0.573456,
        )
        rows = list(csv.reader(io.StringIO(emit_csv([record]))))
        parsed = dict(zip(rows[0], rows[1]))
        assert float(parsed["split_time_wall_s"]) == record.split_time_wall_s
        assert int(parsed["solver_calls"]) == record.solver_calls
        assert float(parsed["modeled_total_wall_s"]) == record.modeled_total_wall_s


class TestParseConfig:
    def test_full_file(self):
        text = """
        # density sweep
        experiment = fig4
        graph = gnp
        n = 500
        p = 0.25
        solver = exact
        vertex_limit = 45
        seeds = 1, 2, 3
        repetitions = 2
        per_call_time_model_s = 0.15
        """
        cfg = parse_config(text)
        assert cfg.experiment == "fig4"
        assert cfg.n == 500
        assert cfg.p == 0.25
        assert cfg.seeds == (1, 2, 3)
        assert cfg.repetitions == 2

    def test_every_field_round_trips(self):
        cfg = BenchConfig(
            experiment="all", graph="dimacs", n=7, p=0.5, avg_degree=2.5, rows=3, cols=2, shore=5,
            contractions=9, word_length=6, min_distance=3, path="g.dimacs", solver="sa-clique",
            vertex_limit=11, seeds=(4, 8), repetitions=3, per_call_time_model_s=0.25,
        )
        lines = []
        for f in fields(BenchConfig):
            value = getattr(cfg, f.name)
            assert value != f.default, f.name  # the file sets every field away from its default
            lines.append(f"{f.name} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}")
        assert parse_config("\n".join(lines)) == cfg

    def test_dimacs_needs_a_path(self):
        with pytest.raises(ValueError, match="path"):
            BenchConfig(graph="dimacs")
        with pytest.raises(ValueError, match="path"):
            parse_config("graph = dimacs\n")

    def test_vertex_limit_zero_is_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="vertex_limit must be >= 1"):
            parse_config("n = 40\nvertex_limit = 0\n")

    def test_unknown_solver_is_rejected_before_any_run(self):
        with pytest.raises(ValueError, match="unknown solver 'nope'"):
            parse_config("n = 40\nsolver = nope\n")

    def test_readme_example(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        after_intro = readme.split("`bench` reads flat `key = value` config files:", 1)[1]
        cfg = parse_config(after_intro.split("```")[1])
        assert (cfg.experiment, cfg.graph, cfg.n, cfg.p) == ("demo", "gnp", 500, 0.3)
        assert (cfg.vertex_limit, cfg.seeds, cfg.per_call_time_model_s) == (45, (0, 1, 2, 3, 4), 0.15)

    def test_inline_comments(self):
        cfg = parse_config("experiment = run#2   # a comment\n  # a whole line\nn = 40\t# after a tab\n")
        assert (cfg.experiment, cfg.n) == ("run#2", 40)

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config("wibble = 3\n")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("n = lots\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("repetitions = 0\n", "line 1: repetitions must be >= 1"),
            ("n = 5\nvertex_limit = 0\n", "line 2: vertex_limit must be >= 1"),
            ("n = 5\n# no path\ngraph = dimacs\nvertex_limit = 3\n", "line 3: graph = dimacs needs a path"),
            ("graph = dimacs\npath = g.txt\nvertex_limit = 0\n", "line 3: vertex_limit must be >= 1"),
            ("n = 5\nsolver = nope\n", "line 2: unknown solver 'nope'"),
            ("n = 5\n\nseeds =\n", "line 3: need at least one seed"),
            ("n = 5\nseeds = 1, 2, 1\nvertex_limit = 3\n", "line 2: seeds must be distinct"),
        ],
    )
    def test_refused_value_names_its_line(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_config(text)
        assert str(info.value).startswith(message)

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError) as info:
            parse_config("n = 100\nsolver = exact\nn = 200\n")
        assert str(info.value) == "line 3: duplicate key 'n' (first on line 1)"

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(graph="nope")
        with pytest.raises(ValueError, match="seeds must be distinct"):
            BenchConfig(seeds=(3, 1, 2, 1))
        with pytest.raises(ValueError):
            BenchConfig(repetitions=0)
        with pytest.raises(ValueError):
            BenchConfig(per_call_time_model_s=-1.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_fee_rejected(self, value):
        with pytest.raises(ValueError, match="per_call_time_model_s must be finite"):
            parse_config(f"per_call_time_model_s = {value}\n")
        with pytest.raises(ValueError, match="per_call_time_model_s must be finite"):
            BenchConfig(per_call_time_model_s=float(value))
