import gc
import shlex
import warnings
from pathlib import Path

import pytest

from cliquesplit import parse_dimacs
from cliquesplit.cli import build_parser, main

K4_TEXT = "p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gnp(self, tmp_path, capsys):
        out = tmp_path / "g.clq"
        code, _, _ = run_cli(["gen", "gnp", "--n", "20", "--p", "0.5", "--seed", "1",
                              "--out", str(out)], capsys)
        assert code == 0
        g = parse_dimacs(out.read_text())
        assert g.num_vertices == 20

    def test_chimera_to_stdout(self, capsys):
        code, out, _ = run_cli(["gen", "chimera", "--rows", "1", "--cols", "1", "--shore", "4"], capsys)
        assert code == 0
        g = parse_dimacs(out)
        assert (g.num_vertices, g.num_edges) == (8, 16)

    def test_cm(self, capsys):
        code, out, _ = run_cli(["gen", "cm", "--contractions", "152", "--seed", "0"], capsys)
        assert code == 0
        assert parse_dimacs(out).num_vertices == 1000

    def test_hamming(self, capsys):
        code, out, _ = run_cli(["gen", "hamming", "--word-length", "3", "--min-distance", "3"], capsys)
        assert code == 0
        assert parse_dimacs(out).num_edges == 4

    def test_usage_error_exit_code(self, capsys):
        assert main(["gen", "gnp", "--n", "not-a-number", "--p", "0.5"]) == 1


class TestReduce:
    def test_k_core(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text("p edge 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\n")  # path P5
        code, out, err = run_cli(["reduce", str(src), "--k", "2"], capsys)
        assert code == 0
        assert parse_dimacs(out).num_vertices == 0
        assert "removed_vertices=5" in err

    def test_lower_bound_mode(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, err = run_cli(
            ["reduce", str(src), "--lower-bound", "2", "--seed", "3"], capsys
        )
        assert code == 0
        assert parse_dimacs(out).num_vertices == 4
        assert "removed_vertices=0" in err

    def test_all_vertices_flag_is_gone(self, tmp_path, capsys):
        # The edge prune runs around one random vertex; there is no other mode.
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, err = run_cli(["reduce", str(src), "--lower-bound", "3", "--all-vertices"], capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --all-vertices" in err

    def test_missing_file(self, capsys):
        assert main(["reduce", "nope.clq", "--k", "2"]) == 1


class TestSplit:
    def test_csv_row(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, _ = run_cli(
            ["split", str(src), "--vertex-limit", "2", "--solver", "exact", "--seed", "1"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph,n,m,vertex_limit,solver_calls,clique_size,wall_time_s"
        fields = lines[1].split(",")
        assert fields[1:4] == ["4", "6", "2"]
        assert fields[5] == "4"

    def test_parts_flag_is_gone(self, tmp_path, capsys):
        # split_solve no longer CH-partitions, so split takes no part count.
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, err = run_cli(["split", str(src), "--vertex-limit", "2", "--parts", "2"], capsys)
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --parts 2" in err

    def test_p_col_header(self, tmp_path, capsys):
        # The DIMACS clique benchmark files use "p col N M".
        src = tmp_path / "in.clq"
        src.write_text("c benchmark style\n" + K4_TEXT.replace("p edge", "p col"))
        code, out, err = run_cli(["split", str(src), "--vertex-limit", "3"], capsys)
        assert code == 0, err
        assert out.strip().splitlines()[1].split(",")[5] == "4"

    def test_input_file_is_closed(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["split", str(src), "--vertex-limit", "2", "--seed", "1"])
            gc.collect()
        capsys.readouterr()
        assert code == 0
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


class TestSolve:
    def test_exact(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, _ = run_cli(["solve", str(src), "--solver", "exact"], capsys)
        assert code == 0
        assert "clique_size=4" in out
        assert "vertices=0 1 2 3" in out

    def test_qubo_backend_prints_energy(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, _ = run_cli(["solve", str(src), "--solver", "sa-qubo", "--seed", "2"], capsys)
        assert code == 0
        assert "energy=-4" in out

    @pytest.mark.parametrize("reads", ["0", "-3"])
    def test_descent_rejects_non_positive_reads(self, tmp_path, capsys, reads):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, err = run_cli(["solve", str(src), "--solver", "descent", "--num-reads", reads], capsys)
        assert code == 1
        assert out == ""
        assert "num_reads must be >= 1" in err

    @pytest.mark.parametrize("solver", ["exact", "sa-clique", "sa-qubo", "descent", "sampler"])
    def test_negative_seed_refused(self, tmp_path, capsys, solver):
        src = tmp_path / "in.clq"
        src.write_text(K4_TEXT)
        code, out, err = run_cli(["solve", str(src), "--solver", solver, "--seed", "-1"], capsys)
        assert (code, out, err) == (1, "", "error: seed must be non-negative\n")

    @pytest.mark.parametrize("solver", ["sa-qubo", "descent", "sampler"])
    def test_empty_graph_energy_zero(self, tmp_path, capsys, solver):
        src = tmp_path / "empty.clq"
        src.write_text("p edge 0 0\n")
        code, out, err = run_cli(["solve", str(src), "--solver", solver], capsys)
        assert (code, err) == (0, "")
        assert "clique_size=0" in out
        assert "energy=0" in out

    def test_refuses_an_option_the_backend_would_ignore(self, tmp_path, capsys):
        src = tmp_path / "path.clq"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        code, out, err = run_cli(["solve", str(src), "--solver", "sampler", "--budget", "5"], capsys)
        assert (code, out) == (1, "")
        assert "budget" in err
        code, _, err = run_cli(["solve", str(src), "--solver", "exact", "--seed", "4"], capsys)
        assert (code, err) == (0, "")

    def test_help_lists_each_backends_options(self, capsys):
        code, out, _ = run_cli(["solve", "--help"], capsys)
        assert code == 0
        text = " ".join(out.split())
        for reads in ["exact: --budget;", "sa-clique: --budget --alpha;", "sa-qubo: --budget --alpha;",
                      "descent: --num-reads;", "sampler: --num-reads."]:
            assert reads in text

    def test_budget_exhaustion_is_solver_failure(self, tmp_path, capsys):
        src = tmp_path / "g.clq"
        from cliquesplit import gnp_random, write_dimacs

        src.write_text(write_dimacs(gnp_random(40, 0.6, 3)))
        code, _, err = run_cli(
            ["solve", str(src), "--solver", "exact", "--budget", "1"], capsys
        )
        assert code == 2
        assert "solver failure" in err


class TestQuboAndCapacity:
    def test_qubo_emission(self, tmp_path, capsys):
        src = tmp_path / "in.clq"
        src.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
        code, out, _ = run_cli(["qubo", "--from-graph", str(src)], capsys)
        assert code == 0
        # No parser reads this format back, so the exact text is its specification.
        assert out == "N 3\nL 0 -1\nL 1 -1\nL 2 -1\nQ 0 2 2\n"

    def test_capacity(self, capsys):
        code, out, _ = run_cli(["capacity", "--qubits", "1152"], capsys)
        assert code == 0
        assert out.strip() == "49"


class TestBench:
    def test_config_run(self, tmp_path, capsys):
        import csv as csv_mod

        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "experiment = demo\ngraph = gnp\nn = 20\np = 0.4\n"
            "vertex_limit = 10\nseeds = 1,2\n"
        )
        out_file = tmp_path / "res.csv"
        code, _, _ = run_cli(["bench", str(cfg), "--out", str(out_file)], capsys)
        assert code == 0
        rows = list(csv_mod.reader(out_file.open()))
        assert len(rows) == 4  # header + 2 runs + median
        assert rows[1][:3] == ["demo", "gnp(n=20,p=0.4)", "20"]

    def test_seed_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graph = gnp\nn = 15\np = 0.3\nvertex_limit = 10\nseeds = 1,2,3\n")
        code, out, _ = run_cli(["bench", str(cfg), "--seed", "9"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + 1 run + median
        assert ",9," in lines[1]

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["bench", str(cfg)]) == 1

    def test_repeated_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("n = 100\nvertex_limit = 10\nn = 200\n")
        code, out, err = run_cli(["bench", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert "line 3: duplicate key 'n' (first on line 1)" in err

    def test_dimacs_without_a_path_names_it(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("graph = dimacs\n")
        code, out, err = run_cli(["bench", str(cfg)], capsys)
        assert (code, out) == (1, "")
        assert "path" in err and "No such file" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "gnp", "--n", "30", "--p", "0.5"],
        ["gen", "cm", "--contractions", "3", "--rows", "1", "--cols", "1"],
        ["reduce", "IN", "--lower-bound", "2"],
        ["split", "IN", "--vertex-limit", "2"],
    ],
)
def test_a_negative_seed_is_refused(argv, tmp_path, capsys):
    # random.Random seeds from an int's absolute value, so -1 would run seed 1.
    src = tmp_path / "in.clq"
    src.write_text(K4_TEXT)
    argv = [str(src) if arg == "IN" else arg for arg in argv]
    code, out, err = run_cli([*argv, "--seed", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: seed must be non-negative, got -1\n"


def test_readme_commands_parse():
    # Every command of README's CLI block, comment removed, is one the parser
    # accepts; parsing runs nothing.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "cliquesplit"
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
