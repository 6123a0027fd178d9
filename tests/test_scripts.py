"""The experiment scripts run end to end on tiny inputs and write CSV."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN_HEADER = (
    "experiment,graph,n,m,solver,vertex_limit,per_call_time_model_s,seed,repetition,"
    "clique_size,solver_calls,split_time_wall_s,modeled_total_wall_s"
)


def run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args.split()],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("runtime_scaling.py", "--sizes 60,90 --avg-degree 6 --seeds 1", RUN_HEADER),
        ("density_sweep.py", "--n 40 --p-values 0.1,0.5 --seeds 1 --vertex-limit 15", RUN_HEADER),
        (
            "future_machines.py",
            "--n 60 --p 0.3 --seeds 2 --doublings 1",
            "qubits,vertex_limit,median_solver_calls,modeled_total_s",
        ),
    ],
)
def test_script_writes_csv(script, args, header):
    done = run_script(script, args)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == header
    assert len(lines) > 1


def test_density_sweep_fit_with_flat_call_counts():
    # Both densities make the same median call count, so the log-linear fit is flat.
    done = run_script("density_sweep.py", "--n 30 --p-values 0.1,0.12 --seeds 1 --vertex-limit 40")
    assert done.returncode == 0, done.stderr
    assert "R^2=" in done.stderr
    assert "nan" not in done.stderr and "RuntimeWarning" not in done.stderr


# workload -> instance count at --scale tiny
TINY_INSTANCES = {"dense-exact": 2, "sparse-large": 1, "cm-sampler": 4}


def test_fingerprint_prints_one_digest_per_instance():
    for workload, count in TINY_INSTANCES.items():
        args = f"--workload {workload} --seed 1 --scale tiny"
        done = run_script("fingerprint.py", args)
        assert done.returncode == 0, done.stderr
        lines = [line.split() for line in done.stdout.splitlines()]
        assert [int(fields[0]) for fields in lines] == list(range(count)), workload
        for fields in lines:
            assert len(fields) == 6 and len(fields[4]) == len(fields[5]) == 16
            assert int(fields[1]) >= 1 and int(fields[2]) >= 1
        assert run_script("fingerprint.py", args).stdout == done.stdout, workload
