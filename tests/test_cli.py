import gc
import json
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from vplab import build_grid, cli, collision, maxwellian, make_initial_data, solver
from vplab.grid import NormSuite, VelocityForm
from vplab.cli import main, config_hash, resolve_config, build_parser, _validate, \
    ConfigError, DEFAULTS


def run_cli(args):
    return main(args)


def test_unknown_key_named(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"grid": {"nvv": 8}}')
    rc = run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert not (tmp_path / "o").exists() or not any((tmp_path / "o").iterdir())


def test_malformed_json_exit2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text("{nope")
    rc = run_cli(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "not valid JSON" in err[0]


@pytest.mark.parametrize("make, message", [
    (lambda p: p.mkdir(), "IsADirectoryError"),
    (lambda p: p.write_bytes(b"\xff\xfe{}"), "UnicodeDecodeError"),
], ids=["directory", "not-utf8"])
def test_unreadable_config_exit2(tmp_path, capsys, make, message):
    cfg = tmp_path / "run.json"
    make(cfg)
    rc = run_cli(["decay", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and message in err[0]


def test_bad_values_exit2(tmp_path):
    for body in ('{"physics": {"psi_mode": "weird"}}',
                 '{"scheme": {"scheme": "rk9"}}',
                 '{"scheme": {"scheme": "implicit-midpoint"}}',
                 '{"physics": {"K0": 1.0}}',
                 '{"seed": -3}',
                 '{"bogus_block": {}}'):
        (tmp_path / "c.json").write_text(body)
        assert run_cli(["simulate", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / "o")]) == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"physics": {"gamma": -1.0}, "grid": {"nv": 8}}')
    ap = build_parser()
    args = ap.parse_args(["collision-check", "--config", str(cfg),
                          "--gamma", "0.0"])
    resolved = resolve_config(args)
    assert resolved["physics"]["gamma"] == 0.0
    assert resolved["grid"]["nv"] == 8


def test_config_hash_ignores_io():
    a = _validate({"io": {"out_dir": "/a"}})
    b = _validate({"io": {"out_dir": "/b"}})
    assert config_hash(a) == config_hash(b)
    c = _validate({"seed": 7})
    assert config_hash(a) != config_hash(c)


def test_collision_check_dispatch(tmp_path):
    rc = run_cli(["collision-check", "--nv", "8", "--gamma", "0",
                  "--out", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "collision_report.json").read_text())
    assert rep["passed"]
    assert rep["lambda_h"] > 0
    assert rep["K_fft_vs_blocks"] <= rep["thresholds"]["K_fft_vs_blocks"]
    assert "config_hash" in rep


def test_collision_check_unconverged_probe_exit1(tmp_path, monkeypatch, capsys):
    # eigenvalues off by 1e-6 relative: the probe's own residual check fires,
    # and nothing warns
    block_pencil = collision._block_pencil

    def perturbed(*args):
        w, residual = block_pencil(*args)
        return w * (1.0 + 1e-6), residual
    monkeypatch.setattr(collision, "_block_pencil", perturbed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["collision-check", "--nv", "8", "--gamma", "0",
                      "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "RuntimeError" in err and "sum sector" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "collision_report.json").exists()


def test_collision_check_failed_eigensolve_exit1(tmp_path, monkeypatch, capsys):
    # LAPACK's LinAlgError (a ValueError) on a split block leaves the probe
    # as a RuntimeError that names the block
    def failed(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(collision, "_block_pencil", failed)
    rc = run_cli(["collision-check", "--nv", "8", "--gamma", "0",
                  "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "RuntimeError" in err and "split block 0 of the sum sector" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "collision_report.json").exists()


def test_collision_check_indefinite_sigma_block_exit1(tmp_path, monkeypatch, capsys):
    # a sigma form whose split blocks are not positive definite (here: its
    # negative) stops the probe at the Cholesky factor of the first block
    sigma_form = NormSuite.sigma_form

    def negated(self, l):
        S = sigma_form(self, l)
        return VelocityForm([(X, -t) for X, t in S.terms], -S.d)
    monkeypatch.setattr(NormSuite, "sigma_form", negated)
    rc = run_cli(["collision-check", "--nv", "8", "--gamma", "0",
                  "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "RuntimeError" in err and "split block 0 of the sigma form" in err
    assert "not positive definite" in err and "Traceback" not in err
    assert not (tmp_path / "o" / "collision_report.json").exists()


def test_outputs_independent_of_blas_thread_variables(tmp_path):
    # `import vplab` defaults OPENBLAS_NUM_THREADS and OMP_NUM_THREADS to 1,
    # so runs with neither variable set write the bytes of runs with both at
    # 1 (with two threads OpenBLAS splits the sums of a product differently)
    threads = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in threads}
    for tag, env in (("unset", base), ("one", dict(base, **dict.fromkeys(threads, "1")))):
        for args in (["simulate", "--nv", "8", "--nx", "16"], ["collision-check", "--nv", "8"]):
            r = subprocess.run([sys.executable, "-W", "ignore", "-m", "vplab.cli"] + args
                               + ["--out", str(tmp_path / tag / args[0])],
                               env=env, capture_output=True, text=True)
            assert r.returncode == 0, r.stderr
    files = sorted(p.relative_to(tmp_path / "unset")
                   for p in (tmp_path / "unset").rglob("*") if p.is_file())
    assert len(files) == 4
    for f in files:
        assert (tmp_path / "unset" / f).read_bytes() == (tmp_path / "one" / f).read_bytes(), f


def test_simulate_outputs_and_snapshots(tmp_path):
    rc = run_cli(["simulate", "--nv", "8", "--nx", "16", "--t-end", "0.5",
                  "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    files = {p.name for p in tmp_path.iterdir()}
    assert {"snapshots.npz", "energy.csv", "simulate_report.json"} <= files
    with np.load(tmp_path / "snapshots.npz") as snaps:
        assert snaps["f"].ndim == 4 and snaps["f"].shape[1] == 2
        assert snaps["t"].shape[0] == snaps["f"].shape[0]
    header = (tmp_path / "energy.csv").read_text().splitlines()
    assert header[0].startswith("# config_hash=")
    assert header[1].split(",")[0] == "t"


def test_decay_dispatch_quick(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "grid": {"nv": 8, "nx": 8},
        "decay": {"n_y": 6, "t_end": 20.0, "fit_lo": 5.0, "fit_hi": 20.0},
    }))
    rc = run_cli(["decay", "--config", str(cfg), "--gamma", "0", "--m", "0",
                  "--out", str(tmp_path)])
    rep = json.loads((tmp_path / "decay_report.json").read_text())
    assert "slope" in rep and "r2" in rep and "y_grid" in rep
    lines = (tmp_path / "decay_modes.csv").read_text().splitlines()
    assert lines[1] == "t,y,functional,sigma_dissipation"
    assert rc in (0, 1)


def test_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = run_cli(["simulate", "--nv", "8", "--nx", "16", "--t-end", "0.3",
                      "--seed", "11", "--out", str(out)])
        assert rc == 0
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_seed_changes_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["simulate", "--nv", "8", "--nx", "16", "--t-end", "0.3"]
    cfg = tmp_path / "run.json"
    cfg.write_text('{"initial_data": {"kind": "noise"}}')
    run_cli(base + ["--config", str(cfg), "--seed", "1", "--out", str(out1)])
    run_cli(base + ["--config", str(cfg), "--seed", "2", "--out", str(out2)])
    assert (out1 / "energy.csv").read_bytes() != (out2 / "energy.csv").read_bytes()


def test_cache_dir_flag_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["collision-check", "--cache-dir", str(tmp_path / "cache"),
                 "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


def test_collision_check_builds_one_kernel_table(tmp_path, monkeypatch):
    # the direct sigma reuses the assembly's kernel table
    built = []

    class Counted(collision.KernelTable):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(collision, "KernelTable", Counted)
    assert run_cli(["collision-check", "--nv", "8", "--gamma", "-1",
                    "--out", str(tmp_path)]) == 0
    assert len(built) == 1


def test_moments_check_frees_spin_up_before_study(tmp_path, monkeypatch):
    # each Simulation's propagators are released before the next one is built
    live = weakref.WeakSet()
    built = []

    class Recording(cli.Simulation):
        def __init__(self, *args, **kwargs):
            if built:
                gc.collect()
                assert not live, f"{len(live)} earlier Simulation alive at build {len(built)}"
            super().__init__(*args, **kwargs)
            live.add(self)
            built.append(1)

    monkeypatch.setattr(cli, "Simulation", Recording)
    assert run_cli(["moments-check", "--nv", "8", "--nx", "4", "--dt", "0.1",
                    "--out", str(tmp_path)]) in (0, 1)
    assert len(built) == 3      # spin-up, then the dt and dt/2 runs


@pytest.mark.parametrize("args, body, key", [
    (["collision-check", "--nv", "7"], None, "grid.nv"),
    (["collision-check", "--gamma", "5"], None, "physics.gamma"),
    (["collision-check"], '{"grid": {"nv": "8"}}', "grid.nv"),
    (["simulate", "--dt", "-1"], None, "scheme.dt"),
    (["simulate", "--nx", "12"], None, "grid.nx"),
    (["simulate", "--t-end", "0.01"], None, "scheme.t_end"),
    (["simulate"], '{"initial_data": {"kind": "file"}}', "initial_data.path"),
    (["decay"], '{"decay": {"data": "rough"}}', "decay.data"),
    (["decay"], '{"decay": {"n_y": "12"}}', "decay.n_y"),
    (["decay"], '{"decay": {"t_end": -5}}', "decay.t_end"),
    (["decay"], '{"decay": {"fit_lo": 80, "fit_hi": 20}}', "decay.fit_hi"),
    (["decay"], '{"decay": {"fit_lo": 20, "fit_hi": 80, "t_end": 20}}', "decay.fit_lo"),
    (["decay"], '{"decay": {"y_min": 0}}', "decay.y_min"),
    (["decay"], '{"decay": {"y_min": 0.5, "y_max": 0.1}}', "decay.y_max"),
    (["decay"], '{"decay": {"l_star": "half"}}', "decay.l_star"),
    (["decay"], '{"decay": {"l": null}}', "decay.l"),
    (["energy-report"], '{"physics": {"lambda_h": "x"}}', "physics.lambda_h"),
    (["simulate"], '{"initial_data": {"asym": "big"}}', "initial_data.asym"),
    (["simulate"], '{"initial_data": {"mode": 1.5}}', "initial_data.mode"),
    (["simulate"], '{"scheme": {"disable_gamma": "no"}}', "scheme.disable_gamma"),
    (["simulate"], '{"scheme": {"disable_field_nl": 1}}', "scheme.disable_field_nl"),
    (["collision-check"], '{"io": {"cache_dir": 3}}', "io.cache_dir"),
    # y_min at or above the default y_max: 1.2 for hard potentials, 1.0 for soft
    (["decay"], '{"decay": {"y_min": 2.0}}', "decay.y_min"),
    (["decay"], '{"physics": {"gamma": -2.5}, "decay": {"y_min": 1.1}}', "decay.y_min"),
    (["simulate"], '{"initial_data": {"kind": "file", "path": "no_such_f0.npz"}}',
     "initial_data.path"),
    (["simulate", "--psi", "weird"], None, "physics.psi_mode"),
])
def test_bad_merged_values_exit2_naming_key(tmp_path, capsys, args, body, key):
    # flags are checked after the merge, like run-file values
    if body is not None:
        (tmp_path / "c.json").write_text(body)
        args = args + ["--config", str(tmp_path / "c.json")]
    assert run_cli(args + ["--out", str(tmp_path / "o")]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_one_flag_per_flagged_key():
    flags = {a.option_strings[0]: a.dest for a in build_parser()._actions if "." in a.dest}
    assert flags == {flag: f"{b}.{k}" for b, k, _, flag, *_ in cli._KEYS if flag}


def test_readme_defaults_match_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("Blocks and defaults:", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == DEFAULTS


@pytest.mark.parametrize("block, key", [(b, k) for b, keys in DEFAULTS.items()
                                         if isinstance(keys, dict) for k in keys]
                         + [("seed", None)])
def test_list_value_exit2_naming_key(tmp_path, capsys, block, key):
    # every config key has a type rule, whatever the other keys hold
    body = {"io": {"out_dir": str(tmp_path / "o")}}
    if key is None:
        body[block], name = [1], block
    else:
        body.setdefault(block, {})[key], name = [1], f"{block}.{key}"
    (tmp_path / "c.json").write_text(json.dumps(body))
    assert run_cli(["collision-check", "--config", str(tmp_path / "c.json")]) == 2
    assert f"'{name}'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args, body, message", [
    (["simulate", "--nv", "16", "--nx", "256"], None, "per-mode propagator storage"),
    (["simulate"], {"grid": {"nx": 4}, "initial_data": {"amplitude": 50.0},
                    "scheme": {"t_end": 0.1}}, "nonlinear half-step blow-up at t = 0:"),
    # no sample of the largest-y mode in the dissipation-rate window t in [2, t_end/2]
    (["decay"], {"grid": {"nx": 8}, "decay": {"n_y": 4, "t_end": 3, "fit_lo": 1.0,
                                              "fit_hi": 3}}, "decay.t_end"),
    # horizon shorter than one mode step
    (["decay"], {"grid": {"nx": 8}, "decay": {"n_y": 4, "t_end": 0.02, "fit_lo": 0.01,
                                              "fit_hi": 0.02}}, "decay.t_end"),
    # no fit time between fit_lo and fit_hi
    (["decay"], {"grid": {"nx": 8}, "decay": {"n_y": 4, "t_end": 20, "fit_lo": 10.0,
                                              "fit_hi": 10.01}}, "decay.fit_lo"),
    # two snapshots (t = 0, 0.1) for the three-point inequality monitor
    (["energy-report", "--nx", "8", "--t-end", "0.1"], None, "scheme.t_end"),
    # one step in the 0.6 window of the moments study, two snapshots
    (["moments-check", "--nv", "8", "--nx", "4", "--dt", "0.5"], None, "scheme.dt"),
])
def test_runtime_failure_exit1_one_line(tmp_path, args, body, message):
    if message == "per-mode propagator storage":      # refused, not run
        assert solver.propagator_bytes(build_grid(nv=16, nx=256)) > solver.PROPAGATOR_BUDGET_BYTES
    if body is not None:
        (tmp_path / "c.json").write_text(json.dumps(body))
        args = args + ["--config", str(tmp_path / "c.json")]
    r = subprocess.run([sys.executable, "-W", "ignore", "-m", "vplab.cli"]
                       + args + ["--out", str(tmp_path / "o")],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert message in r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1


@pytest.mark.parametrize("args, body, key", [
    (["decay", "--gamma", "0"],
     {"decay": {"l": 400.0, "n_y": 4, "t_end": 20, "fit_lo": 5, "fit_hi": 20}}, "decay.l"),
    (["simulate", "--nx", "4"], {"physics": {"l": 500.0}}, "physics.l"),
])
def test_overflowing_weight_exit1_naming_key(tmp_path, args, body, key):
    # w^l overflows at the box corners: a non-finite functional is refused,
    # not fitted or written; no -W here, so no warning may reach stderr
    (tmp_path / "c.json").write_text(json.dumps(body))
    r = subprocess.run([sys.executable, "-m", "vplab.cli"] + args
                       + ["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")],
                       capture_output=True, text=True)
    assert r.returncode == 1
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and f"{key} = " in lines[0] and "RuntimeError" in lines[0]
    assert not (tmp_path / "o" / "decay_report.json").exists()
    assert not (tmp_path / "o" / "energy.csv").exists()


def test_overflowing_weight_refused_before_the_run(tmp_path, monkeypatch, capsys):
    # w^l is checked on the velocity box before any propagator is built
    def refuse(*args, **kwargs):
        pytest.fail("Simulation built although w^l overflows")
    monkeypatch.setattr(cli, "Simulation", refuse)
    assert run_cli(["simulate", "--nx", "4", "--l", "500", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "physics.l = 500" in err[0]


def test_overflowing_data_named_not_the_weight(tmp_path, capsys):
    # w^3 is finite; the squares of 1e200 overflow: the data are named
    np.savez(tmp_path / "f0.npz", f=np.full((2, 4, 512), 1e200))
    (tmp_path / "c.json").write_text(json.dumps({"grid": {"nx": 4}, "initial_data": {
        "kind": "file", "path": str(tmp_path / "f0.npz"), "amplitude": 1.0}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = run_cli(["simulate", "--config", str(tmp_path / "c.json"),
                      "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "RuntimeError" in err[0]
    assert "initial_data" in err[0] and "physics.l" not in err[0]
    assert not (tmp_path / "o" / "energy.csv").exists()


def test_missed_threshold_named(tmp_path, capsys):
    # all-zero data leave every coarse residual at or below 1e-10: no orders,
    # and the stderr line says so; the report itself is unchanged
    np.savez(tmp_path / "f0.npz", f=np.zeros((2, 4, 512)))
    (tmp_path / "c.json").write_text(json.dumps({"grid": {"nx": 4}, "initial_data": {
        "kind": "file", "path": str(tmp_path / "f0.npz")}}))
    assert run_cli(["moments-check", "--config", str(tmp_path / "c.json"),
                    "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("moments-check: acceptance thresholds not met: orders = {}")
    rep = json.loads((tmp_path / "o" / "moments_report.json").read_text())
    assert rep["orders"] == {} and rep["passed"] is False


def test_inequality_monitor_uses_snapshot_times(tmp_path):
    # snapshots at t = 0, 0.25, 0.5, 0.75, 1.0, 1.1: the last interval is short
    assert run_cli(["energy-report", "--nx", "8", "--t-end", "1.1",
                    "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "energy.csv").read_text().splitlines()[1:]
    header = rows[0].split(",")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    t, E, D = (data[:, header.index(k)] for k in ("t", "E_total", "D_total"))
    assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0, 1.1], rtol=0, atol=1e-12)
    mon = json.loads((tmp_path / "inequality_report.json").read_text())
    lhs = (E[2:] - E[:-2]) / (t[2:] - t[:-2]) + mon["lambda_h"] / 2.0 * D[1:-1]
    np.testing.assert_allclose(mon["lhs"], lhs, rtol=1e-12, atol=0)


@pytest.mark.parametrize("command", ["simulate", "energy-report", "moments-check"])
def test_propagator_budget_checked_before_assembly(tmp_path, monkeypatch, capsys,
                                                   command):
    assert solver.propagator_bytes(build_grid(nv=16, nx=256)) > solver.PROPAGATOR_BUDGET_BYTES

    def refuse(*args, **kwargs):
        pytest.fail("CollisionAssembly built for a grid over the propagator budget")
    monkeypatch.setattr("vplab.cli.CollisionAssembly", refuse)
    assert run_cli([command, "--nv", "16", "--nx", "256",
                    "--out", str(tmp_path / "o")]) == 1
    assert "per-mode propagator storage" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "energy-report", "moments-check"])
@pytest.mark.parametrize("nx, mode", [(4, 2), (2, 1)])
def test_initial_mode_above_cutoff_exit2(tmp_path, capsys, command, nx, mode):
    # the 2/3 rule keeps x-modes 0 and 1 at nx 4, and mode 0 alone at nx 2,
    # where the default mode 1 is refused: macroscopic data needs nx >= 4
    (tmp_path / "c.json").write_text(json.dumps({"initial_data": {"mode": mode}}))
    assert run_cli([command, "--nx", str(nx), "--config", str(tmp_path / "c.json"),
                    "--out", str(tmp_path / "o")]) == 2
    assert "'initial_data.mode'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_initial_mode_kept_runs_and_other_commands_unchecked(tmp_path, monkeypatch):
    (tmp_path / "c.json").write_text(json.dumps({"initial_data": {"mode": 1}}))
    assert run_cli(["simulate", "--nx", "4", "--t-end", "0.1",
                    "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "o")]) == 0
    # commands that step no Simulation do not read initial_data.mode
    (tmp_path / "c.json").write_text(json.dumps({"initial_data": {"mode": 2}}))
    others = sorted(set(cli.COMMANDS) - set(cli.SIMULATION_COMMANDS))
    assert others == ["collision-check", "decay", "symbols-check"]
    for command in others:
        monkeypatch.setitem(cli.COMMANDS, command, lambda *args: 0)
        assert run_cli([command, "--nx", "4", "--config", str(tmp_path / "c.json"),
                        "--out", str(tmp_path / command)]) == 0


def test_initial_data_file_wrong_shape_exit2(tmp_path, capsys):
    # f written for nx = 4, run on nx = 8
    g = build_grid(nv=8, nx=4)
    np.savez(tmp_path / "f0.npz", f=make_initial_data(g, maxwellian(g), "macroscopic"))
    (tmp_path / "c.json").write_text(json.dumps(
        {"initial_data": {"kind": "file", "path": str(tmp_path / "f0.npz")}}))
    assert run_cli(["simulate", "--nx", "8", "--config", str(tmp_path / "c.json"),
                    "--out", str(tmp_path / "o")]) == 2
    assert "'initial_data.path'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_initial_data_file_loaded_once(tmp_path, monkeypatch):
    # validation reads the file before the out dir is made; the run reuses it
    g = build_grid(nv=8, nx=4)
    np.savez(tmp_path / "f0.npz", f=make_initial_data(g, maxwellian(g), "macroscopic"))
    (tmp_path / "c.json").write_text(json.dumps(
        {"grid": {"nx": 4}, "scheme": {"t_end": 0.1},
         "initial_data": {"kind": "file", "path": str(tmp_path / "f0.npz")}}))
    loads = []

    def counted(*args, _load=np.load, **kwargs):
        loads.append(args[0])
        return _load(*args, **kwargs)
    monkeypatch.setattr(np, "load", counted)
    assert run_cli(["simulate", "--config", str(tmp_path / "c.json"),
                    "--out", str(tmp_path / "o")]) == 0
    assert loads == [str(tmp_path / "f0.npz")]


def test_initial_data_file_energy_report_and_moments(tmp_path, monkeypatch):
    # both commands read initial_data.path; energy-report writes the
    # same energy.csv as simulate. The file holds the default data before
    # its dealiasing, which file data then goes through as macroscopic data does
    with monkeypatch.context() as mp:
        mp.setattr(solver, "dealias_x", lambda f, grid: f)
        for nx in (8, 4):
            g = build_grid(nv=8, nx=nx)
            np.savez(tmp_path / f"f0_nx{nx}.npz",
                     f=make_initial_data(g, maxwellian(g), "macroscopic", 1.0, asym=0.25))
    run = {"grid": {"nx": 8}, "scheme": {"t_end": 0.5},
           "physics": {"lambda_h": 0.1}}
    (tmp_path / "sim.json").write_text(json.dumps(run))
    run["initial_data"] = {"kind": "file", "path": str(tmp_path / "f0_nx8.npz")}
    (tmp_path / "er.json").write_text(json.dumps(run))
    assert run_cli(["simulate", "--config", str(tmp_path / "sim.json"),
                    "--out", str(tmp_path / "sim")]) == 0
    assert run_cli(["energy-report", "--config", str(tmp_path / "er.json"),
                    "--out", str(tmp_path / "er")]) == 0
    sim_csv = (tmp_path / "sim" / "energy.csv").read_text().splitlines()
    er_csv = (tmp_path / "er" / "energy.csv").read_text().splitlines()
    assert er_csv[1] == sim_csv[1]
    assert er_csv[1].endswith(",z1,min_F,div_E_residual")
    assert er_csv[2:] == sim_csv[2:]      # the file holds the default data
    (tmp_path / "mom.json").write_text(json.dumps({"initial_data": {
        "kind": "file", "path": str(tmp_path / "f0_nx4.npz")}}))
    rc = run_cli(["moments-check", "--config", str(tmp_path / "mom.json"),
                  "--nv", "8", "--nx", "4", "--dt", "0.1",
                  "--out", str(tmp_path / "mom")])
    assert rc in (0, 1)
    assert "orders" in json.loads((tmp_path / "mom" / "moments_report.json").read_text())
