"""End-to-end CLI: config validation, CSV schemas, exit codes, determinism."""

import json
import math

import pytest

from latticesum import cli, dispersion
from latticesum.cli import ConfigError, RunConfig, main, parse_config
from latticesum.ewald import f_constant
from latticesum.model import j0_scale


def run_cli(tmp_path, command, cfg, name="run"):
    cp = tmp_path / f"{name}.json"
    op = tmp_path / f"{name}.csv"
    cp.write_text(json.dumps(cfg))
    return main([command, "--config", str(cp), "--out", str(op)]), op


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [r.split(",") for r in rows]


def test_defaults():
    cfg = parse_config("{}")
    assert cfg == RunConfig()
    assert cfg.b_over_a == 10.0
    assert cfg.method == "ewald"
    assert len(cfg.theta) == 6


def test_theta_scalar_becomes_tuple():
    assert parse_config('{"theta": 0.5}').theta == (0.5,)
    assert parse_config('{"theta": [0.5, 1.0]}').theta == (0.5, 1.0)


@pytest.mark.parametrize(
    "payload,needle",
    [
        ('{"bogus": 1}', "bogus"),
        ('{"a_angstrom": -5}', "a_angstrom"),
        ('{"a_angstrom": true}', "a_angstrom"),
        ('{"theta": []}', "theta"),
        ('{"theta": [0.1, 7.0]}', "theta[1]"),
        ('{"phi_points": 0}', "phi_points"),
        ('{"ka_values": []}', "ka_values"),
        ('{"ka_values": [0.5, -1.0]}', "ka_values[1]"),
        ('{"n_sites": 12}', "n_sites"),
        ('{"method": "magic"}', "method"),
        ('{"ewald": {"n_max": 2, "junk": 3}}', "ewald.junk"),
        ('{"ewald": 5}', "ewald"),
        ('{"ewald": {"bessel_n_max": 8}}', "ewald.bessel_n_max"),
        ('{"nearest_only": 1}', "nearest_only"),
        ('{"output_path": ""}', "output_path"),
        ("[1, 2]", "top level"),
        ("{broken", "JSON"),
    ],
)
def test_bad_configs_name_the_key(payload, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(payload)
    assert needle in str(err.value)


def test_exit_codes(tmp_path):
    code, _ = run_cli(tmp_path, "sweep-phi", {"phi_points": 4, "theta": [0.3]})
    assert code == 0
    code, _ = run_cli(tmp_path, "sweep-phi", {"bogus": 1})
    assert code == 2
    code, _ = run_cli(tmp_path, "stack", {"n_planes": 1})
    assert code == 2
    code, _ = run_cli(tmp_path, "convergence", {"k_direction": "grid"})
    assert code == 2
    out = str(tmp_path / "x.csv")
    assert main(["sweep-phi", "--config", str(tmp_path / "nope.json"), "--out", out]) == 3
    cp = tmp_path / "ok.json"
    cp.write_text('{"phi_points": 2, "theta": [0.3]}')
    missing_dir = str(tmp_path / "no_such_dir" / "x.csv")
    assert main(["sweep-phi", "--config", str(cp), "--out", missing_dir]) == 3


@pytest.mark.parametrize(
    "cfg",
    [
        # the inter-plane series has not converged: the trace check trips
        {"b_over_a": 1e-9, "ka_values": [0.5]},
        # phi = 0 puts k on the reciprocal-lattice point (2 pi, 0)
        {"ka_values": [6.283185307179586], "k_direction": 0.0},
    ],
)
def test_numerical_failures_exit_2_with_one_line(tmp_path, capsys, cfg):
    code, _ = run_cli(tmp_path, "sweep-phi", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_stack_has_no_plane_cap(tmp_path):
    code, op = run_cli(tmp_path, "stack", {"n_planes": 65, "n_sites": 4})
    assert code == 0
    _, rows = read_rows(op)
    assert [int(r[2]) for r in rows] == list(range(65))


def test_direct_windows_once_per_k_and_separation(tmp_path, monkeypatch):
    calls = []
    window = dispersion.d_tensor_direct

    def counting(k, cfg, b_over_a):
        calls.append((k, cfg.layer_offset))
        return window(k, cfg, b_over_a)

    monkeypatch.setattr(dispersion, "d_tensor_direct", counting)
    cfg = {"method": "direct", "direct_cutoff": 5, "n_planes": 2}
    code, _ = run_cli(tmp_path, "dispersion", {**cfg, "ka_values": [0.5, 1.0]})
    assert code == 0
    # one in-plane and one inter-plane window per k
    assert len(calls) == 4
    assert len(set(calls)) == 4


def test_sweep_phi_schema_and_closed_form(tmp_path):
    cfg = {"theta": [0.0, math.pi / 2.0], "phi_points": 12, "ka_values": [1e-3]}
    code, op = run_cli(tmp_path, "sweep-phi", cfg)
    assert code == 0
    header, rows = read_rows(op)
    assert header == ["theta", "phi", "ka", "b_over_a", "jprime_over_j0"]
    assert len(rows) == 2 * 12
    for row in rows:
        theta, phi, ka, b, jp = map(float, row)
        want = (
            2.0 * math.pi * ka * math.exp(-ka * b)
            * (math.sin(theta) ** 2 * math.cos(phi) ** 2 - math.cos(theta) ** 2)
        )
        assert jp == pytest.approx(want, abs=1e-9)


def test_csv_floats_roundtrip(tmp_path):
    cfg = {"theta": [0.3], "phi_points": 7, "ka_values": [0.25]}
    _, op = run_cli(tmp_path, "sweep-phi", cfg)
    _, rows = read_rows(op)
    # repr round-trips doubles exactly
    assert float(rows[3][1]) == 2.0 * math.pi * 3 / 7
    assert float(rows[0][2]) == 0.25


def test_sweep_phi_deterministic_bytes(tmp_path):
    cfg = {"theta": [0.4, 1.1], "phi_points": 16, "ka_values": [0.5]}
    _, op1 = run_cli(tmp_path, "sweep-phi", cfg, name="one")
    _, op2 = run_cli(tmp_path, "sweep-phi", cfg, name="two")
    b1, b2 = op1.read_bytes(), op2.read_bytes()
    assert b1 == b2
    assert b"\r" not in b1


def test_dispersion_two_planes(tmp_path):
    cfg = {"theta": [0.7], "ka_values": [0.5, 1.0], "k_direction": 0.25, "n_planes": 2}
    code, op = run_cli(tmp_path, "dispersion", cfg)
    assert code == 0
    header, rows = read_rows(op)
    assert header == ["kxa", "kya", "j_over_j0", "jprime_over_j0", "mode_index", "energy_ev"]
    assert len(rows) == 4
    j0 = j0_scale(1.0, 1000.0)
    for lo, hi in ((rows[0], rows[1]), (rows[2], rows[3])):
        assert (int(lo[4]), int(hi[4])) == (0, 1)
        jp = float(lo[3])
        gap = float(hi[5]) - float(lo[5])
        assert gap == pytest.approx(2.0 * abs(jp) * j0, rel=1e-4)


def test_dispersion_single_plane(tmp_path):
    cfg = {"theta": [0.7], "ka_values": [0.5], "k_direction": 0.25, "n_planes": 1}
    code, op = run_cli(tmp_path, "dispersion", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert len(rows) == 1
    assert float(rows[0][3]) == 0.0


@pytest.mark.parametrize("method", ["ewald", "direct"])
def test_dispersion_grid_includes_origin(tmp_path, method):
    cfg = {
        "method": method,
        "k_direction": "grid",
        "n_sites": 4,
        "n_planes": 2,
        "theta": [0.5],
    }
    code, op = run_cli(tmp_path, "dispersion", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert len(rows) == 9 * 2
    origin = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0]
    assert len(origin) == 2
    # k = 0 rows take the corrected window sum with every engine; the
    # in-plane coupling there is F (2 cos^2 theta - sin^2 theta)
    f = f_constant()
    want = f * (2.0 * math.cos(0.5) ** 2 - math.sin(0.5) ** 2)
    assert float(origin[0][2]) == pytest.approx(want, rel=1e-6)
    for r in origin:
        assert math.isfinite(float(r[5]))


def test_convergence_schema_and_claim(tmp_path):
    cfg = {"b_over_a": 1.0, "ka_values": [0.5], "k_direction": 0.3}
    code, op = run_cli(tmp_path, "convergence", cfg)
    assert code == 0
    header, rows = read_rows(op)
    assert header == ["engine", "terms", "value_dzz", "abs_err_vs_reference", "wall_time_ns"]
    engines = {r[0] for r in rows}
    assert engines == {"direct", "ewald"}
    assert all(int(r[4]) > 0 for r in rows)
    # the series hits 1e-10 within its listed orders
    assert any(r[0] == "ewald" and float(r[3]) <= 1e-10 for r in rows)


def test_convergence_ratio_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # with only n_max = 12 listed the series spends 625 terms; the window
    # reaches 1e-6 at L = 300 (361 201 terms), a ratio of 578
    monkeypatch.setattr(cli, "_EWALD_CONVERGENCE_ORDERS", range(12, 13))
    cfg = {"b_over_a": 1.0, "ka_values": [0.5], "k_direction": 0.3}
    code, op = run_cli(tmp_path, "convergence", cfg)
    assert code == 2
    assert not op.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: term-count ratio")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_convergence_deterministic_modulo_timing(tmp_path):
    cfg = {"b_over_a": 1.0, "ka_values": [0.5], "k_direction": 0.3}
    _, op1 = run_cli(tmp_path, "convergence", cfg, name="one")
    _, op2 = run_cli(tmp_path, "convergence", cfg, name="two")
    _, rows1 = read_rows(op1)
    _, rows2 = read_rows(op2)
    assert [r[:4] for r in rows1] == [r[:4] for r in rows2]


def test_stack_five_planes(tmp_path):
    cfg = {
        "n_planes": 5,
        "b_over_a": 10.0,
        "ka_values": [0.5],
        "k_direction": 0.3,
        "theta": [math.pi / 2.0],
    }
    code, op = run_cli(tmp_path, "stack", cfg)
    assert code == 0
    header, rows = read_rows(op)
    assert header == ["kxa", "kya", "mode_index", "energy_over_j0"]
    assert [int(r[2]) for r in rows] == [0, 1, 2, 3, 4]
    evals = [float(r[3]) for r in rows]
    assert evals == sorted(evals)


def test_output_path_from_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cp = tmp_path / "c.json"
    cp.write_text(json.dumps({"phi_points": 3, "theta": [0.1], "output_path": "named.csv"}))
    assert main(["sweep-phi", "--config", str(cp)]) == 0
    assert (tmp_path / "named.csv").exists()
