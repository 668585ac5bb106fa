"""End-to-end CLI: config validation, CSV schemas, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from latticesum import _core_py, cli, dispersion
from latticesum.cli import ConfigError, RunConfig, main, parse_config
from latticesum.direct_sum import window_tensors
from latticesum.dispersion import couplings
from latticesum.ewald import f_constant, lattice_tensors
from latticesum.model import WaveVector, dipole_from_theta, j0_scale


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


def test_readme_config_table_lists_the_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    keys = re.findall(r"^\| `(\w+)` \|", readme, flags=re.MULTILINE)
    assert sorted(keys) == sorted(f.name for f in fields(RunConfig))


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
        ('{"ewald": {"n_max": 6}}', "ewald: unknown key"),
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
    "command,cfg,prefix",
    [
        # below the stated spacing floor, refused before any numerics run
        ("sweep-phi", {"b_over_a": 1e-9, "ka_values": [0.5]}, "config error: b_over_a"),
        # a window of 7 PiB, which NumPy refuses before touching memory
        ("dispersion",
         {"method": "direct", "direct_cutoff": 10**15, "ka_values": [0.5]},
         "error: "),
    ],
    ids=["cfg0", "cfg1"],
)
def test_numerical_failures_exit_2_with_one_line(tmp_path, capsys, command, cfg, prefix):
    code, _ = run_cli(tmp_path, command, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("method", ["ewald", "direct", "longwave"])
def test_reciprocal_lattice_point_runs_as_zone_centre(tmp_path, method):
    # phi = 0 puts k on the reciprocal-lattice point (2 pi, 0), where the
    # tensor is the one at k = 0
    cfg = {
        "method": method,
        "direct_cutoff": 20,
        "b_over_a": 0.5,
        "theta": [0.3],
        "phi_points": 4,
        "ka_values": [2.0 * math.pi],
    }
    code, op = run_cli(tmp_path, "sweep-phi", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert float(rows[0][1]) == 0.0
    origin = [WaveVector(0.0, 0.0)]
    if method == "direct":
        tensors = dispersion.Direct(20).tensors(origin, 0.5)
    else:
        # the long-wave engine takes the kernel's value at k = 0
        tensors = lattice_tensors(origin, 0.5)
    want = couplings(tensors, dipole_from_theta(0.3))[0]
    assert float(rows[0][4]) == pytest.approx(want, rel=1e-14, abs=1e-15)


@pytest.mark.parametrize("b", [0.01, 0.02])
def test_small_spacings_match_the_window(tmp_path, b):
    # the tensors scale as 2/c^3 here, and so does their roundoff, which an
    # absolute trace check would reject; off the axes the L = 300 window
    # matches the coupling to 9e-14 (b = 0.01) and 7e-13 (b = 0.02)
    cfg = {
        "b_over_a": b,
        "ka_values": [math.hypot(0.8, 0.3)],
        "k_direction": math.atan2(0.3, 0.8),
        "theta": [0.7],
    }
    code, op = run_cli(tmp_path, "dispersion", cfg)
    assert code == 0
    _, rows = read_rows(op)
    k = WaveVector(float(rows[0][0]), float(rows[0][1]))
    window = window_tensors([k], b, 300)
    want = couplings(window, dipole_from_theta(0.7))[0]
    assert float(rows[0][3]) == pytest.approx(want, rel=1e-12)


def test_subnormal_interplane_tensors_run(tmp_path):
    # at b = 300a and ka = 2.45, e^{-q b} is below 1e-308: the inter-plane
    # entries are subnormal and the trace keeps a few ulps of roundoff,
    # which a bound relative to the largest entry alone would reject
    cfg = {"method": "ewald", "b_over_a": 300.0, "ka_values": [2.45]}
    code, op = run_cli(tmp_path, "dispersion", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert 0.0 < abs(float(rows[0][3])) < 1e-300


def test_stack_has_no_plane_cap(tmp_path):
    code, op = run_cli(tmp_path, "stack", {"n_planes": 65, "n_sites": 4})
    assert code == 0
    _, rows = read_rows(op)
    assert [int(r[2]) for r in rows] == list(range(65))


def test_direct_window_kernel_once_per_separation(tmp_path, monkeypatch):
    calls = []
    kernel = _core_py.window_sums

    def counting(kxy, cutoff, offset):
        calls.append((len(kxy), offset))
        return kernel(kxy, cutoff, offset)

    monkeypatch.setattr(_core_py, "window_sums", counting)
    cfg = {"method": "direct", "direct_cutoff": 5, "n_planes": 2, "b_over_a": 1.5}
    code, _ = run_cli(tmp_path, "dispersion", {**cfg, "ka_values": [0.5, 1.0]})
    assert code == 0
    # one kernel call in the plane and one between planes, each over both k
    assert sorted(calls) == [(2, 0.0), (2, 1.5)]


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
    # the k = 0 rows take the Ewald kernel or the corrected window sum;
    # the in-plane coupling there is F (2 cos^2 theta - sin^2 theta)
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
    # the kernel hits 1e-10 within its listed shells
    assert any(r[0] == "ewald" and float(r[3]) <= 1e-10 for r in rows)


def test_convergence_ratio_failure_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # with only R = 7 listed the kernel spends 2 (2R + 1)^2 = 450 terms; the
    # window reaches 1e-6 at L = 300 (361 201 terms), a ratio of 803
    monkeypatch.setattr(cli, "_EWALD_CONVERGENCE_SHELLS", range(7, 8))
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


_NO_SCIPY_RUNS = [
    ("stack", {"method": "ewald", "k_direction": "grid", "n_sites": 4, "n_planes": 3,
               "b_over_a": 0.5}),
    ("dispersion", {"method": "direct", "direct_cutoff": 5, "ka_values": [0.5]}),
    ("dispersion", {"method": "longwave", "ka_values": [0.01, 0.02]}),
    ("sweep-phi", {"phi_points": 4, "ka_values": [0.5], "b_over_a": 1.0}),
    ("convergence", {"b_over_a": 1.0, "ka_values": [0.5], "k_direction": 0.3}),
]

_NO_SCIPY_SCRIPT = """
import json, sys
import latticesum.cli as cli
for i, (command, cfg) in enumerate(json.loads(sys.argv[1])):
    path = f"{sys.argv[2]}/{i}"
    with open(path + ".json", "w") as fh:
        json.dump(cfg, fh)
    if cli.main([command, "--config", path + ".json", "--out", path + ".csv"]) != 0:
        sys.exit(f"{command} failed")
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_cli_paths_import_no_scipy(tmp_path):
    # SciPy's import costs more than a whole benchmark run: no command, on
    # any engine, may load it
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(_NO_SCIPY_RUNS), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
