"""End-to-end CLI: config validation, CSV schemas, exit codes, determinism."""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticesum import _core_py, cli, dispersion, ewald
from latticesum.cli import ConfigError, RunConfig, main, parse_config
from latticesum.direct_sum import window_tensors
from latticesum.dispersion import coupling_table, couplings, stack_matrices
from latticesum.ewald import f_constant, lattice_tensors
from latticesum.model import MAX_FOLD, MIN_OFFSET, dipole_from_theta, j0_scale
from mpmath_oracle import ewald_components


TWO_PI = 2.0 * math.pi


def run_cli(tmp_path, command, cfg, name="run"):
    cp = tmp_path / f"{name}.json"
    op = tmp_path / f"{name}.csv"
    cp.write_text(json.dumps(cfg))
    return main([command, "--config", str(cp), "--out", str(op)]), op


def read_rows(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [r.split(",") for r in rows]


# the config keys each command reads
READS = {
    "sweep-phi": {"b_over_a", "theta", "phi_points", "ka_values", "method",
                  "direct_cutoff", "output_path"},
    "dispersion": {"a_angstrom", "b_over_a", "mu_e_angstrom", "ea_ev", "theta",
                   "ka_values", "k_direction", "n_sites", "n_planes", "method",
                   "direct_cutoff", "nearest_only", "output_path"},
    "stack": {"b_over_a", "theta", "ka_values", "k_direction", "n_sites", "n_planes",
              "method", "direct_cutoff", "nearest_only", "output_path"},
    "convergence": {"b_over_a", "ka_values", "k_direction", "output_path"},
}


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


def test_readme_config_table_names_the_commands_that_read_each_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \|.*\| ([^|]*) \|$", readme, flags=re.MULTILINE)
    listed = {key: set(re.findall(r"`([\w-]+)`", cell)) for key, cell in rows}
    assert listed == {
        key: {command for command, keys in READS.items() if key in keys}
        for key in listed
    }
    assert set(listed) == set().union(*READS.values())


def test_validators_cover_exactly_the_config_fields():
    assert list(cli._VALIDATORS) == [f.name for f in fields(RunConfig)]


def test_readme_python_examples_run(tmp_path):
    # the blocks run in order as one script, as a reader would paste them
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "\n".join(blocks)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


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
        ('{"ka_values": [0.5, 1e17]}', "ka_values[1]: must lie fewer than 2^29 periods"),
        ('{"n_sites": 12}', "n_sites"),
        ('{"method": "magic"}', "method"),
        # the closed forms are API-only
        ('{"method": "longwave"}', 'method: expected "ewald"'),
        ('{"ewald": 5}', "ewald"),
        ('{"ewald": {"n_max": 6}}', "ewald: unknown key"),
        ('{"nearest_only": 1}', "nearest_only"),
        ('{"output_path": ""}', "output_path"),
        ("[1, 2]", "top level"),
        ("{broken", "JSON"),
        # past the float range, and past Python's integer-literal digit limit
        pytest.param('{"a_angstrom": 1' + "0" * 400 + "}", "a_angstrom", id="int400"),
        pytest.param('{"theta": [0.1, 1' + "0" * 400 + "]}", "theta[1]", id="list-int400"),
        pytest.param('{"a_angstrom": 1' + "0" * 5000 + "}", "JSON", id="int5000"),
        # integers below the minimum or not square, whose digits are not echoed
        pytest.param('{"phi_points": -1' + "0" * 400 + "}", "phi_points: must be >= 1",
                     id="phi_points-int400"),
        pytest.param('{"phi_points": -' + "9" * 400 + "}", "an integer of 400 digits",
                     id="phi_points-digits400"),
        pytest.param('{"n_sites": 1' + "0" * 401 + "}", "n_sites: must be a perfect",
                     id="n_sites-int400"),
        # ill-typed or unknown values, whose repr is shortened
        pytest.param('{"method": "' + "x" * 1000 + '"}', "(1002 characters)",
                     id="method-chars1000"),
        pytest.param('{"phi_points": [1' + "0" * 400 + "]}",
                     "phi_points: expected an integer, got [1000", id="phi_points-list400"),
        pytest.param('{"a_angstrom": [1' + "0" * 400 + "]}",
                     "a_angstrom: expected a number, got [1000", id="a_angstrom-list400"),
        # an unknown key, shortened like a value
        pytest.param('{"' + "x" * 1000 + '": 1}', "(1002 characters): unknown key",
                     id="key-chars1000"),
    ],
)
def test_bad_configs_name_the_key(payload, needle):
    with pytest.raises(ConfigError) as err:
        parse_config(payload)
    assert needle in str(err.value)
    assert len(str(err.value)) < 200


def test_ka_past_the_fold_bound_is_refused(tmp_path, capsys):
    # k is folded exactly only below 2^29 periods of 2 pi; past that every
    # command refuses the ka with exit 2 and one line naming it
    for command in READS:
        code, _ = run_cli(tmp_path, command, {"ka_values": [0.5, 3.4e9], "n_planes": 2})
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ka_values[1]: ") and err.count("\n") == 1
    # just inside the bound, the row is the library's at that k
    ka = float(np.nextafter((MAX_FOLD - 0.5) * TWO_PI, 0.0))
    cfg = {"ka_values": [ka], "phi_points": 4, "theta": [0.3], "b_over_a": 1.0}
    code, op = run_cli(tmp_path, "sweep-phi", cfg)
    assert code == 0
    _, rows = read_rows(op)
    want = couplings(lattice_tensors([(ka, 0.0)], 1.0), dipole_from_theta(0.3))[0]
    assert float(rows[0][2]) == ka and float(rows[0][4]) == want


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
        # J0 underflows to 0, refused by dispersion before the kernel runs
        ("dispersion", {"mu_e_angstrom": 1e-200}, "config error: mu_e_angstrom"),
        # J0 is inf; a^3 overflows, is 0, or is subnormal so that J0 is inf
        ("dispersion", {"mu_e_angstrom": 1e200}, "config error: mu_e_angstrom"),
        ("dispersion", {"a_angstrom": 1e200}, "config error: a_angstrom"),
        ("dispersion", {"a_angstrom": 1e-200}, "config error: a_angstrom"),
        ("dispersion", {"a_angstrom": 1e-103}, "config error: a_angstrom"),
        # c * c overflows in the window kernel, where inf * 0 would give NaN
        ("convergence", {"b_over_a": 1.35e154}, "config error: b_over_a"),
        # c^5 overflows in the bare window, just past 4.4e61, which runs
        ("convergence", {"b_over_a": 4.5e61}, "config error: b_over_a"),
        # the farthest of three planes is at inf, whichever method is named
        ("stack", {"method": "direct", "b_over_a": 1e308, "n_planes": 3},
         "config error: b_over_a"),
        ("dispersion", {"method": "direct", "b_over_a": 1e308, "n_planes": 3},
         "config error: b_over_a"),
        ("stack", {"b_over_a": 1e308, "n_planes": 3}, "config error: b_over_a"),
        # E_A + J0 x eigenvalue overflows; J0 x eigenvalue alone does so too
        ("dispersion", {"ea_ev": 1.79e308, "mu_e_angstrom": 1e152, "a_angstrom": 1},
         "config error: ea_ev"),
        ("dispersion", {"mu_e_angstrom": 1e152, "a_angstrom": 0.1},
         "config error: mu_e_angstrom"),
        # a^3 is normal, but C / a^3 overflows at mu = 1 e A: a alone is at fault
        ("dispersion", {"a_angstrom": 3e-103}, "config error: a_angstrom"),
        # J0 is finite, but C / a^3 x eigenvalue overflows at mu = 1 e A
        ("dispersion", {"a_angstrom": 1e-102, "ka_values": [0.5], "b_over_a": 0.01},
         "config error: a_angstrom"),
    ],
    ids=[f"cfg{i}" for i in range(15)],
)
def test_numerical_failures_exit_2_with_one_line(tmp_path, capsys, command, cfg, prefix):
    code, op = run_cli(tmp_path, command, cfg)
    assert code == 2
    assert not op.exists()
    err = capsys.readouterr().err
    assert err.startswith(prefix)
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "command,cfg",
    [
        # the largest offset, 4.4e61, below the window's bound; warnings are errors
        ("convergence", {"b_over_a": 4.4e61}),
        # "direct" runs the Ewald kernel, which runs at any finite spacing
        ("stack", {"method": "direct", "b_over_a": 2.2e61, "n_planes": 3}),
        ("dispersion", {"b_over_a": 1e200}),
        # q c overflows to inf between planes, where e^{-qc} is 0
        ("stack", {"b_over_a": 1e308}),
        ("sweep-phi", {"b_over_a": 1e308}),
        # c^5 overflows, at the farthest of three planes only in the stack
        ("stack", {"method": "direct", "b_over_a": 3e61, "n_planes": 3}),
        ("sweep-phi", {"method": "direct", "b_over_a": 4.5e61, "phi_points": 2}),
    ],
)
def test_window_offsets_within_the_float_range_run(tmp_path, command, cfg):
    assert run_cli(tmp_path, command, {**cfg, "direct_cutoff": 10})[0] == 0


# the header each command's CSV starts with
HEADERS = {
    "sweep-phi": "theta,phi,ka,b_over_a,jprime_over_j0",
    "dispersion": "kxa,kya,j_over_j0,jprime_over_j0,mode_index,energy_ev",
    "stack": "kxa,kya,mode_index,energy_over_j0",
    "convergence": "engine,terms,value_dzz,abs_err_vs_reference,wall_time_ns",
}


def _reals(lo, hi, *edges):
    """Floats in [lo, hi], and the edges of a key's range and past them."""
    return st.one_of(st.sampled_from(edges), st.floats(lo, hi))


_THETAS = _reals(0.0, math.pi, 0.0, math.pi, -1e-300, math.nextafter(math.pi, 4.0), 7.0)

# each key a command reads, over its documented range with its edges; sizes
# stay small
_DRAWN = {
    "ka_values": st.lists(_reals(1e-320, 3e9, 3e9, 3.37e9, 3.4e9), min_size=1, max_size=3),
    "b_over_a": _reals(1e-4, 1e300, 1e-4, MIN_OFFSET, 4.4e61, 4.5e61, 1e300, 1e308),
    "theta": st.one_of(_THETAS, st.lists(_THETAS, min_size=1, max_size=3)),
    "a_angstrom": _reals(1e-300, 1e300, 1e-300, 3e-103, 1e-102, 1e300),
    "mu_e_angstrom": _reals(1e-300, 1e300, 1e-300, 1e-200, 1e152, 1e300),
    "ea_ev": _reals(1e-300, 1.79e308, 1.79e308),
    "k_direction": st.one_of(st.just("grid"), _reals(-10.0, 10.0, 0.0, math.pi / 4.0)),
    "n_sites": st.integers(1, 40),
    "n_planes": st.integers(1, 6),
    "phi_points": st.integers(1, 8),
    "direct_cutoff": st.integers(1, 20),
    "method": st.sampled_from(["ewald", "direct"]),
    "nearest_only": st.booleans(),
}
_ILL_TYPED = st.sampled_from(["0.5", "grid", [], [0.5, "x"], True, False, None, {"a": 1}])


def _library_row(command, run, row):
    """The CSV ``row`` of ``command`` recomputed through the library at the
    row's k alone, through the Ewald kernel, which every ``method`` runs,
    and the offsets and nearest-only rule of the resolved config ``run``."""
    if command == "sweep-phi":
        theta, phi, ka, b = map(float, row[:4])
        k = ka * np.stack([np.cos([phi]), np.sin([phi])], axis=-1)
        jp = couplings(lattice_tensors(k, b), dipole_from_theta(theta))[0]
        return row[:4] + [repr(float(jp))]
    kxa, kya, mode = float(row[0]), float(row[1]), int(row[-2])
    offsets = min(run.n_planes, 2) if run.nearest_only else run.n_planes
    table = coupling_table([(kxa, kya)], dipole_from_theta(run.theta[0]), run.b_over_a,
                           offsets)
    energy = np.linalg.eigvalsh(stack_matrices(table, run.n_planes))[0, mode]
    if command == "stack":
        return row[:3] + [repr(float(energy))]
    energy = j0_scale(run.mu_e_angstrom, run.a_angstrom) * energy + run.ea_ev
    jp = table[0, 1] if offsets > 1 else 0.0
    return row[:2] + [repr(float(v)) for v in (table[0, 0], jp)] + [row[4], repr(float(energy))]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_drawn_configs_exit_0_or_2_with_one_line(data):
    # exit 0 writes the command's CSV, whose first and last rows are those of
    # the library route through the Ewald kernel, "direct" or not; exit 2
    # prints one line, and a config error names a key the command reads,
    # indexed as in ka_values[1]
    command = data.draw(st.sampled_from(sorted(READS)))
    reads = sorted(READS[command])
    cfg = data.draw(st.fixed_dictionaries(
        {}, optional={key: _DRAWN[key] for key in reads if key in _DRAWN}))
    if data.draw(st.booleans()):
        cfg[data.draw(st.sampled_from(reads))] = data.draw(_ILL_TYPED)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code, op = run_cli(Path(tmp), command, cfg)
        text = op.read_text() if code == 0 else None
    line = err.getvalue()
    assert code in (0, 2), line
    if code == 0:
        header, *rows = text.splitlines()
        assert header == HEADERS[command]
        if command != "convergence":
            # the first and last rows, bit for bit, from the library at their k alone
            run = parse_config(json.dumps(cfg))
            for row in (rows[0], rows[-1]):
                cells = row.split(",")
                assert cells == _library_row(command, run, cells), row
        return
    assert line.count("\n") == 1 and line.endswith("\n") and "Traceback" not in line
    if line.startswith("config error: "):
        key = re.match(r"config error: (\w+)(\[\d+\])?: ", line)
        assert key and key[1] in READS[command], line


def test_config_that_is_not_utf8_is_malformed_json(tmp_path, capsys):
    cp = tmp_path / "bad.json"
    cp.write_bytes(b'{"theta": 0.5}\xff')
    assert main(["stack", "--config", str(cp), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed JSON") and err.count("\n") == 1
    # json.loads detects UTF-16 and UTF-32 from the bytes
    cp.write_bytes('{"theta": 0.5, "ka_values": [0.5]}'.encode("utf-16"))
    assert main(["stack", "--config", str(cp), "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize(
    "command,cfg",
    [
        ("sweep-phi", {"phi_points": 10**10}),
        ("stack", {"n_sites": 10**10, "k_direction": "grid"}),
        ("stack", {"n_planes": 10**10}),
        # 10^6 k points, but ten tilts write 10^7 rows
        ("sweep-phi", {"phi_points": 10**6, "theta": [0.1] * 10}),
    ],
    ids=["phi_points", "n_sites", "n_planes", "theta"],
)
def test_oversized_configs_are_refused_before_allocation(tmp_path, capsys, command, cfg):
    start = time.perf_counter()
    code, op = run_cli(tmp_path, command, cfg)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    key = next(iter(cfg))
    assert capsys.readouterr().err.startswith(f"config error: {key}: asks for more than")
    assert not op.exists()


def test_direct_cutoff_is_accepted_and_selects_nothing(tmp_path):
    # every config runs the Ewald kernel whatever its method and
    # direct_cutoff say; old configs that pass them still run. The stack
    # has planes from 2a up, where the closed window and the plane waves
    # differ in roundoff
    runs = [
        ("dispersion", {"n_planes": 3, "b_over_a": 1.5, "ka_values": [1e-3, 0.5, TWO_PI]}),
        ("stack", {"k_direction": "grid", "n_sites": 400, "n_planes": 8, "b_over_a": 2.0,
                   "theta": 0.6}),
    ]
    for command, cfg in runs:
        texts = set()
        for method in ("ewald", "direct"):
            for cutoff in (1, 500, 10**15):
                run = {**cfg, "method": method, "direct_cutoff": cutoff}
                code, op = run_cli(tmp_path, command, run, name=f"{method}{cutoff}")
                assert code == 0
                texts.add(op.read_bytes())
        assert len(texts) == 1, command


@pytest.mark.parametrize(
    "command,cfg,rows",
    [
        ("dispersion", {"ka_values": [0.001 * i for i in range(1, 1001)]}, 2000),
        ("sweep-phi", {"n_planes": 10**9}, 6 * 360),
        ("stack", {"phi_points": 10**12}, 2),
        ("convergence", {"ka_values": [0.5] * 1000}, 11),
    ],
)
def test_each_command_bounds_only_what_it_writes(tmp_path, command, cfg, rows):
    code, op = run_cli(tmp_path, command, cfg)
    assert code == 0
    assert len(read_rows(op)[1]) == rows


@pytest.mark.parametrize(
    "command,cfg,key",
    [
        ("sweep-phi", {"n_planes": 1}, "phi_points"),
        ("dispersion", {"ka_values": [0.5] * 20, "phi_points": 1}, "ka_values"),
        ("dispersion", {"k_direction": "grid", "phi_points": 1}, "n_sites"),
        ("stack", {"n_planes": 20, "phi_points": 1}, "n_planes"),
        ("convergence", {"ka_values": [0.5] * 20, "phi_points": 10**12}, None),
    ],
    ids=["sweep-phi", "dispersion-path", "dispersion-grid", "stack", "convergence"],
)
def test_size_refusals_name_a_key_the_command_reads(
    tmp_path, capsys, monkeypatch, command, cfg, key
):
    monkeypatch.setattr(cli, "MAX_SIZE", 10)
    code, op = run_cli(tmp_path, command, cfg)
    if key is None:  # a fixed table of 11 rows
        assert code == 0
        return
    assert code == 2
    assert key in READS[command]
    assert capsys.readouterr().err.startswith(f"config error: {key}: asks for more than 10 ")
    assert not op.exists()


def test_large_stack_within_the_size_bound_runs(tmp_path):
    # 441 k x 65 planes: 1.86 M matrix entries, a peak of about 40 MB
    cfg = {"n_planes": 65, "k_direction": "grid", "n_sites": 400, "b_over_a": 0.5}
    code, op = run_cli(tmp_path, "stack", cfg)
    assert code == 0
    assert len(read_rows(op)[1]) == 441 * 65


def test_bare_memory_error_names_itself(tmp_path, capsys, monkeypatch):
    def exhausted(cfg):
        """Run out of memory."""
        raise MemoryError()

    monkeypatch.setitem(cli._COMMANDS, "stack", exhausted)
    code, _ = run_cli(tmp_path, "stack", {})
    assert code == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def test_non_finite_values_are_not_written():
    assert cli._column([0.5, 1e-300, -2.0]).tolist() == ["0.5", "1e-300", "-2.0"]
    for bad in (math.nan, -math.inf):
        with pytest.raises(ArithmeticError, match=f"non-finite value {bad!r}"):
            cli._column(np.array([[0.5, 1.0], [bad, 2.0]]))


def test_column_formats_each_distinct_float_once_and_keeps_the_text():
    # each bit pattern is formatted once: 0.0 and -0.0 keep their own text
    values = [0.0, -0.0, 1.5, 0.0, -0.0, 1.5, 0.1 + 0.2, 0.3, -2.0, 1e-300, 1.5]
    texts = list(map(repr, values))
    assert cli._column(values).tolist() == texts
    assert cli._column(np.reshape(values[:10], (2, 5))).tolist() == [texts[:5], texts[5:10]]
    # however many values repeat, a non-finite one anywhere is refused
    for at in (0, 5, len(values) - 1):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ArithmeticError, match="non-finite"):
                cli._column(values[:at] + [bad] + values[at + 1 :])


def test_write_csv_broadcasts_columns_into_rows_in_c_order(tmp_path):
    # rows run over the broadcast shape (2, 3); ints by str, -0.0 kept
    path = tmp_path / "rows.csv"
    assert cli._write_csv(path, "x,n,s", [[-0.0], [0.5]], [7, 0, 10**12], "a") == path
    assert path.read_bytes() == (
        b"x,n,s\n-0.0,7,a\n-0.0,0,a\n-0.0,1000000000000,a\n"
        b"0.5,7,a\n0.5,0,a\n0.5,1000000000000,a\n"
    )
    # a NaN in an input that broadcasts is refused before the file is opened
    bad = tmp_path / "bad.csv"
    with pytest.raises(ArithmeticError, match="non-finite value nan"):
        cli._write_csv(bad, "x,n", [[0.5], [math.nan]], np.arange(3))
    assert not bad.exists()


@pytest.mark.parametrize(
    "cfg",
    [
        {"k_direction": "grid", "n_sites": 400, "n_planes": 8, "b_over_a": 2.0,
         "theta": 0.4},
        # (2 pi - 1, 0) folds onto the mirror image (-1, 0) of (1, 0)
        {"k_direction": 0.0, "ka_values": [1.0, 0.5, 1.0, TWO_PI - 1.0, 1.0],
         "n_planes": 3, "b_over_a": 1.0, "theta": 0.7},
        {"k_direction": "grid", "n_sites": 16, "n_planes": 2, "b_over_a": 1.0,
         "method": "direct", "direct_cutoff": 30},
    ],
    ids=["grid", "repeated-and-mirrored", "direct"],
)
def test_modes_solve_each_distinct_coupling_row_once(cfg, monkeypatch):
    # _modes hands eigvalsh the distinct stack matrices only, and its
    # energies are bitwise those of solving every k
    run = parse_config(json.dumps(cfg))
    solved = []

    def solve(mats):
        solved.append(len(mats))
        return np.linalg.eigvalsh(mats)

    monkeypatch.setattr(cli, "eigvalsh", solve)
    ks, j, jp, evals = cli._modes(run)
    dip = dipole_from_theta(run.theta[0])
    table = dispersion.coupling_table(ks, dip, run.b_over_a, run.n_planes)
    mats = dispersion.stack_matrices(table, run.n_planes)
    assert np.array_equal(evals, np.linalg.eigvalsh(mats))
    distinct = len(np.unique(np.column_stack([j, jp]), axis=0))
    assert solved == [distinct] and distinct < len(ks)


def test_help_lists_every_command_and_bad_commands_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert "usage: latticesum <command> --config cfg.json [--out path.csv]" in text
    for name, fn in cli._COMMANDS.items():
        assert re.search(rf"^  {name} +{re.escape(fn.__doc__.splitlines()[0])}$", text, re.M)
    for argv in ([], ["bogus", "--config", "x.json"], ["stack"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize("method", ["ewald", "direct"])
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
    want = couplings(lattice_tensors([(0.0, 0.0)], 0.5), dipole_from_theta(0.3))[0]
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
    k = (float(rows[0][0]), float(rows[0][1]))
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


def test_stack_matches_toeplitz_spectrum_at_65_planes(tmp_path):
    # nearest_only makes the matrix tridiagonal Toeplitz, with eigenvalues
    # J + 2 J' cos(m pi / (N + 1)), m = 1 .. N; J and J' come from separate
    # kernel calls, one per offset
    n, b, theta = 65, 0.5, 0.7
    cfg = {"n_planes": n, "n_sites": 9, "k_direction": "grid", "b_over_a": b,
           "theta": [theta], "nearest_only": True}
    code, op = run_cli(tmp_path, "stack", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert len(rows) == 9 * n
    dip = dipole_from_theta(theta)
    for i in range(0, len(rows), n):
        k = (float(rows[i][0]), float(rows[i][1]))
        j = couplings(lattice_tensors([k], 0.0), dip)[0]
        jp = couplings(lattice_tensors([k], b), dip)[0]
        want = np.sort(j + 2.0 * jp * np.cos(np.arange(1, n + 1) * math.pi / (n + 1)))
        got = np.array([float(r[3]) for r in rows[i : i + n]])
        assert [int(r[2]) for r in rows[i : i + n]] == list(range(n))
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, abs(j), abs(jp))


def test_ewald_kernel_once_per_stack(tmp_path, monkeypatch):
    calls = []
    kernel = _core_py.window_sums

    def counting(kxy, L, offsets, closed=False, cap=None):
        calls.append(list(offsets))
        return kernel(kxy, L, offsets, closed, cap)

    monkeypatch.setattr(_core_py, "window_sums", counting)
    code, _ = run_cli(tmp_path, "stack", {"n_planes": 8, "n_sites": 4, "b_over_a": 1.5})
    assert code == 0
    # one closed-kernel call for every plane separation below 2a, in-plane
    # included; the six from 3a up take the plane-wave pass
    assert calls == [[0.0, 1.5]]


def test_no_module_names_erfc():
    # the near planes take the closed Gaussian sum, the far ones the plane
    # waves: no module of the package names an erfc, by call, import or
    # definition
    package = Path(ewald.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {getattr(node, field, None) for node in ast.walk(tree)
                 for field in ("id", "attr", "name", "asname", "arg", "module")}
        assert not [n for n in names if isinstance(n, str) and "erfc" in n.lower()], path


def test_no_module_names_a_direct_engine():
    # "method": "direct" runs the Ewald kernel, whose closed sum the former
    # Direct engine ran, and the tensors come from two functions, not engine
    # objects: no module of the package names an engine class, their union
    # or the CLI's engine picker, by call, import or definition
    engines = {"Direct", "Ewald", "LongWave", "Method", "_engine"}
    package = Path(ewald.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {getattr(node, field, None) for node in ast.walk(tree)
                 for field in ("id", "attr", "name", "asname")}
        assert not engines & names, path


@pytest.mark.parametrize(
    "ks,want",
    [
        # one kernel call over both k, in the plane and between planes
        ({"ka_values": [0.5, 1.0]}, [(2, [0.0, 1.5])]),
        # the 25 k of a 4 x 4 grid are 6 orbits of the lattice's symmetries
        ({"k_direction": "grid", "n_sites": 16}, [(6, [0.0, 1.5])]),
    ],
    ids=["path", "grid"],
)
def test_direct_window_kernel_once_per_separation(tmp_path, monkeypatch, ks, want):
    calls = []
    kernel = _core_py.window_sums

    def counting(kxy, cutoff, offset, closed=False, cap=None):
        calls.append((len(kxy), offset))
        return kernel(kxy, cutoff, offset, closed, cap)

    monkeypatch.setattr(_core_py, "window_sums", counting)
    cfg = {"method": "direct", "direct_cutoff": 5, "n_planes": 2, "b_over_a": 1.5}
    code, _ = run_cli(tmp_path, "dispersion", {**cfg, **ks})
    assert code == 0
    assert calls == want


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


@pytest.mark.parametrize("b,ka_values,phi_points", [
    (1e-3, [0.05, 3.1], 2),
    (1.0, [1.2], 3),
    (10.0, [0.05, 3.1], 2),
])
def test_sweep_phi_rows_match_mpmath(tmp_path, b, ka_values, phi_points):
    # every row within 1e-14 of max(1, |J'|) of the 34-digit Ewald split, at
    # tilts 0, 0.3 and pi/2; measured within 2.2e-16
    thetas = [0.0, 0.3, math.pi / 2.0]
    cfg = {"theta": thetas, "b_over_a": b, "ka_values": ka_values, "phi_points": phi_points}
    code, op = run_cli(tmp_path, "sweep-phi", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert len(rows) == len(thetas) * len(ka_values) * phi_points
    oracle = {}
    for row in rows:
        theta, phi, ka, _, jp = map(float, row)
        if (phi, ka) not in oracle:
            oracle[phi, ka] = ewald_components(ka * math.cos(phi), ka * math.sin(phi), b)
        xx, _, zz, _, xz, _ = oracle[phi, ka]
        mx, _, mz = dipole_from_theta(theta)
        want = mx * mx * xx.real + mz * mz * zz.real + 2.0 * mx * mz * xz.real
        assert abs(jp - want) <= 1e-14 * max(1.0, abs(want)), row


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
    ks = [(ka * math.cos(0.25), ka * math.sin(0.25)) for ka in (0.5, 1.0)]
    dip = dipole_from_theta(0.7)
    js = couplings(lattice_tensors(ks, 0.0), dip)
    jps = couplings(lattice_tensors(ks, 10.0), dip)
    # the default scale (J0 = 1.4e-8 eV against E_A = 1 eV) and a molecular
    # one (a = 10 A, mu = 3 e A: J0 = 0.13 eV), where 1e-12 J0 lies far
    # above the spacing of doubles near E_A
    for scale in ({}, {"a_angstrom": 10.0, "mu_e_angstrom": 3.0, "ea_ev": 2.0}):
        code, op = run_cli(tmp_path, "dispersion", {**cfg, **scale})
        assert code == 0
        header, rows = read_rows(op)
        assert header == ["kxa", "kya", "j_over_j0", "jprime_over_j0", "mode_index", "energy_ev"]
        assert len(rows) == 4
        j0 = j0_scale(scale.get("mu_e_angstrom", 1.0), scale.get("a_angstrom", 1000.0))
        ea = scale.get("ea_ev", 1.0)
        for j, jp, lo, hi in zip(js, jps, rows[0::2], rows[1::2]):
            assert (int(lo[4]), int(hi[4])) == (0, 1)
            assert (float(lo[2]), float(lo[3])) == (j, jp)
            gap = float(hi[5]) - float(lo[5])
            assert gap == pytest.approx(2.0 * abs(jp) * j0, rel=1e-4)
            # the CLI's J0 -> eV conversion, to the spacing of the doubles
            for row, e in zip((lo, hi), sorted((j - jp, j + jp))):
                want = ea + j0 * e
                assert abs(float(row[5]) - want) <= 1e-12 * j0 + math.ulp(want)


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
    # the k = 0 rows take the Ewald kernel; the in-plane coupling there is
    # F (2 cos^2 theta - sin^2 theta)
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


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_convergence_writes_its_table_where_the_window_converges_fast(tmp_path, b):
    # at ka = 2 the window reaches 1e-6 at L = 100 (40 401 terms) and the
    # kernel 1e-10 at R = 2 (50 terms): the table is written all the same
    cfg = {"b_over_a": b, "ka_values": [2.0], "k_direction": 0.4}
    code, op = run_cli(tmp_path, "convergence", cfg)
    assert code == 0
    _, rows = read_rows(op)
    assert [r[0] for r in rows] == ["direct"] * 5 + ["ewald"] * 6
    assert any(r[0] == "ewald" and float(r[3]) <= 1e-10 for r in rows)


@pytest.mark.parametrize("b,halves", [(1.0, 2), (10.0, 1)])
def test_convergence_counts_the_terms_it_sums(tmp_path, b, halves):
    # both halves of the split at b = a, the reciprocal terms alone at b = 10a
    cfg = {"b_over_a": b, "ka_values": [0.5], "k_direction": 0.3}
    code, op = run_cli(tmp_path, "convergence", cfg)
    assert code == 0
    _, rows = read_rows(op)
    terms = [int(r[1]) for r in rows if r[0] == "ewald"]
    assert terms == [halves * (2 * r + 1) ** 2 for r in range(1, 7)]


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


def test_empty_out_is_refused_like_an_empty_output_path(tmp_path, monkeypatch, capsys):
    # an empty --out overrides output_path and is refused as the config's
    # "output_path": "" is, before any file is written
    monkeypatch.chdir(tmp_path)
    cp = tmp_path / "c.json"
    cp.write_text(json.dumps({"phi_points": 3, "theta": [0.1], "output_path": "named.csv"}))
    assert main(["sweep-phi", "--config", str(cp), "--out", ""]) == 2
    assert capsys.readouterr().err == ("config error: --out: expected a non-empty string, "
                                       "got ''\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


_NO_SCIPY_RUNS = [
    ("stack", {"method": "ewald", "k_direction": "grid", "n_sites": 4, "n_planes": 3,
               "b_over_a": 0.5}),
    ("dispersion", {"method": "direct", "direct_cutoff": 5, "ka_values": [0.5]}),
    ("sweep-phi", {"phi_points": 4, "ka_values": [0.5], "b_over_a": 1.0}),
    ("convergence", {"b_over_a": 1.0, "ka_values": [0.5], "k_direction": 0.3}),
    ("convergence", {"b_over_a": 0.5, "ka_values": [3.0], "k_direction": 0.4}),
    # pi / |k| would overflow here
    ("sweep-phi", {"phi_points": 4, "ka_values": [1e-320]}),
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
    # any engine, may load it; pytest's warning filter cannot see into the
    # subprocess, so its stderr must stay empty
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(_NO_SCIPY_RUNS), str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_runs_with_docstrings_stripped(tmp_path):
    # python -OO drops the docstrings that --help takes its summaries from
    root = Path(__file__).resolve().parents[1]
    cp = tmp_path / "c.json"
    cp.write_text(json.dumps({"n_planes": 3, "ka_values": [0.5]}))
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    for args, code in ((["stack", "--config", str(cp), "--out", str(tmp_path / "o.csv")], 0),
                       (["--help"], 0), (["stack"], 2)):
        proc = subprocess.run([sys.executable, "-OO", "-m", "latticesum.cli", *args],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
