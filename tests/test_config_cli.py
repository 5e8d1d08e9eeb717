import csv
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import htasim
import htasim.cli
from htasim.cli import load_reference_targets, main, write_beam_table
from htasim.config import (
    KEYS,
    ConfigError,
    RunConfig,
    default_config,
    load_config,
    parse_config_text,
    with_overrides,
)
from htasim.geometry import build_layout

FAST_SAMPLING = """
frequencies = 9.75
sampling.theta_step_deg = 3
sampling.phi_step_deg = 10
sampling.cut_theta_step_deg = 3
sampling.cut_phi_step_deg = 10
"""


# --- config parsing ----------------------------------------------------------


def test_parse_grammar():
    values = parse_config_text(
        """
        # comment line
        f_mm = 171          # trailing comment
        ta.size_mm = 240
        feeds[0].id = A1
        feeds[0].x_mm = -160
        feeds[1].id = A4
        feeds[1].x_mm = 0
        frequencies = 9.0, 9.75, 10.5
        blockage.enabled = true
        """
    )
    # every value is its text as written; the key table converts it
    assert values["f_mm"] == "171"
    assert values["ta.size_mm"] == "240"
    assert values["feeds"][0] == {"id": "A1", "x_mm": "-160"}
    assert values["frequencies"] == ["9.0", "9.75", "10.5"]
    assert values["blockage.enabled"] == "true"


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("this is not an assignment\n")


def test_parse_indexed_keys_run_from_zero():
    # entries may come in any order, but an index past a gap is an error
    # (rather than a list padded up to it)
    assert parse_config_text("feeds[1].id = B\nfeeds[0].id = A\n") == {
        "feeds": [{"id": "A"}, {"id": "B"}]
    }
    with pytest.raises(ConfigError, match=r"feeds\[1\] is missing"):
        parse_config_text("feeds[0].id = A\nfeeds[2].id = C\n")
    with pytest.raises(ConfigError, match="used both ways"):
        parse_config_text("feeds = 1, 2\nfeeds[0].id = A\n")


def test_numeric_keys_take_finite_numbers_only():
    for key in ("f_mm", "ta.size_mm", "frequencies", "blockage.width_mm"):
        for raw in (float("nan"), float("inf"), float("-inf"), True):
            with pytest.raises(ConfigError, match="finite"):
                with_overrides(RunConfig(), {key: raw})
    with pytest.raises(ConfigError, match="finite"):
        with_overrides(RunConfig(), {"feeds": [{"id": "A1", "x_mm": float("nan")}]})


def test_defaults_match_design():
    cfg = default_config()
    assert cfg.layout.f_mm == 171.0
    assert cfg.layout.h_mm == 42.0
    assert cfg.layout.d_mm == 220.0
    assert cfg.frequencies_ghz == (9.0, 9.75, 10.5)
    assert cfg.sim.ta_feed_ids == ("A2", "A3", "A4", "A5", "A6")
    assert len(cfg.layout.feeds) == 7


def test_readme_key_table_names_every_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("| key | meaning |", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in table.splitlines()[2:]:
        for name in re.findall(r"`([^`]+)`", row.split("|")[1]):
            named.add(re.sub(r"\[k\]\..*", "", name))
    assert named == set(KEYS)


def test_default_cfg_names_every_key():
    # set or commented, every key starts a line of the shipped file
    text = (Path(htasim.__file__).parent / "data" / "default.cfg").read_text()
    named = {
        m.group(1)
        for m in re.finditer(r"^(?:# )?([A-Za-z0-9_.]+)(?:\[\d+\]\.\w+)?\s*=", text, re.M)
    }
    assert named == set(KEYS)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        with_overrides(RunConfig(), {"nonsense_key": 1})
    with pytest.raises(ConfigError, match="unknown"):
        with_overrides(RunConfig(), {"ta.size_mm": 240, "ta.bogus": 1})


@pytest.mark.parametrize(
    "line",
    [
        "feed.state = y",
        "feed.gain_dbi = 99",
        "curves.source = csv",
        "oblique.phase_deg_per_deg = 0",
        "reference_aperture_mm2 = 57600",
        "F_mm = 384",
    ],
)
def test_removed_keys_rejected(tmp_path, capsys, line):
    # keys that once parsed but changed nothing are unknown now
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(line + "\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_validation_rules():
    with pytest.raises(ConfigError, match="divide"):
        with_overrides(RunConfig(), {"sampling.theta_step_deg": 0.7})
    # no whole step, an infinite count, or a single phi column
    for values in (
        {"sampling.theta_step_deg": 1e300},
        {"sampling.cut_theta_step_deg": 5e-324},
        {"sampling.phi_step_deg": 360.0},
        {"sampling.cut_phi_step_deg": 1e300},
    ):
        with pytest.raises(ConfigError, match="divide"):
            with_overrides(RunConfig(), values)
    with pytest.raises(ConfigError, match="loss budget"):
        with_overrides(RunConfig(), {"gain_offset_db": 1.0})
    with pytest.raises(ConfigError, match="frequencies"):
        with_overrides(RunConfig(), {"frequencies": [0.0]})
    with pytest.raises(ConfigError, match="leakage"):
        with_overrides(RunConfig(), {"crosspol.leakage": 1.5})
    with pytest.raises(ConfigError, match="true or false"):
        with_overrides(RunConfig(), {"blockage.enabled": "yes"})
    with pytest.raises(ConfigError, match="must be > 0"):
        with_overrides(RunConfig(), {"feed.q": 0.0})


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_shipped_default_config_parses():
    from importlib import resources

    path = resources.files("htasim.data").joinpath("default.cfg")
    cfg = with_overrides(RunConfig(), parse_config_text(path.read_text()))
    assert cfg == default_config()


def test_settings_projection():
    cfg = default_config()
    s = cfg.settings(9.75)
    assert (s.theta_step_deg, s.phi_step_deg) == (0.5, 2.0)
    cuts = cfg.settings(9.0, for_cuts=True)
    assert (cuts.theta_step_deg, cuts.phi_step_deg) == (0.25, 1.0)
    assert cuts.frequency_ghz == 9.0


# --- CLI: validate -----------------------------------------------------------


VALIDATE_CHECKS = [
    "curve_roundtrip_ta",
    "curve_roundtrip_fta",
    "quantization_residual",
]


def _check_lines(out):
    """(tag, check name) of each check line of validate's stdout."""
    return [tuple(l.split(":")[0].split(" ")) for l in out.splitlines()[:-1]]


def test_validate_default_passes(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert _check_lines(out) == [("PASS", name) for name in VALIDATE_CHECKS]
    assert out.splitlines()[-1] == "all checks passed"


def test_validate_flags_short_csv_curve(tmp_path, capsys):
    # the builtin UC1 knots with the top end at 172 deg: an 8 deg gap in
    # the phase circle, within the loader's 10 deg span tolerance
    curve = tmp_path / "uc1.csv"
    curve.write_text(
        "param_mm,phase_deg,mag_db\n0.5,0,0\n1.5,34,0\n2.4,82,0\n3.5,139,0\n4.6,172,0\n"
    )
    cfg = tmp_path / "short.cfg"
    cfg.write_text(f"curves.uc1_csv = {curve}\n")
    assert main(["validate", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    failed = {"curve_roundtrip_ta", "quantization_residual"}
    assert _check_lines(out) == [
        ("FAIL" if name in failed else "PASS", name) for name in VALIDATE_CHECKS
    ]
    assert "FAIL quantization_residual: max realized-phase residual 7.86e+00 deg" in out
    assert out.splitlines()[-1] == "2 check(s) failed"


def test_validate_passes_a_separation_off_the_binary_grid(tmp_path, capsys):
    # h is off the binary grid; F derives as 2f + h, so no tolerance on
    # a stated F can reject the stack
    cfg = tmp_path / "h.cfg"
    cfg.write_text("h_mm = 42.1\n")
    assert main(["validate", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert _check_lines(out) == [("PASS", name) for name in VALIDATE_CHECKS]


def test_validate_config_parse_failure(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("not an assignment\n")
    assert main(["validate", "--config", str(cfg)]) == 2


def test_missing_curve_file_exits_usage(tmp_path, capsys):
    cfg = tmp_path / "curves.cfg"
    cfg.write_text("curves.uc1_csv = /nonexistent/curve.csv\n")
    code = main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "/nonexistent/curve.csv" in err


def _cli_child(argv, cwd=None, **env_vars):
    """Run the CLI as a child process in `cwd`, so that a traceback shows
    on its stderr; `env_vars` are added to its environment."""
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "htasim.cli", *argv], capture_output=True, text=True,
        env=dict(env, **env_vars), cwd=cwd,
    )


@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, blas_threads):
    # a child process, so that the BLAS pool size is read when numpy loads;
    # the far-field engine splits its work beside the one-thread pool only
    cfg = tmp_path / "two_feeds.cfg"
    cfg.write_text("feed.active_ids = A1, A4\n")
    out = tmp_path / "sweep"
    proc = _cli_child(
        ["sweep", "--config", str(cfg), "--out", str(out)], OPENBLAS_NUM_THREADS=blas_threads
    )
    assert proc.returncode == 0
    golden = Path(__file__).resolve().parents[1] / "bench" / "golden" / "sha256.json"
    pinned = json.loads(golden.read_text())["sweep_default"]
    beams = sorted((out / "beams").iterdir())
    assert len(beams) == 42
    for path in beams:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == pinned[f"beams/{path.name}"], path.name


def test_a_feed_far_off_the_aperture_fails_in_one_stderr_line(tmp_path):
    # its spherical wave overflows to NaN inside the engine, whose field
    # check rejects it without numpy's warnings
    default = (Path(htasim.__file__).parent / "data" / "default.cfg").read_text()
    cfg = tmp_path / "far.cfg"
    cfg.write_text(default.replace("feeds[0].x_mm = -160", "feeds[0].x_mm = 1e200") + FAST_SAMPLING)
    scenario = ["--state", "slant45", "--feed", "A1", "--freq", "9.75"]
    proc = _cli_child(["simulate", "--config", str(cfg), *scenario, "--out", str(tmp_path / "s")])
    assert proc.returncode == 1
    assert proc.stderr == "scenario error: aperture field contains non-finite entries\n"
    proc = _cli_child(["sweep", "--config", str(cfg), "--out", str(tmp_path / "w")])
    assert proc.returncode == 1
    assert "RuntimeWarning" not in proc.stderr


# Periods such as 0.05 and 0.01 reach the cell cap (config.MAX_CELLS_PER_SIDE)
# as well as the absurd values; steps that small reach the direction cap.
_FUZZ_VALUES = st.sampled_from(
    ["", "0", "-0", "-1", "0.01", "0.05", "0.5", "1", "6", "9.75", "240", "1e300", "-1e300",
     "1e-300", "nan", "inf", "-inf", "true", "false", "A1", "A4, A1", "9.0, 10.5", ",", "1,,2"]
)
_FUZZ_JUNK = st.text(alphabet="abxyz_.,-=[]#\t \x00\u00e9", max_size=8)
_FUZZ_KEY_LINES = st.builds("{} = {}".format, st.sampled_from(sorted(KEYS)), _FUZZ_VALUES)
# at most one line of these per config, so that most configs reach the checks
_FUZZ_BAD_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(sorted(KEYS)), _FUZZ_JUNK),
    st.builds(
        "{} = {}".format, st.from_regex(r"[a-z_][a-z0-9_.\[\]]{0,12}", fullmatch=True), _FUZZ_VALUES
    ),
    st.builds(
        "feeds[{}].{} = {}".format,
        st.integers(0, 8),
        st.sampled_from(["id", "x_mm", "y_mm", "z_mm"]),
        _FUZZ_VALUES,
    ),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=16),
)


@settings(database=None, max_examples=40, deadline=None)
@given(st.lists(_FUZZ_KEY_LINES, max_size=3), st.lists(_FUZZ_BAD_LINES, max_size=1))
def test_validate_survives_malformed_config(lines, bad_lines):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text("\n".join(lines + bad_lines) + "\n", encoding="utf-8")
        try:
            code = main(["validate", "--config", str(cfg)])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


# every example changes at least one key of a configuration that runs
@settings(database=None, max_examples=40, deadline=None)
@given(st.lists(_FUZZ_KEY_LINES, min_size=1, max_size=3), st.lists(_FUZZ_BAD_LINES, max_size=1))
# an empty list once left synthesize no design frequency to index
@example(lines=["frequencies = ,"], bad_lines=[])
# a wavelength whose square overflows once reached the aperture efficiency
@example(lines=["frequencies = 1e-300"], bad_lines=[])
@pytest.mark.parametrize("command", ["synthesize", "simulate", "sweep"])
def test_every_command_survives_malformed_config(command, lines, bad_lines):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "fuzz.cfg"
        cfg.write_text(FAST_SAMPLING + "\n".join(lines + bad_lines) + "\n", encoding="utf-8")
        argv = [command, "--config", str(cfg), "--out", str(Path(tmp) / "o")]
        if command == "simulate":
            argv += ["--state", "slant45", "--feed", "A4", "--freq", "9.75"]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "command, line, flags",
    [
        ("sweep", "sampling.theta_step_deg = 1e-300", []),
        ("simulate", "", ["--theta-step", "0.001", "--state", "y", "--feed", "A4", "--freq", "9.75"]),
    ],
)
def test_oversized_sampling_grid_is_a_config_error(tmp_path, command, line, flags):
    # 1.6e304 and 32,400,360 directions: rejected with the config, before
    # any grid exists
    cfg = tmp_path / "fine.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "o"
    proc = _cli_child([command, "--config", str(cfg), *flags, "--out", str(out)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: sampling.")
    assert proc.stderr.endswith("make more than 1,000,000 directions\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "synthesize"])
def test_oversized_aperture_is_a_config_error(tmp_path, command):
    # 24,000 x 24,000 cells: rejected with the config, before any grid exists
    cfg = tmp_path / "fine.cfg"
    out = tmp_path / "o"
    cfg.write_text(f"ta.period_mm = 0.01\noutput_dir = {out}\n")
    proc = _cli_child([command, "--config", str(cfg)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "config error: ta.size_mm = 240 and ta.period_mm = 0.01 make more than 1000 cells a side\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "text, code",
    [
        ("ta.size_mm = inf\n", 2),
        ("f_mm = nan\n", 2),
        ("h_mm = 1e300\n", 1),
        ("feeds = 1, 2\nfeeds[0].id = A1\n", 2),
        ("\x00 = \u00e9\n", 2),
        # a one-value key takes neither a list nor an empty value
        ("output_dir = a, b\n", 2),
        ("output_dir =\n", 2),
    ],
)
def test_malformed_config_exits_without_traceback(tmp_path, text, code):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    proc = _cli_child(["validate", "--config", str(cfg)])
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr


_SCENARIO = ["--state", "y", "--feed", "A4", "--freq", "9.75"]


@pytest.mark.parametrize(
    "command, text",
    [
        ("synthesize", "output_dir = a\x00b\n"),
        ("report", "output_dir = a\x00b\n"),
        # a config that radiates, were the id not refused
        ("sweep", FAST_SAMPLING + "feeds[0].id = A\x001\nfeeds[0].x_mm = 0\nta_feed_ids = A\x001\n"),
    ],
)
def test_a_nul_byte_is_a_config_error(tmp_path, command, text):
    # no path or file name may hold one, so the text parser refuses it
    cfg = tmp_path / "nul.cfg"
    cfg.write_text(text)
    proc = _cli_child([command, "--config", str(cfg)], cwd=tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    [line] = proc.stderr.splitlines()
    assert line.startswith("config error: ") and "NUL" in line


def test_a_feed_id_that_cannot_name_a_file_is_a_config_error(tmp_path, capsys):
    # every beam file's name holds its feed id: refused before any beam radiates
    cfg = tmp_path / "slash.cfg"
    cfg.write_text(FAST_SAMPLING + "feeds[0].id = a/b\nfeeds[0].x_mm = 0\nta_feed_ids = a/b\n")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: feeds: a feed id names files and may not hold '/', got 'a/b'\n"
    )
    assert not out.exists()


def test_a_feed_id_is_read_as_written(tmp_path):
    # 007 stays 007 in the key that names it and in the files it writes
    default = (Path(htasim.__file__).parent / "data" / "default.cfg").read_text()
    text = default.replace("feeds[3].id = A4", "feeds[3].id = 007")
    text = text.replace("ta_feed_ids = A2, A3, A4, A5, A6", "ta_feed_ids = 007")
    cfg = tmp_path / "ids.cfg"
    cfg.write_text(text + FAST_SAMPLING)
    out = tmp_path / "o"
    argv = ["simulate", "--config", str(cfg), "--state", "x", "--feed", "007", "--freq", "9.75"]
    assert main(argv + ["--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "x_007_9.75GHz_fwd_cut.csv", "x_007_9.75GHz_fwd_metrics.json"
    ]


def test_an_output_dir_is_read_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "dir.cfg"
    cfg.write_text("output_dir = 1e3\n")
    assert main(["synthesize", "--config", str(cfg)]) == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["1e3"]


def test_negative_h_names_the_distance_it_is(tmp_path):
    # h is the distance from the feed plane to the folded aperture (the
    # FTA lies at z = -h), not the apertures' separation, which is f + h
    cfg = tmp_path / "h.cfg"
    cfg.write_text("h_mm = -1\n")
    proc = _cli_child(["validate", "--config", str(cfg)])
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "layout error: distance h from the feed plane to the folded aperture"
        " must be nonnegative, got -1.0"
    ]


def test_a_split_radiate_loads_no_executor(tmp_path):
    # two engine workers run in plain threads: `concurrent.futures` would
    # load `logging` as well, which no command needs
    code = (
        "import sys; from htasim import cli, farfield\n"
        "farfield._workers = lambda: 2\n"
        f"code = cli.main(['simulate', *{_SCENARIO!r}, '--out', {str(tmp_path / 'o')!r}])\n"
        "print(code, sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize("line", ["h_mm = 1e300"])
@pytest.mark.parametrize("command", ["synthesize", "simulate", "sweep"])
def test_unsquarable_stack_is_a_layout_error(tmp_path, command, line):
    # the path lengths square the stack extent F = 2f + h, which overflows here
    cfg = tmp_path / "tall.cfg"
    cfg.write_text(FAST_SAMPLING + line + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    proc = _cli_child(argv + (_SCENARIO if command == "simulate" else []))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("layout error: stack extent F = 1e+300 mm")


_FULL_CURVE = "param_mm,phase_deg,mag_db\n0.5,0,0\n1.5,34,0\n2.4,82,0\n3.5,139,0\n4.6,180,0\n"
_NON_FINITE_PREFIX = {
    "synthesize": "synthesis failed at ",
    "validate": "validation failed: ",
    "simulate": "scenario error: ",
    "sweep": "synthesis failed at ",
}


@pytest.mark.parametrize("route", ["spacing", "frequency"])
@pytest.mark.parametrize("command", ["synthesize", "validate", "simulate", "sweep"])
def test_non_finite_phase_map_is_an_error(tmp_path, command, route):
    # each route overflows the unwrapped phases to inf, which wrap to NaN.
    # A spacing of 1e150 mm keeps them finite at 9.75 GHz, and a frequency
    # that the frequency rule admits overflows them; the CSV curves keep
    # their shape at any frequency, while a builtin shift of 40 deg/GHz
    # rounds the knots together
    if route == "spacing":
        text, freq = FAST_SAMPLING + "d_mm = 1e300\n", "9.75"
    else:
        curve = tmp_path / "curve.csv"
        curve.write_text(_FULL_CURVE)
        text = FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 1e160")
        text += f"d_mm = 1e150\ncurves.uc1_csv = {curve}\ncurves.uc2_csv = {curve}\n"
        freq = "1e160"
    cfg = tmp_path / "big.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(out)]
    if command == "simulate":
        argv += ["--state", "y", "--feed", "A4", "--freq", freq]
    proc = _cli_child(argv)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    # the error is the only line: numpy's overflow warnings are silenced
    [message] = proc.stderr.splitlines()
    assert message.startswith(_NON_FINITE_PREFIX[command]) and "must be finite" in message
    for path in out.rglob("*"):
        assert path.is_dir() or "nan" not in path.read_text()


@pytest.mark.parametrize("knot", ["inf,180,0", "4.6,180,1e308", "4.6,180,inf", "4.6,180,nan"])
@pytest.mark.parametrize("command", ["validate", "synthesize", "simulate", "sweep"])
def test_non_finite_or_active_curve_is_a_config_error(tmp_path, command, knot):
    # the last knot of a curve file is non-finite or gains power
    curve = tmp_path / "curve.csv"
    curve.write_text(_FULL_CURVE.replace("4.6,180,0", knot))
    cfg = tmp_path / "curve.cfg"
    cfg.write_text(FAST_SAMPLING + f"curves.uc1_csv = {curve}\n")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(out)]
    if command == "simulate":
        argv += ["--state", "slant45", "--feed", "A4", "--freq", "9.75"]
    proc = _cli_child(argv)
    assert proc.returncode == 2
    [message] = proc.stderr.splitlines()  # no warning and no traceback
    assert message.startswith("config error: curve file unusable: curve ")
    assert not out.exists()


def test_builtin_curves_serve_an_off_table_frequency(tmp_path):
    # the builtin curves shift 40 deg/GHz at any frequency, and adding a
    # frequency leaves the beams of the others as they were
    cfg = tmp_path / "band.cfg"
    cfg.write_text(FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 9.75, 11.0"))
    assert main(["validate", "--config", str(cfg)]) == 0
    assert main(["synthesize", "--config", str(cfg), "--out", str(tmp_path / "syn")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "band")]) == 0
    single = tmp_path / "single.cfg"
    single.write_text(FAST_SAMPLING)
    assert main(["sweep", "--config", str(single), "--out", str(tmp_path / "one")]) == 0
    beams = sorted(p.name for p in (tmp_path / "one" / "beams").iterdir())
    assert beams and all("_9.75GHz_" in name for name in beams)
    assert any("_11GHz_" in p.name for p in (tmp_path / "band" / "beams").iterdir())
    for name in beams:
        band = (tmp_path / "band" / "beams" / name).read_bytes()
        assert band == (tmp_path / "one" / "beams" / name).read_bytes(), name


@pytest.mark.parametrize("command", ["validate", "synthesize", "simulate", "sweep"])
def test_builtin_curves_name_a_shift_that_rounds_their_knots(tmp_path, capsys, command):
    # the frequency rule admits 1e16 GHz, but a 40 deg/GHz shift of 4e17 deg
    # rounds the builtin knot phases together; CSV curves serve it
    cfg = tmp_path / "far.cfg"
    cfg.write_text(FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 1e16"))
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    if command == "simulate":
        argv += ["--state", "y", "--feed", "A4", "--freq", "1e16"]
    assert main(argv) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(_NON_FINITE_PREFIX[command])
    assert line.endswith(
        "builtin uc1 curve at 1e+16 GHz, shifted 4e+17 deg from 9.75 GHz: "
        "curve phase must be strictly monotone"
    )
    # a directory is made only when a file is written into it
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("values", ["9.75, 9.750001", "9.75, 9.75"])
@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_frequencies_that_print_alike_are_a_config_error(tmp_path, capsys, command, values):
    # file stems and the beam table print a frequency as f"{f:g}", so two
    # such frequencies would write rows and files that cannot be told apart
    cfg = tmp_path / "alike.cfg"
    cfg.write_text(FAST_SAMPLING.replace("frequencies = 9.75", f"frequencies = {values}"))
    argv = [command, "--config", str(cfg)]
    if command == "sweep":
        argv += ["--out", str(tmp_path / "o")]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line == f"config error: frequencies = {values} print alike as 9.75 GHz"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "synthesize", "sweep"])
def test_uncovered_frequency_is_a_config_error(tmp_path, command):
    # the frequency rule covers 9.75 GHz but not 1e200 GHz, whose squared
    # wavelength is zero; the builtin curves would serve both
    cfg = tmp_path / "band.cfg"
    cfg.write_text(FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 9.75, 1e200"))
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(tmp_path / "o")]
    proc = _cli_child(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error:") and "1e200" in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["builtin", "csv"])
@pytest.mark.parametrize("freq", ["1e-300", "1e200"])
@pytest.mark.parametrize("command", ["validate", "synthesize", "simulate", "sweep"])
def test_unusable_frequency_is_a_config_error(tmp_path, capsys, command, freq, source):
    # the aperture efficiency divides by the squared wavelength, which
    # overflows at 1e-300 GHz and is zero at 1e200 GHz, whatever the curves
    text = FAST_SAMPLING.replace("frequencies = 9.75", f"frequencies = {freq}")
    if source == "csv":
        curve = tmp_path / "curve.csv"
        curve.write_text(_FULL_CURVE)
        text += f"curves.uc1_csv = {curve}\ncurves.uc2_csv = {curve}\n"
    cfg = tmp_path / "freq.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(out)]
    if command == "simulate":
        argv += ["--state", "y", "--feed", "A4", "--freq", freq]
    assert main(argv) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"config error: frequencies = {freq} must be positive")
    assert not out.exists()
    if command == "simulate":
        # --freq sets `frequencies`, so the same rule refuses it over a valid list
        cfg.write_text(text.replace(f"frequencies = {freq}", "frequencies = 9.75"))
        assert main(argv) == 2
        assert capsys.readouterr().err == line + "\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "command, line",
    [
        ("simulate", "feed.q = 0"),
        ("validate", "feed.q = 0"),
        ("validate", "ta.period_mm = 0"),
        ("validate", "fta.period_mm = 0"),
    ],
)
def test_nonpositive_key_is_a_config_error(tmp_path, command, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FAST_SAMPLING + line + "\n")
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--state", "slant45", "--feed", "A4", "--freq", "9.75", "--out", str(tmp_path / "o")]
    proc = _cli_child(argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"config error: {line} must be > 0\n"


@pytest.mark.parametrize("line", ["feed.active_ids = A9", "ta_feed_ids = Z1", "feed.active_ids = A1, A1"])
def test_feed_id_lists_name_configured_feeds(tmp_path, capsys, line):
    # an unknown feed, or an active feed named twice: one line names the key and the id
    cfg = tmp_path / "ids.cfg"
    cfg.write_text(FAST_SAMPLING + line + "\n")
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    [message] = capsys.readouterr().err.splitlines()
    assert line.split()[0] in message and line.split()[-1] in message
    assert not (out / "beam_table.csv").exists()


@pytest.mark.parametrize("line", ["feeds = A1", "feeds = ,", "feeds = 1, 2"])
def test_plain_feeds_value_is_a_config_error(tmp_path, capsys, line):
    # feeds is an indexed key: a plain value is no feed list
    cfg = tmp_path / "feeds.cfg"
    cfg.write_text(line + "\n")
    assert main(["validate", "--config", str(cfg)]) == 2
    [message] = capsys.readouterr().err.splitlines()
    assert message.startswith("config error: feeds: expected feeds[k].id and feeds[k].x_mm lines")


def test_oversized_steering_key_is_no_config_error(tmp_path):
    # 648,720 directions x 1,440 cells x 16 B = 14.9 GB of steering factors
    # for the folded side: the engine fills them block by block and holds
    # no such key (never radiate one here: each beam is about 2.7 TFLOP)
    fine = {"fta.period_mm": 0.5, "sampling.theta_step_deg": 0.1, "sampling.phi_step_deg": 0.5}
    cfg = with_overrides(RunConfig(), fine)
    text = "".join(f"{key} = {value}\n" for key, value in fine.items())
    path = tmp_path / "fine.cfg"
    path.write_text(text + "frequencies = 9.75\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["synthesize", "--config", str(path), "--out", str(tmp_path / "syn")]) == 0
    layout = build_layout(cfg.layout)
    assert (layout.fta.nx, layout.fta.ny) == (720, 720)


@pytest.mark.parametrize(
    "command, key",
    [(command, "frequencies") for command in ("validate", "synthesize", "simulate", "sweep")]
    + [("sweep", "ta_feed_ids"), ("sweep", "feed.active_ids")],
)
def test_empty_list_is_a_config_error(tmp_path, capsys, command, key):
    # `key = ,` parses to no values; every list key takes one or more
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(FAST_SAMPLING + f"{key} = ,\n")
    out = tmp_path / "o"
    argv = [command, "--config", str(cfg)]
    if command != "validate":
        argv += ["--out", str(out)] + (_SCENARIO if command == "simulate" else [])
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {key}: expected one or more values, got none\n"
    assert not out.exists()


# --- CLI: synthesize ---------------------------------------------------------


def test_synthesize_outputs(tmp_path):
    out = tmp_path / "syn"
    assert main(["synthesize", "--out", str(out)]) == 0
    ta = (out / "ta_phase.csv").read_text().splitlines()
    fta = (out / "fta_phase.csv").read_text().splitlines()
    assert len(ta) == 1 + 40 * 40
    assert len(fta) == 1 + 36 * 36
    for line in ta[1:]:
        assert 0.0 <= float(line.split(",")[4]) < 360.0
    cells = (out / "ta_cells.csv").read_text().splitlines()
    assert cells[0] == "i,j,x_mm,y_mm,phase_deg,param_mm,rotated"


def test_synthesize_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["synthesize", "--out", str(out1)]) == 0
    assert main(["synthesize", "--out", str(out2)]) == 0
    for name in ("ta_phase.csv", "fta_phase.csv", "ta_cells.csv", "fta_cells.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


# --- CLI: simulate -----------------------------------------------------------


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_SAMPLING)
    return path


def test_simulate_forward_only(tmp_path, fast_cfg):
    out = tmp_path / "sim"
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "x", "--feed", "A4",
         "--freq", "9.75", "--out", str(out)]
    )
    assert code == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["x_A4_9.75GHz_fwd_cut.csv", "x_A4_9.75GHz_fwd_metrics.json"]
    payload = json.loads((out / "x_A4_9.75GHz_fwd_metrics.json").read_text())
    assert payload["state"] == "x"
    assert payload["hemisphere"] == "+z"
    assert payload["crosspol_peak_db"] is None  # ideal model: exactly dark
    cut = (out / "x_A4_9.75GHz_fwd_cut.csv").read_text().splitlines()
    assert cut[0] == "theta_deg,phi_deg,e_co_db,e_cross_db"
    assert max(float(l.split(",")[2]) for l in cut[1:]) == 0.0


def test_simulate_bidirectional(tmp_path, fast_cfg):
    out = tmp_path / "sim2"
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "slant45", "--feed", "A7",
         "--freq", "9.75", "--out", str(out)]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "slant45_A7_9.75GHz_fwd_metrics.json" in names
    assert "slant45_A7_9.75GHz_back_metrics.json" in names


def test_simulate_writes_a_fine_step_angle_as_its_quotient(tmp_path, fast_cfg):
    # the grid angle is 409 * 90 / 900, not 409 * 0.1 = 40.900000000000006
    out = tmp_path / "fine"
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "slant45", "--feed", "A7",
         "--freq", "9.75", "--theta-step", "0.1", "--out", str(out)]
    )
    assert code == 0
    text = (out / "slant45_A7_9.75GHz_fwd_metrics.json").read_text()
    assert '"peak_theta_deg": 40.9,' in text


def test_simulate_illegal_combination(tmp_path, fast_cfg, capsys):
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "x", "--feed", "A1",
         "--freq", "9.75", "--out", str(tmp_path / "x")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "A2, A3, A4, A5, A6" in err


def test_simulate_flag_overrides(tmp_path, fast_cfg):
    out = tmp_path / "ovr"
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "y", "--feed", "A4",
         "--freq", "9.75", "--out", str(out),
         "--theta-step", "5", "--phi-step", "15",
         "--blockage", "--gain-offset-db", "-2.5"]
    )
    assert code == 0
    payload = json.loads((out / "y_A4_9.75GHz_back_metrics.json").read_text())
    assert payload["peak_gain_dbi"] == pytest.approx(
        payload["directivity_dbi"] - 2.5
    )
    # positive offsets are rejected as usage errors
    code = main(
        ["simulate", "--config", str(fast_cfg), "--state", "y", "--feed", "A4",
         "--freq", "9.75", "--out", str(out), "--gain-offset-db", "1.0"]
    )
    assert code == 2


def test_simulate_flags_pass_config_validation(tmp_path, fast_cfg, capsys):
    # a flag is an override of its config key and fails the same way,
    # quoting the value as written
    bad = tmp_path / "bad.cfg"
    scenario = ["--state", "y", "--feed", "A4", "--freq", "9.75", "--out", str(tmp_path / "o")]
    for step in ("0.7", "7"):
        bad.write_text(FAST_SAMPLING + f"sampling.cut_theta_step_deg = {step}\n")
        assert main(["simulate", "--config", str(fast_cfg), "--theta-step", step, *scenario]) == 2
        assert main(["simulate", "--config", str(bad), *scenario]) == 2
        line = f"config error: sampling.cut_theta_step_deg = {step} must divide 90 evenly"
        assert capsys.readouterr().err.splitlines() == [line] * 2


def test_simulate_blockage_flag_keeps_configured_mask(tmp_path, fast_cfg):
    narrow = tmp_path / "narrow.cfg"
    narrow.write_text(FAST_SAMPLING + "blockage.width_mm = 120\n")
    enabled = tmp_path / "enabled.cfg"
    enabled.write_text(FAST_SAMPLING + "blockage.width_mm = 120\nblockage.enabled = true\n")

    def directivity(cfg, *flags):
        out = tmp_path / f"d{len(list(tmp_path.iterdir()))}"
        code = main(["simulate", "--config", str(cfg), "--state", "y", "--feed", "A4",
                     "--freq", "9.75", "--out", str(out), *flags])
        assert code == 0
        payload = json.loads((out / "y_A4_9.75GHz_back_metrics.json").read_text())
        return payload["directivity_dbi"]

    flagged = directivity(narrow, "--blockage")
    assert flagged == directivity(enabled)
    assert flagged == pytest.approx(32.770, abs=1e-3)  # 120 mm shadow
    assert directivity(fast_cfg, "--blockage") == pytest.approx(32.372, abs=1e-3)  # 360 mm


# --- CLI: sweep and report ---------------------------------------------------


def test_sweep_row_count_and_scan_loss(tmp_path, fast_cfg, capsys):
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(fast_cfg), "--out", str(out)]) == 0
    lines = (out / "beam_table.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["state", "feed_id", "frequency_ghz", "hemisphere"]
    rows = [dict(zip(header, l.split(","))) for l in lines[1:]]
    # 5 transmit + 7 folded + 7 hybrid beams x 2 hemispheres, one frequency
    assert len(rows) == 5 + 7 + 14
    by_state = {}
    for r in rows:
        by_state.setdefault((r["state"], r["hemisphere"]), []).append(r)
    assert len(by_state[("x", "+z")]) == 5
    assert len(by_state[("y", "-z")]) == 7
    assert len(by_state[("slant45", "+z")]) == 7
    assert len(by_state[("slant45", "-z")]) == 7
    # scan loss definition: boresight-row directivity minus row directivity
    for (state, hemi), group in by_state.items():
        ref = next(r for r in group if r["feed_id"] == "A4")
        for r in group:
            expect = float(ref["directivity_dbi"]) - float(r["directivity_dbi"])
            assert float(r["scan_loss_db"]) == pytest.approx(expect, abs=2e-4)
    # per-beam artifacts
    assert (out / "beams" / "y_A1_9.75GHz_back_metrics.json").is_file()
    # pointing monotone in feed position (signed angle, forward hemisphere)
    fwd = by_state[("slant45", "+z")]
    signed = [
        float(r["peak_theta_deg"])
        * (1.0 if float(r["peak_phi_deg"]) < 90.0 or float(r["peak_phi_deg"]) > 270.0 else -1.0)
        for r in sorted(fwd, key=lambda r: r["feed_id"])
    ]
    assert signed == sorted(signed, reverse=True)


def test_sweep_all_frequencies_row_count(tmp_path):
    cfg = tmp_path / "allfreq.cfg"
    cfg.write_text(
        "sampling.theta_step_deg = 3\nsampling.phi_step_deg = 10\n"
        "sampling.cut_theta_step_deg = 3\nsampling.cut_phi_step_deg = 10\n"
    )
    out = tmp_path / "swp3"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "beam_table.csv").read_text().splitlines()
    assert len(lines) - 1 == 26 * 3  # 26 beams per frequency, three frequencies


def test_sweep_failed_rows(tmp_path):
    # a shadow wider than the 360 mm FTA darkens the folded side entirely
    cfg = tmp_path / "blocked.cfg"
    cfg.write_text(
        FAST_SAMPLING
        + "blockage.enabled = true\nblockage.width_mm = 400\nblockage.depth_mm = 400\n"
        + "feed.active_ids = A4\n"
    )
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    lines = (out / "beam_table.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = {
        (r["state"], r["hemisphere"]): r
        for r in (dict(zip(header, l.split(","))) for l in lines[1:])
    }
    assert set(rows) == {("x", "+z"), ("y", "-z"), ("slant45", "+z"), ("slant45", "-z")}
    assert rows["x", "+z"]["status"] == "ok"
    assert rows["y", "-z"]["status"] == "failed: aperture field is identically zero"
    # the hybrid state keeps its unblocked transmit-side beam
    assert rows["slant45", "+z"]["status"] == "ok"
    assert rows["slant45", "-z"]["status"] == "failed: aperture field is identically zero"


def _count_radiate(monkeypatch) -> list:
    """Patch `farfield.radiate` to record each call; the list it fills."""
    calls = []
    real = htasim.farfield.radiate
    monkeypatch.setattr(htasim.farfield, "radiate", lambda *a: calls.append(a) or real(*a))
    return calls


def test_sweep_fails_only_the_dark_beams_of_a_side(tmp_path, monkeypatch):
    # a steep taper leaves the outer feeds' transmit apertures exactly dark
    # (cos^q underflows at their cells) while the inner feeds still radiate:
    # the side's other beams keep their rows in the side's one radiate call
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(FAST_SAMPLING + "feed.q = 30000\n")
    out = tmp_path / "swp"
    calls = _count_radiate(monkeypatch)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert len(calls) == 2  # one per side at the one frequency
    with open(out / "beam_table.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    failed = {(r["state"], r["feed_id"], r["hemisphere"]) for r in rows if r["status"] != "ok"}
    assert failed == {("slant45", "A1", "+z"), ("slant45", "A7", "+z")}
    assert {r["status"] for r in rows if r["status"] != "ok"} == {
        "failed: aperture field is identically zero"
    }
    assert len(rows) == 26 and len(list((out / "beams").iterdir())) == 2 * 24


def test_sweep_fails_a_beam_whose_metrics_fail(tmp_path, monkeypatch):
    # the second beam of the transmit side (slant45 A1) fails in
    # extract_metrics: only its row fails, its side radiates once, and
    # every other row equals the unpatched sweep's
    cfg = tmp_path / "two_feeds.cfg"
    cfg.write_text(FAST_SAMPLING + "feed.active_ids = A1, A4\n")
    clean = tmp_path / "clean"
    assert main(["sweep", "--config", str(cfg), "--out", str(clean)]) == 0
    metrics = []
    real = htasim.farfield.extract_metrics

    def failing(*args, **kwargs):
        metrics.append(args)
        if len(metrics) == 2:
            raise ValueError("pattern has no resolvable main lobe")
        return real(*args, **kwargs)

    monkeypatch.setattr(htasim.farfield, "extract_metrics", failing)
    calls = _count_radiate(monkeypatch)
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert [c[0].ex.shape[0] for c in calls] == [3, 4]  # one call per side
    rows = (out / "beam_table.csv").read_text().splitlines()
    expected = (clean / "beam_table.csv").read_text().splitlines()
    [changed] = [i for i, (a, b) in enumerate(zip(rows, expected)) if a != b]
    assert len(rows) == len(expected) == 1 + 7
    assert rows[changed] == "slant45,A1,9.75,+z,,,,,,,,failed: pattern has no resolvable main lobe"
    assert sorted(p.name for p in (out / "beams").iterdir()) == sorted(
        p.name for p in (clean / "beams").iterdir() if not p.name.startswith("slant45_A1_9.75GHz_fwd")
    )


def test_simulate_fails_whole_when_one_hemisphere_fails(tmp_path, capsys):
    # a shadow wider than the FTA darkens the folded side: the lit
    # transmit side is not written either
    cfg = tmp_path / "blocked.cfg"
    cfg.write_text(
        FAST_SAMPLING + "blockage.enabled = true\nblockage.width_mm = 400\nblockage.depth_mm = 400\n"
    )
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg), "--state", "slant45", "--feed", "A4",
                 "--freq", "9.75", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["scenario error: aperture field is identically zero"]
    assert captured.out == "" and not out.exists()


def test_beam_table_quotes_failure_status(tmp_path):
    # a failure message may hold the delimiter and the quote character;
    # report reads the table back with csv.DictReader
    status = 'failed: curve "uc2", row 3'
    row = {"state": "y", "feed_id": "A4", "frequency_ghz": 9.75, "hemisphere": "-z", "status": status}
    path = tmp_path / "beam_table.csv"
    write_beam_table([row], path)
    with open(path, newline="") as fh:
        (back,) = list(csv.DictReader(fh))
    assert back["status"] == status
    assert (back["state"], back["hemisphere"], back["directivity_dbi"]) == ("y", "-z", "")


def test_sweep_propagates_programming_errors(tmp_path, fast_cfg, monkeypatch):
    # only domain errors become failed rows
    def broken(*args, **kwargs):
        raise TypeError("not a domain failure")

    monkeypatch.setattr(htasim.cli, "run_scenario", broken)
    with pytest.raises(TypeError, match="not a domain failure"):
        main(["sweep", "--config", str(fast_cfg), "--out", str(tmp_path / "swp")])


def test_simulate_unlisted_frequency(tmp_path, fast_cfg):
    # --freq sets `frequencies`, so a frequency that fast_cfg does not list
    # radiates exactly as under a config that lists it
    listed = tmp_path / "listed.cfg"
    listed.write_text(FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 11.0"))
    outs = {}
    for name, cfg in (("unlisted", fast_cfg), ("listed", listed)):
        outs[name] = tmp_path / name
        assert main(["simulate", "--config", str(cfg), "--state", "x", "--feed", "A4",
                     "--freq", "11.0", "--out", str(outs[name])]) == 0
    names = sorted(path.name for path in outs["unlisted"].iterdir())
    assert names and all("_11GHz_" in name for name in names)
    assert names == sorted(path.name for path in outs["listed"].iterdir())
    for name in names:
        assert (outs["unlisted"] / name).read_bytes() == (outs["listed"] / name).read_bytes(), name


def test_simulate_writes_the_sweep_beam(tmp_path, fast_cfg):
    # on FAST_SAMPLING the cut grid is the metrics grid, so a beam radiated
    # alone in simulate must match the same beam in the sweep's stacked pass;
    # --freq sets `frequencies`, so 11 GHz need not be listed in fast_cfg
    band = tmp_path / "band.cfg"
    band.write_text(FAST_SAMPLING.replace("frequencies = 9.75", "frequencies = 9.75, 11.0"))
    sweep = tmp_path / "swp"
    assert main(["sweep", "--config", str(band), "--out", str(sweep)]) == 0
    compared = 0
    for freq in ("9.75", "11.0"):
        for state, feed in (("x", "A4"), ("y", "A1"), ("slant45", "A7")):
            sim = tmp_path / f"sim_{state}_{freq}"
            assert main(["simulate", "--config", str(fast_cfg), "--state", state, "--feed", feed,
                         "--freq", freq, "--out", str(sim)]) == 0
            for path in sim.iterdir():
                assert f"_{float(freq):g}GHz_" in path.name
                assert path.read_bytes() == (sweep / "beams" / path.name).read_bytes(), path.name
                compared += 1
    assert compared == 2 * 8


def test_unknown_feed_is_quoted_once(tmp_path, fast_cfg, capsys):
    argv = ["simulate", "--config", str(fast_cfg), "--out", str(tmp_path / "o"),
            "--state", "x", "--feed", "A9", "--freq", "9.75"]
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines() == ["scenario error: unknown feed id 'A9'"]


def test_sweep_deterministic(tmp_path, fast_cfg):
    trees = []
    for run in ("s1", "s2"):
        out = tmp_path / run
        assert main(["sweep", "--config", str(fast_cfg), "--out", str(out)]) == 0
        trees.append({p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()})
    assert len(trees[0]) == 1 + 2 * 26
    assert trees[0] == trees[1]


def test_report(tmp_path, fast_cfg, capsys):
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(fast_cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(fast_cfg), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "achieved" in text.splitlines()[0]
    # folded A1 row: geometric prediction about 22.6 deg
    a1 = next(l for l in text.splitlines() if l.startswith("y") and " A1 " in l)
    assert "22.6" in a1
    assert "measured reference offset" in a1


def test_report_gives_a_moved_feed_no_measured_target(tmp_path, capsys):
    # A1 moved to boresight is not the prototype's A1, whose measured
    # angles are 22 and 40 deg
    cfg = tmp_path / "moved.cfg"
    cfg.write_text(FAST_SAMPLING + "feeds[0].id = A1\nfeeds[0].x_mm = 0\nta_feed_ids = A1\n")
    out = tmp_path / "swp"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 4 and {row[1] for row in rows} == {"A1"}
    for row in rows:
        assert row[5] == "0.00"  # geom: on axis
        assert row[7:9] == ["nan", "nan"]  # meas, d_meas
        assert "measured" not in " ".join(row)


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("command", ["validate", "report"])
def test_closed_stdout_exits_quietly(command, unbuffered):
    # a reader that goes away early, as `htasim validate | head -0` does;
    # unbuffered, a print meets the closed pipe, buffered, the final flush
    argv = [command]
    if command == "report":
        argv += ["--beam-table", str(Path(__file__).parents[1] / "bench/golden/sweep_default.csv")]
    src = str(Path(htasim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "htasim.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) in (0, 1, 2)
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_report_missing_table(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path / "empty")]) == 2


@pytest.mark.parametrize(
    "field, value",
    [("hemisphere", "+x"), ("feed_id", "A9"), ("peak_theta_deg", ""),
     ("peak_theta_deg", "nan"), ("peak_theta_deg", "inf")],
)
def test_report_rejects_unusable_row(tmp_path, capsys, field, value):
    row = {"state": "y", "feed_id": "A1", "frequency_ghz": "9.75", "hemisphere": "-z",
           "peak_theta_deg": "22.0", "status": "ok", field: value}
    table = tmp_path / "beam_table.csv"
    with open(table, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(row))
        writer.writeheader()
        writer.writerow(row)
    assert main(["report", "--beam-table", str(table)]) == 2
    reason = {
        "+x": "unknown hemisphere '+x'",
        "A9": "unknown feed id 'A9'",
        "": "could not convert string to float: ''",
        "nan": "peak_theta_deg 'nan' is not finite",
        "inf": "peak_theta_deg 'inf' is not finite",
    }[value]
    assert capsys.readouterr().err == f"beam table row unusable: {reason}\n"


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff\xfe not utf-8\n", "beam table "),
        (b"state,feed_id,frequency_ghz,hemisphere,peak_theta_deg\ny,A1,9.75,-z,22.0\n",
         "beam table lacks columns ['status']"),
        (b"", "beam table lacks columns ['state', "),
    ],
    ids=["not-utf8", "no-status", "empty"],
)
def test_report_rejects_a_malformed_table(tmp_path, capsys, content, message):
    table = tmp_path / "beam_table.csv"
    table.write_bytes(content)
    assert main(["report", "--beam-table", str(table)]) == 2
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith(message) and captured.out == ""


def test_report_reads_a_short_row_as_blank_fields(tmp_path, capsys):
    table = tmp_path / "beam_table.csv"
    table.write_text("state,feed_id,frequency_ghz,hemisphere,peak_theta_deg,status\ny,A1\n")
    assert main(["report", "--beam-table", str(table)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split() == ["y", "A1"]


@pytest.mark.parametrize(
    "command, out", [(c, "F/x") for c in ("sweep", "simulate", "synthesize")] + [("sweep", "F")]
)
def test_unusable_output_path_is_one_line(tmp_path, fast_cfg, capsys, command, out):
    # F is a regular file, so no directory can be made at or under it
    (tmp_path / "F").write_text("")
    argv = [command, "--config", str(fast_cfg), "--out", str(tmp_path / out)]
    assert main(argv + (_SCENARIO if command == "simulate" else [])) == 1
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("file error: ") and "Not a directory" in line
    assert str(tmp_path / "F") in line


def test_reference_targets_cover_all_beams():
    targets = load_reference_targets()
    assert targets[("x", "A2", "+z")] == 30.0
    assert targets[("y", "A1", "-z")] == 22.0
    assert targets[("slant45", "A1", "+z")] == 40.0
    assert len(targets) == 5 + 7 + 14
