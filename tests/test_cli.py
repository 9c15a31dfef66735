import contextlib
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loewnerkit
from loewnerkit import cli, expansions, kernels
from loewnerkit.cli import SUITES, SuiteConfig, dumps_report, main, validate_config
from loewnerkit.errors import ConfigError

SRC_DIR = str(Path(loewnerkit.__file__).resolve().parents[1])


def _run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def _strip_wall_clock(text: str) -> str:
    return re.sub(r',"wall_clock_ms":\d+', "", text)


def _process_kwargs():
    """A fresh interpreter's environment, with stdout block-buffered as it is
    by default, so that a failed write can leave bytes in the buffer."""
    path = os.pathsep.join(p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    return {"env": dict(env, PYTHONPATH=path), "text": True}


def _run_process(args):
    """Run the CLI in a fresh interpreter, where an uncaught exception shows
    as a traceback on stderr and exit code 1."""
    return subprocess.run(
        [sys.executable, "-m", "loewnerkit.cli", *args], capture_output=True, timeout=300, **_process_kwargs()
    )


def _run_in_process(args, capsys):
    """Run ``main`` in this process and return what ``_run_process`` returns.
    An exception that escapes ``main`` fails the test, and a warning raises,
    so no traceback or warning can hide from the stderr assertions."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    captured = capsys.readouterr()
    return subprocess.CompletedProcess(args, code, captured.out, captured.err)


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")


def _one_error_line(stderr):
    return stderr.startswith("error: ") and stderr.count("\n") == 1 and stderr.endswith("\n")


class TestValidateConfig:
    def test_defaults_filled(self):
        cfg = validate_config({"suite": "resolution"})
        assert cfg.seed == 1 and cfg.a == 0.0 and cfg.b == 1.0 and cfg.nodes == 64

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "resolution", "bogus": 1})

    def test_bad_suite_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "nope"})

    def test_bad_types_rejected(self):
        with pytest.raises(ConfigError):
            validate_config({"suite": "resolution", "seed": -1})
        with pytest.raises(ConfigError):
            validate_config({"suite": "resolution", "nodes": 0})
        with pytest.raises(ConfigError):
            validate_config({"suite": "resolution", "a": 2.0, "b": 1.0})
        with pytest.raises(ConfigError):
            validate_config({"suite": "resolution", "tol": "big"})

    def test_tol_object_per_suite(self):
        cfg = validate_config({"suite": "all", "tol": {"resolution": 1e-6}})
        assert cfg.tol_for("resolution") == 1e-6
        assert cfg.tol_for("koebe-log") == 1e-8

    def test_membership_takes_no_tolerance(self, capsys):
        with pytest.raises(ConfigError, match="suite membership takes no tolerance"):
            validate_config({"suite": "membership", "tol": {"membership": 0.5}})
        cfg = validate_config({"suite": "all", "tol": 1e-6})
        assert "membership" not in cfg.tols and cfg.tol_for("resolution") == 1e-6
        code, out = _run(["run", "--suite", "membership", "--tol", "0.5"], capsys)
        assert code == 0 and "membership" not in json.loads(out)["config"]["tol"]

    def test_pick_rep_schema(self):
        cfg = validate_config(
            {"suite": "nevanlinna-split", "pick_rep": {"b": 0.0, "c": 1.0, "atoms": [[0.0, math.pi]]}}
        )
        assert cfg.pick_rep.c == 1.0
        with pytest.raises(ConfigError):
            validate_config({"suite": "nevanlinna-split", "pick_rep": {"b": 0.0}})
        with pytest.raises(ConfigError):  # t**2 overflows a float
            validate_config({"suite": "nevanlinna-split", "pick_rep": {"b": 0.0, "c": 1.0, "atoms": [[1e160, 1.0]]}})


_NUMBERS = st.integers() | st.floats() | st.sampled_from([2**1024, -(10**400), int("1" * 400)])
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_CONFIG = st.fixed_dictionaries(
    {},
    optional={
        "schema": st.just(1) | _JSON,
        "suite": st.sampled_from(SUITES + ("all",)) | _JSON,
        "seed": _NUMBERS | _JSON,
        "a": _NUMBERS | _JSON,
        "b": _NUMBERS | _JSON,
        "nodes": _NUMBERS | _JSON,
        "tol": _NUMBERS | st.dictionaries(st.sampled_from(SUITES) | st.text(max_size=4), _NUMBERS | _JSON) | _JSON,
        "herglotz_atoms": st.lists(st.lists(_NUMBERS, min_size=3, max_size=3) | _JSON, max_size=3) | _JSON,
        "pick_rep": st.fixed_dictionaries(
            {
                "b": _NUMBERS,
                "c": _NUMBERS,
                "atoms": st.lists(st.lists(_NUMBERS, min_size=2, max_size=2) | _JSON, max_size=3),
            }
        )
        | _JSON,
        "corrupt_psd": st.booleans() | _JSON,
    },
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_CONFIG)
def test_validate_config_accepts_or_raises_config_error(raw):
    try:
        cfg = validate_config(raw)
    except ConfigError:
        return
    assert isinstance(cfg, SuiteConfig)


NON_FINITE_CONFIG = {"suite": "nevanlinna-split", "pick_rep": {"b": 0, "c": 1e308, "atoms": []}}

_ANGLE_ATOMS = st.lists(st.tuples(st.floats(-math.pi, math.pi), st.floats(0.01, 1.0)), min_size=1, max_size=3).map(
    lambda atoms: [[math.cos(a), math.sin(a), w / sum(v for _, v in atoms)] for a, w in atoms]
)
_RUN_CONFIG = st.fixed_dictionaries(
    {"suite": st.sampled_from(("nevanlinna-split", "herglotz-mixture", "pw-reconstruction", "cayley-isometry"))},
    optional={
        "seed": st.integers(0, 2**40),
        "nodes": st.integers(1, 16),
        "a": st.floats(),
        "b": st.floats(),
        "pick_rep": st.fixed_dictionaries(
            {
                "b": st.floats(),
                "c": st.floats(),
                "atoms": st.lists(st.lists(st.floats(), min_size=2, max_size=2), max_size=3),
            }
        ),
        "herglotz_atoms": _ANGLE_ATOMS | st.lists(st.lists(st.floats(), min_size=3, max_size=3), min_size=1, max_size=3),
    },
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_RUN_CONFIG)
@example(NON_FINITE_CONFIG)
def test_run_exits_0_2_or_3_with_a_json_report(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp, "cfg.json"), Path(tmp, "report.json")
        cfg.write_text(json.dumps(raw))
        with contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", "--config", str(cfg), "--out", str(out)])
        assert code in (0, 2, 3)
        if code != 2:
            assert json.loads(out.read_text())["overall_pass"] is (code == 0)


# (b - a) * (n - 1) overflows, so the sample times would reach inf.
TRACE_KOEBE_TIMES_OVERFLOW = ["trace", "--flow", "koebe", "--z-re", "0.3", "--b", "1e308", "--n", "3"]
TRACE_SLIT_TIMES_OVERFLOW = ["trace", "--flow", "slit", "--z-re", "0.3", "--z-im", "1", "--b", "1e308", "--n", "3"]
# z * z overflows in the slit map, so every sample after t = 0 is nan.
TRACE_NON_FINITE = ["trace", "--flow", "slit", "--z-re", "0", "--z-im", "1e200", "--n", "3"]
# a + (b - a) * 13 / 13 rounds to 2e-10 past b, beyond the absolute time
# slack of the transition maps.
TRACE_LAST_TIME_PAST_END = ["trace", "--flow", "koebe", "--a", "9.83187717309674", "--b", "647165.9971964757", "--z-re", "0.3", "--n", "14"]


# The unopenable --out cases run in a fresh process, the rest in this one.
# /dev/full takes the open and fails the write.  An --out case's error line
# names the file: the open error names it, and a failed write says
# "cannot write" and the file.
@pytest.mark.parametrize(
    "args, in_process, error",
    [
        (["run", "--suite", "nevanlinna-split", "--out", "{missing}/report.json"], False, "error: [Errno 2] No such file or directory: '{missing}/report.json'\n"),
        (["trace", "--flow", "koebe", "--z-re", "0.3", "--out", "{missing}/trace.csv"], False, "error: [Errno 2] No such file or directory: '{missing}/trace.csv'\n"),
        (["trace", "--flow", "koebe", "--backend", "rk4", "--step", "0", "--z-re", "0.3"], True, "error: "),
        (["trace", "--flow", "koebe", "--backend", "rk4", "--b", "1e308", "--z-re", "0.3", "--n", "2"], True, "error: "),
        (["trace", "--flow", "slit", "--z-re", "0.3", "--z-im", "1", "--n", "1000001"], True, "error: "),
        (TRACE_KOEBE_TIMES_OVERFLOW, True, "error: "),
        (TRACE_SLIT_TIMES_OVERFLOW, True, "error: "),
        pytest.param(["run", "--suite", "nevanlinna-split", "--out", "/dev/full"], True, "error: cannot write /dev/full: [Errno 28] ", marks=needs_dev_full),
        pytest.param(["trace", "--flow", "koebe", "--z-re", "0.3", "--n", "5", "--out", "/dev/full"], True, "error: cannot write /dev/full: [Errno 28] ", marks=needs_dev_full),
    ],
    ids=[
        "run-out-unopenable",
        "trace-out-unopenable",
        "trace-step-zero",
        "trace-rk4-grid-over-cap",
        "trace-n-over-cap",
        "trace-koebe-times-overflow",
        "trace-slit-times-overflow",
        "run-out-unwritable",
        "trace-out-unwritable",
    ],
)
def test_bad_arguments_exit_2_without_traceback(tmp_path, capsys, args, in_process, error):
    args = [arg.format(missing=tmp_path / "missing") for arg in args]
    proc = _run_in_process(args, capsys) if in_process else _run_process(args)
    assert proc.returncode == 2 and proc.stdout == ""
    assert _one_error_line(proc.stderr) and "Traceback" not in proc.stderr
    assert proc.stderr.startswith(error.format(missing=tmp_path / "missing"))


@needs_dev_full
def test_stdout_that_cannot_be_written_exits_2(monkeypatch, capsys):
    # Closing the stream must not fail either: main sends what it still
    # buffers to the null device, or the flush at exit would fail again.
    with open("/dev/full", "w") as full, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", full)
        proc = _run_in_process(["run", "--suite", "nevanlinna-split"], capsys)
    assert proc.returncode == 2 and proc.stdout == "" and _one_error_line(proc.stderr)
    assert proc.stderr.startswith("error: cannot write stdout: [Errno 28] ")


def test_closed_pipe_exits_2_without_traceback():
    # The reader takes the header and closes the pipe, so a later write of
    # the trace fails with a broken pipe.
    args = [sys.executable, "-m", "loewnerkit.cli", "trace", "--flow", "koebe", "--z-re", "0.3", "--n", "200000"]
    with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, **_process_kwargs()) as proc:
        assert proc.stdout.readline() == "t,re,im\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert code == 2 and _one_error_line(stderr) and stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


def test_suite_defaults_match_the_library_defaults():
    # Reports check at SUITE_TABLE's tolerances and DERIVATIVE_STEP, callers
    # of the library (perfbench's rk4-flow workload) at the checks' defaults.
    checks = {
        "cayley-isometry": expansions.cayley_isometry_check,
        "chordal-derivative": expansions.chordal_derivative_identity_check,
        "chordal-exp-element": expansions.chordal_exp_element_check,
        "chordal-exp-kernel": expansions.chordal_exp_kernel_check,
        "herglotz-mixture": expansions.herglotz_mixture_check,
        "kernel-psd": kernels.psd_check,
        "koebe-log": expansions.koebe_log_element_check,
        "nevanlinna-split": expansions.nevanlinna_split_check,
        "pw-reconstruction": expansions.paley_wiener_reconstruction_check,
        "radial-derivative": expansions.radial_derivative_identity_check,
        "resolution": expansions.resolution_check,
    }

    def default(func, name):
        return inspect.signature(func).parameters[name].default

    table = {suite: tol for suite, (_, tol) in cli.SUITE_TABLE.items() if tol is not None}
    assert table == {suite: default(check, "tol") for suite, check in checks.items()}
    derivative_checks = (checks["radial-derivative"], checks["chordal-derivative"])
    assert [default(check, "h") for check in derivative_checks] == [cli.DERIVATIVE_STEP] * 2


# Coordinates in [-0.7, 0.7] give a point of both domains when Im > 0.
_TRACE_COORD = st.floats(-0.7, 0.7) | st.floats(-1.5, 1.5) | st.floats() | st.sampled_from([1e-300, 1e200, 1e308])
_TRACE_INTERVAL = st.floats(0.0, 10.0) | st.floats(0.0) | st.floats() | st.sampled_from([0.0, 1e13, 1e300, 1e308])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.tuples(
        st.sampled_from(["koebe", "slit"]),
        _TRACE_INTERVAL,
        _TRACE_INTERVAL,
        _TRACE_COORD,
        _TRACE_COORD,
        st.integers(-1, 50),
    ).map(
        # "--a=-1e-05", as argparse would read "--a -1e-05" as two options.
        lambda v: ["trace", f"--flow={v[0]}", f"--a={v[1]!r}", f"--b={v[2]!r}", f"--z-re={v[3]!r}", f"--z-im={v[4]!r}", f"--n={v[5]}"]
    )
)
@example(TRACE_KOEBE_TIMES_OVERFLOW)
@example(TRACE_SLIT_TIMES_OVERFLOW)
@example(TRACE_NON_FINITE)
@example(TRACE_LAST_TIME_PAST_END)
def test_trace_exits_0_2_or_3_with_finite_rows(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(args)
    assert code in (0, 2, 3)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
        return
    assert err.getvalue() == ""
    header, *rows = out.getvalue().splitlines()
    assert header == "t,re,im"
    if code == 3:
        assert rows.pop().startswith("error,")
    else:
        assert len(rows) == int(args[-1].removeprefix("--n="))
    for row in rows:
        assert all(math.isfinite(float(x)) for x in row.split(","))


class TestRun:
    def test_resolution_suite_passes(self, capsys):
        code, out = _run(["run", "--suite", "resolution", "--seed", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["overall_pass"] is True
        entry = report["entries"][0]
        assert entry["max_abs_err"] <= 1e-8 and entry["pass"] is True

    def test_all_suites_pass_and_are_sorted(self, capsys):
        code, out = _run(["run", "--suite", "all", "--seed", "1"], capsys)
        assert code == 0
        report = json.loads(out)
        suites_seen = [e["suite"] for e in report["entries"]]
        assert suites_seen == sorted(suites_seen)
        assert set(suites_seen) == set(SUITES)

    def test_all_suites_report_skeleton(self, capsys):
        identity = ("suite", "kind", "name", "sample_pairs", "max_abs_err", "tol", "pass")
        psd = ("suite", "kind", "name", "size", "seeds", "min_eigenvalue", "tol", "pass")
        membership = ("suite", "kind", "name", "point_counts", "estimates", "eps", "min_pivot", "verdict", "expected", "pass")
        bounded = membership + ("norm_bound",)
        _, out = _run(["run", "--suite", "all", "--seed", "1"], capsys)
        skeleton = [(e["suite"], e["kind"], e["name"], tuple(e)) for e in json.loads(out)["entries"]]
        assert skeleton == [
            ("cayley-isometry", "identity", "cayley-isometry", identity),
            ("chordal-derivative", "identity", "chordal-derivative", identity),
            ("chordal-exp-element", "identity", "chordal-exp-element", identity),
            ("chordal-exp-element", "membership", "exp-slit-element", bounded),
            ("chordal-exp-kernel", "identity", "chordal-exp-kernel", identity),
            ("chordal-exp-kernel", "identity", "chordal-exp-kernel-anchor", identity),
            ("herglotz-mixture", "identity", "herglotz-mixture", identity),
            ("kernel-psd", "psd", "dbr-koebe", psd),
            ("kernel-psd", "psd", "herglotz-phi-minus-one", psd),
            ("kernel-psd", "psd", "pick-cayley-image", psd),
            ("kernel-psd", "psd", "paley-wiener", psd),
            ("kernel-psd", "psd", "loewner-time", psd),
            ("koebe-log", "identity", "koebe-log", identity),
            ("membership", "membership", "koebe-log-element", bounded),
            ("membership", "membership", "reciprocal-pole", membership),
            ("membership", "membership", "pick-constant-element", bounded),
            ("nevanlinna-split", "identity", "nevanlinna-split", identity),
            ("pw-reconstruction", "identity", "pw-reconstruction", identity),
            ("radial-derivative", "identity", "radial-derivative", identity),
            ("resolution", "identity", "resolution", identity),
        ]

    def test_kernel_psd_entries_report_the_grams_that_ran(self, monkeypatch, capsys):
        sizes = []
        monkeypatch.setattr(cli, "gram", lambda kernel, points, gram=cli.gram: sizes.append(len(points)) or gram(kernel, points))
        _, out = _run(["run", "--suite", "kernel-psd"], capsys)
        entries = json.loads(out)["entries"]
        assert {(e["size"], e["seeds"]) for e in entries} == {(cli.PSD_POINTS, cli.PSD_SEEDS)}
        assert sizes == [e["size"] for e in entries for _ in range(e["seeds"])]

    def test_interval_at_the_largest_floats(self, capsys):
        # 0.5 * (a + b) overflows here, and the quadrature rules and the
        # loewner-time kernel of kernel-psd take the midpoint of [a, b].
        code, out = _run(["run", "--suite", "all", "--a", "1e308", "--b", "1e308"], capsys)
        entries = json.loads(out)["entries"]
        errors = {e["suite"]: e["error"] for e in entries if e["kind"] == "error"}
        assert code == 3 and set(errors) == {"chordal-derivative", "radial-derivative"}
        assert all("below the time resolution" in error for error in errors.values())
        assert all(e["pass"] for e in entries if e["kind"] != "error")

    def test_derivative_step_below_time_resolution_is_an_error(self, capsys):
        # One ulp at t = 1e13 is about 2e-3, so t - h and t + h round to t.
        code, out = _run(["run", "--suite", "radial-derivative", "--a", "1e13", "--b", "10000000000001"], capsys)
        (entry,) = json.loads(out)["entries"]
        assert code == 3 and entry["kind"] == "error"
        assert entry["error"].startswith("step h = 0.0001 is below the time resolution at t = 1000000000000")

    def test_quadrature_nodes_below_time_resolution_are_errors(self, capsys):
        # One ulp at 1e13 is about 2e-3: the Gauss-Legendre nodes on
        # [1e13, 1e13 + 1] cannot be placed, so each quadrature suite is an error.
        code, out = _run(["run", "--suite", "all", "--a", "1e13", "--b", "10000000000001"], capsys)
        assert code == 3
        by_suite = {}
        for entry in json.loads(out)["entries"]:
            by_suite.setdefault(entry["suite"], []).append(entry)
        for suite in ("resolution", "koebe-log", "chordal-exp-kernel", "chordal-exp-element"):
            (entry,) = by_suite[suite]
            assert entry["kind"] == "error" and "nodes on [10000000000000.0, 10000000000001.0]" in entry["error"]

    def test_determinism_same_seed(self, capsys):
        _, out1 = _run(["run", "--suite", "all", "--seed", "1"], capsys)
        _, out2 = _run(["run", "--suite", "all", "--seed", "1"], capsys)
        assert _strip_wall_clock(out1) == _strip_wall_clock(out2)

    @pytest.mark.parametrize(
        "config",
        [{"suite": "all", "seed": 1}, {"suite": "all", "seed": 1, "nodes": 40, "a": 0.2, "b": 2.5}],
        ids=["defaults", "nodes-40"],
    )
    def test_warm_rule_cache_changes_no_byte(self, config):
        # One interpreter runs the config with a cold, then a warm
        # Gauss-Legendre cache; a second is a fresh CLI process.  Both run at
        # one BLAS thread, as README and CI pin: the membership estimates
        # depend on the thread count.
        script = (
            "import json, sys\n"
            "from loewnerkit import cli, expansions\n"
            "config = cli.validate_config(json.loads(sys.argv[1]))\n"
            "expansions._reference_rule.cache_clear()\n"
            "cold = cli.dumps_report(cli.run(config))\n"
            "built = expansions._reference_rule.cache_info().misses\n"
            "warm = cli.dumps_report(cli.run(config))\n"
            "print(json.dumps([cold, warm, built, expansions._reference_rule.cache_info().misses]))\n"
        )
        flags = [f"--{key}={value}" for key, value in config.items()]
        kwargs = _process_kwargs()
        kwargs["env"]["OPENBLAS_NUM_THREADS"] = "1"
        one = subprocess.run([sys.executable, "-c", script, json.dumps(config)], capture_output=True, timeout=300, **kwargs)
        fresh = subprocess.run([sys.executable, "-m", "loewnerkit.cli", "run", *flags], capture_output=True, timeout=300, **kwargs)
        assert one.returncode == 0 and fresh.returncode == 0, one.stderr + fresh.stderr
        cold, warm, built_cold, built_warm = json.loads(one.stdout)
        assert built_cold >= 1 and built_warm == built_cold
        assert _strip_wall_clock(cold) == _strip_wall_clock(warm) == _strip_wall_clock(fresh.stdout.strip())

    def test_different_seed_changes_numbers(self, capsys):
        _, out1 = _run(["run", "--suite", "resolution", "--seed", "1"], capsys)
        _, out2 = _run(["run", "--suite", "resolution", "--seed", "2"], capsys)
        e1 = json.loads(out1)["entries"][0]["max_abs_err"]
        e2 = json.loads(out2)["entries"][0]["max_abs_err"]
        assert e1 != e2

    def test_corrupted_kernel_hook_exits_3(self, capsys):
        code, out = _run(["run", "--suite", "kernel-psd", "--corrupt-psd"], capsys)
        assert code == 3
        report = json.loads(out)
        assert report["overall_pass"] is False
        assert all(not e["pass"] for e in report["entries"])
        assert all(e["min_eigenvalue"] < 0 for e in report["entries"])

    def test_schema_error_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"suite": "resolution", "bad_key": 1}')
        code = main(["run", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_unparseable_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text("{not json")
        code = main(["run", "--config", str(cfg)])
        capsys.readouterr()
        assert code == 2

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"suite": "resolution", "seed": 5, "nodes": 32}')
        code, out = _run(["run", "--config", str(cfg), "--seed", "9"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["seed"] == 9 and report["config"]["nodes"] == 32

    def test_out_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code = main(["run", "--suite", "koebe-log", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["entries"][0]["name"] == "koebe-log"

    def test_report_reparses_and_floats_round_trip(self, capsys):
        _, out = _run(["run", "--suite", "membership", "--seed", "1"], capsys)
        report = json.loads(out)
        assert dumps_report(report) == out.strip()

    def test_membership_entries_carry_eps_and_min_pivot(self, capsys):
        _, out = _run(["run", "--suite", "membership", "--seed", "1"], capsys)
        for entry in json.loads(out)["entries"]:
            assert entry["eps"] == 1e-8 and 0.0 < entry["min_pivot"] < 1.0

    def test_pick_rep_override_used(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"suite": "nevanlinna-split", "pick_rep": {"b": 0.0, "c": 3.0, "atoms": [[0.5, 2.0], [-1.0, 1.0]]}}
            )
        )
        code, out = _run(["run", "--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["config"]["pick_rep"]["c"] == 3.0

    @pytest.mark.parametrize(
        "config, code",
        [
            ({"suite": "herglotz-mixture", "herglotz_atoms": [[1, 0, 0.5]]}, 2),
            ({"suite": "nevanlinna-split", "pick_rep": {"b": 0, "c": 1, "atoms": [[0, -1]]}}, 2),
            ({"suite": "resolution", "a": int("1" * 400)}, 2),
            ({"suite": "resolution", "tol": int("1" * 400)}, 2),
            ({"suite": "membership", "tol": {"membership": 0.5}}, 2),
            ({"suite": "resolution", "nodes": 100000}, 2),
            ({"suite": ["resolution"]}, 2),
            ({"suite": "all", "a": 0.5, "b": 0.5}, 3),
        ],
        ids=[
            "herglotz-not-probability",
            "pick-negative-weight",
            "huge-int-a",
            "huge-int-tol",
            "membership-tol",
            "nodes-over-cap",
            "list-suite",
            "a-equals-b",
        ],
    )
    def test_bad_config_exits_cleanly(self, tmp_path, capsys, config, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # Exit 3 runs in a fresh process, exit 2 in this one.
        args = ["run", "--config", str(cfg)]
        proc = _run_process(args) if code == 3 else _run_in_process(args, capsys)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 3:
            errors = {e["suite"] for e in json.loads(proc.stdout)["entries"] if e["kind"] == "error"}
            assert errors == {"chordal-derivative", "radial-derivative"}

    def test_non_finite_value_becomes_error_entry(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(NON_FINITE_CONFIG))
        proc = _run_in_process(["run", "--config", str(cfg)], capsys)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        (entry,) = json.loads(proc.stdout)["entries"]
        assert entry["kind"] == "error" and "max_abs_err" in entry["error"]

    @pytest.mark.parametrize(
        "text",
        [
            b'{"suite": "resolution", "a": ' + b"1" * 5000 + b"}",
            b'{"suite": "resolution", "a": \xff}',
            # json.load raises RecursionError, which is not a ValueError.
            b'{"suite": ' + b"[" * 990 + b"]" * 990 + b"}",
        ],
        ids=["digits-over-int-limit", "invalid-utf8", "nested-too-deep"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(text)
        assert main(["run", "--config", str(cfg)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and _one_error_line(err) and err.startswith("error: cannot read config: ")


class TestDerivativeSuites:
    @pytest.mark.parametrize(
        "suite, check, pairs, transition",
        [
            ("radial-derivative", "radial_derivative_identity_check", "disk_pairs", "radial_transition"),
            ("chordal-derivative", "chordal_derivative_identity_check", "halfplane_pairs", "chordal_transition"),
        ],
    )
    def test_one_check_call_and_pair_count_free_transition_calls(self, monkeypatch, suite, check, pairs, transition):
        calls = {"check": 0, "transition": 0}
        real_check, real_pairs, real_transition = getattr(cli, check), getattr(cli, pairs), getattr(expansions, transition)

        def counted_check(*args, **kwargs):
            calls["check"] += 1
            return real_check(*args, **kwargs)

        def counted_transition(*args, **kwargs):
            calls["transition"] += 1
            return real_transition(*args, **kwargs)

        monkeypatch.setattr(cli, check, counted_check)
        monkeypatch.setattr(expansions, transition, counted_transition)
        seen = []
        for n in (1, 7, 20):
            monkeypatch.setattr(cli, pairs, lambda _n, seed, **kw: real_pairs(n, seed, **kw))
            calls.update(check=0, transition=0)
            (entry,) = cli.run(validate_config({"suite": suite}))["entries"]
            assert entry["pass"] is True and entry["sample_pairs"] == n
            seen.append(dict(calls))
        assert seen == [{"check": 1, "transition": 1}] * 3


class TestDumpsReport:
    def test_17_digit_floats(self):
        text = dumps_report({"x": 1.0 / 3.0})
        assert text == '{"x":0.33333333333333331}'
        assert json.loads(text)["x"] == 1.0 / 3.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_report({"x": float("inf")})


class TestTrace:
    def test_slit_rows(self, capsys):
        code, out = _run(
            ["trace", "--flow", "slit", "--a", "0", "--b", "1", "--z-re", "0", "--z-im", "1", "--n", "3"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,re,im"
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert rows[0] == (0.0, 0.0, 1.0)
        assert abs(rows[1][2] - math.sqrt(2)) < 1e-15 and rows[1][0] == 0.5
        assert abs(rows[2][2] - math.sqrt(3)) < 1e-15

    def test_degenerate_interval_identical_rows(self, capsys):
        code, out = _run(
            ["trace", "--flow", "koebe", "--a", "0.4", "--b", "0.4", "--z-re", "0.2", "--z-im", "0.1", "--n", "2"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_koebe_magnitudes_strictly_decreasing(self, tmp_path, capsys):
        out_path = tmp_path / "trace.csv"
        code = main(["trace", "--flow", "koebe", "--z-re", "0.3", "--n", "11", "--out", str(out_path)])
        capsys.readouterr()
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 12
        mags = [math.hypot(float(r.split(",")[1]), float(r.split(",")[2])) for r in lines[1:]]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_escape_writes_partial_file_and_exits_3(self, tmp_path, capsys):
        out_path = tmp_path / "esc.csv"
        code = main(
            [
                "trace",
                "--flow",
                "slit",
                "--backend",
                "rk4",
                "--z-re",
                "1.0",
                "--z-im",
                "1e-10",
                "--n",
                "5",
                "--out",
                str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 3
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,re,im"
        assert lines[-1].startswith("error,")
        assert len(lines) >= 3  # header + at least one sample row + error row

    def test_non_finite_sample_writes_error_row_and_exits_3(self):
        proc = _run_process(TRACE_NON_FINITE)
        assert proc.returncode == 3 and proc.stderr == ""
        header, first, error = proc.stdout.splitlines()
        assert header == "t,re,im" and first == "0,0,9.9999999999999997e+199"
        assert error.startswith("error,") and "not finite at t = 0.5" in error

    def test_out_of_domain_point_exits_2(self, capsys):
        code = main(["trace", "--flow", "koebe", "--z-re", "2.0", "--n", "5"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("flow", ["koebe", "slit"])
    def test_step_on_closed_form_backend_exits_2(self, capsys, flow):
        proc = _run_in_process(["trace", "--flow", flow, "--z-re", "0.3", "--z-im", "0.5", "--step", "5"], capsys)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: --step applies to --backend rk4 only\n"
