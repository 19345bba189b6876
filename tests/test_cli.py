import copy
import dataclasses
import importlib.util
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import jumpsqueeze
from jumpsqueeze import cli, fock, selfcheck
from jumpsqueeze._mathieu import bound_level_count, lattice_levels
from jumpsqueeze.cli import main
from jumpsqueeze.config import default_config_dict, load_config, parse_config
from jumpsqueeze.constants import MAX_FOCK_DIM, MAX_JUMP_COUNT
from jumpsqueeze.errors import TruncationError
from jumpsqueeze.figures import DEFAULT_CONSTANTS, FIGURE_IDS
from jumpsqueeze.lattice import mathieu_energy
from jumpsqueeze.matrix_elements import (displacement_block_sq,
                                         squeeze_block_sq)
from jumpsqueeze.protocol import builtin_protocol, run_fock, save_protocol
from jumpsqueeze.selfcheck import check_mathieu
from jumpsqueeze.spectroscopy import sideband_populations

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TOOLS = PERFBENCH.parent / "tools"


def _benchmark_module(name, directory=PERFBENCH):
    """A module of the benchmark harness (or its tools), loaded from its
    file."""
    spec = importlib.util.spec_from_file_location(
        f"{directory.name}_{name}", directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


NOT_INTEGERS = (st.none() | st.booleans() | st.text(max_size=3)
                | st.floats(allow_nan=True, allow_infinity=True))
EXTREMES = st.sampled_from([0, -1.0, 0.5, 1e-300, 1e300, 1.7e308, 10 ** 400])
VALUES = (NOT_INTEGERS | EXTREMES | st.floats(min_value=1e-300, max_value=1e308)
          | st.integers(-10 ** 6, 10 ** 6)
          | st.lists(EXTREMES | st.floats(-4, 4), max_size=3))

# Protocol documents with frequencies of 65 to 130 kHz (jump ratios of
# 0.5 to 2) and shifts of at most 30 nm, so five steps stay within a few
# hundred Fock levels; half of them may also hold malformed values.
JSON_VALUES = st.none() | st.booleans() | st.text(max_size=3) | EXTREMES
PROTOCOL_STEPS = (
    st.builds(lambda hz: {"type": "frequency_jump", "omega_new_hz": hz},
              st.floats(65e3, 130e3))
    | st.builds(lambda tau: {"type": "wait", "tau_s": tau},
                st.floats(0.0, 2e-5))
    | st.builds(lambda d: {"type": "shift_origin", "d_m": d},
                st.floats(-30e-9, 30e-9))
    | st.just({"type": "unshift_origin"}))
MALFORMED_STEPS = st.fixed_dictionaries(
    {"type": st.sampled_from(["frequency_jump", "wait", "shift_origin",
                              "unshift_origin"]) | JSON_VALUES},
    optional={"omega_new_hz": JSON_VALUES, "tau_s": JSON_VALUES,
              "d_m": JSON_VALUES})
PROTOCOL_DOCS = st.fixed_dictionaries(
    {"omega_initial_hz": st.floats(70e3, 120e3),
     "steps": st.lists(PROTOCOL_STEPS, max_size=5)},
    optional={"schema_version": st.just(1)}) | st.fixed_dictionaries(
    {"omega_initial_hz": st.floats(70e3, 120e3) | JSON_VALUES,
     "steps": st.lists(PROTOCOL_STEPS | MALFORMED_STEPS, max_size=5)},
    optional={"schema_version": st.just(1) | JSON_VALUES})


def _paths(doc, prefix=()):
    """The key path of every value in ``doc``, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


# The default config with the constants of fig2d (the figure run) and
# fig4a (the one with a Fock dimension) set to their defaults as
# overrides; fuzzed documents replace a few of its values.
FULL_CONFIG = {**default_config_dict(), "figure_overrides": {
    fig: dict(DEFAULT_CONSTANTS[fig]) for fig in ("fig2d", "fig4a")}}
PATHS = [()] + list(_paths(FULL_CONFIG)) + [("comment",), ("trap", "comment")]


def _value_for(path):
    """Values for ``path``; where the default is an integer, only small
    integers, so no document asks for a huge grid."""
    default = FULL_CONFIG
    for key in path:
        default = default.get(key) if isinstance(default, dict) else None
    if isinstance(default, int):
        return NOT_INTEGERS | st.integers(-2, 60)
    return VALUES


def _edited(edits):
    """FULL_CONFIG with the value at each path replaced (the empty path:
    the whole document); an edit below a replaced object is dropped."""
    doc = copy.deepcopy(FULL_CONFIG)
    for path, value in edits:
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[path[-1]] = value
    return doc


CONFIG_DOCS = st.lists(st.sampled_from(PATHS).flatmap(
    lambda path: st.tuples(st.just(path), _value_for(path))),
    max_size=3).map(_edited)


def nested(key, value):
    """The document that sets the dotted ``key`` to ``value``."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


@pytest.fixture()
def proto_file(tmp_path):
    doc = {
        "schema_version": 1,
        "omega_initial_hz": 93e3,
        "steps": [
            {"type": "frequency_jump", "omega_new_hz": 23e3},
            {"type": "wait", "tau_s": 0.25 / 23e3},
            {"type": "frequency_jump", "omega_new_hz": 93e3},
        ],
    }
    return write_json(tmp_path / "double_jump.json", doc)


class TestParser:
    def test_built_once_per_process(self, proto_file, capsys):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        built = cli.build_parser.cache_info().misses
        assert main(["protocol", "run", proto_file]) == 0
        assert main(["selfcheck"]) == 0
        assert cli.build_parser.cache_info().misses == built

    def test_usage_error_leaves_the_next_call_unchanged(self, proto_file,
                                                          capsys):
        assert main(["protocol", "run", proto_file]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["figure"])
        assert exc.value.code == 2
        assert "required: ID" in capsys.readouterr().err
        assert main(["protocol", "run", proto_file]) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("argv", [
        ["--help"], ["figure", "--help"], ["protocol", "--help"],
        ["protocol", "run", "--help"], ["selfcheck", "--help"], [],
        ["figure"], ["protocol"], ["bogus"], ["--config"]])
    def test_exits_like_a_fresh_parser(self, argv, capsys):
        """Help, usage errors and their exit codes are those of a parser
        built for this call alone."""
        def exit_of(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            return exc.value.code, capsys.readouterr()
        cached = exit_of(main)
        assert cached == exit_of(cli.build_parser.__wrapped__().parse_args)
        assert cached[0] == (0 if "--help" in argv else 2)

    def test_documented_command_lines_parse(self):
        """Every ``jumpsqueeze`` line of the README and of the CI workflow,
        which runs the installed console script, is a valid command line."""
        lines = [line.split("#")[0].strip()
                 for doc in ("README.md", ".github/workflows/tests.yml")
                 for line in (PERFBENCH.parent / doc).read_text(
                     encoding="utf-8").splitlines()]
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("jumpsqueeze ")]
        assert len(commands) == 9
        for argv in commands:
            assert cli.build_parser().parse_args(argv).func


class TestFigureCommand:
    def test_single_figure(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "figure", "fig2b"])
        assert code == 0
        assert (tmp_path / "fig2b.csv").exists()
        assert "fig2b" in capsys.readouterr().out

    def test_fig2a_row_count(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "figure", "fig2a"]) == 0
        rows = [l for l in (tmp_path / "fig2a.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 57  # header plus grid

    def test_unknown_id_exits_2_writes_nothing(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "figure", "fig99"])
        assert code == 2
        assert os.listdir(tmp_path) == []

    def test_all_figures(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path), "figure", "all",
                     "--plot-script"])
        assert code == 0
        compare_csv = _benchmark_module("workloads").compare_csv
        for figure_id in FIGURE_IDS:
            text = (tmp_path / f"{figure_id}.csv").read_text(encoding="utf-8")
            reference = (PERFBENCH / "reference" / f"{figure_id}.csv"
                         ).read_text(encoding="utf-8")
            assert compare_csv(text, reference) is None, figure_id
            assert (tmp_path / f"{figure_id}.gp").exists()

    def test_each_runtime_is_its_own_build_and_write(self, tmp_path, capsys,
                                                    monkeypatch):
        # every table is built before any is written; on a clock that
        # advances one second a reading, each figure's build and write
        # still take one second each
        ticks = iter(range(10 ** 6))
        monkeypatch.setattr(cli, "time", types.SimpleNamespace(
            perf_counter=lambda: float(next(ticks))))
        assert main(["--out", str(tmp_path), "figure", "all"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == list(FIGURE_IDS)
        assert all(" rows in 2.00 s -> " in line for line in lines), lines

    def test_benchmark_tracer_finds_every_function(self):
        # the traced benchmark wraps functions by module and name, so a
        # rename must fail here rather than break traced runs
        tracer_module = _benchmark_module("tracer")
        listed = [(module, name)
                  for module, names in tracer_module.SPANNED.items()
                  for name in names]
        listed += [(module, name)
                   for module, names in tracer_module.AGGREGATED.items()
                   for name in names]

        def current():
            return [getattr(sys.modules[f"jumpsqueeze.{module}"], name)
                    for module, name in listed]

        originals = current()
        tracer = tracer_module.Tracer()
        tracer.install(jumpsqueeze)
        try:
            wrapped = current()
        finally:
            tracer.uninstall()
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(c is o for c, o in zip(current(), originals))

    def test_bench_ab_summary_checks_gain_and_bound(self):
        bench_ab = _benchmark_module("bench_ab", TOOLS)

        def runs(values):
            return [{"result": {"metrics": {name: {"value": v}
                                            for name, v in row.items()}}}
                    for row in values]
        parent = [{"wall_s": 1.0 + 0.01 * i, "rss_mb": 40.0,
                   "rate": 10.0} for i in range(10)]
        change = [{"wall_s": 0.6 + 0.01 * i, "rss_mb": 40.0 * 1.12,
                   "rate": 9.5} for i in range(9)]
        change.append({"wall_s": 1.5, "rss_mb": 40.0 * 1.12, "rate": 9.5})
        summary = bench_ab._summary(
            {"parent": runs(parent), "change": runs(change)},
            {"wall_s": ("lower", 0.25), "rss_mb": ("lower", 0.1),
             "rate": ("higher", 0.1)})
        wall, rss, rate = (summary[k] for k in ("wall_s", "rss_mb", "rate"))
        assert wall["change_wins"] == "9/10" and wall["gain_rule_holds"]
        assert wall["within_bound"] and wall["bound"] == 0.25
        assert wall["change_over_parent"] == pytest.approx(0.645 / 1.045)
        assert not rss["gain_rule_holds"] and not rss["within_bound"]
        assert rate["change_wins"] == "0/10" and rate["within_bound"]
        line = bench_ab._summary_line("protocol_batch", "rss_mb", rss)
        assert line.startswith("protocol_batch rss_mb: parent 40 change 44.8")
        assert "ratio 1.120" in line and "within_bound False" in line
        assert not any(row["unresolved"] for row in (wall, rss, rate))
        assert "unresolved False" in line

    def test_bench_ab_gives_every_run_a_fresh_bytecode_cache(
            self, monkeypatch):
        bench_ab = _benchmark_module("bench_ab", TOOLS)
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        calls = []

        def fake_run(argv, **kwargs):
            cache = kwargs["env"]["PYTHONPYCACHEPREFIX"]
            calls.append((argv, kwargs["env"], os.listdir(cache)))
            Path(cache, f"module{len(calls)}.pyc").write_bytes(b"")
            lines = [json.dumps({"env": {}}), json.dumps({"metrics": {}})]
            return subprocess.CompletedProcess(argv, 0, "\n".join(lines), "")
        monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
        for checkout in ("parent", "change"):
            assert bench_ab._run(checkout, "figure_all", 11)["seed"] == 11
        rest = {key: value for key, value in os.environ.items()
                if key != "PYTHONPYCACHEPREFIX"}
        assert len(calls) == 4
        caches = []
        for i in (0, 2):
            (fill, fill_env, before_fill), (timed, env, before_timed) = \
                calls[i:i + 2]
            caches.append(env["PYTHONPYCACHEPREFIX"])
            # an untimed set-up, allowed to write bytecode, fills the
            # run's empty cache, and only the timed run reads it
            assert fill[-1] == "--setup-probe" and "--seconds" in timed
            assert fill_env["PYTHONPYCACHEPREFIX"] == caches[-1]
            assert "PYTHONDONTWRITEBYTECODE" not in fill_env
            assert before_fill == []
            assert before_timed == [f"module{i + 1}.pyc"]
            assert not os.path.exists(caches[-1])
            # the timed run's environment is the caller's plus the cache
            assert {key: value for key, value in env.items()
                    if key != "PYTHONPYCACHEPREFIX"} == rest
        assert caches[0] != caches[1]

    def test_bench_ab_summary_reports_unresolved(self):
        # a spread wider than the bound leaves a metric unresolved unless
        # every change run beats every parent run
        bench_ab = _benchmark_module("bench_ab", TOOLS)
        wide = [1.0, 0.6, 1.4, 0.8, 1.2]

        def summary(parent, change):
            runs = {side: [{"result": {"metrics": {"s": {"value": v}}}}
                           for v in values]
                    for side, values in (("parent", parent),
                                         ("change", change))}
            return bench_ab._summary(runs, {"s": ("lower", 0.25)})["s"]
        overlapping = summary(wide, [v - 0.1 for v in wide])
        assert overlapping["unresolved"] and overlapping["within_bound"]
        assert "unresolved True" in bench_ab._summary_line(
            "figure_all", "s", overlapping)
        # the change's spread alone is enough
        assert summary([1.0] * 5, [v - 0.1 for v in wide])["unresolved"]
        assert not summary(wide, [v - 1.0 for v in wide])["unresolved"]
        assert not summary([1.0, 1.01, 0.99, 1.0, 1.02],
                           [1.1, 1.09, 1.12, 1.1, 1.11])["unresolved"]

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("JUMPSQUEEZE_OUT", str(tmp_path / "envdir"))
        assert main(["figure", "fig2d"]) == 0
        assert (tmp_path / "envdir" / "fig2d.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("JUMPSQUEEZE_OUT", str(tmp_path / "envdir"))
        assert main(["--out", str(tmp_path / "flagdir"),
                     "figure", "fig2d"]) == 0
        assert (tmp_path / "flagdir" / "fig2d.csv").exists()
        assert not (tmp_path / "envdir").exists()

    def test_out_below_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        code = main(["--out", str(blocker / "sub"), "figure", "fig2d"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_figure_override_via_config(self, tmp_path, capsys):
        cfg = {"figure_overrides": {"fig2b": {"points": 5}}}
        cfg_path = write_json(tmp_path / "cfg.json", cfg)
        assert main(["--config", cfg_path, "--out", str(tmp_path),
                     "figure", "fig2b"]) == 0
        rows = [l for l in (tmp_path / "fig2b.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 1 + 5


class TestConfigHandling:
    @pytest.mark.parametrize("figure_id, key, value", [
        ("fig2a", "points", math.inf),
        ("fig2b", "points", -5),
        ("fig2c", "nbar0", math.nan),
        ("fig2b", "nbar0", -0.1),
        ("fig2a", "envelope_tau_s", 0),
        ("fig4c", "decay_time_s", -1e-6),
        ("fig2a_inset", "n_jumps_max", 0),
        ("fig4a", "fock_dim", 1),
        ("fig3c", "periods", 0),
        ("fig2c", "points_per_period", 0),
        ("fig3b", "d_max_m", -math.inf),
        ("fig3b", "calibration", 0),
        ("fig2d", "squeeze_factor", -2.58),
        ("fig2b", "points", 10 ** 12),
        ("fig2a_inset", "n_jumps_max", 10 ** 12),
        ("fig2a_inset", "n_jumps_max", MAX_JUMP_COUNT + 1),
        ("fig2c", "periods", 1e12),
        ("fig4a", "points_per_period", 1e300),
        # amplitudes beyond the operators' range: checked with the config,
        # so no earlier figure of `figure all` is written
        ("fig4a", "alpha_i", 7.0),
        ("fig4a", "alpha_i", -6.5),
        ("fig4a", "two_r", 6.5),
        ("fig4c", "alpha_i", 7.0),
        ("fig4c", "two_r_max", 5.0),
        ("fig4c", "two_r_max", 1e308),
        ("fig2a", "two_r_max", 7.0),
        ("fig2a_inset", "r_per_jump", 1.0),
        ("fig2a_inset", "r_per_jump", -0.8),
        ("fig3b", "d_max_m", 4e-7),
        # checked on the rows of the builder, not the constant alone
        ("fig2a", "two_r_max", 5.0),
        # a jump target omega1 exp(-2 r_max) that underflows to 0
        ("fig2b", "r_max", 400),
        # a grid span 2 v_max that overflows
        ("fig2d", "v_max_m_s", 1.7e308),
        # a grid from 0 must end above 0
        ("fig2a", "two_r_max", 0.0),
        ("fig2b", "r_max", 0.0),
        ("fig2d", "v_max_m_s", 0.0),
        ("fig3b", "d_max_m", 0.0),
        ("fig4c", "two_r_max", 0.0),
    ])
    def test_override_outside_domain_exits_2(self, tmp_path, capsys,
                                             figure_id, key, value):
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"figure_overrides": {figure_id: {key: value}}})
        out = tmp_path / "out"
        assert main(["--config", cfg_path, "--out", str(out),
                     "figure", "all"]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("figure_id, overrides", [
        ("fig2a", {"two_r_max": 2.95}),
        ("fig2a_inset", {"r_per_jump": -0.74}),
        ("fig3b", {"d_max_m": 2.6e-7}),
        # the figure's own calibration sets its alpha: 4.9 here
        ("fig3b", {"d_max_m": 5e-7, "calibration": 2.0}),
        # at the bound in the builder's own arithmetic: fig4c's largest
        # |alpha| is 6.0, fig2a's r_eff 3.0 and fig3b's alpha 6.0 exactly
        ("fig4c", {"alpha_i": 0.67, "two_r_max": math.log(6 / 0.67)}),
        ("fig2a", {"two_r_max": 3.0}),
        ("fig2b", {"r_max": 3.0}),
        ("fig3b", {"d_max_m": 2.66e-7}),
    ])
    def test_override_inside_amplitude_bound_runs(self, tmp_path, capsys,
                                                  figure_id, overrides):
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"figure_overrides": {figure_id: overrides}})
        assert main(["--config", cfg_path, "--out", str(tmp_path),
                     "figure", figure_id]) == 0

    # amplitudes that round to just above their bound in the builder's own
    # arithmetic, or that no constant of the figure sets
    @pytest.mark.parametrize("figure_id, doc, setting", [
        ("fig3b", {"figure_overrides": {"fig3b": {
            "calibration": 2.3149463950321807,
            "d_max_m": 7.027572147672466e-07}}},
         "figure_overrides.fig3b.d_max_m (largest |alpha| of the fig3b "
         "sweep): must be <= 6.0, got 6.000000000000001"),
        ("fig4c", {"figure_overrides": {"fig4c": {
            "alpha_i": 0.123, "two_r_max": 3.8873303928377747}}},
         "figure_overrides.fig4c.two_r_max (largest |alpha| of the fig4c "
         "sweep): must be <= 6.0, got 6.000000000000001"),
        ("fig3c", {"figure_overrides": {"fig3c": {"d_m": 1e-6}}},
         "figure_overrides.fig3c.d_m (largest |alpha| of the fig3c sweep)"),
        ("fig2c", {"trap": {"omega2_hz": 1.0}},
         "trap.omega1_hz / trap.omega2_hz (largest r_eff of the fig2c "
         "sweep): must be <= 3.0"),
    ])
    @pytest.mark.parametrize("command", ["own", "all"])
    def test_row_amplitude_out_of_range_exits_2(self, tmp_path, capsys,
                                                figure_id, doc, setting,
                                                command):
        out = tmp_path / "out"
        assert main(["--config", write_json(tmp_path / "cfg.json", doc),
                     "--out", str(out), "figure",
                     figure_id if command == "own" else "all"]) == 2
        captured = capsys.readouterr()
        assert f"error: {setting}" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_row_amplitude_is_refused_only_where_it_is_built(self, tmp_path,
                                                             capsys):
        # a fig4c sweep beyond |alpha| = 6 does not stop fig2d, but `figure
        # all` builds fig4c and so writes no table at all
        cfg_path = write_json(tmp_path / "cfg.json", {
            "figure_overrides": {"fig4c": {"two_r_max": 5.0}}})
        assert main(["--config", cfg_path, "--out", str(tmp_path / "one"),
                     "figure", "fig2d"]) == 0
        assert os.listdir(tmp_path / "one") == ["fig2d.csv"]
        assert main(["--config", cfg_path, "--out", str(tmp_path / "all"),
                     "figure", "all"]) == 2
        assert ("figure_overrides.fig4c.two_r_max (largest |alpha| of the "
                "fig4c sweep)") in capsys.readouterr().err
        assert not (tmp_path / "all").exists()

    def test_multi_jump_amplitude_at_its_bound(self, tmp_path, capsys):
        # n jumps of 3/n reach r_eff 3 only up to round-off; each n either
        # runs or is refused, naming the key, before any table is written
        key = "figure_overrides.fig2a_inset.r_per_jump"
        codes = set()
        for n in range(1, 101):
            cfg = write_json(tmp_path / "cfg.json", nested(
                "figure_overrides.fig2a_inset",
                {"r_per_jump": 3.0 / n, "n_jumps_max": n}))
            out = tmp_path / f"out{n}"
            code = main(["--config", cfg, "--out", str(out), "figure",
                         "fig2a_inset"])
            err = capsys.readouterr().err
            codes.add(code)
            assert code in (0, 2)
            if code == 2:
                assert key in err and not out.exists()
        assert codes == {0, 2}

    @pytest.mark.parametrize("document, key, value", [
        ("config", "schema_version", True),
        ("protocol", "schema_version", True),
        ("config", "trap.omega1_hz", 1e308),
        ("config", "rabi.omega01_hz", 1e308),
        ("config", "rabi.n_max", 5),
        ("config", "rabi.n_max", 513),
        ("config", "selfcheck.element_n_max", 513),
        ("config", "selfcheck.element_n_max", 20.5),
        ("config", "selfcheck.element_r_values", [3.5]),
        # |r| = 2.8 needs a Fock dimension above MAX_FOCK_DIM
        ("config", "selfcheck.element_r_values", [2.8]),
        # the squeeze oracle for the default amplitudes needs a Fock
        # dimension above MAX_FOCK_DIM at this element_n_max
        ("config", "selfcheck.element_n_max", 512),
        ("config", "fock_dim", 1025),
        ("config", "figure_overrides.fig4a.fock_dim", 1025),
        # nbar0 whose thermal start fails the tail-mass guard at
        # MAX_FOCK_DIM (top level, fig4a) or whose thermal weights need
        # an index above MAX_INDEX (the matrix-element sums of fig3b)
        ("config", "nbar0", 1e20),
        ("config", "figure_overrides.fig4a.nbar0", 100),
        ("config", "figure_overrides.fig3b.nbar0", 50),
        ("config", "figure_overrides.fig3b.nbar0", 1e20),
        # the moments check squeezes by 2r: |r| above 3 / 2, up to an
        # amplitude whose jump frequency underflows to 0
        ("config", "selfcheck.state_amplitudes", [4]),
        ("config", "selfcheck.state_amplitudes", [-5]),
        ("config", "selfcheck.state_amplitudes", [1e300]),
        ("config", "selfcheck.state_amplitudes", [2.0]),
        # amplify displaces by alpha_i e^{2r}: above 6 at any fock_dim
        ("config", "selfcheck.alpha_i", 7),
        ("config", "selfcheck.alpha_i", 3.0),
        # a trap scale that is 0 or infinite: x0 (2 mass omega1
        # underflows to 0) or the recoil energy (hbar^2 k^2 / 2 mass
        # underflows to 0)
        ("config", "trap", {"mass_kg": 1e-300, "omega1_hz": 1e-30}),
        ("config", "trap.omega1_hz", 1e-300),
        ("config", "trap.mass_kg", 1e300),
    ])
    def test_input_outside_domain_exits_2(self, tmp_path, capsys,
                                          document, key, value):
        out = tmp_path / "out"
        if document == "config":
            argv = ["--config", write_json(tmp_path / "cfg.json",
                                           nested(key, value)),
                    "--out", str(out), "figure", "fig2d"]
        else:
            argv = ["protocol", "run", write_json(
                tmp_path / "proto.json",
                {"omega_initial_hz": 93e3, "steps": [], key: value})]
        assert main(argv) == 2
        captured = capsys.readouterr()
        section, _, name = key.rpartition(".")
        assert name in captured.err and section in captured.err
        assert captured.out == ""
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_DOCS)
    def test_any_config_document_exits_cleanly(self, doc):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code = main(["--config", write_json(Path(tmp) / "cfg.json", doc),
                         "--out", str(out), "figure", "fig2d"])
            assert code in (0, 2, 3)
            if code == 0:
                text = (out / "fig2d.csv").read_text(encoding="utf-8")
                assert not re.search(r"\b(inf|nan)\b", text), text

    @pytest.mark.parametrize("overrides", [
        # v_max^2 is finite, v_max^2 / (2 sigma^2) overflows
        {"v_max_m_s": 1.0864231637798209e152},
        # the narrowest width squares to 0
        {"squeeze_factor": 1e300},
        {"v_max_m_s": 1e10, "squeeze_factor": 1e-150}])
    def test_fig2d_exponent_overflow_exits_2(self, tmp_path, capsys,
                                             overrides):
        out = tmp_path / "out"
        doc = {"figure_overrides": {"fig2d": overrides}}
        assert main(["--config", write_json(tmp_path / "cfg.json", doc),
                     "--out", str(out), "figure", "all"]) == 2
        assert re.search(r"error: figure_overrides\.fig2d\.v_max_m_s: v_max\^2 "
                         r"/ \(2 sigma\^2\) at the narrowest width sigma = "
                         r"\S+ m/s: must be finite, got inf",
                         capsys.readouterr().err)
        assert not out.exists()

    def test_fig2d_nbar0_is_bounded_only_by_its_width(self, tmp_path):
        # fig2d's nbar0 enters only sqrt(2 nbar0 + 1), no thermal sum
        out = tmp_path / "out"
        doc = {"figure_overrides": {"fig2d": {"nbar0": 50}}}
        assert main(["--config", write_json(tmp_path / "cfg.json", doc),
                     "--out", str(out), "figure", "fig2d"]) == 0
        assert "# thermal_broadening_factor: 10.0498756\n" in (
            out / "fig2d.csv").read_text(encoding="utf-8")

    @pytest.mark.parametrize("doc", [
        # 2 * nbar0 overflows in the thermal broadening metadata
        {"figure_overrides": {"fig2d": {"nbar0": 1.7e308}}},
    ])
    def test_overflow_exits_3_writes_nothing(self, tmp_path, capsys, doc):
        out = tmp_path / "out"
        assert main(["--config", write_json(tmp_path / "cfg.json", doc),
                     "--out", str(out), "figure", "fig2d"]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.json"),
                     "selfcheck"]) == 2

    def test_bad_json_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["--config", str(bad), "selfcheck"]) == 2

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json", {"fock_dims": 64})
        assert main(["--config", cfg_path, "selfcheck"]) == 2

    def test_defaults_match_published_constants(self):
        doc = default_config_dict()
        assert doc["trap"]["omega1_hz"] == 93e3
        assert doc["trap"]["omega2_hz"] == 23e3
        assert doc["trap"]["v0_hz"] == 1.05e6
        assert doc["rabi"]["omega01_hz"] == 5.4e3
        assert doc["rabi"]["gamma_per_s"] == 9.8e3
        assert doc["rabi"]["pulse_t_s"] == 4e-4
        assert doc["rabi"]["n_max"] == 20
        assert doc["fock_dim"] == 64
        assert doc["nbar0"] == 0.22

    def test_default_figure_constants(self):
        from jumpsqueeze.figures import DEFAULT_CONSTANTS as C
        assert C["fig2a"]["nbar0"] == 0.22
        assert C["fig3b"]["nbar0"] == 0.38
        assert C["fig4a"]["nbar0"] == 0.35
        assert C["fig2a"]["envelope_tau_s"] == 46e-6
        assert C["fig2c"]["envelope_tau_s"] == 46e-6
        assert C["fig3c"]["envelope_tau_s"] == 27e-6
        assert C["fig4a"]["decay_time_s"] == 32e-6
        assert C["fig4c"]["decay_time_s"] == 32e-6
        assert C["fig2a_inset"]["r_per_jump"] == 0.39
        assert C["fig4a"]["alpha_i"] == 0.67 and C["fig4a"]["two_r"] == 1.23
        assert C["fig2d"]["squeeze_factor"] == 2.58


class TestProtocolRun:
    def test_double_jump_summary(self, proto_file, capsys):
        assert main(["protocol", "run", proto_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_eff"] == pytest.approx(1.397, abs=0.01)
        assert doc["theta_rad"] == pytest.approx(math.pi / 2, abs=1e-9)
        assert doc["ln_u_plus_v"] == pytest.approx(doc["r_eff"], abs=1e-9)
        assert 0 < doc["R"] < 1

    def test_unbounded_nbar0_exits_2(self, proto_file, tmp_path, capsys):
        cfg = write_json(tmp_path / "cfg.json", {"nbar0": 1e20})
        assert main(["--config", cfg, "protocol", "run", proto_file]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: nbar0: must be <= ")
        assert captured.out == ""

    def test_nbar0_above_the_figure_sums_bound_runs(self, tmp_path, capsys):
        # MAX_NBAR0 bounds only the figures' thermal sums; a Fock start
        # at nbar0 30 fits once fock_dim has grown
        cfg = write_json(tmp_path / "cfg.json", {"nbar0": 30})
        path = write_json(tmp_path / "empty.json",
                          {"omega_initial_hz": 93e3, "steps": []})
        assert main(["--config", cfg, "protocol", "run", path]) == 0
        captured = capsys.readouterr()
        assert "raising fock_dim 64 -> " in captured.err
        doc = json.loads(captured.out)
        assert doc["fock_dim"] > 64 and 0 < doc["R"] < 1

    def test_empty_protocol_gives_thermal_baseline(self, tmp_path, capsys):
        path = write_json(tmp_path / "empty.json",
                          {"omega_initial_hz": 93e3, "steps": []})
        assert main(["protocol", "run", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["r_eff"] == 0.0
        assert doc["R"] == pytest.approx(0.22 / 1.22, abs=1e-6)

    @pytest.mark.parametrize("dim", [2, 16])
    def test_empty_protocol_grows_a_small_dim(self, tmp_path, capsys, dim):
        # the initial state meets the tail guard: at 16 levels 1.1e-6 of
        # the thermal state lies in the guard band, at 2 levels all of it
        path = write_json(tmp_path / "empty.json",
                          {"omega_initial_hz": 93e3, "steps": []})
        runs = []
        for fock_dim in (dim, 64):
            cfg = write_json(tmp_path / "cfg.json", {"fock_dim": fock_dim})
            assert main(["--config", cfg, "protocol", "run", path]) == 0
            runs.append(capsys.readouterr())
        grown, reference = runs
        assert f"note: raising fock_dim {dim} -> " in grown.err
        assert "(initial state: state carries" in grown.err
        assert reference.err == ""
        assert json.loads(grown.out)["R"] == json.loads(reference.out)["R"]

    def test_amplify_displacement(self, tmp_path, capsys, config):
        proto = builtin_protocol("amplify", config.trap,
                                 alpha_i=0.67, r=1.23 / 2)
        path = tmp_path / "amplify.json"
        save_protocol(proto, path)
        assert main(["protocol", "run", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["displacement_abs"] == pytest.approx(2.292, abs=1e-3)
        assert abs(doc["displacement_phase_rad"]) == pytest.approx(
            math.pi, abs=1e-6)

    def test_malformed_protocol_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path / "bad.json",
                          {"omega_initial_hz": 93e3,
                           "steps": [{"type": "warp"}]})
        assert main(["protocol", "run", str(path)]) == 2

    def test_missing_protocol_file_exits_2(self, tmp_path, capsys):
        assert main(["protocol", "run", str(tmp_path / "absent.json")]) == 2
        assert "cannot read protocol" in capsys.readouterr().err

    def test_non_utf8_protocol_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"omega_initial_hz": 93e3, "steps": [], "\xe9": 1}')
        assert main(["protocol", "run", str(path)]) == 2

    @pytest.mark.parametrize("where, key, value", [
        (None, "omega_initial_hz", math.inf),
        (None, "omega_initial_hz", math.nan),
        (None, "omega_initial_hz", True),
        (0, "omega_new_hz", math.inf),
        (0, "omega_new_hz", 1e308),
        (0, "omega_new_hz", False),
        (1, "tau_s", True),
        (1, "tau_s", -math.inf),
        (2, "d_m", math.nan),
        (2, "d_m", "1e-9"),
        # amplitudes outside the Fock operators' range: |r| 3.45, |alpha| 9.8
        (0, "omega_new_hz", 93.0),
        (2, "d_m", 1e-6),
    ])
    def test_bad_protocol_value_exits_2(self, tmp_path, capsys,
                                        where, key, value):
        doc = {"omega_initial_hz": 93e3, "steps": [
            {"type": "frequency_jump", "omega_new_hz": 23e3},
            {"type": "wait", "tau_s": 1e-6},
            {"type": "shift_origin", "d_m": 1e-9}]}
        (doc if where is None else doc["steps"][where])[key] = value
        path = write_json(tmp_path / "bad.json", doc)
        assert main(["protocol", "run", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (key if where is None else f"steps[{where}]") in captured.err

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(PROTOCOL_DOCS)
    def test_any_protocol_document_exits_cleanly(self, tmp_path, capsys,
                                                 doc):
        # every example rewrites the same two files
        cfg = write_json(tmp_path / "cfg.json", {"fock_dim": 64})
        path = write_json(tmp_path / "proto.json", doc)
        code = main(["--config", cfg, "protocol", "run", path])
        out = capsys.readouterr().out
        event(f"exit {code}")
        assert code in (0, 2, 3)
        if code == 0:
            summary = json.loads(out)
            assert summary["fock_dim"] <= MAX_FOCK_DIM

    def test_growth_tries_max_fock_dim(self, tmp_path, capsys, trap):
        # from 64 the advice runs 80, 320, then 1280, above MAX_FOCK_DIM
        path = tmp_path / "proto.json"
        save_protocol(builtin_protocol("S_minus_2r", trap, r=1.2), path)
        runs = []
        for dim in (64, MAX_FOCK_DIM):
            cfg = write_json(tmp_path / "cfg.json",
                             {"fock_dim": dim, "nbar0": 0.22})
            assert main(["--config", cfg, "protocol", "run", str(path)]) == 0
            runs.append(capsys.readouterr())
        grown, direct = runs
        assert f"raising fock_dim 320 -> {MAX_FOCK_DIM}" in grown.err
        assert grown.out == direct.out
        assert json.loads(grown.out)["fock_dim"] == MAX_FOCK_DIM

    def test_growth_gives_up_after_max_fock_dim_fails(self, tmp_path,
                                                      capsys, trap):
        path = tmp_path / "proto.json"
        save_protocol(builtin_protocol("S_minus_2r", trap, r=1.5), path)
        cfg = write_json(tmp_path / "cfg.json", {"fock_dim": 64})
        assert main(["--config", cfg, "protocol", "run", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"-> {MAX_FOCK_DIM} (" in captured.err
        assert "numerical failure: step 2" in captured.err

    def test_final_trace_drift_exits_3(self, proto_file, capsys,
                                       monkeypatch):
        # the final populations are checked against trace 1
        def drifted(*args, **kwargs):
            result = run_fock(*args, **kwargs)
            return dataclasses.replace(
                result, final_factor=result.final_factor * math.sqrt(1 + 2e-8))
        monkeypatch.setattr(cli, "run_fock", drifted)
        assert main(["protocol", "run", proto_file]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.search(r"numerical failure: density matrix trace "
                         r"1\.0000000[12]\d* deviates from 1", captured.err)


class TestSelfcheck:
    def test_default_passes(self, capsys):
        assert main(["selfcheck"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert out.count("pass") >= 6

    def test_deterministic_report(self, capsys):
        main(["selfcheck"])
        first = capsys.readouterr().out
        main(["selfcheck"])
        second = capsys.readouterr().out
        assert first == second

    def test_large_element_amplitude_passes(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"selfcheck": {"element_r_values": [2.5]}})
        assert main(["--config", cfg_path, "selfcheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_small_dim_large_amplitude_names_tail_guard(self, tmp_path,
                                                        capsys):
        cfg_path = write_json(
            tmp_path / "cfg.json",
            {"fock_dim": 16, "selfcheck": {"state_amplitudes": [1.0]}})
        assert main(["--config", cfg_path, "selfcheck"]) == 1
        assert "tail-mass" in capsys.readouterr().out

    def test_larger_element_n_max_passes(self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"selfcheck": {"element_n_max": 40}})
        assert main(["--config", cfg_path, "selfcheck"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_bound_state_counts(self, config):
        # the harmonic count is the published 11 for the default trap
        assert check_mathieu(config.trap)[1].detail == \
            "harmonic 11, expansion 14, diagonalization 15"
        deeper = parse_config({"trap": {
            "v0_hz": 2 * default_config_dict()["trap"]["v0_hz"]}}).trap
        detail = check_mathieu(deeper)[1].detail
        assert int(re.match(r"harmonic (\d+),", detail).group(1)) > 11

    def test_truncation_fails_its_check_and_the_rest_still_run(
            self, tmp_path, capsys):
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"selfcheck": {"state_amplitudes": [1.0]}})
        assert main(["--config", cfg_path, "selfcheck"]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert failed and all("tail-mass guard" in line for line in failed)
        assert any(line.startswith("FAIL  squeezed-thermal moments")
                   for line in lines)
        assert sum(line.startswith("pass  lattice level expansion")
                   or line.startswith("pass  bound-state count")
                   for line in lines) == 2

    @pytest.mark.parametrize("grid", ["default", "seeded"])
    def test_batched_element_check_is_the_per_amplitude_maximum(
            self, config, grid):
        sc = config.selfcheck
        r_values, alpha_values = sc["element_r_values"], sc[
            "element_alpha_values"]
        if grid == "seeded":
            rng = np.random.default_rng(11)
            r_values = list(rng.uniform(-1.6, 1.6, 6))
            alpha_values = list(rng.uniform(0.3, 3.0, 3))
        for values, block_sq, operator, oracle_dim in (
                (r_values, squeeze_block_sq, fock.squeeze_operator_exact,
                 selfcheck.oracle_dim_for_squeeze),
                (alpha_values, displacement_block_sq,
                 fock.displacement_operator_exact,
                 selfcheck.oracle_dim_for_displacement)):
            def worst(amplitudes):
                return selfcheck._worst_element_deviation(
                    amplitudes, 20, block_sq, operator, oracle_dim)
            batched = worst(values)
            assert batched == max(worst([v]) for v in values)
            assert 0.0 < batched < selfcheck.ELEMENT_TOL

    @pytest.mark.parametrize("key, oracle_dim, amplitude, build", [
        ("element_r_values", "oracle_dim_for_squeeze", 1.6,
         fock.squeeze_operator_exact),
        ("element_alpha_values", "oracle_dim_for_displacement", 3.0,
         fock.displacement_operator_exact)])
    def test_undersized_oracle_fails_its_check_by_the_tail_guard(
            self, tmp_path, capsys, monkeypatch, key, oracle_dim, amplitude,
            build):
        monkeypatch.setattr(selfcheck, oracle_dim, lambda value, n_max: 32)
        with pytest.raises(TruncationError) as guard:
            build(amplitude, dim=32)
        cfg_path = write_json(tmp_path / "cfg.json",
                              {"selfcheck": {key: [0.5, amplitude]}})
        assert main(["--config", cfg_path, "selfcheck"]) == 1
        failed = [line for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        name = "squeeze" if key == "element_r_values" else "displacement"
        assert failed == [
            f"FAIL  {name} matrix elements vs exact exponential: worst "
            f"deviation inf (tolerance 1.000e-08)  [tail-mass guard: "
            f"{guard.value.args[0]}]"]

    def test_mathieu_lines_at_the_default_trap(self, config):
        assert [r.line() for r in check_mathieu(config.trap)] == [
            "pass  lattice level expansion vs diagonalization (E/E_R, "
            "n <= 6): worst deviation 3.710e-01 (tolerance 5.000e-01)",
            "pass  bound-state count expansion vs diagonalization: worst "
            "deviation 1.000e+00 (tolerance 1.000e+00)  [harmonic 11, "
            "expansion 14, diagonalization 15]"]

    @pytest.mark.parametrize("q", [1.0, 10.0, 400.0])
    def test_mathieu_levels_agree_with_the_lower_fourier_order(self, config,
                                                              q):
        # the level check reads the bound count's diagonalization, which
        # agrees with a separate order-80 solve of the lowest levels
        trap = parse_config({"trap": {"v0_hz": default_config_dict()[
            "trap"]["v0_hz"] * q / config.trap.depth_parameter}}).trap
        q = trap.depth_parameter
        order_80 = lattice_levels(q, 8)
        expected = max(abs(mathieu_energy(n, q) - order_80[n])
                       for n in range(7))
        level_check, count_check = check_mathieu(trap)
        assert level_check.worst == pytest.approx(expected, rel=0, abs=1e-9)
        assert count_check.detail.endswith(
            f"diagonalization {bound_level_count(q)}")


# Runs every command, with the figures named in its last argument, in a
# fresh interpreter and prints the names of the modules it then holds.
FRESH_COMMANDS_SCRIPT = """
import sys
from jumpsqueeze import cli
from jumpsqueeze.config import load_config
from jumpsqueeze.protocol import builtin_protocol, save_protocol
out, cfg, figures = sys.argv[1:]
save_protocol(builtin_protocol("amplify", load_config().trap, alpha_i=0.5,
                               r=0.2), out + "/proto.json")
for argv in (["protocol", "run", out + "/proto.json"],
             *(["--config", cfg, "--out", out, "figure", figure_id]
               for figure_id in figures.split(",")),
             ["--config", cfg, "selfcheck"]):
    assert cli.main(argv) == 0, argv
print(*sorted(sys.modules))
"""


def _modules_after_commands(tmp_path, figure_ids):
    cfg = write_json(tmp_path / "cfg.json", {
        "figure_overrides": {"fig4a": {"periods": 0.1}},
        "selfcheck": {"element_r_values": [0.3], "element_alpha_values": [0.5],
                      "element_n_max": 4, "state_amplitudes": [0.2]}})
    src = Path(jumpsqueeze.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_COMMANDS_SCRIPT, str(tmp_path), cfg,
         ",".join(figure_ids)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def test_commands_run_without_scipy(tmp_path):
    loaded = _modules_after_commands(tmp_path, ["fig4a"])
    assert not [m for m in loaded if m.startswith("scipy")]


def test_commands_run_without_numpy_ma(tmp_path):
    """np.unique imports numpy.ma (15 ms) on first use; no command does."""
    loaded = _modules_after_commands(tmp_path, ["fig2b", "fig4a"])
    assert not [m for m in loaded
                if m == "numpy.ma" or m.startswith("numpy.ma.")]


def test_fig4a_matches_dense_route(tmp_path, monkeypatch):
    """fig4a's phase-series rows against the dense route (free evolution,
    undo displacement, number distribution) at a larger dimension and an
    off-grid time step."""
    tables, emit_csv = [], cli.emit_csv

    def emit(table, path):
        tables.append(table)
        return emit_csv(table, path)
    monkeypatch.setattr(cli, "emit_csv", emit)
    over = {"fock_dim": 256, "points_per_period": 37.5, "periods": 1}
    cfg = write_json(tmp_path / "cfg.json",
                     {"figure_overrides": {"fig4a": over}})
    assert main(["--config", cfg, "--out", str(tmp_path),
                 "figure", "fig4a"]) == 0
    (table,) = tables
    config = load_config(cfg)
    trap, rabi = config.trap, config.rabi
    c = {**DEFAULT_CONSTANTS["fig4a"], **over}
    prepared = fock.density_from_factor(run_fock(
        builtin_protocol("displaced_squeeze", trap, alpha_i=c["alpha_i"],
                         r=c["two_r"] / 2.0), trap,
        fock.thermal_factor(c["nbar0"], 256)).final_factor)
    undo = fock.displacement_operator_exact(-c["alpha_i"], 256)
    taus = table.columns["tau_s"]
    assert len(taus) == 38
    for tau, R in zip(taus, table.columns["R"]):
        evolve = fock.free_evolution_operator(trap.omega1, tau, 256)
        dense = fock.number_distribution(fock.apply_unitary(
            undo, fock.apply_unitary(evolve, prepared)))
        assert abs(R - sideband_populations(dense, rabi).R) < 1e-12
