import inspect
import json
import os
import re
import shlex
from pathlib import Path

import pytest
from numpy.linalg import LinAlgError

from scaleopt import cli, direct1d, gp, harness, objectives, optimizer


def run_cli(args):
    return cli.main(args)


class TestRun:
    def test_smoke_run_writes_traces(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = run_cli(["run", "--algorithm", "p", "--objective",
                        "rastrigin1d", "--budget", "20", "--output", str(out)])
        assert code == 0
        csv_text = (tmp_path / "trace.csv").read_text()
        rows = csv_text.strip().split("\n")
        assert len(rows) == 1 + 5 + 20  # header, design, iterations
        data = json.loads((tmp_path / "trace.json").read_text())
        assert len(data["records"]) == 25
        assert "best point" in capsys.readouterr().out

    def test_ei_differs_but_deterministic(self, tmp_path):
        out_p = tmp_path / "p"
        out_e = tmp_path / "e"
        run_cli(["run", "--algorithm", "p", "--budget", "10",
                 "--output", str(out_p)])
        run_cli(["run", "--algorithm", "ei", "--budget", "10",
                 "--output", str(out_e)])
        assert (tmp_path / "p.csv").read_text() != ""
        assert (tmp_path / "e.csv").read_text() != ""

    def test_repeat_run_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        args = ["run", "--algorithm", "ei", "--objective", "sin3x2",
                "--budget", "12"]
        run_cli(args + ["--output", str(a)])
        run_cli(args + ["--output", str(b)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_normalized_value_beyond_float64_exits_3(self, tmp_path, monkeypatch):
        # y_0 = f(-1) = 0 and s = f(-0.5) = 1e-300, so h = 5e299/1e-300 at x = 0.5
        overflowing = lambda x: {-1.0: 0.0, -0.5: 1e-300}.get(float(x), 1e300 * x)
        monkeypatch.setitem(objectives.BUILTIN_OBJECTIVES, "sin3x2",
                            (overflowing, (-1.0, 1.0)))
        code = run_cli(["run", "--budget", "2", "--output", str(tmp_path / "t")])
        assert code == cli.EXIT_NUMERICAL

    def test_unfactorizable_model_exits_3(self, tmp_path, monkeypatch, capsys):
        # no diagonal jitter makes S factorizable
        def not_positive_definite(*args, **kwargs):
            raise LinAlgError("not positive definite")

        monkeypatch.setattr(gp, "cho_factor", not_positive_definite)
        code = run_cli(["run", "--budget", "2", "--output", str(tmp_path / "t")])
        assert code == cli.EXIT_NUMERICAL
        assert "not factorizable with jitter" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "sin3x2", "budget": 3}))
        out = tmp_path / "t"
        code = run_cli(["run", "--config", str(cfg), "--budget", "4",
                        "--output", str(out)])
        assert code == 0
        rows = (tmp_path / "t.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 5 + 4

    def test_bad_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nonsense": 1}))
        assert run_cli(["run", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_missing_config_file_exits_2(self):
        assert run_cli(["run", "--config", "/nonexistent.json"]) == \
            cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, key, value", [
        ("run", "output", "null"),
        ("run", "output", "true"),
        ("run", "output", "false"),
        ("run", "output", '["t"]'),
        ("run", "output", '{"t": 1}'),
        ("run", "budget", "[3]"),
        ("homogeneity", "a", "null"),
    ], ids=["output-null", "output-true", "output-false", "output-list", "output-object",
            "budget-list", "a-null"])
    def test_config_value_not_string_or_number_exits_2(self, command, key, value, tmp_path,
                                                        capsys, monkeypatch, calls):
        # a null or true would otherwise reach the flag as the text None or True
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(f'{{"{key}": {value}}}')
        assert run_cli([command, "--config", "cfg.json"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "must be JSON strings or numbers" in err and repr(key) in err
        assert calls == []
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestHomogeneity:
    def test_identity_scaling_passes(self, capsys):
        code = run_cli(["homogeneity", "--algorithm", "p", "--a", "1",
                        "--b", "0", "--budget", "5"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_fig1_constants_pass(self, capsys):
        code = run_cli(["homogeneity", "--algorithm", "p", "--a", "3.9765",
                        "--b", "3.1804", "--budget", "10"])
        assert code == 0

    def test_ei_scaling_passes(self):
        code = run_cli(["homogeneity", "--algorithm", "ei", "--a", "1024",
                        "--b", "-7.3", "--budget", "10"])
        assert code == 0

    @pytest.mark.parametrize("algorithm", ["p", "ei"])
    def test_scaled_span_below_offset_ulp_passes(self, algorithm, capsys):
        code = run_cli(["homogeneity", "--algorithm", algorithm,
                        "--objective", "sin3x2", "--a", "1e-8", "--b", "1e9",
                        "--budget", "25"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_extended_numeral_scaling(self):
        code = run_cli(["homogeneity", "--algorithm", "p", "--a", "G",
                        "--b", "G^2", "--budget", "5"])
        assert code == 0

    def test_extended_numeral_expected_improvement(self):
        code = run_cli(["homogeneity", "--algorithm", "ei", "--a", "G",
                        "--b", "G^2", "--budget", "5"])
        assert code == 0

    def test_direct_counterexample_exits_1(self, capsys):
        code = run_cli(["homogeneity", "--algorithm", "direct",
                        "--budget", "6"])
        assert code == cli.EXIT_MISMATCH
        assert "mismatch" in capsys.readouterr().out

    def test_zero_scale_exits_2(self):
        assert run_cli(["homogeneity", "--a", "0", "--b", "0",
                        "--budget", "2"]) == cli.EXIT_CONFIG


def test_unknown_objective_names_the_builtins():
    # --objective's choices keep the CLI from the lookup; any other caller gets the names
    with pytest.raises(KeyError, match=re.escape("['gramacy-lee', 'rastrigin1d', 'sin3x2']")):
        objectives.get_objective("nope")


_NO_RUNTIME_WARNING = pytest.mark.filterwarnings("error::RuntimeWarning")

# The error a case must print, by case id, where its exit code does not say
# which check refused it.
_ERROR_TEXT = {
    "scale-negative-spaced": "scale factor a must be positive",
    "write-full-device": "cannot write /dev/full: [Errno 28] No space left on device",
    **{f"fig1-grid-filled-{r}": f"the five example points visit all {r} grid candidates"
       for r in (2, 3)},
    **{f"numeral-{case}": "has a coefficient outside float64 range"
       for case in ("b-underflow", "a-underflow", "grade-underflow")},
    "numeral-non-ascii-digits": "cannot parse numeral",
    "numeral-a-decimal-over-integer": "cannot parse numeral '1.5/3'",
    "numeral-b-decimal-over-integer": "cannot parse numeral '1e-400/3'",
}


@pytest.mark.parametrize("args, config, code", [
    # config file values are parsed with the types and choices of the flags
    pytest.param(["run", "--budget", "3"], '{"budget": 2.5}', cli.EXIT_CONFIG,
                 id="config-budget-float"),
    pytest.param(["run", "--budget", "3"], '{"budget": true}', cli.EXIT_CONFIG,
                 id="config-budget-bool"),
    pytest.param(["run"], '{"epsilon": "abc"}', cli.EXIT_CONFIG,
                 id="config-epsilon-text"),
    pytest.param(["run"], '[3]', cli.EXIT_CONFIG, id="config-not-object"),
    pytest.param(["run"], '{"budget": "3"}', cli.EXIT_OK, id="config-budget-string"),
    pytest.param(["run", "--budget", "3"], '{"grid_resolution": "51"}', cli.EXIT_OK,
                 id="config-resolution-string"),
    # a scale factor must be positive, and an extended one a single term;
    # both are checked before the objective is evaluated
    pytest.param(["homogeneity", "--a=-G", "--budget", "2"], None, cli.EXIT_CONFIG,
                 id="scale-negative"),
    pytest.param(["homogeneity", "--a=-2", "--budget", "2"], None, cli.EXIT_CONFIG,
                 id="scale-negative-finite"),
    pytest.param(["homogeneity", "--a=0", "--budget", "2"], None, cli.EXIT_CONFIG,
                 id="scale-zero"),
    pytest.param(["homogeneity", "--a", "G+1", "--budget", "2"], None, cli.EXIT_CONFIG,
                 id="scale-two-terms"),
    # the token after --a or --b is its value, whatever its sign or form
    pytest.param(["homogeneity", "--a", "-G", "--budget", "2"], None, cli.EXIT_CONFIG,
                 id="scale-negative-spaced"),
    *(pytest.param(["homogeneity", "--b", b, "--budget", "2"], None, cli.EXIT_OK,
                   id=f"offset-negative-spaced-{b}")
      for b in ("-1e9", "-1/3", "-G^2")),
    # a negative budget and a nonpositive epsilon are rejected before any
    # evaluation
    pytest.param(["run", "--epsilon", "0"], None, cli.EXIT_CONFIG, id="run-epsilon-zero"),
    pytest.param(["homogeneity", "--epsilon=-1"], None, cli.EXIT_CONFIG,
                 id="homogeneity-epsilon-negative"),
    pytest.param(["run", "--budget=-3"], None, cli.EXIT_CONFIG, id="run-budget-negative"),
    pytest.param(["homogeneity", "--budget=-3"], None, cli.EXIT_CONFIG,
                 id="homogeneity-budget-negative"),
    # a budget above the candidates the design leaves unvisited: the five
    # design points visit every point of these grids
    pytest.param(["run", "--grid-resolution", "3", "--budget", "5"], None, cli.EXIT_CONFIG,
                 id="run-budget-beyond-grid"),
    pytest.param(["homogeneity", "--grid-resolution", "5", "--budget", "3"], None,
                 cli.EXIT_CONFIG, id="homogeneity-budget-beyond-grid"),
    # the five example points fill these grids, leaving no candidate to rank
    *(pytest.param(["example-fig1", "--grid-resolution", str(r)], None, cli.EXIT_CONFIG,
                   id=f"fig1-grid-filled-{r}") for r in (2, 3)),
    # epsilon and the kernel rate must be finite too
    pytest.param(["run", "--epsilon", "inf"], None, cli.EXIT_CONFIG, id="run-epsilon-inf"),
    pytest.param(["homogeneity", "--epsilon", "inf"], None, cli.EXIT_CONFIG,
                 id="homogeneity-epsilon-inf"),
    pytest.param(["run", "--algorithm", "ei", "--epsilon", "inf"], None, cli.EXIT_CONFIG,
                 id="run-ei-epsilon-inf"),
    pytest.param(["homogeneity", "--algorithm", "ei", "--epsilon", "inf"], None,
                 cli.EXIT_CONFIG, id="homogeneity-ei-epsilon-inf"),
    pytest.param(["example-fig1", "--epsilon", "inf"], None, cli.EXIT_CONFIG,
                 id="fig1-epsilon-inf"),
    pytest.param(["run", "--kernel-c", "inf"], None, cli.EXIT_CONFIG, id="run-kernel-c-inf"),
    # a finite epsilon whose aspiration level overflows: EI takes its limit 0
    # and P ranks every candidate -inf, so each step takes the lowest
    # unvisited index, with no warning
    pytest.param(["run", "--algorithm", "ei", "--epsilon", "1e308", "--budget", "3"], None,
                 cli.EXIT_OK, id="run-ei-epsilon-huge", marks=_NO_RUNTIME_WARNING),
    pytest.param(["run", "--objective", "gramacy-lee", "--epsilon", "1e308", "--budget", "3"],
                 None, cli.EXIT_OK, id="run-aspiration-overflow", marks=_NO_RUNTIME_WARNING),
    *(pytest.param(["run", "--kernel", kernel, "--epsilon", "1e308", "--budget", "3"], None,
                   cli.EXIT_OK, id=f"run-p-criterion-overflow-{kernel}",
                   marks=_NO_RUNTIME_WARNING)
      for kernel in ("exponential", "squared-exponential")),
    # numeral literals must fit in float64
    pytest.param(["homogeneity", "--a", "1e400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-a-overflow"),
    pytest.param(["homogeneity", "--b=1e400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-b-overflow"),
    pytest.param(["homogeneity", "--a=1e400*G", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-grade-overflow"),
    # a nonzero coefficient that would round to 0, and digits other than 0-9,
    # would be read as another number
    pytest.param(["homogeneity", "--b", "1e-400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-b-underflow"),
    pytest.param(["homogeneity", "--a", "1e-400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-a-underflow"),
    pytest.param(["homogeneity", "--a", "1e-400*G", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-grade-underflow"),
    pytest.param(["homogeneity", "--a", "\u0661\u0660", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-non-ascii-digits"),
    # p/q takes an integer p only; the grammar is checked before any value
    pytest.param(["homogeneity", "--a", "1.5/3", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-a-decimal-over-integer"),
    pytest.param(["homogeneity", "--b", "1e-400/3", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-b-decimal-over-integer"),
    # huge finite scalings: the scaled values are never rounded to float64
    pytest.param(["homogeneity", "--a", "1e308", "--budget", "2"], None, cli.EXIT_OK,
                 id="scale-huge"),
    pytest.param(["homogeneity", "--algorithm", "ei", "--a", "1e308", "--budget", "2"],
                 None, cli.EXIT_OK, id="scale-huge-ei"),
    pytest.param(["homogeneity", "--a", "1.7e308", "--b=1.7e308", "--budget", "2"],
                 None, cli.EXIT_OK, id="scaled-values-beyond-float64"),
    # a write that fails after the checks, here for want of space
    pytest.param(["example-fig1", "--output", "/dev/full"], None, cli.EXIT_CONFIG,
                 id="write-full-device",
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full")),
])
def test_exit_codes(args, config, code, tmp_path, capsys, monkeypatch, request):
    calls = []
    lookup = objectives.get_objective

    def counted(name):
        objective, region = lookup(name)
        return (lambda x: calls.append(x) or objective(x)), region

    monkeypatch.setattr(objectives, "get_objective", counted)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(config)
        args = args + ["--config", str(cfg)]
    if args[0] in ("run", "example-fig1") and "--output" not in args:
        args = args + ["--output", str(tmp_path / "t")]
    assert run_cli(args) == code
    if code == cli.EXIT_CONFIG:
        err = capsys.readouterr().err
        assert "error:" in err and _ERROR_TEXT.get(request.node.callspec.id, "") in err
        assert calls == []


class TestExampleFig1:
    @pytest.mark.parametrize("resolution", ["1", "0"])
    def test_grid_resolution_below_two_exits_2(self, resolution, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = run_cli(["example-fig1", f"--grid-resolution={resolution}",
                        "--output", str(out)])
        assert code == cli.EXIT_CONFIG
        assert "grid resolution must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_emits_plot_data(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = run_cli(["example-fig1", "--output", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "x,m_f,s_f,crit_f,m_phi,s_phi,crit_phi"
        assert len(rows) == 1 + 1001
        text = capsys.readouterr().out
        assert "argmax" in text and "deviation" in text


@pytest.fixture
def calls(monkeypatch):
    """Every evaluation of the DIRECT builder's objective and of a built-in objective."""
    calls = []
    build = harness.build_direct_counterexample
    objective = inspect.signature(build).parameters["objective"].default
    monkeypatch.setattr(harness, "build_direct_counterexample", lambda **kwargs: build(
        objective=lambda x: calls.append(x) or objective(x), **kwargs))
    lookup = objectives.get_objective

    def counted(name):
        builtin, region = lookup(name)
        return (lambda x: calls.append(x) or builtin(x)), region

    monkeypatch.setattr(objectives, "get_objective", counted)
    return calls


class TestDirectDemo:
    """The DIRECT translation check, ``homogeneity --algorithm direct``."""

    def test_writes_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["homogeneity", "--algorithm", "direct"]) == cli.EXIT_MISMATCH
        assert list(tmp_path.iterdir()) == []  # files only with --output
        code = run_cli(["homogeneity", "--algorithm", "direct", "--output", "demo"])
        assert code == cli.EXIT_MISMATCH
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "demo_partition.json", "demo_trace.csv"]
        assert "mismatch at iteration" in capsys.readouterr().out

    def test_base_run_evaluated_once(self, tmp_path, calls):
        args = ["homogeneity", "--algorithm", "direct", "--output", str(tmp_path / "demo")]
        assert run_cli(args) == cli.EXIT_MISMATCH
        # builder 5, base run 27, shifted run 15
        assert len(calls) == 47

    @pytest.mark.parametrize("args", [
        ["--budget=-3", "--output", "demo"],
        ["--budget=-3"],
        ["--budget=0"],
        ["--epsilon", "0"],
        ["--epsilon", "1.5"],
        ["--epsilon", "nan"],
    ])
    def test_bad_budget_exits_2_before_evaluating(self, args, tmp_path, monkeypatch,
                                                  calls, capsys):
        monkeypatch.chdir(tmp_path)
        assert run_cli(["homogeneity", "--algorithm", "direct", *args]) == cli.EXIT_CONFIG
        message = ("budget must be at least 1" if args[0].startswith("--budget")
                   else "epsilon must lie in (0, 1)")
        assert message in capsys.readouterr().err
        assert calls == []
        assert list(tmp_path.iterdir()) == []

    def test_budget_without_a_counterexample_exits_2(self, tmp_path, monkeypatch, capsys):
        # one iteration leaves only the root interval, which has no longer neighbour
        monkeypatch.chdir(tmp_path)
        code = run_cli(["homogeneity", "--algorithm", "direct", "--budget", "1",
                        "--output", "demo"])
        assert code == cli.EXIT_CONFIG
        assert "no suitable interval found" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [["--output", "demo"], []])
    def test_shift_printed_as_plain_float(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        run_cli(["homogeneity", "--algorithm", "direct", *args])
        out = capsys.readouterr().out
        assert "176.05067974074205" in out
        assert "np.float64" not in out


@pytest.mark.parametrize("algorithm, flag, value", [
    ("direct", "--objective", "rastrigin1d"),
    ("direct", "--kernel", "squared-exponential"),
    ("direct", "--kernel-c", "2"),
    ("direct", "--estimator", "sample"),
    ("direct", "--grid-resolution", "3"),
    ("direct", "--a", "5"),
    ("direct", "--b", "G"),
    ("p", "--output", "demo"),
    ("ei", "--output", "demo"),
])
def test_unread_flag_exits_2_before_evaluating(algorithm, flag, value, tmp_path,
                                               monkeypatch, calls, capsys):
    monkeypatch.chdir(tmp_path)
    args = ["homogeneity", "--algorithm", algorithm, flag, value]
    assert run_cli(args) == cli.EXIT_CONFIG
    assert f"error: --algorithm {algorithm} does not read {flag}" in capsys.readouterr().err
    assert calls == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["run", "--output", "{missing}/dir/t"],
    ["example-fig1", "--output", "{missing}/f.csv"],
    ["homogeneity", "--algorithm", "direct", "--output", "{missing}/x"],
], ids=["run", "example-fig1", "direct"])
def test_output_in_missing_directory_exits_2_before_evaluating(args, tmp_path, monkeypatch,
                                                               calls, capsys):
    monkeypatch.setattr(harness, "fig1_reproduction", lambda **kwargs: calls.append(kwargs))
    missing = tmp_path / "missing"
    assert run_cli([arg.format(missing=missing) for arg in args]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: output directory") and err.count("\n") == 1
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_output_that_cannot_be_written_exits_2(tmp_path, capsys):
    (tmp_path / "t.csv").mkdir()
    assert run_cli(["run", "--budget", "2", "--output", str(tmp_path / "t")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and err.count("\n") == 1


@pytest.mark.parametrize("args, directory", [
    (["run", "--budget", "2", "--output", "u"], "u.csv"),
    (["run", "--budget", "2", "--output", "u"], "u.json"),
    (["example-fig1", "--output", "f.csv"], "f.csv"),
    (["homogeneity", "--algorithm", "direct", "--output", "x"], "x_partition.json"),
    (["homogeneity", "--algorithm", "direct", "--output", "x"], "x_trace.csv"),
], ids=["run-csv", "run-json", "example-fig1", "direct-partition", "direct-trace"])
def test_output_that_is_a_directory_exits_2_before_evaluating(args, directory, tmp_path,
                                                              monkeypatch, calls, capsys):
    # every file a command writes is checked, so none is left half written
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(optimizer, "run", lambda *a, **kw: pytest.fail("optimizer.run called"))
    monkeypatch.setattr(harness, "fig1_reproduction", lambda **kw: pytest.fail("evaluated"))
    (tmp_path / directory).mkdir()
    assert run_cli(args) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: cannot write {directory}: it is a directory\n"
    assert calls == []
    assert [path.name for path in tmp_path.iterdir()] == [directory]


def test_direct_defaults_have_one_home(monkeypatch, tmp_path, capsys):
    # DIRECT's epsilon and budget live in the builder's signature alone: the
    # parser holds None for both, and homogeneity passes on only the values given
    params = inspect.signature(harness.build_direct_counterexample).parameters
    epsilon, budget = params["epsilon"].default, params["budget"].default
    assert epsilon == direct1d.DEFAULT_EPSILON
    parser = cli.make_parser()
    args = parser.parse_args(["homogeneity", "--algorithm", "direct"])
    assert (args.epsilon, args.budget) == (None, None)
    build, given = harness.build_direct_counterexample, []
    monkeypatch.setattr(harness, "build_direct_counterexample",
                        lambda **kwargs: given.append(kwargs) or build(**kwargs))
    assert run_cli(["homogeneity", "--algorithm", "direct"]) == cli.EXIT_MISMATCH
    out = capsys.readouterr().out
    assert f"eps={epsilon})" in out
    base = out.split("base iterations:")[1].split("shifted")[0]
    assert len(base.split()) == 1 + budget  # header and rows
    args = ["homogeneity", "--algorithm", "direct", "--budget", "9", "--epsilon", "1e-3"]
    assert run_cli(args) == cli.EXIT_MISMATCH
    assert "eps=0.001)" in capsys.readouterr().out
    assert given == [{}, {"budget": 9, "epsilon": 1e-3}]
    # the scaling's defaults a = 1, b = 0 live in homogeneity_check's signature
    check = inspect.signature(harness.homogeneity_check).parameters
    assert (check["a"].default, check["b"].default) == (1, 0)
    # the grid algorithms keep theirs, in grid_run's signature alone: its
    # callers forward their options, and the CLI's run flags default to None
    # and pass on only the values given
    grid_run = inspect.signature(optimizer.grid_run).parameters
    assert grid_run["budget"].default == optimizer.DEFAULT_BUDGET
    for command in ("run", "homogeneity", "example-fig1"):
        args = vars(parser.parse_args([command]))
        settings = {"budget", "kernel", "kernel_c", "estimator", "epsilon", "grid_resolution",
                    "objective", "a", "b"}
        assert {args[k] for k in settings & set(args)} == {None}
    run, options = optimizer.run, []
    monkeypatch.setattr(optimizer, "run",
                        lambda *args, **kwargs: options.append(sorted(kwargs)) or run(*args, **kwargs))
    assert run_cli(["run", "--output", str(tmp_path / "t")]) == cli.EXIT_OK
    rows = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 5 + optimizer.DEFAULT_BUDGET
    assert run_cli(["run", "--epsilon", "0.2", "--output", str(tmp_path / "t")]) == cli.EXIT_OK
    assert options == [["grid", "kernel"], ["epsilon", "grid", "kernel"]]


def readme_cli_examples():
    """(argv, exit code) for each ``scaleopt`` line of README's CLI block.

    The code is the one that the line's own comment states ("exits N"), or
    else the comment lines just above it.
    """
    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = text.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples, comment, previous = [], "", ""
    for line in block.splitlines():
        if line.startswith("#"):
            comment = (comment if previous.startswith("#") else "") + line
        elif line.startswith("scaleopt "):
            command, _, note = line.partition("#")
            stated = re.search(r"exits (\d)", note) or re.search(r"exits (\d)", comment)
            if stated is None:
                raise ValueError(f"README states no exit code for {line!r}")
            examples.append((shlex.split(command)[1:], int(stated.group(1))))
        previous = line
    return examples


@pytest.mark.parametrize("argv, code", readme_cli_examples(),
                         ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_readme_cli_example(argv, code, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == code
