import inspect
import json

import pytest

from scaleopt import cli, direct1d, harness, objectives, optimizer


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
    # a negative budget and a nonpositive epsilon are rejected before any
    # evaluation
    pytest.param(["run", "--epsilon", "0"], None, cli.EXIT_CONFIG, id="run-epsilon-zero"),
    pytest.param(["homogeneity", "--epsilon=-1"], None, cli.EXIT_CONFIG,
                 id="homogeneity-epsilon-negative"),
    pytest.param(["run", "--budget=-3"], None, cli.EXIT_CONFIG, id="run-budget-negative"),
    pytest.param(["homogeneity", "--budget=-3"], None, cli.EXIT_CONFIG,
                 id="homogeneity-budget-negative"),
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
    # unvisited index
    pytest.param(["run", "--algorithm", "ei", "--epsilon", "1e308", "--budget", "3"], None,
                 cli.EXIT_OK, id="run-ei-epsilon-huge"),
    pytest.param(["run", "--objective", "gramacy-lee", "--epsilon", "1e308", "--budget", "3"],
                 None, cli.EXIT_OK, id="run-aspiration-overflow"),
    # numeral literals must fit in float64
    pytest.param(["homogeneity", "--a", "1e400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-a-overflow"),
    pytest.param(["homogeneity", "--b=1e400", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-b-overflow"),
    pytest.param(["homogeneity", "--a=1e400*G", "--budget", "2"], None,
                 cli.EXIT_CONFIG, id="numeral-grade-overflow"),
    # huge finite scalings: the scaled values are never rounded to float64
    pytest.param(["homogeneity", "--a", "1e308", "--budget", "2"], None, cli.EXIT_OK,
                 id="scale-huge"),
    pytest.param(["homogeneity", "--algorithm", "ei", "--a", "1e308", "--budget", "2"],
                 None, cli.EXIT_OK, id="scale-huge-ei"),
    pytest.param(["homogeneity", "--a", "1.7e308", "--b=1.7e308", "--budget", "2"],
                 None, cli.EXIT_OK, id="scaled-values-beyond-float64"),
])
def test_exit_codes(args, config, code, tmp_path, capsys, monkeypatch):
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
    if args[0] in ("run", "example-fig1"):
        args = args + ["--output", str(tmp_path / "t")]
    assert run_cli(args) == code
    if code == cli.EXIT_CONFIG:
        assert "error:" in capsys.readouterr().err
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


class TestDirectDemo:
    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "demo"
        code = run_cli(["direct-demo", "--output", str(out)])
        assert code == 0
        assert (tmp_path / "demo_partition.json").exists()
        assert (tmp_path / "demo_trace.csv").exists()
        assert "mismatch at iteration" in capsys.readouterr().out

    def test_base_run_evaluated_once(self, tmp_path, monkeypatch):
        build = harness.build_direct_counterexample
        objective = inspect.signature(build).parameters["objective"].default
        calls = []

        def counted(x):
            calls.append(x)
            return objective(x)

        monkeypatch.setattr(harness, "build_direct_counterexample",
                            lambda **kwargs: build(objective=counted, **kwargs))
        assert run_cli(["direct-demo", "--output", str(tmp_path / "demo")]) == 0
        # builder 5, base run 27, shifted run 15
        assert len(calls) == 47

    @pytest.mark.parametrize("args", [
        ["direct-demo", "--budget=-3"],
        ["homogeneity", "--algorithm", "direct", "--budget=-3"],
        ["homogeneity", "--algorithm", "direct", "--budget=0"],
    ])
    def test_bad_budget_exits_2_before_evaluating(self, args, tmp_path, monkeypatch,
                                                  capsys):
        build = harness.build_direct_counterexample
        objective = inspect.signature(build).parameters["objective"].default
        calls = []

        def counted(x):
            calls.append(x)
            return objective(x)

        monkeypatch.setattr(harness, "build_direct_counterexample",
                            lambda **kwargs: build(objective=counted, **kwargs))
        if args[0] == "direct-demo":
            args = args + ["--output", str(tmp_path / "demo")]
        assert run_cli(args) == cli.EXIT_CONFIG
        assert "budget must be at least 1" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("args", [["direct-demo"],
                                      ["homogeneity", "--algorithm", "direct"]])
    def test_shift_printed_as_plain_float(self, args, tmp_path, capsys):
        if args[0] == "direct-demo":
            args = args + ["--output", str(tmp_path / "demo")]
        run_cli(args)
        out = capsys.readouterr().out
        assert "176.05067974074205" in out
        assert "np.float64" not in out


def test_direct_defaults_have_one_home(monkeypatch, tmp_path, capsys):
    params = inspect.signature(harness.build_direct_counterexample).parameters
    assert params["epsilon"].default == direct1d.DEFAULT_EPSILON
    assert params["budget"].default == harness.COUNTEREXAMPLE_BUDGET
    parser = cli.make_parser()
    demo = parser.parse_args(["direct-demo"])
    assert demo.direct_epsilon == direct1d.DEFAULT_EPSILON
    assert demo.budget == harness.COUNTEREXAMPLE_BUDGET
    assert parser.parse_args(["homogeneity"]).direct_epsilon == direct1d.DEFAULT_EPSILON
    # homogeneity runs the counterexample for the builder's own budget unless
    # --budget is given, which alone it passes on
    build, budgets = harness.build_direct_counterexample, []
    monkeypatch.setattr(harness, "build_direct_counterexample",
                        lambda **kwargs: budgets.append(kwargs.get("budget")) or build(**kwargs))
    assert run_cli(["homogeneity", "--algorithm", "direct"]) == cli.EXIT_MISMATCH
    base = capsys.readouterr().out.split("base iterations:")[1].split("shifted")[0]
    assert len(base.split()) == 1 + harness.COUNTEREXAMPLE_BUDGET  # header and rows
    assert run_cli(["homogeneity", "--algorithm", "direct", "--budget", "9"]) == cli.EXIT_MISMATCH
    assert budgets == [None, 9]
    # the grid algorithms keep theirs, in grid_run's signature alone: its
    # callers forward their options, and the CLI's run flags default to None
    # and pass on only the values given
    grid_run = inspect.signature(optimizer.grid_run).parameters
    assert grid_run["budget"].default == optimizer.DEFAULT_BUDGET
    for command in ("run", "homogeneity", "example-fig1"):
        args = vars(parser.parse_args([command]))
        settings = {"budget", "kernel", "kernel_c", "estimator", "epsilon", "grid_resolution"}
        assert {args[k] for k in settings & set(args)} == {None}
    run, options = optimizer.run, []
    monkeypatch.setattr(optimizer, "run",
                        lambda *args, **kwargs: options.append(sorted(kwargs)) or run(*args, **kwargs))
    assert run_cli(["run", "--output", str(tmp_path / "t")]) == cli.EXIT_OK
    rows = (tmp_path / "t.csv").read_text().strip().split("\n")
    assert len(rows) == 1 + 5 + optimizer.DEFAULT_BUDGET
    assert run_cli(["run", "--epsilon", "0.2", "--output", str(tmp_path / "t")]) == cli.EXIT_OK
    assert options == [["grid", "kernel"], ["epsilon", "grid", "kernel"]]
