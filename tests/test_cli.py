"""Command-line front end: the teleport table's outcome mass and footer, and
closed-form invocations at the edges of the parameter domain."""

import math

import pytest

from ecs_teleport import cli


def _teleport_table(capsys, argv):
    code = cli.main(["teleport"] + argv)
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:] if line[0].isdigit()]
    footer = {line.split(",")[0]: line.split(",")[1] for line in lines[1:] if not line[0].isdigit()}
    probs = [float(r[header.index("probability")]) for r in rows]
    return code, probs, footer, captured.err


def test_teleport_prints_the_whole_outcome_mass(capsys):
    # a cap of 60 counts on n_max printed 0.337 of the mass at mean count 64
    code, probs, footer, err = _teleport_table(capsys, ["--m", "4", "--alpha", "2"])
    assert code == 0 and err == ""
    assert abs(math.fsum(probs) - 1.0) < 1e-9
    assert abs(float(footer["total_probability"]) - 1.0) < 1e-9
    assert abs(float(footer["success_probability"]) - 1.0) < 1e-9


def test_teleport_large_folded_amplitude(capsys):
    # the odd aggregate at x = 2304 overflowed math.sinh
    code, probs, footer, _ = _teleport_table(capsys, ["--m", "8", "--alpha", "3"])
    assert code == 0
    assert abs(math.fsum(probs) - 1.0) < 1e-9
    assert float(footer["closed_form_odd_aggregate"]) == 0.5


def test_teleport_warns_on_missing_mass(capsys, monkeypatch):
    monkeypatch.setattr(cli, "default_n_max", lambda m, alpha: 3)
    code, probs, footer, err = _teleport_table(capsys, ["--m", "3", "--alpha", "1.5"])
    assert code == 0
    assert float(footer["total_probability"]) < 0.5
    assert "warning" in err and "missing" in err


def test_teleport_rejects_an_oversized_table(capsys):
    # mean count 2^20: the whole table would not fit, and a truncated one would hide mass
    assert cli.main(["teleport", "--m", "20", "--alpha", "1"]) == cli.USAGE_ERROR
    assert "lower m or alpha" in capsys.readouterr().err


def test_fig2_at_zero_amplitude(capsys):
    assert cli.main(["figures", "fig2", "--alpha-range", "0", "1", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(values) == 5 * 50
    assert all(0.0 <= v <= 1.0 for v in values)


def test_fig1_at_zero_amplitude(capsys):
    # channel_fidelity returns its alpha -> 0 limit eta rather than rejecting alpha = 0
    assert cli.main(["figures", "fig1", "--alpha-range", "0", "1", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert len(values) == 5 * 50
    assert all(0.0 <= v <= 1.0 for v in values)
    assert [float(line.split(",")[2]) for line in lines[1:51]] == [
        float(line.split(",")[1]) for line in lines[1:51]
    ]


def _exit_code(argv):
    """cli.main's exit status, whether it returns or argparse exits."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["teleport", "--alpha", "inf"],
    ["teleport", "--alpha", "nan"],
    ["teleport", "--eta", "nan"],
    ["teleport", "--kappa1-re", "inf"],
    ["figures", "fig2", "--eta-range", "0", "nan", "3"],
    ["figures", "fig1", "--alpha-range", "0", "inf", "3"],
])
def test_non_finite_input_is_a_usage_error(capsys, argv):
    assert _exit_code(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "finite" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["channel-info", "--seed", "1"],
    ["teleport", "--seed", "1"],
    ["figures", "fig1", "--seed", "1"],
    ["channel-info", "--alpha-range", "0.5", "2", "4"],
    ["teleport", "--m", "2", "--alpha-range", "0.5", "2", "4"],
    ["teleport", "--eta-range", "0", "1", "3"],
    ["figures", "fig2", "--alpha", "5"],
    ["figures", "fig2", "--eta", "0.1"],
    ["figures", "fig2", "--sign", "plus"],
    # option prefixes are no abbreviations of --alpha-range / --eta-range
    ["figures", "fig2", "--alpha", "0.5", "1", "3"],
    ["figures", "fig2", "--eta", "0", "1", "3"],
])
def test_options_no_subcommand_reads_are_usage_errors(capsys, argv):
    # these were accepted and ignored: the output did not follow them
    assert _exit_code(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def test_fig1_rejects_m_below_one(capsys):
    # fig2 --m 0 was a usage error while fig1 --m 0 printed a grid
    assert cli.main(["figures", "fig1", "--m", "0"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: m must be >= 1" in captured.err


def test_fig2_rejects_eta_above_one(capsys):
    # teleported_fidelity_exact printed the "fidelity" 6.30527633 at eta = 1.5
    argv = ["figures", "fig2", "--alpha-range", "0.5", "0.6", "2", "--eta-range", "0", "1.5", "2"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: eta must lie in [0, 1]" in captured.err


def test_teleport_footer_has_no_rejected_variant(capsys):
    code, _, footer, _ = _teleport_table(capsys, ["--m", "3", "--alpha", "1"])
    assert code == 0
    assert "closed_form_even_aggregate_unsquared_variant" not in footer
    assert "closed_form_even_aggregate_squared" in footer


@pytest.mark.parametrize("engine", ("coherent", "closed_form", "all"))
def test_teleport_rejects_eta_above_one(capsys, engine):
    # eta >= 1 ran the lossless protocol and printed mean_fidelity 1
    argv = ["teleport", "--m", "2", "--alpha", "1", "--eta", "1.5", "--engine", engine]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: eta must lie in [0, 1]" in captured.err


def test_teleport_engine_oracle_is_removed(capsys):
    # its table duplicated --engine coherent; --engine all prints the Fock deviations
    argv = ["teleport", "--m", "2", "--alpha", "0.8", "--engine", "oracle"]
    assert _exit_code(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'oracle'" in captured.err


def test_teleport_engine_all_agrees_with_the_fock_engine(capsys):
    code = cli.main(["teleport", "--m", "1", "--alpha", "1.5", "--engine", "all"])
    lines = capsys.readouterr().out.splitlines()
    column = lines[0].split(",").index("engine_disagreement")
    devs = [float(line.split(",")[column]) for line in lines[1:] if line.split(",")[column]]
    assert code == 0 and devs
    assert max(devs) <= 1e-6


def test_verify_passes(capsys):
    assert cli.main(["verify", "--trials", "12"]) == 0
    assert "all suites passed" in capsys.readouterr().out
