"""Command-line front end: the teleport table's outcome mass and footer, and
closed-form invocations at the edges of the parameter domain."""

import dataclasses
import math

import numpy as np
import pytest

from ecs_teleport import cli, teleport
from ecs_teleport.noise import channel_fidelity, teleported_fidelity_exact


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
    monkeypatch.setattr(teleport, "default_n_max", lambda m, alpha: 3)
    code, probs, footer, err = _teleport_table(capsys, ["--m", "3", "--alpha", "1.5"])
    assert code == 0
    assert float(footer["total_probability"]) < 0.5
    assert "warning" in err and "missing" in err


def test_teleport_warns_on_missing_mass_after_a_cached_run(capsys, monkeypatch):
    # run_protocol keys its geometry cache on the resolved n_max, so a cached
    # run at the default n_max must not stand in for the patched one
    code, _, footer, err = _teleport_table(capsys, ["--m", "3", "--alpha", "1.5"])
    assert code == 0 and err == "" and abs(float(footer["total_probability"]) - 1.0) < 1e-9
    monkeypatch.setattr(teleport, "default_n_max", lambda m, alpha: 3)
    code, _, footer, err = _teleport_table(capsys, ["--m", "3", "--alpha", "1.5"])
    assert code == 0
    assert float(footer["total_probability"]) < 0.5
    assert "warning" in err and "missing" in err


@pytest.mark.parametrize("argv", [["--kappa1-re", "1e200"], ["--kappa1-re", "1e-200", "--kappa2-re", "0"]])
def test_teleport_normalizes_kappas_whose_squares_leave_the_float_range(capsys, argv):
    # --kappa1-re 1e200 printed RuntimeWarnings and an all-zero table; 1e-200 was "a null state"
    assert cli.main(["teleport", "--m", "2", "--alpha", "1"] + argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert cli.main(["teleport", "--m", "2", "--alpha", "1", "--kappa1-re", "1", "--kappa2-re", "0"]) == 0
    assert captured.out == capsys.readouterr().out


def test_teleport_rejects_an_oversized_table(capsys):
    # mean count 2^20: the whole table would not fit, and a truncated one would hide mass
    assert cli.main(["teleport", "--m", "20", "--alpha", "1"]) == cli.USAGE_ERROR
    assert "lower m or alpha" in capsys.readouterr().err


def test_teleport_sizes_the_table_from_the_transmitted_amplitude(capsys):
    # sized from alpha instead of sqrt(eta) alpha, the table needed counts up to 1058837
    argv = ["--m", "20", "--alpha", "1", "--eta", "0.0001"]
    code, _, footer, err = _teleport_table(capsys, argv)
    assert code == 0 and err == ""
    assert abs(float(footer["total_probability"]) - 1.0) < 1e-9


def test_teleport_rejects_negative_eta(capsys):
    # the table size takes sqrt(eta); eta < 0 must not end in a math domain error
    assert cli.main(["teleport", "--m", "2", "--eta", "-0.5"]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: eta must lie in [0, 1]" in captured.err


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
    ["figures", "fig1", "--alpha-range", "0", "y", "3"],
    # NumPy's "expected non-negative integer" and int()'s "invalid literal" named no option
    ["verify", "--seed", "-1"],
    ["figures", "fig1", "--alpha-range", "0", "1", "x"],
    # 2.0 ** (m + 1) raised OverflowError through main as a traceback
    ["figures", "fig1", "--m", "1100"],
    ["figures", "fig2", "--m", "1100"],
    ["channel-info", "--m", "1100"],
    ["teleport", "--m", "1100"],
    ["figures", "fig3", "--alpha-range", "0", "1", "2", "--m", "1023"],
])
def test_non_finite_input_is_a_usage_error(capsys, argv):
    assert _exit_code(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    # the message names the option and what its value must be
    option = [a for a in argv if a.startswith("--")][-1]
    must = "integer" if argv[-1] in ("-1", "x") else "finite"
    assert "error:" in captured.err and option in captured.err and must in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["teleport", "--alpha", "1e200"],
    ["teleport", "--alpha", "1e154", "--eta", "0.5"],
    ["channel-info", "--alpha", "1e200"],
    ["channel-info", "--m", "1", "--alpha=-1e154"],
])
def test_huge_alpha_is_a_usage_error(capsys, argv):
    # abs(alpha) ** 2 raised OverflowError through main as a traceback
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --alpha:")
    assert "lower m or alpha" in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv,count", [
    (["teleport", "--alpha", "1e150"], "8e+300"),
    (["channel-info", "--alpha", "1e150"], "4e+300"),
])
def test_oversized_counts_print_in_short_form(capsys, argv, count):
    # the photon count and the cutoff printed with 301 and 300 digits
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert count in captured.err and len(captured.err) < 200 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["figures", "fig2", "--alpha-range", "0", "1e200", "3"],
    ["figures", "fig1", "--alpha-range", "0", "1e200", "3"],
    ["figures", "fig1", "--m", "1022", "--alpha-range", "0", "5", "3"],
    ["figures", "fig2", "--m", "1022", "--alpha-range", "0", "5", "3"],
])
def test_figures_where_alpha_squared_overflows(capsys, argv):
    # 2^(m+1) |alpha|^2 overflowed to inf, and inf * 0 left blank cells at the
    # eta edges with RuntimeWarnings on stderr
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    cells = [[float(v) for v in line.split(",")] for line in captured.out.splitlines()[1:]]
    assert len(cells) == 3 * 50
    for alpha, eta, value in cells[50:]:
        # F = eta exactly at the edges, the large-alpha limit 1/2 inside
        assert value == (eta if eta in (0.0, 1.0) else 0.5)


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


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_figures_at_the_largest_m(capsys, which):
    # 2^(m+1) = 2^1023 is still a finite double
    argv = ["figures", which, "--m", "1022", "--alpha-range", "0", "1", "3"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and len(captured.out.splitlines()) == 1 + 3 * 50


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_figures_grid_matches_each_cell(capsys, which):
    # the grid is one broadcast call; each printed cell must be the scalar form's
    argv = ["figures", which, "--m", "2", "--alpha-range", "0", "1.5", "4",
            "--eta-range", "0", "1", "3"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = ["alpha,eta,value"]
    for a in np.linspace(0.0, 1.5, 4):
        for e in np.linspace(0.0, 1.0, 3):
            a, e = float(a), float(e)
            v = channel_fidelity(a, e, m=2) if which == "fig1" else teleported_fidelity_exact(2, a, e)
            expected.append(f"{a:.9g},{e:.9g},{v:.9g}")
    assert lines == expected


@pytest.mark.parametrize("argv,options", [
    # linspace's 1e15 points ended in a numpy._ArrayMemoryError traceback
    (["figures", "fig1", "--alpha-range", "0", "1", "1000000000000000"], "--alpha-range"),
    (["figures", "fig2", "--alpha-range", "0", "1", "1000", "--eta-range", "0", "1", "1001"],
     "--alpha-range and --eta-range"),
])
def test_figures_refuses_a_huge_grid(capsys, argv, options):
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {options}: a grid of ")
    assert str(cli.MAX_FIGURE_CELLS) in captured.err


def test_figures_prints_a_grid_at_the_cell_limit(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_FIGURE_CELLS", 6)
    argv = ["figures", "fig1", "--alpha-range", "0", "1", "2", "--eta-range", "0", "1"]
    assert cli.main(argv + ["3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 6
    assert cli.main(argv + ["4"]) == cli.USAGE_ERROR


def test_nan_cells_print_blank(capsys, monkeypatch):
    # the closed_form probability of a record without a closed form, a NaN mean_fidelity
    # footer and a NaN figure value each print as an empty cell
    run = cli.run_protocol
    monkeypatch.setattr(cli, "run_protocol", lambda *a, **k: dataclasses.replace(run(*a, **k), mean_fidelity=math.nan))
    assert cli.main(["teleport", "--m", "2", "--alpha", "1", "--engine", "closed_form"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "0,0,,none," and lines[2].startswith("0,1,0.")
    assert "mean_fidelity,,,," in lines
    monkeypatch.setattr(cli, "teleported_fidelity_exact", lambda m, a, e: np.where(a * e > 0.2, math.nan, a))
    assert cli.main(["figures", "fig2", "--alpha-range", "0", "1", "3", "--eta-range", "0", "1", "2"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "alpha,eta,value", "0,0,0", "0,1,0", "0.5,0,0.5", "0.5,1,", "1,0,1", "1,1,",
    ]


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


def _engine_deviations(capsys, argv):
    code = cli.main(["teleport"] + argv + ["--engine", "all"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    column = lines[0].split(",").index("engine_disagreement")
    rows = [line.split(",") for line in lines[1:] if line[0].isdigit()]
    footer = {line.split(",")[0]: float(line.split(",")[1]) for line in lines[1:] if not line[0].isdigit()}
    devs = [float(r[column]) for r in rows if r[column]]
    return code, devs, footer, captured.err


def test_teleport_engine_all_agrees_with_the_fock_engine(capsys):
    code, devs, footer, err = _engine_deviations(capsys, ["--m", "1", "--alpha", "1.5"])
    assert code == 0 and err == "" and devs
    assert max(devs) <= footer["oracle_max_disagreement"] <= 1e-6
    assert 0.0 <= footer["oracle_discarded_weight"] < 1e-9


@pytest.mark.parametrize("argv", [
    ["--m", "3", "--alpha", "0.5"],
    ["--m", "2", "--alpha", "1", "--eta", "0.5"],
])
def test_teleport_engine_all_beyond_the_dense_oracle(capsys, argv):
    # the dense oracle was infeasible at m = 3 and covered no eta < 1
    code, devs, footer, err = _engine_deviations(capsys, argv)
    assert code == 0 and err == "" and devs
    assert max(devs) <= footer["oracle_max_disagreement"] <= 1e-6
    assert 0.0 <= footer["oracle_discarded_weight"] < 1e-9


def test_teleport_engine_all_covers_every_record_of_the_oracle(capsys):
    # the dense oracle printed deviations for counts up to 20 only
    code, devs, _, _ = _engine_deviations(capsys, ["--m", "2", "--alpha", "1.2"])
    assert code == 0 and len(devs) > 2 * 21


def test_teleport_engine_all_fails_when_the_engines_disagree(capsys):
    # the odd-cat oracle puts 0.5 on (1, 1), a record that never occurs; this
    # exited 0 with the disagreement only in the footer
    argv = ["teleport", "--m", "1", "--alpha", "3e-4", "--kappa1-re", "0.7", "--kappa2-re", "-0.7"]
    assert cli.main(argv) == 0
    coherent = capsys.readouterr().out.splitlines()
    assert cli.main(argv + ["--engine", "all"]) == cli.VERIFY_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: the engines disagree by 0.5 at (l, n) = (1, 1), above the bar 1e-06\n"
    # the table is still written: the coherent table plus the deviation column
    table = captured.out.splitlines()
    assert [line.rsplit(",", 1)[0] for line in table[:len(coherent)]] == coherent
    assert table[len(coherent):] == ["oracle_max_disagreement,0.5,,,,", "oracle_discarded_weight,0,,,,"]


def test_teleport_closed_form_leaves_lossy_probabilities_blank(capsys):
    # the lossless closed form printed 0.015299165 at (0, 1), where the engine gives 0.0680645088
    argv = ["teleport", "--m", "3", "--alpha", "0.8", "--eta", "0.6", "--engine", "closed_form",
            "--kappa1-re", "0.6", "--kappa2-re", "-0.6"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split(",") for line in lines[1:] if line[0].isdigit()]
    assert rows and all(row[2] == "" for row in rows)
    footer = [line.split(",")[0] for line in lines[1:] if not line[0].isdigit()]
    assert "max_odd_outcome_closed_form_deviation" not in footer
    # the odd-cat fidelity closed form still fills every success record
    fids = {row[4] for row in rows if (row[0], row[1]) != ("0", "0")}
    assert fids == {f"{teleported_fidelity_exact(3, 0.8, 0.6):.9g}"}


def test_teleport_engine_all_rejects_an_infeasible_oracle(capsys):
    argv = ["teleport", "--m", "9", "--alpha", "1.5", "--engine", "all"]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error: Fock oracle infeasible" in captured.err


def test_unwritable_out_path_is_a_usage_error(capsys, tmp_path):
    # open() raised FileNotFoundError through main as a traceback
    argv = ["teleport", "--m", "2", "--alpha", "1", "--out", str(tmp_path / "missing" / "x.csv")]
    assert cli.main(argv) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("m", [24, 40])
def test_channel_info_beyond_the_fock_cap_is_a_usage_error(capsys, m):
    # m = 40 ended in a numpy memory error, m = 24 ran for minutes
    assert cli.main(["channel-info", "--m", str(m)]) == cli.USAGE_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err and "cap" in captured.err


def test_verify_passes(capsys):
    assert cli.main(["verify", "--trials", "12"]) == 0
    assert "all suites passed" in capsys.readouterr().out
