"""Command-line front end: the teleport table's outcome mass and footer, and
closed-form invocations at the edges of the parameter domain."""

import math

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
