import importlib
import json
import math
from fractions import Fraction

import pytest

import leadergame.cli as cli_module
import leadergame.game as game_module
from helpers import connected_corpus
from leadergame.cli import main
from leadergame.game import outcome_matrix
from leadergame.graphs import MAX_VERTICES

# the package re-exports the function simulate under the module's name
SIMULATE_MODULE = importlib.import_module("leadergame.simulate")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "gen", "--graph", "star:4")
        assert code == 0
        assert out == "4 3\n1 2\n1 3\n1 4\n"

    def test_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        code, out, _ = run(capsys, "gen", "--graph", "circulant:5:1,2")
        path.write_text(out)
        code2, out2, _ = run(capsys, "tau", "--graph", str(path))
        assert code2 == 0
        assert json.loads(out2)["n"] == 5

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "tau", "--graph", "no-such-file.txt")
        assert code == 2
        assert "error" in err

    def test_vertex_budget(self, capsys):
        code, out, err = run(capsys, "gen", "--graph", "path:50000000")
        assert code == 2 and out == ""
        assert err == f"error: vertex count 50000000 exceeds the limit of {MAX_VERTICES}\n"


class TestOutcome:
    def test_cycle_json_all_half(self, capsys):
        code, out, _ = run(capsys, "outcome", "--graph", "cycle:6")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 6 and payload["k"] == 1
        assert payload["strategies"][0] == [1]
        assert all(v == "1/2" for row in payload["matrix"] for v in row)

    def test_path_contains_hand_value(self, capsys):
        code, out, _ = run(capsys, "outcome", "--graph", "path:3")
        payload = json.loads(out)
        assert payload["matrix"][1][0] == "4/9"

    def test_csv_decimals(self, capsys):
        code, out, _ = run(capsys, "outcome", "--graph", "path:3", "--format", "csv")
        rows = out.strip().splitlines()
        assert rows[1].split(",")[0] == "0.4444"

    def test_precision_flag(self, capsys):
        code, out, _ = run(
            capsys, "outcome", "--graph", "path:3", "--format", "csv", "--precision", "6"
        )
        assert out.strip().splitlines()[1].split(",")[0] == "0.444444"

    def test_disconnected_input(self, capsys):
        code, _, err = run(capsys, "outcome", "--graph", "circulant:4:")
        assert code == 2
        assert "graph not connected" in err

    def test_cap(self, capsys):
        code, _, err = run(capsys, "outcome", "--graph", "complete:10", "--k", "5", "--cap", "100")
        assert code == 2
        assert "cap" in err

    def test_negative_precision(self, capsys):
        code, _, err = run(
            capsys, "outcome", "--graph", "path:3", "--format", "csv", "--precision", "-1"
        )
        assert code == 2
        assert "--precision must be >= 0" in err

    def test_precision_twenty_is_exact(self, capsys):
        code, out, _ = run(
            capsys, "outcome", "--graph", "path:3", "--format", "csv", "--precision", "20"
        )
        assert code == 0
        assert out.splitlines()[0].split(",") == [
            "0.50000000000000000000",
            "0.55555555555555555556",
            "0.50000000000000000000",
        ]
        assert out.splitlines()[1].split(",")[0] == "0.44444444444444444444"

    def test_precision_zero(self, capsys):
        code, out, _ = run(
            capsys, "outcome", "--graph", "path:3", "--format", "csv", "--precision", "0"
        )
        assert code == 0 and out == "0,1,0\n0,0,0\n0,1,0\n"

    def test_precision_limit(self, capsys):
        argv = ("outcome", "--graph", "path:3", "--format", "csv", "--precision")
        code, out, _ = run(capsys, *argv, str(cli_module.MAX_PRECISION))
        assert code == 0
        assert out.split(",")[1] == "0." + "5" * (cli_module.MAX_PRECISION - 1) + "6"
        code, out, err = run(capsys, *argv, str(cli_module.MAX_PRECISION + 1))
        assert code == 2 and out == ""
        assert err == (
            f"error: --precision must be >= 0 and <= {cli_module.MAX_PRECISION}, "
            f"got {cli_module.MAX_PRECISION + 1}\n"
        )

    def test_decimal_matches_float_formatting_to_fifteen_places(self):
        values = [Fraction(1, 8), Fraction(3, 8), Fraction(5, 16), Fraction(1, 2), Fraction(-1, 8)]
        for g in connected_corpus(seed=379, count=6, n_min=2, n_max=6):
            values.extend(v for row in outcome_matrix(g, 1).entries for v in row)
        for x in values:
            for p in range(16):
                assert cli_module._decimal(x, p) == f"{float(round(x, p)):.{p}f}"

    def test_deterministic(self, capsys):
        _, a, _ = run(capsys, "outcome", "--graph", "cycle:5")
        _, b, _ = run(capsys, "outcome", "--graph", "cycle:5")
        assert a == b


class TestNash:
    def test_star(self, capsys):
        code, out, _ = run(capsys, "nash", "--graph", "star:4")
        payload = json.loads(out)
        assert payload["nash_pairs"] == [[[1], [1]]]
        assert payload["nash_value"] == "1/2"
        assert payload["shortcut_used"] is False

    def test_cycle_uses_shortcut(self, capsys):
        code, out, _ = run(capsys, "nash", "--graph", "cycle:6")
        payload = json.loads(out)
        assert payload["shortcut_used"] is True
        assert len(payload["nash_pairs"]) == 36
        assert payload["upper_value"] == payload["lower_value"] == "1/2"

    def test_path(self, capsys):
        code, out, _ = run(capsys, "nash", "--graph", "path:3")
        payload = json.loads(out)
        assert payload["nash_value"] == "1/2"
        assert payload["security_set"] == [[2]]

    def test_single_link_builds_no_matrix(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("outcome_matrix called")

        monkeypatch.setattr(cli_module, "outcome_matrix", refuse)
        monkeypatch.setattr(game_module, "outcome_matrix", refuse)
        code, out, _ = run(capsys, "nash", "--graph", "path:5")
        assert code == 0
        assert out == (
            '{"upper_value":"1/2","lower_value":"1/2","security_set":[[3]],'
            '"nash_pairs":[[[3],[3]]],"nash_value":"1/2","shortcut_used":false}\n'
        )

    def test_single_link_cap_and_connectivity(self, capsys):
        code, _, err = run(capsys, "nash", "--graph", "path:5", "--cap", "4")
        assert code == 2 and "exceeds the cap of 4" in err
        code, _, err = run(capsys, "nash", "--graph", "circulant:4:")
        assert code == 2 and err == "error: graph not connected\n"

    def test_pairs_game(self, capsys):
        code, out, _ = run(capsys, "nash", "--graph", "path:3", "--k", "2")
        payload = json.loads(out)
        assert code == 0
        assert payload["shortcut_used"] is False
        assert payload["nash_value"] == "1/2"


class TestSmallCommands:
    def test_security(self, capsys):
        code, out, _ = run(capsys, "security", "--graph", "path:3")
        payload = json.loads(out)
        assert payload["security_set"] == [[2]]
        assert payload["upper_value"] == "1/2"

    @pytest.mark.parametrize(
        "edges, expected",
        [
            (None, '{"upper_value":"1/2","lower_value":"1/2","security_set":[[3]]}\n'),
            (
                "7 8\n1 2\n2 3\n3 4\n4 5\n5 6\n2 7\n7 4\n6 1\n",
                '{"upper_value":"1/2","lower_value":"1/2","security_set":[[2],[4]]}\n',
            ),
        ],
    )
    def test_single_link_security_builds_no_matrix(
        self, capsys, monkeypatch, tmp_path, edges, expected
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("outcome_matrix called")

        monkeypatch.setattr(cli_module, "outcome_matrix", refuse)
        monkeypatch.setattr(game_module, "outcome_matrix", refuse)
        spec = "path:5"
        if edges is not None:
            spec = str(tmp_path / "g.txt")
            (tmp_path / "g.txt").write_text(edges)
        code, out, _ = run(capsys, "security", "--graph", spec)
        assert code == 0 and out == expected

    def test_se_set(self, capsys):
        code, out, _ = run(capsys, "se-set", "--graph", "star:4")
        assert json.loads(out)["se_set"] == [1]

    def test_se_set_vertex_budget(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("100000000 1\n1 2\n")
        code, out, err = run(capsys, "se-set", "--graph", str(path))
        assert code == 2 and out == ""
        assert err == f"error: vertex count 100000000 exceeds the limit of {MAX_VERTICES}\n"

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "tau", "--graph", "complete:4")
        assert json.loads(out)["tau"] == 16


class TestSimulate:
    def test_midpoint_run(self, capsys):
        code, out, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "2", "--d", "2",
            "--y0", "-1", "--y1", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,d0,d1"
        final = [float(tok) for tok in lines[-1].split(",")]
        assert all(abs(x) < 1e-6 for x in final[1:4])
        assert "converged=True" in err
        assert "max-residual-vs-analytic" in err

    def test_edge_distances(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "--graph", "complete:2", "--b", "1", "--d", "2",
            "--y0", "0", "--y1", "1",
        )
        final = [float(tok) for tok in out.strip().splitlines()[-1].split(",")]
        assert abs(final[-2] - 0.5) < 1e-6
        assert abs(final[-1] - 0.5) < 1e-6

    def test_unstable_dt(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "1", "--d", "2", "--dt", "0.5",
        )
        assert code == 2
        assert "stability" in err

    def test_bad_states(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "1", "--d", "2",
            "--y0", "1", "--y1", "1",
        )
        assert code == 2
        assert "y0 < y1" in err

    def test_non_finite_numbers(self, capsys):
        cases = (
            (("--t-end", "inf"), "t_end must be positive and finite"),
            (("--t-end", "nan"), "t_end must be positive and finite"),
            (("--dt", "nan"), "dt must be positive and finite"),
            (("--tol", "nan"), "convergence_tol must be positive and finite"),
            (("--y1", "1e400"), "floating-point range"),
            (("--y1", "1e308"), "non-finite"),
            (("--y0=-1e307", "--y1=1e308"), "non-finite"),
            # stage bound finite, but the CSV distance sums n * |x - y| overflow
            (
                ("--graph", "path:100", "--b", "1", "--d", "100",
                 "--y0=-1e307", "--y1", "1e307", "--t-end", "1"),
                "non-finite",
            ),
        )
        for extra, message in cases:
            code, _, err = run(
                capsys, "simulate", "--graph", "path:3", "--b", "1", "--d", "2", *extra
            )
            assert code == 2, extra
            assert message in err, extra
            # nothing but the one error line: no numpy warning ahead of it
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (extra, err)

    def test_large_states_inside_the_limit(self, capsys):
        # 100 * (8e305 + 8e305) = 1.6e308 is still a float: the run proceeds
        code, out, err = run(
            capsys,
            "simulate", "--graph", "path:100", "--b", "1", "--d", "100",
            "--y0=-8e305", "--y1", "8e305", "--t-end", "1",
        )
        assert code == 0
        assert len(err.splitlines()) == 1 and err.startswith("terminal ")
        rows = out.strip().splitlines()[1:]
        assert all(math.isfinite(float(tok)) for row in rows for tok in row.split(","))

    def test_recorded_values_budget(self, capsys, monkeypatch):
        # a huge horizon is fine when the run converges early
        code, out, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "1", "--d", "2", "--t-end", "1e12",
        )
        assert code == 0
        assert "converged=True" in err
        monkeypatch.setattr(SIMULATE_MODULE, "MAX_RECORDED_VALUES", 1000)
        code, out, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "1", "--d", "2", "--tol", "1e-300",
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: trajectory exceeds 1000 recorded values (samples x (n + 3)); "
            "shorten t_end or loosen the tolerance"
        ]

    def test_decay_rate(self, capsys):
        # L + diag(b+d) = [[1,-1,0],[-1,4,-1],[0,-1,1]]: eigenvalues 1 and (5 ± sqrt 17)/2
        code, out, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "2", "--d", "2",
        )
        assert code == 0
        token = err.split()[-1]
        assert token.startswith("decay-rate=")
        assert abs(float(token.split("=")[1]) - (5 - math.sqrt(17)) / 2) < 1e-12

    def test_zero_denominator_state(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--graph", "path:3", "--b", "1", "--d", "2", "--y0=1/0"
        )
        assert code == 2 and out == ""
        assert err == "error: bad leader state '1/0': zero denominator\n"

    def test_bad_vertex_list(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "--graph", "path:3", "--b", "1;2", "--d", "2",
        )
        assert code == 2


class TestVerify:
    def test_cycle_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "cycle:6")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 10

    def test_disconnected_gate(self, capsys):
        code, out, _ = run(capsys, "verify", "--graph", "circulant:4:")
        assert code == 1
        assert "FAIL connectivity-gate" in out


class TestReconstruct:
    def test_finds_the_unique_graph(self, capsys):
        code, out, _ = run(capsys, "reconstruct-example2")
        assert code == 0
        payload = json.loads(out)
        assert payload["candidates_searched"] == 1024
        assert len(payload["matches"]) == 1
        match = payload["matches"][0]
        assert match["rim_edges"] == [[3, 4], [4, 5], [5, 6]]
        assert match["hub_pair_is_nash"] is True
        assert match["hub_in_security_set"] is True

    def test_bad_tolerance_rejected(self, capsys):
        for tol in ("nan", "inf", "-1"):
            code, out, err = run(capsys, "reconstruct-example2", f"--tol={tol}")
            assert code == 2
            assert out == ""
            assert err.startswith("error: tolerance must be finite and >= 0")

    def test_zero_tolerance_accepted(self, capsys):
        code, out, _ = run(capsys, "reconstruct-example2", "--tol", "0")
        assert code == 0
        assert json.loads(out)["matches"] == []
