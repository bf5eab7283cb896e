import json

from leadergame.cli import main


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

    def test_se_set(self, capsys):
        code, out, _ = run(capsys, "se-set", "--graph", "star:4")
        assert json.loads(out)["se_set"] == [1]

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
