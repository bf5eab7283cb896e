import leadergame.verify as verify_module
from helpers import connected_corpus
from leadergame.graphs import build_graph, generate
from leadergame.verify import run_checks


def test_cycle_passes_everything():
    results = run_checks(generate("cycle", 6), k=1, seed=0)
    assert all(r.ok for r in results), [r for r in results if not r.ok]
    names = {r.name for r in results}
    assert "half-comparison-agreement" in names
    assert "adjugate-minor-identity" in names
    assert "shortcut-agreement" in names


def test_star_passes_with_k_two():
    results = run_checks(generate("star", 4), k=2, seed=1)
    assert all(r.ok for r in results), [r for r in results if not r.ok]


def test_random_graphs_pass():
    for seed, g in enumerate(connected_corpus(seed=601, count=4, n_min=3, n_max=6)):
        results = run_checks(g, k=1, seed=seed)
        assert all(r.ok for r in results), (g.sorted_edges(), [r for r in results if not r.ok])


def test_disconnected_reports_gate_failure():
    results = run_checks(build_graph(4, [(1, 2), (3, 4)]), k=1, seed=0)
    gate = [r for r in results if r.name == "connectivity-gate"]
    assert len(gate) == 1 and not gate[0].ok
    assert not all(r.ok for r in results)


def test_empty_se_set_fails(monkeypatch):
    monkeypatch.setattr(verify_module, "se_set", lambda g: ())
    results = run_checks(generate("path", 4), k=1, seed=0)
    match = [r for r in results if r.name == "se-set-security-match"]
    assert len(match) == 1 and not match[0].ok
    assert "se=()" in match[0].detail
