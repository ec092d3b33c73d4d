"""Synthetic bench_*.py trees for exercising the runner without the
(expensive) real scenario suite."""

import textwrap

import pytest

GOOD_MODULES = {
    "bench_alpha.py": """
        from repro.bench.results import scenario

        @scenario(cost=2.0, seed=7)
        def run_mix(report=None):
            # Deterministic arithmetic standing in for a seed-pinned sim.
            values = [((i * 2654435761) % 97) / 97 for i in range(256)]
            if report is not None:
                report("alpha_mix", "mean over 256 hashed points")
            return {
                "mean": round(sum(values) / len(values), 9),
                "peak": round(max(values), 9),
                "label": "alpha",
            }

        @scenario(quick=False, cost=5.0, seed=8)
        def run_slowtier(report=None):
            return {"count": 42}

        def scenarios():
            return [("alpha_mix", run_mix), ("alpha_slowtier", run_slowtier)]
    """,
    "bench_beta.py": """
        from repro.bench.results import scenario

        @scenario(cost=1.0, seed=9)
        def run_sum(report=None):
            return {"total": sum(range(100)), "flag": True, "hole": None}

        def scenarios():
            return [("beta_sum", run_sum)]
    """,
}


def write_bench_dir(root, modules):
    root.mkdir(parents=True, exist_ok=True)
    for name, body in modules.items():
        (root / name).write_text(textwrap.dedent(body))
    return root


@pytest.fixture
def bench_dir(tmp_path):
    """A tiny, fast, fully deterministic benchmark tree."""
    return write_bench_dir(tmp_path / "benchmarks", GOOD_MODULES)
