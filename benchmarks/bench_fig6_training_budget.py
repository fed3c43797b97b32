"""Fig. 6 — pass@k against training budget.

The paper's Fig. 6 plots pass@5 for the CodeT5p architecture trained on
32K/64K/96K/128K examples. At memorisation scale the data is fixed (the
oracle's six problems), so this bench sweeps the training budget instead:
unconstrained functional pass@1 per method after 10, 20 and 40 epochs of
the quality oracle (Table I has the constrained column at 40 epochs). The
full data-size sweep waits for ROADMAP item 5.

Measured (three model seeds), unconstrained passes out of 6: NTP and Medusa
write no design at 10 epochs, three to five at 20 and all six at 40; Ours writes none
at any budget until ROADMAP item 1(a).
"""

from __future__ import annotations

import pytest

from repro.models.generation import GenerationConfig

from conftest import MAX_NEW_TOKENS, METHODS, emit_bench_json

EPOCHS = (10, 20, 40)


@pytest.mark.benchmark(group="fig6-training-budget")
def test_fig6_pass1_vs_training_budget(benchmark, oracle):
    """Regenerate Fig. 6's series as pass@1 against training epochs."""
    total = len(oracle.problems)
    series = {
        method: [oracle.score(method, epochs=epochs).functional / total for epochs in EPOCHS] for method in METHODS
    }

    print("\n=== Fig. 6 (decoder-only backbone, unconstrained functional pass@1 vs training epochs) ===")
    header = f"{'method':<8} " + " ".join(f"{f'{epochs} epochs':>10}" for epochs in EPOCHS)
    print(header)
    print("-" * len(header))
    for method, rates in series.items():
        print(f"{method:<8} " + " ".join(f"{rate:>10.2f}" for rate in rates))
    emit_bench_json("fig6_training_budget", {"epochs": list(EPOCHS), "function_pass@1": series})

    decoder = oracle.decoder("ours", epochs=EPOCHS[0])
    prompt = oracle.problems[0].prompt
    config = GenerationConfig.greedy_config(MAX_NEW_TOKENS)
    benchmark.pedantic(lambda: decoder.generate_from_text(prompt, config), rounds=1, iterations=1)

    # More training never loses a design, and NTP and Medusa go from none to
    # all six across the sweep.
    for rates in series.values():
        assert rates == sorted(rates)
    for method in ("ntp", "medusa"):
        assert series[method][0] == 0.0 and series[method][-1] == 1.0
