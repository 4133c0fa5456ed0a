"""Benchmark E-T1: regenerate Table I (evaluation models and datasets)."""

from __future__ import annotations

from repro.experiments import table1_models


def test_table1_models(benchmark):
    rows = benchmark(table1_models.run)

    assert [r.index for r in rows] == [1, 2, 3, 4]
    for row in rows:
        # Layer structure matches Table I exactly; parameter counts within 5 %.
        assert row.conv_layers == row.paper_conv_layers
        assert row.fc_layers == row.paper_fc_layers
        assert row.parameter_error_percent < 5.0
    # The Siamese model reproduces the paper's parameter count exactly.
    assert rows[3].parameters == rows[3].paper_parameters
