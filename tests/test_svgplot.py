"""The SVG bytes of `svgplot.line_plot`, pinned by one digest over a few
plots: linear and log axes, a log axis with values <= 0 that it drops, a
single point, flat series, and more series than colors."""

import hashlib
import math

import numpy as np
import pytest

from varfrac.svgplot import line_plot

_PLOTS_SHA256 = "029e0712b76bde2245f02499de85da4f02ffc51dfdec5cb0f41f6fcaef1c8978"


def _plots():
    xs = list(np.linspace(-3.0, 3.0, 17))
    hs = [0.1, 0.05, 0.025, 0.0125]
    yield line_plot([("cos", xs, list(np.cos(xs))), ("sin", xs, list(np.sin(xs)))],
                    title="linear", xlabel="x", ylabel="F")
    yield line_plot([("error", hs, [3e-3, 1.1e-3, 4e-4, 1.5e-4]),
                     ("bound", hs, [2e-2, 1e-2, 5e-3, 2.5e-3])],
                    title="log-log", xlabel="h", ylabel="error", log_x=True, log_y=True)
    yield line_plot([("mixed", [-1.0, 0.0, 1e-3, 0.5, 20.0], [5.0, -2.0, 0.0, 1e-9, 7e4])],
                    log_x=True, log_y=True)
    yield line_plot([("one", [2.5], [-0.75])], title="a single point", log_y=False)
    yield line_plot([("flat", [0, 1, 2, 3], [1.0, 1.0, 1.0, 1.0])], log_x=False)
    yield line_plot([(f"s{i}", [1, 2, 3], [i, i * i, math.sqrt(i + 1)]) for i in range(8)],
                    title="eight series", xlabel="n", ylabel="value")
    yield line_plot([("n_x", [64, 128, 256], [2.1e-3, 5.3e-4, 1.3e-4]),
                     ("none positive", [1, 2], [0.0, -1.0])],
                    xlabel="n_x", ylabel="sup error", log_x=True, log_y=True)


def test_line_plots_keep_their_bytes():
    digest = hashlib.sha256("\x00".join(_plots()).encode()).hexdigest()
    assert digest == _PLOTS_SHA256


@pytest.mark.parametrize("series, log_x, log_y", [
    ([], False, False),
    ([("empty", [], [])], True, True),
])
def test_nothing_to_plot(series, log_x, log_y):
    with pytest.raises(ValueError, match="nothing to plot"):
        line_plot(series, log_x=log_x, log_y=log_y)


def test_log_axis_without_a_positive_value():
    with pytest.raises(ValueError):
        line_plot([("none positive", [1.0, 2.0], [0.0, -1.0])], log_y=True)
