"""liplab: gauge-based scaled-oscillation analysis at desk scale.

Submodules: gauges (scale functions and orderings), setlib (cube sets, box
counting, dimensions, microscopic certificates), funclib (sampled functions
and oscillation estimators), construct (the staircase builds with exact
certificates), partition (Vitali image covers and graph checks), cli.

Import them by name (`from liplab import setlib`).  The package itself
imports none of them, so `import liplab` loads no numpy and the CLI can set
up numpy's environment before numpy starts.
"""

__version__ = "0.1.0"
