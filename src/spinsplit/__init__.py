"""Spin-polarizing interferometric beam splitter for free electrons.

An analytic four-mode Bragg model, three numerical Pauli-equation backends,
channel/spin analysis, and the experiment design calculator.
"""

__version__ = "0.1.0"

from . import analytic, fields, observables, propagation, scenario, states
