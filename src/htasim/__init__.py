"""Design and analysis toolkit for a polarization-routed bidirectional
multibeam hybrid transmitarray.

The package covers the full pipeline: folded-optics system layout, Jones
polarization routing, parametric unit-cell phase models, bifocal
compensation-phase synthesis, a cosine-q feed model, and a discrete
far-field superposition engine with beam metrics.  See the `cli` module
for the command-line front end.
"""

__version__ = "0.1.0"
