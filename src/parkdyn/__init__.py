"""Macro-micro parking dynamics toolkit.

A mesoscopic cruising-for-parking simulator (the plant), closed-form two-bin
NFD envelopes with a brute-force oracle, distance-to-park estimators, an
accumulation-based macroscopic parking model calibrated against the
simulator, and a rolling-horizon MPC parking-pricing optimizer coupling the
two.
"""

__version__ = "0.1.0"
