"""Quantum-illumination backscatter link simulator.  Import each name from the
module that defines it, e.g. `from qbcsim.montecarlo import run_experiment`:
  gaussian    multimode Gaussian states by mean and covariance, and their operations
  link        link budget, modulation alphabets and the channel
  receivers   heterodyne, parametric-amplifier (PA) and SFG decision procedures
  analytics   closed-form error-probability bounds and the security calculators
  fock        truncated-Fock conversion and the Helstrom and Chernoff oracles
  montecarlo  seeded bit-error-rate experiments on a counter-based trial engine
  config      the key=value experiment config files
  cli         the `qbcsim` command: bounds, simulate, link-budget, security"""

__version__ = "0.1.0"
