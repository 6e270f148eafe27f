"""Spectral simulator and semigroup diagnostics for hinged thermoelastic
plates with second-gradient heat conduction.

`import gradiplate` loads no submodule, and the package exports no name
but `__version__`: import each name from its submodule (`gradiplate.model`,
`gradiplate.propagator`, ...).  A CLI process imports only the modules its
subcommand runs.
"""

__version__ = "0.1.0"
