"""fracheat: Caputo-fractional evolution on [0, pi] with nonsmooth forcing,
controllability Gramian assembly and regularized approximate-control synthesis.

The package imports nothing: names are imported from their modules
(`fracheat.fracops`, `fracheat.hvi`, ...), and `fracheat.cli` is the
command-line runner."""

__version__ = "0.1.0"
