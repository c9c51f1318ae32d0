"""Non-asymptotic confidence regions for sensor networks, with exact
communication accounting.

The package simulates a network of nodes that each take one noisy linear
measurement of a common parameter, spread their data by one of several
broadcast protocols (plain/modified flooding, tagged aggregate sums, average
consensus), and lets every node build a confidence region with exact,
distribution-free coverage from whatever share of the data reached it. Every
transmitted scalar is counted, closed-form traffic totals mirror the
simulators exactly, and batch experiment runners reproduce the coverage and
volume-versus-traffic studies from the command line.

The package root binds no names: import each one from the module that
defines it, for example ``from spsnet.diffusion import run_tas``.
"""
