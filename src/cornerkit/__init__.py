"""cornerkit: exact combinatorial checks for sphere-like nerves, Coxeter
labelings, dual-cell obstruction cochains, and torus characteristic data."""

__version__ = "0.1.0"
