"""conewave: radial damped-wave simulator with a cubic-convolution
nonlinearity, weighted-norm estimate verifiers, and lifespan-scaling
experiments on characteristic-aligned grids."""

__version__ = "0.1.0"
