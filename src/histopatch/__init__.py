"""Two-stage patch-wise/image-wise convolutional classifier for very large images.

The package trains a patch-level feature extractor on labeled patches that
inherit their parent image's label, then classifies a channel-stacked grid of
patch feature maps with a second, image-level network.  All tensor kernels,
autodiff, geometry and training code live here; numpy supplies the underlying
float32 buffers and matrix products.

Importing the package loads no submodule, so the command-line entry point can
pin BLAS thread counts (environment variables must be set before numpy loads).
"""

__version__ = "0.1.0"
