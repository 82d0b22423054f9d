"""scenefuse: hybrid object/scene deep features for scene images.

A small numpy toolkit covering the whole pipeline: image slicing into 20
sub-images, CNN feature extraction at the fifth pooling layer of a
VGG16-shaped trunk via a built-in inference engine, four-way feature
fusion, and a grid-searched one-vs-rest L2 logistic-regression classifier
with benchmark-style dataset split protocols.

Import the submodules by name (``from scenefuse import engine``). This
package imports none of them, so ``scenefuse.cli`` can pin the BLAS
thread pools to one thread before numpy loads.
"""

__version__ = "0.1.0"
