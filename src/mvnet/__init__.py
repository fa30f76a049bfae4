"""Multi-view attention text classifier on a small numpy autodiff core.

The top level holds what a training script needs; everything else is
imported from its module (``mvnet.numeric``, ``mvnet.analysis``, ...).
"""

from .checkpoint import load_checkpoint, save_checkpoint  # noqa: F401
from .config import TrainConfig  # noqa: F401
from .data import load_dataset, save_dataset  # noqa: F401
from .synthetic import keyword_corpus, random_label_corpus  # noqa: F401
from .training import build_model, evaluate, fit  # noqa: F401
