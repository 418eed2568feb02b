"""Conditional Wasserstein GAN with gradient penalty for CSI generation.

Training runs the losses of :mod:`csigen.gan.fastgrad`; the graph-built
``critic_loss``, ``generator_loss`` and ``gradient_penalty`` are their
independent reference.
"""

from csigen.gan.fastgrad import CriticPass, critic_loss_fast, generator_loss_fast
from csigen.gan.mlp import DenseLayer, MlpParams, init_mlp, mlp_backward, mlp_forward
from csigen.gan.nets import (
    CriticParams,
    CriticSpec,
    DelaySpreadScaler,
    GeneratorSpec,
    critic_loss,
    generator_loss,
    gradient_penalty,
    init_critic,
    init_generator,
)
from csigen.gan.train import (
    Checkpoint,
    TrainingConfig,
    TrainingDivergedError,
    load_checkpoint,
    save_checkpoint,
    train,
)
from csigen.gan.sample import sample_fixed, sample_variable

__all__ = [
    "Checkpoint",
    "CriticParams",
    "CriticPass",
    "CriticSpec",
    "DelaySpreadScaler",
    "DenseLayer",
    "GeneratorSpec",
    "MlpParams",
    "TrainingConfig",
    "TrainingDivergedError",
    "critic_loss",
    "critic_loss_fast",
    "generator_loss",
    "generator_loss_fast",
    "gradient_penalty",
    "init_critic",
    "init_generator",
    "init_mlp",
    "load_checkpoint",
    "mlp_backward",
    "mlp_forward",
    "sample_fixed",
    "sample_variable",
    "save_checkpoint",
    "train",
]
