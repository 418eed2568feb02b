"""Conditional Wasserstein GAN with gradient penalty for CSI generation."""

from csigen.gan.fastgrad import critic_loss_fast, generator_loss_fast
from csigen.gan.mlp import DenseLayer, MlpParams, init_mlp, mlp_backward, mlp_forward
from csigen.gan.nets import CriticParams, init_critic, init_generator
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
    "DenseLayer",
    "MlpParams",
    "TrainingConfig",
    "TrainingDivergedError",
    "critic_loss_fast",
    "generator_loss_fast",
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
