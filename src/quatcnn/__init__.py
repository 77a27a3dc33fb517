"""Quaternion-valued convolutional neural networks in numpy.

Four-component quaternion algebra, quaternion and real convolutional
layers with exact reverse-mode gradients, RGB/HSV quaternion input
encodings, and a repeated-split experiment harness for the binary
white-blood-cell classification task.
"""

from .quat import (
    Quaternion,
    add,
    hamilton,
    conjugate,
    norm,
    split_complex,
    recompose,
)
from .layers import (
    glorot_uniform,
    Conv2d,
    QConv2d,
    as_block_conv,
    LayerSpec,
    ModelConfig,
    rvcnn_config,
    qvcnn_config,
    config_from_name,
    CONFIG_NAMES,
    count_parameters,
    Model,
    save_model,
    load_model,
)
from .train import (
    Samples,
    bce_with_logits,
    Adam,
    grad_check,
    train_model,
    run_gradient_verification,
)
from .encoding import (
    rgb_to_hsv,
    encode_rgb_quaternion,
    encode_hsv_quaternion,
    concat_channels,
    resize,
    augment_flips,
    read_ppm,
    write_ppm,
    load_image,
)
from .harness import (
    DatasetManifest,
    load_manifest,
    split,
    ExperimentPlan,
    RunResult,
    AggregateStats,
    derive_seed,
    encode_input,
    evaluate,
    load_decoded_images,
    build_run_inputs,
    run_single,
    run_experiment,
    aggregate,
    emit_report,
    generate_synthetic_dataset,
)

__version__ = "0.1.0"

# What a seed computes. Bump it with any change after which a seed no
# longer reproduces its results byte for byte; plan.json records it, so a
# sweep is not resumed across such a change. 1 is every result before
# 24x24 training ran in chunks of 8 samples, 2 those chunks of 8, and 3
# chunks of 16 with the weight gradients summed in blocks of 512 along
# their inner dimension, which makes them the same at one and two BLAS
# threads.
RESULTS_VERSION = 3
