// Canonical paper-configuration fixtures shared by tests/ and bench/.
//
// The evaluation section prices AlexNet and VGG at fixed geometries (full
// ImageNet shapes, the Table III batch sizes, the 232.6 MB packed gradient
// message). Before this header those numbers were retyped in every test and
// bench that needed them; now there is exactly one definition of each, so a
// fixture change (or a typo) cannot silently fork the suite.
#pragma once

#include <cstdint>
#include <cstring>
#include <ostream>
#include <vector>

#include "core/layer_desc.h"
#include "core/models.h"
#include "core/net.h"

namespace swcaffe::fixtures {

// Paper batch configurations (Table III / Figs. 8-11): a full node trains
// batch B, each of the 4 core groups runs B/4 (Algorithm 1).
inline constexpr int kAlexNetBatch = 256;
inline constexpr int kAlexNetBatchPerCg = kAlexNetBatch / 4;
inline constexpr int kVggBatch = 64;
inline constexpr int kVggBatchPerCg = kVggBatch / 4;
inline constexpr int kResNet50Batch = 32;
inline constexpr int kResNet50BatchPerCg = kResNet50Batch / 4;

/// Packed gradient messages of the scalability experiments (Sec. V /
/// Fig. 10): AlexNet 232.6 MB, ResNet-50 97.7 MB.
inline constexpr std::int64_t kAlexNetGradientBytes = 232600000;
inline constexpr std::int64_t kResNet50GradientBytes = 97700000;

/// Bytes of one ImageNet input batch (B x 3 x 227 x 227 floats), the volume
/// device-throughput comparisons charge for host transfers.
inline std::int64_t imagenet_input_bytes(int batch) {
  return 4LL * batch * 3 * 227 * 227;
}

/// AlexNet-BN at the paper's ImageNet geometry (227x227, 1000 classes).
inline core::NetSpec alexnet_spec(int batch = kAlexNetBatch) {
  return core::alexnet_bn(batch);
}
inline std::vector<core::LayerDesc> alexnet_descs(int batch = kAlexNetBatch) {
  return core::describe_net_spec(alexnet_spec(batch));
}
/// One core group's share of the full-node AlexNet batch.
inline std::vector<core::LayerDesc> alexnet_per_cg_descs() {
  return alexnet_descs(kAlexNetBatchPerCg);
}

/// VGG-16/VGG-19 at the paper's geometry (224x224, 1000 classes).
inline core::NetSpec vgg_spec(int depth, int batch = kVggBatch) {
  return core::vgg(depth, batch);
}
inline std::vector<core::LayerDesc> vgg_descs(int depth,
                                              int batch = kVggBatch) {
  return core::describe_net_spec(vgg_spec(depth, batch));
}
inline std::vector<core::LayerDesc> vgg_per_cg_descs(int depth) {
  return vgg_descs(depth, kVggBatchPerCg);
}

/// ResNet-50 at the paper's geometry (224x224, 1000 classes).
inline core::NetSpec resnet50_spec(int batch = kResNet50Batch) {
  return core::resnet50(batch);
}
inline std::vector<core::LayerDesc> resnet50_descs(int batch = kResNet50Batch) {
  return core::describe_net_spec(resnet50_spec(batch));
}
inline std::vector<core::LayerDesc> resnet50_per_cg_descs() {
  return resnet50_descs(kResNet50BatchPerCg);
}

// --- Replica fixtures --------------------------------------------------------
//
// Nets whose replicas (core::Net::replica_of, and the SsgdTrainer/NodeRunner
// replica sets built from it) must equal a freshly seeded Net bit for bit.
// Each declares "data"/"label" inputs, so the parallel trainers accept it.

/// The reduced AlexNet-BN `swcaffe_time` and the benchmark train: conv, BN,
/// dropout and the two 4096-wide FCs, at 67x67 with 10 classes.
inline core::NetSpec replica_alexnet_spec() {
  return core::alexnet_bn(2, 10, 67);
}

/// An LSTM whose bias is drawn (gaussian) before the +1 forget-gate shift.
inline core::NetSpec replica_lstm_spec() {
  core::NetSpec net;
  net.name = "lstm";
  net.inputs.push_back({"data", {4, 2, 3}});
  net.inputs.push_back({"label", {4}});
  core::LayerSpec lstm = core::lstm_spec("lstm", "data", "h", 5);
  lstm.bias_filler = tensor::FillerSpec::gaussian(0.0f, 0.1f);
  net.layers.push_back(lstm);
  net.layers.push_back(core::ip_spec("head", "h", "scores", 3));
  net.layers.push_back(core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

/// A small conv net with batch norm (constant scale/shift, set up rather
/// than drawn) and dropout (a per-layer mask RNG).
inline core::NetSpec replica_dropout_bn_spec() {
  core::NetSpec net;
  net.name = "dropout-bn";
  net.inputs.push_back({"data", {2, 3, 8, 8}});
  net.inputs.push_back({"label", {2}});
  net.layers.push_back(core::conv_spec("conv1", "data", "conv1", 4, 3, 1, 1));
  net.layers.push_back(core::bn_spec("bn1", "conv1", "bn1"));
  net.layers.push_back(core::relu_spec("relu1", "bn1", "relu1"));
  net.layers.push_back(core::dropout_spec("drop1", "relu1", "drop1"));
  net.layers.push_back(core::ip_spec("fc", "drop1", "scores", 3));
  net.layers.push_back(core::softmax_loss_spec("loss", "scores", "label", "loss"));
  return net;
}

struct ReplicaCase {
  const char* name;
  core::NetSpec (*spec)();
};

/// gtest prints a parameter in the test's listed name; print the case name
/// rather than the struct's bytes (which hold a function address).
inline void PrintTo(const ReplicaCase& c, std::ostream* os) { *os << c.name; }

inline const ReplicaCase kReplicaCases[] = {
    {"AlexNetBn", replica_alexnet_spec},
    {"Lstm", replica_lstm_spec},
    {"DropoutBn", replica_dropout_bn_spec},
};

/// True when `a` and `b` have the same learnable parameter shapes and every
/// parameter's data (or, with `diffs`, its diff) is equal bit for bit.
inline bool same_param_bits(core::Net& a, core::Net& b, bool diffs = false) {
  const auto pa = a.learnable_params(), pb = b.learnable_params();
  if (pa.size() != pb.size()) return false;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    if (pa[i]->shape() != pb[i]->shape()) return false;
    const auto x = diffs ? pa[i]->diff() : pa[i]->data();
    const auto y = diffs ? pb[i]->diff() : pb[i]->data();
    if (std::memcmp(x.data(), y.data(), x.size_bytes()) != 0) return false;
  }
  return true;
}

}  // namespace swcaffe::fixtures
