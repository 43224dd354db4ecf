// Model zoo: the five networks of the paper's evaluation (Sec. VI), as
// NetSpecs parameterized by batch size, class count and input resolution.
// Paper-scale resolutions would need multi-GB activations, so the timing
// benches use describe_net_spec() — pure shape inference over a spec — while
// the functional tests/examples instantiate the same specs at small
// resolution through core::Net.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/spec.h"

namespace swcaffe::core {

/// AlexNet with the paper's refinement: LRN replaced by BatchNorm
/// (Sec. VI-A). Layer names match Fig. 8. `with_loss` appends
/// SoftmaxWithLoss fed from a "label" input.
NetSpec alexnet_bn(int batch, int classes = 1000, int image = 227,
                   bool with_loss = true);

/// The original Krizhevsky AlexNet: LRN after conv1/conv2 and 2-group
/// convolutions for conv2/4/5 (the historical dual-GPU split). Kept for
/// comparison with the paper's BN refinement.
NetSpec alexnet_original(int batch, int classes = 1000, int image = 227,
                         bool with_loss = true);

/// VGG-16 / VGG-19 (Simonyan & Zisserman); layer names match Fig. 9 /
/// Table II (conv1_1 ... conv5_3/conv5_4).
NetSpec vgg(int depth, int batch, int classes = 1000, int image = 224,
            bool with_loss = true);

/// ResNet-50 (He et al.): bottleneck blocks, BN after every conv,
/// projection shortcuts on stage entry.
NetSpec resnet50(int batch, int classes = 1000, int image = 224,
                 bool with_loss = true);

/// GoogleNet (Inception v1) without the auxiliary classifiers.
NetSpec googlenet(int batch, int classes = 1000, int image = 224,
                  bool with_loss = true);

/// Image sides zoo_model() understands besides an explicit one: the paper's
/// ImageNet input (227 for the AlexNets, 224 for the rest), or the smallest
/// side the net's pooling pyramid accepts (67 AlexNet, 32 VGG, 64 ResNet-50
/// and GoogleNet), the reduced resolution functional runs allocate at.
inline constexpr int kPaperImage = 0;
inline constexpr int kSmallImage = -1;

/// The zoo net called `name` (alexnet is the BN variant, alexnet-orig,
/// vgg16, vgg19, resnet50, googlenet), or nullopt when `name` is not a zoo
/// name. `image` is a side in pixels, kPaperImage or kSmallImage.
std::optional<NetSpec> zoo_model(const std::string& name, int batch,
                                 int classes = 1000, int image = kPaperImage,
                                 bool with_loss = true);

/// The inference geometry of zoo net `name` as a function of the batch:
/// paper resolution, 1000 classes, no loss layer (what serving prices).
/// Empty when `name` is not a zoo name.
std::function<NetSpec(int batch)> zoo_inference(const std::string& name);

/// A labelled network description.
struct NamedNet {
  std::string label;
  std::vector<LayerDesc> descs;
};

/// The paper's evaluated training configurations (Sec. VI / Tables II-III):
/// swcaffe_check --paper must find zero errors on all of them, and
/// swcaffe_tune --paper gates its tuned plans on them.
std::vector<NamedNet> paper_configs();

/// Pure shape inference: produces the same LayerDescs Net::describe() would,
/// without allocating any tensor data. Throws on shape errors.
std::vector<LayerDesc> describe_net_spec(const NetSpec& spec);

}  // namespace swcaffe::core
