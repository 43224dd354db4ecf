// Model zoo tests: shape inference against the paper's published model
// statistics, and functional forward/backward at reduced resolution.
#include <gtest/gtest.h>

#include "base/log.h"
#include "core/models.h"
#include "core/net.h"

namespace swcaffe::core {
namespace {

std::int64_t total_params(const std::vector<LayerDesc>& descs) {
  std::int64_t n = 0;
  for (const auto& d : descs) n += d.param_count;
  return n;
}

const LayerDesc* find_layer(const std::vector<LayerDesc>& descs,
                            const std::string& name) {
  for (const auto& d : descs) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

TEST(ModelsTest, ZooLookupResolvesEveryNameAndItsImageSides) {
  EXPECT_FALSE(zoo_model("nosuch", 1).has_value());
  EXPECT_FALSE(zoo_model("models/alexnet.prototxt", 1).has_value());
  const std::pair<const char*, std::string> kNames[] = {
      {"alexnet", "alexnet-bn"}, {"alexnet-orig", "alexnet-original"},
      {"vgg16", "vgg-16"},       {"vgg19", "vgg-19"},
      {"resnet50", "resnet-50"}, {"googlenet", "googlenet"}};
  for (const auto& [name, spec_name] : kNames) {
    SCOPED_TRACE(name);
    const std::optional<NetSpec> paper = zoo_model(name, 2);
    ASSERT_TRUE(paper.has_value());
    EXPECT_EQ(paper->name, spec_name);
    const int side = paper->inputs.at(0).second.at(2);
    EXPECT_EQ(side, std::string(name).rfind("alexnet", 0) == 0 ? 227 : 224);
    // The small side is the smallest the pooling pyramid accepts: it
    // builds, and so does a functional forward pass through it.
    const NetSpec small = *zoo_model(name, 1, 10, kSmallImage);
    EXPECT_LT(small.inputs.at(0).second.at(2), side);
    EXPECT_NO_THROW(describe_net_spec(small));
    const NetSpec explicit_side = *zoo_model(name, 4, 10, 96, false);
    EXPECT_EQ(explicit_side.inputs.at(0).second,
              (std::vector<int>{4, 3, 96, 96}));
  }
}

TEST(ModelsTest, PaperConfigsAreTheFiveEvaluatedTrainingSetups) {
  const std::vector<NamedNet> configs = paper_configs();
  ASSERT_EQ(configs.size(), 5u);
  EXPECT_EQ(configs[0].label, "alexnet-bn batch 256 @227");
  EXPECT_EQ(configs[4].label, "vgg19 batch 128 @224");
  EXPECT_EQ(total_params(configs[2].descs),
            total_params(describe_net_spec(vgg(16, 128))));
}

TEST(ModelsTest, AlexNetParameterBytesMatchPaper) {
  // Sec. VI-C: "model parameter size of ... AlexNet (232.6 MB)".
  const auto descs = describe_net_spec(alexnet_bn(256));
  // Our AlexNet drops the historical 2-GPU grouping (as modern refactors
  // do), which adds ~1.5M params over the grouped original.
  const double mb = total_params(descs) * 4.0 / 1e6;
  EXPECT_NEAR(mb, 232.6, 25.0);
}

TEST(ModelsTest, ResNet50ParameterBytesMatchPaper) {
  // Sec. VI-C: ResNet-50 is 97.7 MB.
  const auto descs = describe_net_spec(resnet50(32));
  const double mb = total_params(descs) * 4.0 / 1e6;
  EXPECT_NEAR(mb, 97.7, 12.0);
}

TEST(ModelsTest, Vgg16HasStandard138MParams) {
  const auto descs = describe_net_spec(vgg(16, 64));
  EXPECT_NEAR(total_params(descs) / 1e6, 138.0, 5.0);
}

TEST(ModelsTest, Vgg19DeeperThanVgg16) {
  const auto d16 = describe_net_spec(vgg(16, 64));
  const auto d19 = describe_net_spec(vgg(19, 64));
  int convs16 = 0, convs19 = 0;
  for (const auto& d : d16) convs16 += d.kind == LayerKind::kConv;
  for (const auto& d : d19) convs19 += d.kind == LayerKind::kConv;
  EXPECT_EQ(convs16, 13);
  EXPECT_EQ(convs19, 16);
  EXPECT_GT(total_params(d19), total_params(d16));
}

TEST(ModelsTest, GoogleNetIsSmallButDeep) {
  const auto descs = describe_net_spec(googlenet(128));
  // ~7 M params (inception v1), dozens of convolutions.
  EXPECT_NEAR(total_params(descs) / 1e6, 7.0, 2.0);
  int convs = 0;
  for (const auto& d : descs) convs += d.kind == LayerKind::kConv;
  EXPECT_EQ(convs, 3 + 9 * 6);  // stem (7x7, 3x3 reduce, 3x3) + 6 per module
}

TEST(ModelsTest, Vgg16ConvShapesMatchTable2) {
  const auto descs = describe_net_spec(vgg(16, 128));
  struct Expect {
    const char* name;
    int ni, no, img;
  };
  const Expect rows[] = {
      {"conv1_1", 3, 64, 224},   {"conv1_2", 64, 64, 224},
      {"conv2_1", 64, 128, 112}, {"conv2_2", 128, 128, 112},
      {"conv3_1", 128, 256, 56}, {"conv3_3", 256, 256, 56},
      {"conv4_1", 256, 512, 28}, {"conv5_3", 512, 512, 14},
  };
  for (const auto& r : rows) {
    const LayerDesc* d = find_layer(descs, r.name);
    ASSERT_NE(d, nullptr) << r.name;
    EXPECT_EQ(d->conv.in_c, r.ni) << r.name;
    EXPECT_EQ(d->conv.out_c, r.no) << r.name;
    EXPECT_EQ(d->conv.in_h, r.img) << r.name;
    EXPECT_EQ(d->conv.batch, 128) << r.name;
  }
}

TEST(ModelsTest, AlexNetLayerNamesMatchFig8) {
  const auto descs = describe_net_spec(alexnet_bn(256));
  for (const char* name :
       {"conv1", "conv1/bn", "relu1", "pool1", "conv2", "conv3", "conv4",
        "conv5", "pool5", "fc6", "drop6", "fc7", "fc8"}) {
    EXPECT_NE(find_layer(descs, name), nullptr) << name;
  }
  // The paper's refinement: BN present, LRN absent (Sec. VI-A).
  for (const auto& d : descs) EXPECT_NE(d.kind, LayerKind::kLRN);
}

TEST(ModelsTest, AlexNetFcDimensions) {
  const auto descs = describe_net_spec(alexnet_bn(256));
  const LayerDesc* fc6 = find_layer(descs, "fc6");
  ASSERT_NE(fc6, nullptr);
  EXPECT_EQ(fc6->fc.k, 256 * 6 * 6);  // pool5 output 6x6x256
  EXPECT_EQ(fc6->fc.n, 4096);
  EXPECT_EQ(fc6->fc.m, 256);
}

TEST(ModelsTest, ResNet50StageShapes) {
  const auto descs = describe_net_spec(resnet50(32));
  const LayerDesc* c1 = find_layer(descs, "conv1");
  ASSERT_NE(c1, nullptr);
  EXPECT_EQ(c1->conv.out_h(), 112);  // 224/2
  const LayerDesc* last = find_layer(descs, "res5c_branch2c");
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(last->conv.out_c, 2048);
  EXPECT_EQ(last->conv.out_h(), 7);
  const LayerDesc* fc = find_layer(descs, "fc1000");
  ASSERT_NE(fc, nullptr);
  EXPECT_EQ(fc->fc.k, 2048);
}

TEST(ModelsTest, DescribeMatchesLiveNetAtSmallScale) {
  // The spec-level shape inference must agree with what the functional Net
  // computes during setup — for every layer of every model.
  const NetSpec specs[] = {alexnet_bn(2, 10, 67), vgg(16, 1, 10, 32),
                           resnet50(1, 10, 64), googlenet(1, 10, 64)};
  for (const auto& spec : specs) {
    const auto inferred = describe_net_spec(spec);
    Net net(spec, 1);
    const auto live = net.describe();
    ASSERT_EQ(inferred.size(), live.size()) << spec.name;
    for (std::size_t i = 0; i < live.size(); ++i) {
      EXPECT_EQ(inferred[i].name, live[i].name) << spec.name;
      EXPECT_EQ(inferred[i].input_count, live[i].input_count)
          << spec.name << ":" << live[i].name;
      EXPECT_EQ(inferred[i].output_count, live[i].output_count)
          << spec.name << ":" << live[i].name;
      EXPECT_EQ(inferred[i].param_count, live[i].param_count)
          << spec.name << ":" << live[i].name;
    }
  }
}

TEST(ModelsTest, AllModelsRunForwardBackwardFunctionally) {
  // Reduced resolution keeps runtime in check; the graphs are the real ones.
  const NetSpec specs[] = {alexnet_bn(1, 10, 67), vgg(16, 1, 10, 32),
                           resnet50(1, 10, 64), googlenet(1, 10, 64)};
  for (const auto& spec : specs) {
    Net net(spec, 3);
    base::Rng rng(4);
    for (auto& v : net.blob("data")->data()) v = rng.gaussian(0.0f, 1.0f);
    net.blob("label")->data()[0] = 3;
    const double loss = net.forward_backward();
    EXPECT_GT(loss, 0.0) << spec.name;
    EXPECT_LT(loss, 100.0) << spec.name;
    // Every learnable parameter receives some gradient signal.
    double grad_sq = 0.0;
    for (auto* p : net.learnable_params()) grad_sq += p->sumsq_diff();
    EXPECT_GT(grad_sq, 0.0) << spec.name;
  }
}

TEST(ModelsTest, OriginalAlexNetMatchesHistoricalParamCount) {
  // Krizhevsky's grouped AlexNet: ~61 M parameters (the ungrouped BN
  // refinement adds ~1.5 M by un-splitting conv2/4/5).
  const auto grouped = describe_net_spec(alexnet_original(256));
  const auto refined = describe_net_spec(alexnet_bn(256));
  EXPECT_NEAR(total_params(grouped) / 1e6, 61.0, 2.0);
  EXPECT_GT(total_params(refined), total_params(grouped));
  // LRN present in the original, absent from the refinement (Sec. VI-A).
  int lrn = 0;
  for (const auto& d : grouped) lrn += d.kind == LayerKind::kLRN;
  EXPECT_EQ(lrn, 2);
  const LayerDesc* conv2 = find_layer(grouped, "conv2");
  ASSERT_NE(conv2, nullptr);
  EXPECT_EQ(conv2->conv.group, 2);
}

TEST(ModelsTest, OriginalAlexNetRunsFunctionally) {
  Net net(alexnet_original(1, 10, 67), 5);
  base::Rng rng(6);
  for (auto& v : net.blob("data")->data()) v = rng.gaussian(0.0f, 1.0f);
  net.blob("label")->data()[0] = 2;
  const double loss = net.forward_backward();
  EXPECT_GT(loss, 0.0);
  EXPECT_LT(loss, 100.0);
}

TEST(ModelsTest, VggRejectsUnsupportedDepth) {
  EXPECT_THROW(vgg(13, 1), base::CheckError);
}

}  // namespace
}  // namespace swcaffe::core
