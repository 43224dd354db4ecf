#include "core/models.h"

#include <string>

#include "base/log.h"

namespace swcaffe::core {

namespace {

/// Appends conv (+optional bn) + relu with Fig. 8/9-style names.
void add_conv_bn_relu(NetSpec& net, const std::string& name,
                      const std::string& bottom, const std::string& top,
                      int num_output, int kernel, int stride, int pad,
                      bool with_bn) {
  net.layers.push_back(conv_spec(name, bottom, with_bn ? name + "_raw" : top,
                                 num_output, kernel, stride, pad));
  if (with_bn) {
    net.layers.push_back(bn_spec(name + "/bn", name + "_raw", top));
  }
}

struct ZooEntry {
  const char* name;
  int paper_image;
  int small_image;
  NetSpec (*make)(int batch, int classes, int image, bool with_loss);
};

constexpr ZooEntry kZoo[] = {
    {"alexnet", 227, 67, alexnet_bn},
    {"alexnet-orig", 227, 67, alexnet_original},
    {"vgg16", 224, 32,
     [](int b, int c, int i, bool l) { return vgg(16, b, c, i, l); }},
    {"vgg19", 224, 32,
     [](int b, int c, int i, bool l) { return vgg(19, b, c, i, l); }},
    {"resnet50", 224, 64, resnet50},
    {"googlenet", 224, 64, googlenet},
};

}  // namespace

std::optional<NetSpec> zoo_model(const std::string& name, int batch,
                                 int classes, int image, bool with_loss) {
  for (const ZooEntry& z : kZoo) {
    if (name != z.name) continue;
    if (image == kPaperImage) image = z.paper_image;
    if (image == kSmallImage) image = z.small_image;
    return z.make(batch, classes, image, with_loss);
  }
  return std::nullopt;
}

std::function<NetSpec(int batch)> zoo_inference(const std::string& name) {
  if (!zoo_model(name, 1)) return {};
  return [name](int b) {
    return *zoo_model(name, b, 1000, kPaperImage, /*with_loss=*/false);
  };
}

std::vector<NamedNet> paper_configs() {
  return {
      {"alexnet-bn batch 256 @227", describe_net_spec(alexnet_bn(256))},
      {"alexnet-bn batch 128 @227", describe_net_spec(alexnet_bn(128))},
      {"vgg16 batch 128 @224", describe_net_spec(vgg(16, 128))},
      {"vgg16 batch 32 @224", describe_net_spec(vgg(16, 32))},
      {"vgg19 batch 128 @224", describe_net_spec(vgg(19, 128))},
  };
}

NetSpec alexnet_bn(int batch, int classes, int image, bool with_loss) {
  NetSpec net;
  net.name = "alexnet-bn";
  net.inputs.push_back({"data", {batch, 3, image, image}});
  if (with_loss) net.inputs.push_back({"label", {batch}});

  auto block = [&](const std::string& id, const std::string& bottom,
                   int out, int kernel, int stride, int pad) {
    add_conv_bn_relu(net, id, bottom, id + "_bn", out, kernel, stride, pad,
                     /*with_bn=*/true);
    net.layers.push_back(relu_spec("relu" + id.substr(4), id + "_bn", id + "_out"));
  };
  block("conv1", "data", 96, 11, 4, 0);
  net.layers.push_back(
      pool_spec("pool1", "conv1_out", "pool1", PoolMethod::kMax, 3, 2));
  block("conv2", "pool1", 256, 5, 1, 2);
  net.layers.push_back(
      pool_spec("pool2", "conv2_out", "pool2", PoolMethod::kMax, 3, 2));
  block("conv3", "pool2", 384, 3, 1, 1);
  block("conv4", "conv3_out", 384, 3, 1, 1);
  block("conv5", "conv4_out", 256, 3, 1, 1);
  net.layers.push_back(
      pool_spec("pool5", "conv5_out", "pool5", PoolMethod::kMax, 3, 2));
  net.layers.push_back(ip_spec("fc6", "pool5", "fc6", 4096));
  net.layers.push_back(relu_spec("relu6", "fc6", "fc6_out"));
  net.layers.push_back(dropout_spec("drop6", "fc6_out", "fc6_drop"));
  net.layers.push_back(ip_spec("fc7", "fc6_drop", "fc7", 4096));
  net.layers.push_back(relu_spec("relu7", "fc7", "fc7_out"));
  net.layers.push_back(dropout_spec("drop7", "fc7_out", "fc7_drop"));
  net.layers.push_back(ip_spec("fc8", "fc7_drop", "fc8", classes));
  if (with_loss) {
    net.layers.push_back(softmax_loss_spec("loss", "fc8", "label", "loss"));
  }
  return net;
}

NetSpec alexnet_original(int batch, int classes, int image, bool with_loss) {
  NetSpec net;
  net.name = "alexnet-original";
  net.inputs.push_back({"data", {batch, 3, image, image}});
  if (with_loss) net.inputs.push_back({"label", {batch}});

  auto conv = [&](const std::string& id, const std::string& bottom, int out,
                  int kernel, int stride, int pad, int group) {
    net.layers.push_back(conv_spec(id, bottom, id, out, kernel, stride, pad));
    net.layers.back().group = group;
    net.layers.push_back(relu_spec("relu" + id.substr(4), id, id + "_out"));
    return id + "_out";
  };
  std::string b = conv("conv1", "data", 96, 11, 4, 0, 1);
  net.layers.push_back(lrn_spec("norm1", b, "norm1"));
  net.layers.push_back(
      pool_spec("pool1", "norm1", "pool1", PoolMethod::kMax, 3, 2));
  b = conv("conv2", "pool1", 256, 5, 1, 2, 2);  // historical 2-group split
  net.layers.push_back(lrn_spec("norm2", b, "norm2"));
  net.layers.push_back(
      pool_spec("pool2", "norm2", "pool2", PoolMethod::kMax, 3, 2));
  b = conv("conv3", "pool2", 384, 3, 1, 1, 1);
  b = conv("conv4", b, 384, 3, 1, 1, 2);
  b = conv("conv5", b, 256, 3, 1, 1, 2);
  net.layers.push_back(pool_spec("pool5", b, "pool5", PoolMethod::kMax, 3, 2));
  net.layers.push_back(ip_spec("fc6", "pool5", "fc6", 4096));
  net.layers.push_back(relu_spec("relu6", "fc6", "fc6_out"));
  net.layers.push_back(dropout_spec("drop6", "fc6_out", "fc6_drop"));
  net.layers.push_back(ip_spec("fc7", "fc6_drop", "fc7", 4096));
  net.layers.push_back(relu_spec("relu7", "fc7", "fc7_out"));
  net.layers.push_back(dropout_spec("drop7", "fc7_out", "fc7_drop"));
  net.layers.push_back(ip_spec("fc8", "fc7_drop", "fc8", classes));
  if (with_loss) {
    net.layers.push_back(softmax_loss_spec("loss", "fc8", "label", "loss"));
  }
  return net;
}

NetSpec vgg(int depth, int batch, int classes, int image, bool with_loss) {
  SWC_CHECK_MSG(depth == 16 || depth == 19, "vgg depth must be 16 or 19");
  NetSpec net;
  net.name = "vgg-" + std::to_string(depth);
  net.inputs.push_back({"data", {batch, 3, image, image}});
  if (with_loss) net.inputs.push_back({"label", {batch}});

  const int convs_per_block_16[5] = {2, 2, 3, 3, 3};
  const int convs_per_block_19[5] = {2, 2, 4, 4, 4};
  const int* convs =
      depth == 16 ? convs_per_block_16 : convs_per_block_19;
  const int channels[5] = {64, 128, 256, 512, 512};

  std::string bottom = "data";
  for (int blk = 0; blk < 5; ++blk) {
    for (int i = 0; i < convs[blk]; ++i) {
      const std::string id = "conv" + std::to_string(blk + 1) + "_" +
                             std::to_string(i + 1);
      net.layers.push_back(conv_spec(id, bottom, id, channels[blk], 3, 1, 1));
      const std::string relu_id = "relu" + std::to_string(blk + 1) + "_" +
                                  std::to_string(i + 1);
      net.layers.push_back(relu_spec(relu_id, id, id + "_out"));
      bottom = id + "_out";
    }
    const std::string pool_id = "pool" + std::to_string(blk + 1);
    net.layers.push_back(
        pool_spec(pool_id, bottom, pool_id, PoolMethod::kMax, 2, 2));
    bottom = pool_id;
  }
  net.layers.push_back(ip_spec("fc6", bottom, "fc6", 4096));
  net.layers.push_back(relu_spec("relu6", "fc6", "fc6_out"));
  net.layers.push_back(dropout_spec("drop6", "fc6_out", "fc6_drop"));
  net.layers.push_back(ip_spec("fc7", "fc6_drop", "fc7", 4096));
  net.layers.push_back(relu_spec("relu7", "fc7", "fc7_out"));
  net.layers.push_back(dropout_spec("drop7", "fc7_out", "fc7_drop"));
  net.layers.push_back(ip_spec("fc8", "fc7_drop", "fc8", classes));
  if (with_loss) {
    net.layers.push_back(softmax_loss_spec("loss", "fc8", "label", "loss"));
  }
  return net;
}

NetSpec resnet50(int batch, int classes, int image, bool with_loss) {
  NetSpec net;
  net.name = "resnet-50";
  net.inputs.push_back({"data", {batch, 3, image, image}});
  if (with_loss) net.inputs.push_back({"label", {batch}});

  net.layers.push_back(conv_spec("conv1", "data", "conv1", 64, 7, 2, 3));
  net.layers.push_back(bn_spec("bn_conv1", "conv1", "conv1_bn"));
  net.layers.push_back(relu_spec("conv1_relu", "conv1_bn", "conv1_out"));
  net.layers.push_back(
      pool_spec("pool1", "conv1_out", "pool1", PoolMethod::kMax, 3, 2));

  const int blocks_per_stage[4] = {3, 4, 6, 3};
  const int mid_channels[4] = {64, 128, 256, 512};
  std::string bottom = "pool1";
  for (int stage = 0; stage < 4; ++stage) {
    const int mid = mid_channels[stage];
    const int out = mid * 4;
    for (int blk = 0; blk < blocks_per_stage[stage]; ++blk) {
      const std::string id =
          "res" + std::to_string(stage + 2) + static_cast<char>('a' + blk);
      const int stride = (blk == 0 && stage > 0) ? 2 : 1;

      auto branch = [&](const std::string& suffix, const std::string& in,
                        int nout, int kernel, int s, int pad) -> std::string {
        const std::string cname = id + "_" + suffix;
        net.layers.push_back(conv_spec(cname, in, cname, nout, kernel, s, pad));
        net.layers.back().bias = false;  // BN provides the shift
        net.layers.push_back(bn_spec(cname + "_bn", cname, cname + "_bnout"));
        return cname + "_bnout";
      };

      std::string b = branch("branch2a", bottom, mid, 1, stride, 0);
      net.layers.push_back(relu_spec(id + "_2a_relu", b, b + "_relu"));
      b = branch("branch2b", b + "_relu", mid, 3, 1, 1);
      net.layers.push_back(relu_spec(id + "_2b_relu", b, b + "_relu"));
      b = branch("branch2c", b + "_relu", out, 1, 1, 0);

      std::string shortcut = bottom;
      if (blk == 0) {
        shortcut = branch("branch1", bottom, out, 1, stride, 0);
      }
      net.layers.push_back(eltwise_sum_spec(id, b, shortcut, id + "_sum"));
      net.layers.push_back(relu_spec(id + "_relu", id + "_sum", id + "_out"));
      bottom = id + "_out";
    }
  }
  net.layers.push_back(pool_spec("pool5", bottom, "pool5", PoolMethod::kAve, 7,
                                 1, 0, /*global_pool=*/true));
  net.layers.push_back(ip_spec("fc1000", "pool5", "fc1000", classes));
  if (with_loss) {
    net.layers.push_back(softmax_loss_spec("loss", "fc1000", "label", "loss"));
  }
  return net;
}

NetSpec googlenet(int batch, int classes, int image, bool with_loss) {
  NetSpec net;
  net.name = "googlenet";
  net.inputs.push_back({"data", {batch, 3, image, image}});
  if (with_loss) net.inputs.push_back({"label", {batch}});

  auto conv_relu = [&](const std::string& name, const std::string& bottom,
                       int out, int kernel, int stride, int pad) {
    net.layers.push_back(conv_spec(name, bottom, name, out, kernel, stride, pad));
    net.layers.push_back(relu_spec(name + "_relu", name, name + "_out"));
    return name + "_out";
  };

  std::string b = conv_relu("conv1/7x7_s2", "data", 64, 7, 2, 3);
  net.layers.push_back(
      pool_spec("pool1/3x3_s2", b, "pool1", PoolMethod::kMax, 3, 2));
  net.layers.push_back(lrn_spec("pool1/norm1", "pool1", "pool1_norm"));
  b = conv_relu("conv2/3x3_reduce", "pool1_norm", 64, 1, 1, 0);
  b = conv_relu("conv2/3x3", b, 192, 3, 1, 1);
  net.layers.push_back(lrn_spec("conv2/norm2", b, "conv2_norm"));
  net.layers.push_back(
      pool_spec("pool2/3x3_s2", "conv2_norm", "pool2", PoolMethod::kMax, 3, 2));
  b = "pool2";

  struct InceptionCfg {
    const char* id;
    int c1, c3r, c3, c5r, c5, pp;
  };
  const InceptionCfg cfgs[] = {
      {"3a", 64, 96, 128, 16, 32, 32},   {"3b", 128, 128, 192, 32, 96, 64},
      {"4a", 192, 96, 208, 16, 48, 64},  {"4b", 160, 112, 224, 24, 64, 64},
      {"4c", 128, 128, 256, 24, 64, 64}, {"4d", 112, 144, 288, 32, 64, 64},
      {"4e", 256, 160, 320, 32, 128, 128},
      {"5a", 256, 160, 320, 32, 128, 128},
      {"5b", 384, 192, 384, 48, 128, 128},
  };
  for (const auto& c : cfgs) {
    const std::string p = std::string("inception_") + c.id;
    const std::string b1 = conv_relu(p + "/1x1", b, c.c1, 1, 1, 0);
    std::string b3 = conv_relu(p + "/3x3_reduce", b, c.c3r, 1, 1, 0);
    b3 = conv_relu(p + "/3x3", b3, c.c3, 3, 1, 1);
    std::string b5 = conv_relu(p + "/5x5_reduce", b, c.c5r, 1, 1, 0);
    b5 = conv_relu(p + "/5x5", b5, c.c5, 5, 1, 2);
    net.layers.push_back(
        pool_spec(p + "/pool", b, p + "_pool", PoolMethod::kMax, 3, 1, 1));
    const std::string bp = conv_relu(p + "/pool_proj", p + "_pool", c.pp, 1, 1, 0);
    net.layers.push_back(concat_spec(p + "/output", {b1, b3, b5, bp}, p + "_out"));
    b = p + "_out";
    if (std::string(c.id) == "3b" || std::string(c.id) == "4e") {
      const std::string pool_name =
          std::string("pool") + (std::string(c.id) == "3b" ? "3" : "4") +
          "/3x3_s2";
      net.layers.push_back(
          pool_spec(pool_name, b, pool_name + "_out", PoolMethod::kMax, 3, 2));
      b = pool_name + "_out";
    }
  }
  net.layers.push_back(pool_spec("pool5/7x7_s1", b, "pool5", PoolMethod::kAve,
                                 7, 1, 0, /*global_pool=*/true));
  net.layers.push_back(dropout_spec("pool5/drop", "pool5", "pool5_drop", 0.4f));
  net.layers.push_back(ip_spec("loss3/classifier", "pool5_drop", "fc", classes));
  if (with_loss) {
    net.layers.push_back(softmax_loss_spec("loss", "fc", "label", "loss"));
  }
  return net;
}

}  // namespace swcaffe::core
