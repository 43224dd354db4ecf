// ssgd-train: functional synchronous SGD on AlexNet-BN at the reduced
// resolution swcaffe_time uses (batch 2 per node, 10 classes, 67x67), four
// simulated nodes, four gradient buckets, rhd-round-robin, two host
// threads. Closed loop: each step runs forward_backward_packed -> allreduce
// -> apply on a fresh seeded batch. The only workload that runs real float
// math (weight init, conv/GEMM kernels, the functional all-reduce).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "base/rng.h"
#include "core/models.h"
#include "core/net.h"
#include "hw/cost_model.h"
#include "parallel/ssgd.h"
#include "swdnn/conv_func.h"
#include "swgemm/reference.h"
#include "tensor/filler.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kNodes = 4;
constexpr int kSubBatch = 2;
constexpr int kClasses = 10;
constexpr int kImage = 67;
constexpr int kSetupReps = 3;
constexpr int kGemmN = 256;
constexpr int kProbeReps = 5;

struct Batch {
  std::vector<float> data;
  std::vector<float> labels;
};

Batch make_batch(std::uint64_t seed, int step, std::size_t data_per_node,
                 std::size_t labels_per_node) {
  SplitMix rng(derive_seed(seed, 1000 + static_cast<std::uint64_t>(step)));
  Batch b;
  b.data.resize(data_per_node * kNodes);
  b.labels.resize(labels_per_node * kNodes);
  for (float& v : b.data) v = static_cast<float>(2.0 * rng.uniform() - 1.0);
  for (float& v : b.labels) {
    v = static_cast<float>(rng.next() % static_cast<std::uint64_t>(kClasses));
  }
  return b;
}

void fill_uniform(std::vector<float>& v, SplitMix& rng) {
  for (float& x : v) x = static_cast<float>(rng.uniform() - 0.5);
}

bool same_comm(const swcaffe::topo::CostBreakdown& a,
               const swcaffe::topo::CostBreakdown& b) {
  return std::memcmp(&a.seconds, &b.seconds, sizeof a.seconds) == 0 &&
         a.alpha_terms == b.alpha_terms &&
         std::memcmp(&a.beta1_bytes, &b.beta1_bytes, sizeof(double)) == 0 &&
         std::memcmp(&a.beta2_bytes, &b.beta2_bytes, sizeof(double)) == 0 &&
         std::memcmp(&a.gamma_bytes, &b.gamma_bytes, sizeof(double)) == 0;
}

/// Traced-run probes: single public calls of core, tensor, swgemm and swdnn
/// timed on their own, each its own op, outside the step loop.
void probe_layers(const swcaffe::core::NetSpec& spec, std::uint64_t seed,
                  const swcaffe::core::Net& replica, Recorder& rec) {
  using namespace swcaffe;
  std::unique_ptr<core::Net> net;
  {
    Span s(rec, "core.net_ctor", rec.next_op());
    net = std::make_unique<core::Net>(spec, derive_seed(seed, 2));
  }
  {
    Span s(rec, "core.copy_params", rec.next_op());
    net->copy_params_from(replica);
  }
  // tensor::fill of the largest weight.
  tensor::Tensor* largest = nullptr;
  for (tensor::Tensor* t : net->learnable_params()) {
    if (!largest || t->count() > largest->count()) largest = t;
  }
  base::Rng fill_rng(derive_seed(seed, 3));
  for (int i = 0; i < kProbeReps; ++i) {
    Span s(rec, "tensor.fill", rec.next_op());
    tensor::fill(*largest, tensor::FillerSpec::gaussian(0.0f, 0.01f),
                 fill_rng);
  }
  // One replica's forward and backward on a seeded batch.
  SplitMix rng(derive_seed(seed, 4));
  for (float& v : net->blob("data")->data()) {
    v = static_cast<float>(2.0 * rng.uniform() - 1.0);
  }
  for (float& v : net->blob("label")->data()) {
    v = static_cast<float>(rng.next() % static_cast<std::uint64_t>(kClasses));
  }
  for (int i = 0; i < kProbeReps; ++i) {
    const int op = rec.next_op();
    {
      Span s(rec, "core.forward", op);
      net->forward();
    }
    Span s(rec, "core.backward", op);
    net->backward();
  }
  // Host reference GEMM at n = 256.
  std::vector<float> a(kGemmN * kGemmN), b(kGemmN * kGemmN),
      c(kGemmN * kGemmN);
  fill_uniform(a, rng);
  fill_uniform(b, rng);
  for (int i = 0; i < kProbeReps; ++i) {
    Span s(rec, "swgemm.sgemm", rec.next_op());
    gemm::sgemm(false, false, kGemmN, kGemmN, kGemmN, 1.0f, a.data(),
                b.data(), 0.0f, c.data());
  }
  rec.counter("swgemm.sgemm_flops", 2.0 * kGemmN * kGemmN * kGemmN);
  // The net's heaviest convolution through the implicit kernel.
  const std::vector<core::LayerDesc> descs = net->describe();
  const core::LayerDesc* heavy = nullptr;
  for (const core::LayerDesc& d : descs) {
    if (d.kind != core::LayerKind::kConv) continue;
    if (!heavy || d.conv.flops_fwd() > heavy->conv.flops_fwd()) heavy = &d;
  }
  const core::ConvGeom& g = heavy->conv;
  std::vector<float> bottom(static_cast<std::size_t>(g.batch) * g.in_c *
                            g.in_h * g.in_w);
  std::vector<float> weight(static_cast<std::size_t>(g.out_c) *
                            (g.in_c / g.group) * g.kernel * g.kernel);
  std::vector<float> bias(static_cast<std::size_t>(g.out_c));
  std::vector<float> top(static_cast<std::size_t>(g.batch) * g.out_c *
                         g.out_h() * g.out_w());
  fill_uniform(bottom, rng);
  fill_uniform(weight, rng);
  fill_uniform(bias, rng);
  for (int i = 0; i < kProbeReps; ++i) {
    Span s(rec, "swdnn.conv_forward_implicit", rec.next_op());
    dnn::conv_forward_implicit(g, bottom.data(), weight.data(), bias.data(),
                               top.data());
  }
}

}  // namespace

void run_ssgd_train(const Args& args, Recorder& rec) {
  using namespace swcaffe;
  const core::NetSpec spec = core::alexnet_bn(kSubBatch, kClasses, kImage);
  core::SolverSpec solver;
  solver.base_lr = 0.001f;  // keeps the loss finite on random labels
  parallel::SsgdOptions opt;
  opt.algo = parallel::AllreduceAlgo::kRhdRoundRobin;
  opt.buckets = 4;
  opt.threads = 2;
  opt.supernode_size = 2;  // two supernodes: both link levels carry bytes
  const std::uint64_t weight_seed = derive_seed(args.seed, 1);
  const hw::CostModel cost;

  // Setup: trainer construction (net build, weight init, replica copies,
  // bucket layout). The median of several constructions is setup_s.
  std::unique_ptr<parallel::SsgdTrainer> trainer;
  rec.set_tracing(args.trace);
  const int reps = args.trace ? 1 : kSetupReps;
  for (int r = 0; r < reps; ++r) {
    trainer.reset();
    const bool ok = timed_setup(rec, ref_sort_s, [&](int op, OpCheck&) {
      Span s(rec, "parallel.trainer_ctor", op);
      trainer = std::make_unique<parallel::SsgdTrainer>(spec, kNodes, solver,
                                                        opt, weight_seed);
    });
    if (!ok) return;
  }
  if (args.trace) probe_layers(spec, args.seed, trainer->node(0), rec);

  const std::size_t dpn = trainer->node(0).blob("data")->count();
  const std::size_t lpn = trainer->node(0).blob("label")->count();
  std::vector<std::vector<float>> grads(kNodes);
  double wire_bytes = -1.0;
  int step = 0;
  const auto run_step = [&](int op, const char* warmup) {
    const char* kind = warmup ? warmup : "step";
    const double items = warmup ? 0.0 : static_cast<double>(kNodes * kSubBatch);
    const Batch batch = make_batch(args.seed, step++, dpn, lpn);
    OpCheck check{rec, kind};
    double loss = 0.0;
    const double t0 = now_s();
    guarded(check, [&] {
      Span root(rec, "op.step", op);
      {
        Span s(rec, "parallel.forward_backward", op);
        loss = trainer->forward_backward_packed(batch.data, batch.labels,
                                                grads);
      }
      {
        Span s(rec, "parallel.allreduce", op);
        trainer->allreduce(grads);
      }
      Span s(rec, "parallel.apply", op);
      trainer->apply(grads);
    });
    const double wall = now_s() - t0;
    check.expect(std::isfinite(loss), "loss is not finite");
    const topo::CostBreakdown& comm = trainer->last_comm();
    const double wire = comm.beta1_bytes + comm.beta2_bytes;
    check.expect(wire_bytes < 0.0 || wire == wire_bytes,
                 "wire bytes changed between steps");
    wire_bytes = wire;
    rec.record_op({op, kind, wall, items, check.ok});
  };
  run_phases(args, rec, 3, ref_sort_s, run_step);
  rec.counter("topo.wire_bytes_per_step", wire_bytes);

  // Output checks of the whole run.
  {
    OpCheck check{rec, "check.replicas"};
    guarded(check, [&] {
      const std::size_t n = trainer->node(0).param_count();
      std::vector<float> ref(n), other(n);
      trainer->node(0).pack_params(ref);
      for (int r = 1; r < kNodes; ++r) {
        trainer->node(r).pack_params(other);
        check.expect(std::memcmp(ref.data(), other.data(), n * sizeof(float)) ==
                         0,
                     "replica " + std::to_string(r) + " parameters differ");
      }
    });
    rec.record_op({rec.next_op(), "check", 0.0, 0.0, check.ok});
  }
  {
    OpCheck check{rec, "check.price_iteration"};
    guarded(check, [&] {
      const std::vector<core::LayerDesc> descs = core::describe_net_spec(spec);
      const int reps_priced = args.trace ? kProbeReps : 1;
      parallel::TimedIteration first;
      for (int i = 0; i < reps_priced; ++i) {
        parallel::TimedIteration it;
        {
          Span s(rec, "parallel.price_iteration", rec.next_op());
          it = trainer->price_iteration(cost, descs);
        }
        if (i == 0) first = it;
        check.expect(same_comm(it.comm, first.comm) &&
                         it.overlap.finish_s == first.overlap.finish_s,
                     "price_iteration is not repeatable");
      }
      check.expect(same_comm(first.comm, trainer->last_comm()),
                   "price_iteration().comm differs from last_comm()");
      rec.sim("sim.train_img_per_s",
              kNodes * kSubBatch / first.overlap.finish_s);
      rec.sim("sim.train_comm_s", first.comm.seconds);
      rec.sim("sim.train_exposed_comm_s", first.overlap.exposed_comm_s);
    });
    rec.record_op({rec.next_op(), "check", 0.0, 0.0, check.ok});
  }
}

}  // namespace perfbench
