// Parallel synchronous SGD across simulated nodes (paper Sec. V-A).
//
// Functional trainer: N model replicas, each computes gradients on its
// sub-mini-batch, gradients of ALL layers are packed into one flat message
// (the paper's gradient-packing optimization) and combined with the chosen
// all-reduce; every node then applies the identical SGD update. The
// communication cost of each iteration is accounted with the topo cost
// model.
//
// Analytic scalability model: reproduces Figs. 10/11 at up to 1024 nodes
// without materializing 1024 replicas.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/models.h"
#include "core/net.h"
#include "core/solver.h"
#include "hw/cost_model.h"
#include "sim/thread_pool.h"
#include "swdnn/conv_plan.h"
#include "topo/allreduce.h"
#include "topo/compress.h"
#include "topo/overlap.h"

namespace swcaffe::parallel {

/// kHierarchical is the two-level supernode-aware all-reduce
/// (topo/hierarchical): supernode-local reduce-scatter, inter-supernode
/// improved RHD over chunk representatives, supernode-local all-gather.
/// Falls back to flat improved RHD when the topology can't be split
/// (see topo::hierarchical_applicable).
enum class AllreduceAlgo {
  kRhdAdjacent,
  kRhdRoundRobin,
  kRing,
  kParamServer,
  kHierarchical
};

const char* allreduce_algo_name(AllreduceAlgo algo);

/// Inverse of allreduce_algo_name ("rhd-adjacent" / "rhd-round-robin" /
/// "ring" / "param-server" / "hierarchical"); returns false on an unknown
/// name, leaving *out untouched. For CLI flag parsing.
bool allreduce_algo_from_name(const char* name, AllreduceAlgo* out);

/// Topology placement implied by the collective: only the paper's improved
/// RHD mapping deals ranks to supernodes round-robin; everything else keeps
/// the default adjacent mapping. Shared by SsgdTrainer and the cluster
/// scheduler's gang allocator (sched::Cluster), so a gang is laid out
/// exactly the way its collective expects to find the ranks.
topo::Placement placement_for(AllreduceAlgo algo);

struct SsgdOptions {
  AllreduceAlgo algo = AllreduceAlgo::kRhdRoundRobin;
  topo::NetParams net = topo::sunway_network();
  int supernode_size = 256;
  int param_servers = 1;
  /// Average (true, the paper's SSGD) or plain-sum gradients.
  bool average = true;
  /// Layer-aligned gradient buckets of the all-reduce (topo/overlap). 1 =
  /// the paper's single packed message. More buckets let the analytic
  /// overlap schedule hide collectives under backward; the functional
  /// reduction is elementwise and therefore bit-identical for any count.
  /// Clamps to the number of parameterized layers.
  int buckets = 1;
  /// Host worker threads for the replica forward/backward loop (wall-clock
  /// only; results are bit-identical to serial for any value). 1 = serial.
  int threads = 1;
  /// Gradient compression of the all-reduce payload (topo/compress). Each
  /// node encode/decodes its packed slice at the source with per-bucket
  /// error-feedback residuals, so the quantization error telescopes instead
  /// of accumulating; the collective then combines the decoded values, which
  /// keeps every algorithm's summation tree (and hence determinism) intact
  /// while the wire cost is priced at the compressed byte count. kInt8 is
  /// rejected for ring/param-server by swcheck (re-quantizing partial sums
  /// at every hop has no error bound).
  topo::Compression compression = topo::Compression::kNone;
  /// Timing-only mode (the swsim fast path): the trainer builds ONE
  /// prototype replica — enough to derive and verify the bucket layout from
  /// live layers — instead of num_nodes, and prices iterations through
  /// price_iteration() instead of training. The functional phases (step,
  /// forward_backward_packed, allreduce, apply) throw; there are no replica
  /// tensors to touch. Priced times are bit-identical to what the
  /// functional path charges (pinned by tests).
  bool timing_only = false;
};

/// One priced (not executed) SSGD iteration of the timing-only fast path.
struct TimedIteration {
  double comp_s = 0.0;  ///< forward + backward estimate (one node, 4 CGs)
  /// Serial-model all-reduce total: per-bucket collective costs summed in
  /// layer order, exactly how step() accumulates last_comm().
  topo::CostBreakdown comm;
  topo::OverlapTimeline overlap;  ///< bucketed schedule on the swsim engine
  double serial_s = 0.0;          ///< comp_s + comm.seconds
};

class SsgdTrainer {
 public:
  /// `spec` takes the PER-NODE sub-batch and declares "data"/"label" inputs.
  SsgdTrainer(const core::NetSpec& spec, int num_nodes,
              const core::SolverSpec& solver, const SsgdOptions& options,
              std::uint64_t seed = 1);

  /// One SSGD iteration over the global batch (= nodes * sub-batch).
  /// Returns the mean loss across nodes.
  double step(std::span<const float> data, std::span<const float> labels);

  // --- Split-phase API (step() == the three phases in order; the
  // fault-tolerant trainer interposes recovery between them) ----------------

  /// Forward/backward on every replica; packs each node's gradients into
  /// `grads[r]`. Returns the mean loss across nodes.
  double forward_backward_packed(std::span<const float> data,
                                 std::span<const float> labels,
                                 std::vector<std::vector<float>>& grads);

  /// In-place all-reduce of the packed per-node gradients with the
  /// configured algorithm; also stored as last_comm(). With buckets > 1
  /// this reduces bucket by bucket in network service order (reverse layer
  /// order) — elementwise identical to the single-message reduction.
  const topo::CostBreakdown& allreduce(std::vector<std::vector<float>>& grads);

  /// Per-bucket variant of the all-reduce phase: reduces only bucket `b`'s
  /// slice of every node's packed gradient and returns that bucket's own
  /// cost breakdown (the fault-tolerant trainer interposes per-bucket
  /// retry/replay between calls). Callers must reduce every bucket exactly
  /// once per iteration; allreduce() is the loop over all of them.
  const topo::CostBreakdown& allreduce_bucket(
      std::vector<std::vector<float>>& grads, int b);

  /// Scales (when averaging), unpacks and applies the SGD update per node;
  /// nodes run on the worker pool when options().threads > 1, bit-identical
  /// to the serial loop.
  void apply(std::vector<std::vector<float>>& grads);

  /// Applies one already-combined gradient verbatim to every node (the
  /// bounded-staleness path, where aggregation happened upstream).
  void apply_aggregate(std::span<const float> grad);

  /// Prices one iteration without touching replica tensors: compute from
  /// the analytic layer estimators (`descs_per_cg` must describe the same
  /// layer sequence as the replica, one descriptor per layer), per-bucket
  /// collectives at this trainer's exact bucket layout and pricing, and the
  /// overlapped schedule on the swsim engine. The engine's own event log is
  /// extracted (check::timeline_from_events) and verified by swsched before
  /// the numbers are returned. Available in both modes; the priced comm
  /// equals the functional step()'s last_comm() bit for bit.
  TimedIteration price_iteration(
      const hw::CostModel& cost,
      const std::vector<core::LayerDesc>& descs_per_cg,
      const std::map<std::string, dnn::ConvEstimate>* conv_overrides =
          nullptr) const;

  core::Net& node(int i) { return *nets_[i]; }
  core::SgdSolver& solver(int i) { return *solvers_[i]; }
  const SsgdOptions& options() const { return options_; }
  /// Simulated cluster size (in timing-only mode only ONE replica exists —
  /// the prototype at node(0) — but pricing still spans this many nodes).
  int num_nodes() const { return topo_.num_nodes; }
  const topo::CostBreakdown& last_comm() const { return last_comm_; }
  int iter() const { return solvers_[0]->iter(); }

  /// The layer-aligned bucket layout (built in the constructor from the
  /// replica's live per-layer parameter counts, verified by swcheck).
  const std::vector<topo::GradientBucket>& bucket_layout() const {
    return buckets_;
  }
  int num_buckets() const { return static_cast<int>(buckets_.size()); }
  /// Per-bucket breakdowns of the latest iteration, indexed like
  /// bucket_layout() (layer order, not service order).
  const std::vector<topo::CostBreakdown>& last_comm_buckets() const {
    return last_comm_buckets_;
  }

  /// Attaches an optional tracer: each step()'s all-reduce is recorded as a
  /// "comm.allreduce" span with alpha/beta/gamma counters on `track`.
  void set_tracer(trace::Tracer* tracer, int track = 0) {
    tracer_ = tracer;
    trace_track_ = track;
  }

 private:
  SsgdOptions options_;
  topo::Topology topo_;
  /// Topology placement of the configured algorithm; computed once here
  /// instead of per allreduce() call.
  topo::Placement placement_ = topo::Placement::kRoundRobin;
  std::vector<std::unique_ptr<core::Net>> nets_;
  std::vector<std::unique_ptr<core::SgdSolver>> solvers_;
  std::vector<topo::GradientBucket> buckets_;
  std::vector<std::size_t> bucket_offset_;  ///< float offset of each bucket
  std::vector<topo::CostBreakdown> last_comm_buckets_;
  topo::CostBreakdown last_comm_;
  std::unique_ptr<sim::ThreadPool> pool_;  ///< null when options_.threads <= 1
  /// Per-node error-feedback residuals (param_count floats each); empty
  /// when compression is kNone. Residuals persist across iterations — the
  /// carry is what bounds the accumulated quantization drift.
  std::vector<std::vector<float>> residual_;
  trace::Tracer* tracer_ = nullptr;
  int trace_track_ = 0;

  /// Cost of the configured collective over `bytes` on this trainer's
  /// topology (pricing only; no data movement).
  topo::CostBreakdown cost_for_bytes(std::int64_t bytes) const;
  /// Runs body(r) for every replica r, on the worker pool when configured.
  /// Bodies must touch only replica r's state.
  void for_each_replica(const std::function<void(int)>& body);
};

/// One point of the Fig. 10/11 curves.
struct ScalePoint {
  int nodes = 1;
  double comp_s = 0.0;       ///< per-iteration compute (node, 4 CGs)
  double comm_s = 0.0;       ///< per-iteration all-reduce (serial model)
  double speedup = 1.0;      ///< throughput(N) / throughput(1)
  double comm_fraction = 0;  ///< comm / (comp + comm)
  // Overlapped (bucketed) series at SsgdOptions::buckets. With buckets == 1
  // these reproduce the serial model bit-for-bit (overlap_s == comp + comm).
  double overlap_s = 0.0;         ///< overlapped iteration time
  double exposed_comm_s = 0.0;    ///< comm tail sticking out past compute
  double overlap_speedup = 1.0;   ///< nodes * comp / overlap_s
  int buckets = 1;                ///< effective bucket count (post-clamp)
};

/// Analytic scalability: `descs_per_cg` describes the net at sub_batch/4
/// (one core group's share, Algorithm 1); `param_bytes` is the packed
/// gradient message. `conv_overrides` (optional) prices convolutions at
/// tuned plans (swtune), so topo scheduling sees the tuned compute time.
/// `options.buckets` > 1 additionally fills the overlapped series: per-layer
/// descriptor bytes are rescaled to sum to `param_bytes`, bucketed with
/// topo::make_buckets and scheduled with topo::schedule_overlap against the
/// per-layer backward times.
std::vector<ScalePoint> scalability_curve(
    const hw::CostModel& cost, const std::vector<core::LayerDesc>& descs_per_cg,
    std::int64_t param_bytes, const SsgdOptions& options,
    const std::vector<int>& node_counts,
    const std::map<std::string, dnn::ConvEstimate>* conv_overrides = nullptr);

}  // namespace swcaffe::parallel
