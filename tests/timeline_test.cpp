// swsched: every timeline diagnostic fires on a deliberately broken
// schedule, stays silent on the schedules the stack actually ships
// (overlapped all-reduce at every bucket count, the serving simulator's own
// records, the default retry ladder, composed RHD collectives), the
// analysis itself is pure — same graph, byte-identical report — and the
// serving extractor emits, byte for byte, the graph of its quadratic
// original.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "base/rng.h"
#include "check/plan_model.h"
#include "check/timeline.h"
#include "check/timeline_extract.h"
#include "check/timeline_io.h"
#include "core/models.h"
#include "hw/cost_model.h"
#include "serve/arrival.h"
#include "serve/batcher.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "topo/overlap.h"
#include "trace/json.h"

namespace swcaffe::check {
namespace {

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A hand-laid two-bucket overlap schedule over two layers (bwd 1 s each,
/// forward 1 s, compute end at t = 3). Bucket 0 carries layer 1 (ready at
/// t = 2), bucket 1 carries layer 0 (ready at t = 3, the compute end).
topo::OverlapTimeline two_bucket_timeline() {
  topo::OverlapTimeline tl;
  topo::BucketTiming b0;
  b0.bucket = {1, 1, 60};
  b0.ready_s = 2.0;
  b0.start_s = 2.0;
  b0.end_s = 2.8;
  topo::BucketTiming b1;
  b1.bucket = {0, 0, 40};
  b1.ready_s = 3.0;
  b1.start_s = 3.0;
  b1.end_s = 3.7;
  tl.buckets = {b0, b1};
  tl.compute_s = 3.0;
  tl.finish_s = 3.7;
  return tl;
}

const std::vector<double> kTwoLayerBwd = {1.0, 1.0};

/// One admitted request riding one batch, with every field consistent.
void one_request_one_batch(double arrival_s, double launch_s, double finish_s,
                           std::vector<serve::RequestRecord>* requests,
                           std::vector<serve::BatchRecord>* batches) {
  serve::RequestRecord r;
  r.id = 0;
  r.arrival_s = arrival_s;
  r.admitted = true;
  r.batch = 0;
  r.launch_s = launch_s;
  r.finish_s = finish_s;
  serve::BatchRecord b;
  b.id = 0;
  b.size = 1;
  b.first_arrival_s = arrival_s;
  b.launch_s = launch_s;
  b.finish_s = finish_s;
  b.forward_s = finish_s - launch_s;
  requests->push_back(r);
  batches->push_back(b);
}

// ---------------------------------------------------------------------------
// Seeded-broken schedules: each diagnostic fires
// ---------------------------------------------------------------------------

TEST(TimelineBroken, CollectiveBeforeBackwardSliceFiresCausality) {
  // Bucket 0 needs layer 1's backward (done at t = 2) but starts at 1.5.
  // The producer edge is re-derived from layer indices, so the schedule's
  // own (lying) ready_s cannot hide the violation.
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].ready_s = 1.5;
  tl.buckets[0].start_s = 1.5;
  const Report report = verify_timeline(
      timeline_from_overlap("early-ar", kTwoLayerBwd, 3.0, tl));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCausality));
}

TEST(TimelineBroken, DoubleBookedNetworkFiresOverlap) {
  // Bucket 1 starts at 3.5 — legal causally (its slice is done at 3.0) but
  // inside bucket 0's stretched collective [2, 4] on the exclusive link.
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].end_s = 4.0;
  tl.buckets[1].start_s = 3.5;
  tl.buckets[1].end_s = 4.5;
  tl.finish_s = 4.5;
  const Report report = verify_timeline(
      timeline_from_overlap("double-booked", kTwoLayerBwd, 3.0, tl));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineOverlap));
  EXPECT_FALSE(report.has(Code::kTimelineCausality));
}

TEST(TimelineBroken, ByteLosingBucketSplitFiresBytes) {
  // The buckets move 100 B but the packed-gradient ledger expects 128.
  const Report report = verify_timeline(timeline_from_overlap(
      "byte-loss", kTwoLayerBwd, 3.0, two_bucket_timeline(), 128));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineBytes));
  // With the matching ledger the same schedule conserves.
  EXPECT_TRUE(verify_timeline(timeline_from_overlap(
                  "byte-ok", kTwoLayerBwd, 3.0, two_bucket_timeline(), 100))
                  .empty());
}

TEST(TimelineBroken, RetryLadderPastTimeoutWarnsDeadline) {
  // Six attempts of 0.1 s plus geometric backoff cannot fit a 0.2 s
  // escalation timeout. Dead code, not corruption: a warning, and the
  // report still counts as ok().
  RetryPlan plan;
  plan.name = "slow-ladder";
  plan.max_attempts = 6;
  plan.round_time_s = 0.1;
  plan.backoff_base_s = 0.01;
  plan.timeout_s = 0.2;
  const Report report = verify_timeline(timeline_from_retry(plan, 2));
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.warning_count(), 0);
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, ServingSloMissFiresDeadline) {
  // Finish at t = 10 against an SLO of 1 s after a t = 0 arrival.
  std::vector<serve::RequestRecord> requests;
  std::vector<serve::BatchRecord> batches;
  one_request_one_batch(0.0, 0.5, 10.0, &requests, &batches);
  ServingContract contract;
  contract.slo_s = 1.0;
  contract.max_delay_s = 0.5;
  contract.max_batch = 1;
  contract.max_batch_forward_s = 1.0;
  const Report report = verify_timeline(
      timeline_from_serving("slo-miss", requests, batches, contract));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, ServingAdmissionBoundViolationFiresDeadline) {
  // The SLO itself is generous (100 s), but the re-derived admission bound
  // for an arrival at t = 0 with an empty queue is
  // max_delay + f(max_batch) = 1.5 s — a batch that idles until t = 5
  // finished later than any sound batcher could have promised.
  std::vector<serve::RequestRecord> requests;
  std::vector<serve::BatchRecord> batches;
  one_request_one_batch(0.0, 5.0, 6.0, &requests, &batches);
  ServingContract contract;
  contract.slo_s = 100.0;
  contract.max_delay_s = 0.5;
  contract.max_batch = 1;
  contract.max_batch_forward_s = 1.0;
  const Report report = verify_timeline(
      timeline_from_serving("lazy-batcher", requests, batches, contract));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineDeadline));
}

TEST(TimelineBroken, CrossPhaseCommCycleFiresCycle) {
  // Phase 0: both ranks post a receive. Phase 1: both ranks send. Each
  // phase alone is cycle-free (no matched pair completes a loop), but the
  // composition matches rank 1's send to rank 0's earlier receive and vice
  // versa: recv0 -> send0 -> recv1 -> send1 -> recv0. This is exactly the
  // deadlock the per-plan FIFO rule cannot see.
  CommSchedule recvs;
  recvs.name = "phase-recv";
  recvs.mesh = false;
  recvs.ops.push_back({CommOp::Kind::kRecvRow, 0, 0, -1, -1, 8});
  recvs.ops.push_back({CommOp::Kind::kRecvRow, 1, 0, -1, -1, 8});
  CommSchedule sends;
  sends.name = "phase-send";
  sends.mesh = false;
  sends.ops.push_back({CommOp::Kind::kSend, 0, 0, 1, 0, 8});
  sends.ops.push_back({CommOp::Kind::kSend, 1, 0, 0, 0, 8});
  const Report report =
      verify_timeline(timeline_from_comm("cross-phase", {recvs, sends}));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCycle));
  // Reversed composition (send, then receive) is the sound ordering.
  EXPECT_TRUE(
      verify_timeline(timeline_from_comm("sound", {sends, recvs})).ok());
}

TEST(TimelineBroken, UnorderedWritesFireRace) {
  TimelineGraph g;
  g.name = "racy";
  const int a0 = g.add_actor("worker0");
  const int a1 = g.add_actor("worker1");
  TimelineEvent w0;
  w0.name = "store A";
  w0.actor = a0;
  w0.accesses.push_back({"params", true});
  TimelineEvent w1;
  w1.name = "store B";
  w1.actor = a1;
  w1.accesses.push_back({"params", true});
  const int e0 = g.add_event(w0);
  g.add_event(w1);
  const Report racy = verify_timeline(g);
  EXPECT_FALSE(racy.ok());
  EXPECT_TRUE(racy.has(Code::kTimelineRace));

  // One synchronization edge orders the writes and silences the pass.
  TimelineGraph ordered = g;
  ordered.add_edge(e0, 1, "handoff");
  EXPECT_TRUE(verify_timeline(ordered).ok());
}

TEST(TimelineBroken, MalformedGraphIsGeomInvalid) {
  TimelineGraph g;
  g.name = "malformed";
  g.add_actor("lane");
  TimelineEvent e;
  e.name = "backwards";
  e.start_s = 2.0;
  e.end_s = 1.0;  // end < start
  g.add_event(e);
  const Report report = verify_timeline(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kGeomInvalid));
}

// ---------------------------------------------------------------------------
// Shipped schedules stay silent
// ---------------------------------------------------------------------------

TEST(TimelineSilent, OverlapSilentAcrossAllBucketCounts) {
  // A VGG-ish tail-heavy layer mix under the alpha + bytes/bw cost model:
  // the real pipeline (make_buckets -> schedule_overlap -> extractor) must
  // verify silent for every shipped bucket count.
  const std::vector<std::int64_t> layer_bytes = {
      9'000'000, 2'400'000, 0, 590'000, 37'000'000, 0, 16'800'000, 4'100'000};
  std::vector<double> bwd(layer_bytes.size());
  std::int64_t total = 0;
  for (std::size_t i = 0; i < layer_bytes.size(); ++i) {
    bwd[i] = 0.8e-3 + static_cast<double>(i % 3) * 0.4e-3;
    total += layer_bytes[i];
  }
  double compute = 0.0;
  for (double b : bwd) compute += b;
  compute *= 2.0;  // forward roughly mirrors backward
  const auto cost = [](std::int64_t bytes) {
    topo::CostBreakdown c;
    c.seconds = 1e-6 + static_cast<double>(bytes) / 12e9;
    c.alpha_terms = 1;
    return c;
  };
  for (int k = 1; k <= 8; ++k) {
    const std::vector<topo::GradientBucket> buckets =
        topo::make_buckets(layer_bytes, k);
    const topo::OverlapTimeline tl =
        topo::schedule_overlap(buckets, bwd, compute, cost);
    const Report report = verify_timeline(timeline_from_overlap(
        "overlap-k" + std::to_string(k), bwd, compute, tl, total));
    EXPECT_TRUE(report.empty()) << "k=" << k << ": " << report.summary();
  }
}

TEST(TimelineSilent, ServingSimulatorRecordsVerifySilent) {
  // The batcher already self-verifies (a failure would throw from
  // simulate_serving); re-extracting here additionally pins that the
  // records stay silent under a saturating deterministic load.
  const hw::CostModel cost;
  serve::EngineOptions eopts;
  eopts.max_batch = 4;
  const serve::InferenceEngine engine(
      cost, "alexnet-small",
      [](int b) { return core::alexnet_bn(b, 10, 67, false); }, eopts);
  const double f1 = engine.batch_time(1);
  std::vector<double> arrivals;
  for (int i = 0; i < 40; ++i) {
    arrivals.push_back(static_cast<double>(i) * 0.6 * f1);
  }
  serve::ServeOptions opts;
  opts.batcher.max_batch = 4;
  opts.batcher.max_delay_s = 0.5 * f1;
  opts.admission.enabled = true;
  opts.admission.slo_s = 20.0 * f1;
  const serve::ServeResult res = simulate_serving(engine, arrivals, opts);
  EXPECT_GT(res.admitted, 0);
  ServingContract contract;
  contract.slo_s = opts.admission.slo_s;
  contract.max_delay_s = opts.batcher.max_delay_s;
  contract.max_batch = opts.batcher.max_batch;
  contract.max_batch_forward_s = engine.batch_time(4);
  const Report report = verify_timeline(
      timeline_from_serving("serve", res.requests, res.batches, contract));
  EXPECT_TRUE(report.empty()) << report.summary();
}

TEST(TimelineSilent, DefaultRetryLadderVerifiesSilent) {
  // swfault's default policy: 6 attempts, 20 us backoff base, 0.5 s
  // escalation timeout — the ladder fits with slack for eager-sized rounds.
  RetryPlan plan;
  plan.name = "defaults";
  plan.max_attempts = 6;
  plan.backoff_base_s = 20e-6;
  plan.timeout_s = 0.5;
  plan.round_bytes = 2048;
  plan.round_time_s = 1.5e-6 + 2048.0 / 12e9;
  EXPECT_TRUE(verify_timeline(timeline_from_retry(plan, 3)).empty());
}

TEST(TimelineSilent, ComposedRhdPhasesVerifySilent) {
  // Four per-bucket RHD collectives run back to back — the composition the
  // bucketed trainer actually executes — must stay cycle- and race-free.
  std::vector<CommSchedule> phases;
  for (int bucket = 0; bucket < 4; ++bucket) {
    phases.push_back(rhd_allreduce_schedule(8));
  }
  EXPECT_TRUE(verify_timeline(timeline_from_comm("rhd-x4", phases)).ok());
}

TEST(TimelineSilent, ComposedHierarchicalPhasesVerifySilent) {
  // The three-phase hierarchical decomposition (supernode-local
  // reduce-scatter -> inter-supernode RHD -> local all-gather) composed
  // through timeline_from_comm: the phase ordering must be race- and
  // cycle-free for engaging geometries, clean and ragged alike.
  for (auto [nodes, q] : {std::pair{16, 4}, {24, 8}, {1024, 256}}) {
    const std::vector<CommSchedule> phases =
        hierarchical_allreduce_phases(nodes, q);
    ASSERT_EQ(phases.size(), 3u) << nodes << "/" << q;
    const Report report =
        verify_timeline(timeline_from_comm("hier-comm", phases));
    EXPECT_TRUE(report.ok()) << nodes << "/" << q << ": " << report.summary();
  }
}

TEST(TimelineBroken, ReversedHierarchicalPhaseOrderFiresCycle) {
  // Reversing the op order inside the inter-supernode phase turns every
  // send-then-receive exchange into receive-then-send on BOTH partners of
  // each RHD step: mutual recv-before-send is a happens-before cycle the
  // composed timeline must reject (each op alone is still well-formed).
  std::vector<CommSchedule> phases = hierarchical_allreduce_phases(16, 4);
  std::reverse(phases[1].ops.begin(), phases[1].ops.end());
  const Report report =
      verify_timeline(timeline_from_comm("hier-reversed", phases));
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineCycle)) << report.summary();
}

TEST(TimelineSilent, ErrorFeedbackResidualCarryVerifiesSilent) {
  // Three compressed iterations over two buckets: residual writes are
  // ordered by the explicit per-bucket carry edges and the wire ledger
  // conserves iters * sum(bucket bytes).
  const Report report = verify_timeline(
      timeline_from_ef("ef-carry", 3, {1 << 16, 3 << 14}));
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(TimelineBroken, StrippedResidualCarryEdgesFireRace) {
  // Without the carry edges, iteration t and t+1 both write residual<b>
  // with no happens-before: exactly the race a trainer that parallelized
  // iterations over the shared residual buffers would introduce.
  TimelineGraph g = timeline_from_ef("ef-stripped", 3, {1 << 16, 3 << 14});
  std::vector<TimelineEdge> kept;
  for (const TimelineEdge& e : g.edges) {
    if (e.why != "residual carry") kept.push_back(e);
  }
  ASSERT_LT(kept.size(), g.edges.size());  // the extractor did emit them
  g.edges = std::move(kept);
  const Report report = verify_timeline(g);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.has(Code::kTimelineRace)) << report.summary();
}

// ---------------------------------------------------------------------------
// Purity and JSON round-trip
// ---------------------------------------------------------------------------

TEST(TimelineInfra, AnalysisIsPureByteIdentical) {
  topo::OverlapTimeline tl = two_bucket_timeline();
  tl.buckets[0].start_s = 1.0;  // broken: diagnostics exercise the printer
  const TimelineGraph g =
      timeline_from_overlap("pure", kTwoLayerBwd, 3.0, tl, 77);
  std::ostringstream first, second;
  verify_timeline(g).print(first);
  verify_timeline(g).print(second);
  EXPECT_FALSE(first.str().empty());
  EXPECT_EQ(first.str(), second.str());
  EXPECT_EQ(timeline_to_json(g), timeline_to_json(g));
}

TEST(TimelineInfra, JsonRoundTripIsByteIdentical) {
  std::vector<TimelineGraph> graphs;
  graphs.push_back(timeline_from_overlap("rt-overlap", kTwoLayerBwd, 3.0,
                                         two_bucket_timeline(), 100));
  RetryPlan plan;
  plan.name = "rt-retry";
  plan.max_attempts = 3;
  plan.backoff_base_s = 1e-5;
  plan.round_time_s = 1e-4;
  plan.timeout_s = 0.25;
  graphs.push_back(timeline_from_retry(plan, 2, 0.125));
  const std::string exported = timelines_to_json(graphs);
  std::vector<TimelineGraph> reloaded;
  std::string error;
  ASSERT_TRUE(timelines_from_json(exported, &reloaded, &error)) << error;
  ASSERT_EQ(reloaded.size(), graphs.size());
  EXPECT_EQ(timelines_to_json(reloaded), exported);
  // The reloaded graphs carry the same verdicts as the originals.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    std::ostringstream a, b;
    verify_timeline(graphs[i]).print(a);
    verify_timeline(reloaded[i]).print(b);
    EXPECT_EQ(a.str(), b.str());
  }
}

TEST(TimelineInfra, JsonParseFailureReportsOffset) {
  TimelineGraph g;
  std::string error;
  EXPECT_FALSE(timeline_from_json("{\"name\": }", &g, &error));
  EXPECT_NE(error.find("offset"), std::string::npos);
  EXPECT_FALSE(timeline_from_json("[1, 2", &g, &error));
  std::vector<TimelineGraph> graphs;
  EXPECT_FALSE(timelines_from_json("nope", &graphs, &error));
}

// ---------------------------------------------------------------------------
// Same-output oracle: the serving extractor against its quadratic original
// ---------------------------------------------------------------------------

std::string req_state(std::int64_t id) {
  return "req" + std::to_string(id);
}

/// The serving extractor before its O((R + B) log R) rewrite, copied
/// verbatim: members by a scan of every request per batch, and per member a
/// rescan of the batches ahead (busy horizon) and of every request (queued
/// ahead). The fast extractor must emit this graph byte for byte.
TimelineGraph oracle_timeline_from_serving(
    const std::string& name, const std::vector<serve::RequestRecord>& requests,
    const std::vector<serve::BatchRecord>& batches,
    const ServingContract& contract) {
  TimelineGraph g;
  g.name = name;
  const int client_actor = g.add_actor("client");
  const int server_actor = g.add_actor("server");
  const int server_res = g.add_resource("server");

  // One ledger per batch: the arrivals that claim membership must sum to
  // exactly the batch's recorded size (requests are conserved — none shed
  // into a batch, none invented).
  std::vector<int> batch_ledger(batches.size(), -1);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batch_ledger[b] = g.add_ledger("batch" + std::to_string(batches[b].id),
                                   batches[b].size);
  }

  // Client lane: admitted arrivals in id order (the FIFO admission order).
  std::vector<int> arrival_event(requests.size(), -1);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const serve::RequestRecord& r = requests[i];
    if (!r.admitted) continue;
    TimelineEvent arrive;
    arrive.name = "arrive req" + std::to_string(r.id);
    arrive.actor = client_actor;
    arrive.start_s = r.arrival_s;
    arrive.end_s = r.arrival_s;
    arrive.bytes = 1;
    if (r.batch >= 0 && r.batch < static_cast<int>(batches.size())) {
      arrive.ledger = batch_ledger[static_cast<std::size_t>(r.batch)];
    }
    arrive.accesses.push_back(StateAccess{req_state(r.id), true});
    arrival_event[i] = g.add_event(std::move(arrive));
  }

  // Server lane: batches in launch order on the exclusive engine, each
  // reading its members' request slots; members' completions ride directly
  // behind their batch so program order matches simulated time.
  //
  // Each member also gets a "bound" point event whose hard deadline is the
  // admission upper bound RE-DERIVED from the records alone:
  //
  //   max(busy horizon at arrival, arrival + max_delay)
  //     + (queued-ahead / max_batch + 1) * f(max_batch)
  //
  // Both terms are conservative over-approximations of the state the
  // batcher saw, so the derived bound is never below the bound the batcher
  // actually promised — a finish that beats the batcher's bound always
  // beats this one, and a finish that breaks it is a genuine
  // admission-soundness violation. Concretely: the busy horizon counts any
  // batch that COULD have been formed by the arrival (every batch ahead of
  // the request's own in FIFO order — formation can precede the batch's
  // placed start on the busy engine, so filtering on recorded launch times
  // would under-count), and queued-ahead counts every earlier admitted
  // request not provably launched before the arrival.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const serve::BatchRecord& batch = batches[b];
    TimelineEvent run;
    run.name = "batch" + std::to_string(batch.id) + " (x" +
               std::to_string(batch.size) + ")";
    run.actor = server_actor;
    run.resource = server_res;
    run.start_s = batch.launch_s;
    run.end_s = batch.finish_s;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (requests[i].admitted &&
          requests[i].batch == static_cast<int>(batches[b].id)) {
        run.accesses.push_back(StateAccess{req_state(requests[i].id), false});
        members.push_back(i);
      }
    }
    const int run_ev = g.add_event(std::move(run));
    for (std::size_t i : members) {
      if (arrival_event[i] >= 0) {
        g.add_edge(arrival_event[i], run_ev, "queued");
      }
    }
    for (std::size_t i : members) {
      const serve::RequestRecord& r = requests[i];
      if (contract.admission && contract.slo_s >= 0.0) {
        TimelineEvent done;
        done.name = "done req" + std::to_string(r.id);
        done.actor = server_actor;
        done.start_s = r.finish_s;
        done.end_s = r.finish_s;
        done.deadline_s = r.arrival_s + contract.slo_s;
        done.hard_deadline = true;
        const int done_ev = g.add_event(std::move(done));
        g.add_edge(run_ev, done_ev, "batch completes request");
      }
      if (contract.admission && contract.max_batch > 0) {
        // A batch occupies the busy horizon once it is FORMED, which can
        // happen before its placed start on the engine (the busy interval
        // starts at max(formation time, previous finish)), so filtering on
        // recorded launch times would under-count. Batches form in FIFO id
        // order and this request's own batch forms at or after its arrival,
        // so "id ahead of mine" is the sound superset of "formed before my
        // arrival".
        double busy_horizon = 0.0;
        const std::size_t ahead =
            r.batch >= 0 && static_cast<std::size_t>(r.batch) < batches.size()
                ? static_cast<std::size_t>(r.batch)
                : batches.size();
        for (std::size_t b = 0; b < ahead; ++b) {
          if (batches[b].finish_s > busy_horizon) {
            busy_horizon = batches[b].finish_s;
          }
        }
        std::int64_t queued = 0;
        for (const serve::RequestRecord& other : requests) {
          if (other.admitted && other.id < r.id &&
              other.launch_s >= r.arrival_s) {
            ++queued;
          }
        }
        const double backlog_free =
            busy_horizon > r.arrival_s + contract.max_delay_s
                ? busy_horizon
                : r.arrival_s + contract.max_delay_s;
        const double bound =
            backlog_free +
            static_cast<double>(queued / contract.max_batch + 1) *
                contract.max_batch_forward_s;
        TimelineEvent bd;
        bd.name = "bound req" + std::to_string(r.id);
        bd.actor = server_actor;
        bd.start_s = r.finish_s;
        bd.end_s = r.finish_s;
        bd.deadline_s = bound;
        bd.hard_deadline = true;
        const int bd_ev = g.add_event(std::move(bd));
        g.add_edge(run_ev, bd_ev, "admission bound");
      }
    }
  }
  return g;
}

/// A time on a coarse grid, so ties are common, or one of the IEEE corner
/// values the comparisons must treat exactly as the oracle does.
double random_time(base::Rng& rng) {
  switch (rng.uniform_int(0, 15)) {
    case 0:
      return std::numeric_limits<double>::quiet_NaN();
    case 1:
      return 0.0;
    case 2:
      return -0.0;
    case 3:
      return std::numeric_limits<double>::infinity();
    case 4:
      return -std::numeric_limits<double>::infinity();
    default:
      return 0.5 * static_cast<double>(rng.uniform_int(-2, 12));
  }
}

struct ServingRecords {
  std::vector<serve::RequestRecord> requests;
  std::vector<serve::BatchRecord> batches;
  ServingContract contract;
};

/// Seeded adversarial records: unsorted, duplicate and negative request
/// ids; batch ids that differ from their index or repeat; `batch` of -1 or
/// past the end; NaN, ±0 and ±inf times; every contract switch.
ServingRecords random_serving_records(std::uint64_t seed) {
  base::Rng rng(seed);
  ServingRecords c;
  const int nb = static_cast<int>(rng.uniform_int(0, 8));
  for (int b = 0; b < nb; ++b) {
    serve::BatchRecord batch;
    batch.id = rng.bernoulli(0.5) ? b
                                  : static_cast<int>(rng.uniform_int(-1, nb));
    batch.size = static_cast<int>(rng.uniform_int(0, 4));
    batch.launch_s = random_time(rng);
    batch.finish_s = random_time(rng);
    c.batches.push_back(batch);
  }
  const int nr = static_cast<int>(rng.uniform_int(0, 40));
  for (int i = 0; i < nr; ++i) {
    serve::RequestRecord r;
    r.id = rng.bernoulli(0.5) ? i : rng.uniform_int(-3, nr);
    r.arrival_s = random_time(rng);
    r.admitted = rng.bernoulli(0.85);
    r.batch = static_cast<int>(rng.uniform_int(-1, nb + 1));
    r.launch_s = random_time(rng);
    r.finish_s = random_time(rng);
    c.requests.push_back(r);
  }
  c.contract.admission = rng.bernoulli(0.85);
  c.contract.slo_s = rng.bernoulli(0.2)
                         ? -1.0
                         : 0.5 * static_cast<double>(rng.uniform_int(0, 8));
  c.contract.max_delay_s = 0.25 * static_cast<double>(rng.uniform_int(0, 4));
  c.contract.max_batch = static_cast<int>(rng.uniform_int(0, 4));
  c.contract.max_batch_forward_s =
      0.5 * static_cast<double>(rng.uniform_int(0, 4));
  return c;
}

TEST(ServingOracle, AdversarialRecordsMatchQuadraticExtractor) {
  constexpr int kCases = 2500;
  int duplicate_ids = 0, negative_ids = 0, foreign_batch_ids = 0;
  int nan_arrivals = 0, no_admission = 0, no_slo = 0, no_bound = 0;
  for (int k = 0; k < kCases; ++k) {
    const ServingRecords c =
        random_serving_records(0x5e7f1u + static_cast<std::uint64_t>(k));
    const TimelineGraph fast = timeline_from_serving(
        "oracle", c.requests, c.batches, c.contract);
    const TimelineGraph slow = oracle_timeline_from_serving(
        "oracle", c.requests, c.batches, c.contract);
    ASSERT_TRUE(timeline_to_json(fast) == timeline_to_json(slow))
        << "case " << k;

    std::vector<std::int64_t> ids;
    for (const serve::RequestRecord& r : c.requests) {
      ids.push_back(r.id);
      if (r.id < 0) ++negative_ids;
      if (r.admitted && std::isnan(r.arrival_s)) ++nan_arrivals;
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      ++duplicate_ids;
    }
    for (std::size_t b = 0; b < c.batches.size(); ++b) {
      if (c.batches[b].id != static_cast<int>(b)) ++foreign_batch_ids;
    }
    if (!c.contract.admission) ++no_admission;
    if (c.contract.slo_s < 0.0) ++no_slo;
    if (c.contract.max_batch == 0) ++no_bound;
  }
  // The generator really exercises every corner it promises.
  EXPECT_GT(duplicate_ids, kCases / 4);
  EXPECT_GT(negative_ids, kCases / 4);
  EXPECT_GT(foreign_batch_ids, kCases / 4);
  EXPECT_GT(nan_arrivals, kCases / 4);
  EXPECT_GT(no_admission, kCases / 20);
  EXPECT_GT(no_slo, kCases / 20);
  EXPECT_GT(no_bound, kCases / 20);
}

struct LadderRung {
  double load;  ///< offered rate in units of 1/f(1) (peak when bursty)
  bool bursty;
  double duration_f1;  ///< trace length in units of f(1)
};

/// The perfbench serve-ladder shape on a small engine: x0.5, x1, x2, x4
/// (~16k offered requests) and a bursty x2 rung, with the ladder's SLO of
/// 3 f(8) + f(1). Simulated once and shared by the tests below.
struct SimulatedLadder {
  ServingContract contract;
  std::vector<serve::ServeResult> results;
};

const SimulatedLadder& simulated_ladder() {
  static const SimulatedLadder ladder = [] {
    const hw::CostModel cost;
    serve::EngineOptions eopts;
    eopts.max_batch = 8;
    const serve::InferenceEngine engine(
        cost, "alexnet-small",
        [](int b) { return core::alexnet_bn(b, 10, 67, false); }, eopts);
    const double f1 = engine.batch_time(1);
    const double f8 = engine.batch_time(8);
    serve::ServeOptions opts;
    opts.batcher.max_batch = 8;
    opts.batcher.max_delay_s = f1;
    opts.admission.slo_s = 3.0 * f8 + f1;
    SimulatedLadder out;
    out.contract.slo_s = opts.admission.slo_s;
    out.contract.max_delay_s = opts.batcher.max_delay_s;
    out.contract.max_batch = opts.batcher.max_batch;
    out.contract.max_batch_forward_s = f8;
    const LadderRung rungs[] = {{0.5, false, 1000.0},
                                {1.0, false, 1000.0},
                                {2.0, false, 1000.0},
                                {4.0, false, 4000.0},
                                {2.0, true, 1000.0}};
    std::uint64_t seed = 11;
    for (const LadderRung& rung : rungs) {
      serve::ArrivalSpec spec;
      spec.kind = rung.bursty ? serve::ArrivalKind::kBursty
                              : serve::ArrivalKind::kPoisson;
      spec.rate = rung.load / f1;
      spec.duration_s = rung.duration_f1 * f1;
      spec.seed = seed++;
      spec.burst_period_s = 100.0 * f1;
      out.results.push_back(serve::simulate_serving(
          engine, serve::generate_arrivals(spec), opts));
    }
    return out;
  }();
  return ladder;
}

TEST(ServingOracle, SimulatedLadderMatchesQuadraticExtractor) {
  const SimulatedLadder& ladder = simulated_ladder();
  ASSERT_EQ(ladder.results.size(), 5u);
  for (std::size_t k = 0; k < ladder.results.size(); ++k) {
    const serve::ServeResult& res = ladder.results[k];
    EXPECT_GT(res.admitted, 0);
    const TimelineGraph fast = timeline_from_serving(
        "ladder", res.requests, res.batches, ladder.contract);
    const TimelineGraph slow = oracle_timeline_from_serving(
        "ladder", res.requests, res.batches, ladder.contract);
    EXPECT_TRUE(timeline_to_json(fast) == timeline_to_json(slow))
        << "rung " << k;
  }
}

TEST(ServingOracle, LargeRungGraphIsBuiltWithoutRegrowth) {
  // The x4 rung is the one whose superlinear extraction this pins down:
  // its graph is reserved exactly once and verifies silent.
  const serve::ServeResult& res = simulated_ladder().results[3];
  ASSERT_GE(res.requests.size(), 15000u);
  const TimelineGraph g = timeline_from_serving(
      "ladder-x4", res.requests, res.batches, simulated_ladder().contract);
  EXPECT_EQ(g.events.size(), g.events.capacity());
  EXPECT_EQ(g.edges.size(), g.edges.capacity());
  const Report report = verify_timeline(g);
  EXPECT_TRUE(report.empty()) << report.summary();
}

}  // namespace
}  // namespace swcaffe::check
