// swsched extractors: build the timeline event-graph IR from the three
// hand-built discrete-event schedules of the stack.
//
//  * timeline_from_overlap — the overlapped bucketed all-reduce
//    (topo::schedule_overlap): backward slices on the compute lane writing
//    gradient buckets, bucket collectives on the exclusive network link
//    reading (and reducing in place) those buckets, and the weight update
//    consuming the combined result. The producer edges are re-derived from
//    the layer indices and per-layer backward times — NOT read back from
//    the schedule's own ready_s — so a schedule that starts a collective
//    before its backward slice finished is caught, not trusted.
//
//  * timeline_from_serving — the swserve DynamicBatcher busy-interval loop:
//    arrivals on the client lane, coalesced batches on the exclusive
//    server, per-request completion deadlines at arrival + SLO, and a
//    per-request admission bound RE-DERIVED from the timeline itself
//    (busy horizon + queued batches ahead + one worst-case forward), which
//    every admitted completion must provably meet.
//
//  * timeline_from_retry — swfault's charge_recovery retry rounds: each
//    round's worst-case retry ladder (sends + exponential backoff) laid out
//    on the network lane with the escalation timeout as the round deadline.
//
//  * timeline_from_schedule — the multi-tenant cluster schedule
//    (sched/scheduler.h): every cluster node is an exclusive resource, every
//    job an actor, and every gang dispatch one co-scheduled event per
//    occupied node tagged with the span's gang id — so a double-booked node
//    is a timeline-overlap, a gang whose members drift apart is a
//    timeline-gang, a job resumed before its previous quantum ended is a
//    timeline-causality, and a scheduler that loses or replays iterations
//    across preemptions breaks the per-job iteration ledger
//    (timeline-bytes).
//
//  * timeline_from_comm — the global (cross-node) communication graph: one
//    or more CommSchedules composed in phase order (e.g. the per-bucket
//    collectives one node runs back to back). FIFO send/receive matching
//    runs across the WHOLE composition, so a cycle that only appears when
//    two individually-sound schedules interleave — invisible to the
//    per-plan check_schedule rule — is still a timeline-cycle.
//
// Extractors only build graphs; all judging happens in check_timeline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/plan_model.h"
#include "check/timeline.h"
#include "hw/params.h"
#include "sched/record.h"
#include "serve/request.h"
#include "sim/engine.h"
#include "sim/event.h"
#include "topo/overlap.h"

namespace swcaffe::check {

/// Builds the overlapped all-reduce timeline. `layer_bwd_s` / `compute_s`
/// are the same inputs topo::schedule_overlap consumed; `timeline` is its
/// output. `total_bytes` >= 0 adds a packed-gradient ledger the bucket
/// payloads must conserve (< 0 skips the ledger).
TimelineGraph timeline_from_overlap(const std::string& name,
                                    const std::vector<double>& layer_bwd_s,
                                    double compute_s,
                                    const topo::OverlapTimeline& timeline,
                                    std::int64_t total_bytes = -1);

/// The serving-side contract the timeline is judged against (mirrors
/// serve::ServeOptions without depending on the serve library).
struct ServingContract {
  double slo_s = -1.0;        ///< < 0: no SLO deadline events
  double max_delay_s = 0.0;   ///< batcher's oldest-request launch deadline
  int max_batch = 0;          ///< 0: skip the admission-bound re-derivation
  double max_batch_forward_s = 0.0;  ///< f(max_batch), the worst forward
  /// Admission control was enabled: completions carry hard SLO deadlines
  /// and re-derived admission bounds. With admission off, misses are an
  /// accepted trade and no deadline events are emitted.
  bool admission = true;
};

/// Builds the serving timeline from one simulation's request/batch records.
///
/// Every admitted request gets an arrival event; every batch a run event
/// reading its members (the admitted requests whose `batch` equals the
/// batch's id, in index order) and, per member as the contract enables, a
/// "done" event (SLO deadline) and a "bound" event whose deadline is the
/// re-derived admission bound
///
///   max(busy horizon, arrival + max_delay)
///     + (queued ahead / max_batch + 1) * max_batch_forward_s.
///
/// The busy horizon is the running max of finish_s over the batches ahead
/// of the request's own (all batches when `batch` is out of range). Queued
/// ahead is a dominance count: the admitted requests with a smaller id
/// whose launch_s is >= this arrival_s (a NaN on either side never counts).
///
/// Runs in O((R + B) log R) for R requests and B batches: one stable sort
/// groups the members, a prefix max gives every busy horizon, and an
/// offline Fenwick-tree sweep in id order gives every queued-ahead count.
/// The event and edge vectors are reserved to their exact final size.
TimelineGraph timeline_from_serving(
    const std::string& name, const std::vector<serve::RequestRecord>& requests,
    const std::vector<serve::BatchRecord>& batches,
    const ServingContract& contract);

/// Builds the worst-case retry/replay timeline of `rounds` message rounds
/// under `plan`'s ladder, starting at `start_s`. Each round's final attempt
/// carries the escalation timeout as a soft deadline — a ladder that cannot
/// finish in time is dead code (timeline-deadline warning, mirroring
/// check_retry's retry-timeout severity).
TimelineGraph timeline_from_retry(const RetryPlan& plan, int rounds,
                                  double start_s = 0.0);

/// Builds the cluster-schedule timeline of one scheduler run over
/// `cluster_nodes` nodes. Every span becomes one event per occupied node
/// (gang tag = "job<id>.span<k>"), consecutive spans of a job are linked by
/// explicit progress edges, and each FINISHED job gets an iteration ledger
/// its run spans must conserve — retiring too few or too many iterations
/// across preemptions/resizes is a timeline-bytes error.
TimelineGraph timeline_from_schedule(const std::string& name,
                                     int cluster_nodes,
                                     const std::vector<sched::JobSpan>& spans,
                                     const std::vector<sched::JobRecord>& jobs);

/// Builds the composed cross-node communication graph of `phases` run back
/// to back (each rank executes phase 0's ops, then phase 1's, ...). Send/
/// receive FIFO matching spans the whole composition. Events are untimed
/// (the composition is a pure dependency structure), so only the race and
/// cycle passes judge it; unmatched sends/receives are per-plan properties
/// left to check_schedule.
TimelineGraph timeline_from_comm(const std::string& name,
                                 const std::vector<CommSchedule>& phases,
                                 const hw::HwParams& hp = {});

/// Builds the error-feedback residual-carry timeline of `iters` compressed
/// training iterations: iteration t is one actor (a pipelined round), and
/// each bucket's encode event writes the persistent residual<b> state and
/// moves that bucket's wire bytes against a per-run wire ledger
/// (iters * sum(bucket_wire_bytes)). Consecutive iterations are linked by
/// explicit "residual carry" edges per bucket — the happens-before that
/// makes cross-iteration residual reuse sound. Stripping those edges makes
/// the conflicting residual writes a timeline-race, which is how a trainer
/// that reordered or parallelized iterations over the shared residuals
/// would be caught.
TimelineGraph timeline_from_ef(const std::string& name, int iters,
                               const std::vector<std::int64_t>& bucket_wire_bytes);

/// Builds a timeline straight from a swsim event log — the shared event
/// vocabulary needs no per-subsystem re-derivation. `actors` / `resources`
/// name the graph's lanes and exclusive resources (every event's ids must be
/// in range); events are laid out in the vocabulary's documented total order
/// (time_s, actor, seq) so each actor's program order is its time order.
/// Instants become point events. The graph carries whatever the log saw —
/// edges/ledgers/deadlines are the caller's to add before verifying.
TimelineGraph timeline_from_events(const std::string& name,
                                   const std::vector<std::string>& actors,
                                   const std::vector<std::string>& resources,
                                   const sim::EventLog& log);

/// Convenience: extracts the timeline of a finished sim::Engine run (its
/// actors, resources and recorded log).
TimelineGraph timeline_from_sim(const std::string& name,
                                const sim::Engine& engine);

}  // namespace swcaffe::check
