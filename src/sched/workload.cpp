#include "sched/workload.h"

#include <algorithm>

#include "base/log.h"
#include "base/rng.h"

namespace swcaffe::sched {
namespace {

using base::splitmix64;

/// Pure per-(seed, job, field) draw in [0, n).
std::uint64_t draw(std::uint64_t seed, int job, int field, std::uint64_t n) {
  std::uint64_t h = splitmix64(seed ^ 0x5c4ed5c4ed5c4ed5ULL);
  h = splitmix64(h ^ static_cast<std::uint64_t>(job));
  h = splitmix64(h ^ static_cast<std::uint64_t>(field));
  return h % n;
}

}  // namespace

int model_batch(ModelKind kind) {
  switch (kind) {
    case ModelKind::kAlexNet:
      return 256;  // paper Sec. VI-A bench batch
    case ModelKind::kVgg16:
      return 64;
    case ModelKind::kResNet50:
      return 32;
  }
  return 4;
}

std::vector<JobSpec> generate_workload(const WorkloadSpec& spec) {
  SWC_CHECK(!spec.models.empty());
  SWC_CHECK(!spec.widths.empty());
  SWC_CHECK_GT(spec.tenants, 0);
  SWC_CHECK_GT(spec.priorities, 0);
  SWC_CHECK_GE(spec.max_iters, spec.min_iters);
  SWC_CHECK_GT(spec.min_iters, 0);
  const std::vector<double> arrivals = serve::generate_arrivals(spec.arrivals);
  std::vector<JobSpec> jobs;
  jobs.reserve(arrivals.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const int id = static_cast<int>(i);
    JobSpec job;
    job.id = id;
    job.submit_s = arrivals[i];
    job.model =
        spec.models[draw(spec.seed, id, 0, spec.models.size())];
    job.batch = model_batch(job.model);
    job.replicas =
        spec.widths[draw(spec.seed, id, 1, spec.widths.size())];
    job.min_nodes =
        spec.elastic ? std::max(1, job.replicas / 2) : job.replicas;
    job.iters =
        spec.min_iters +
        static_cast<std::int64_t>(draw(
            spec.seed, id, 2,
            static_cast<std::uint64_t>(spec.max_iters - spec.min_iters + 1)));
    job.priority = static_cast<int>(
        draw(spec.seed, id, 3, static_cast<std::uint64_t>(spec.priorities)));
    job.tenant = static_cast<int>(
        draw(spec.seed, id, 4, static_cast<std::uint64_t>(spec.tenants)));
    jobs.push_back(job);
  }
  return jobs;
}

}  // namespace swcaffe::sched
