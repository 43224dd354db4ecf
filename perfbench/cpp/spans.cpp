#include "spans.h"

#include <chrono>
#include <cmath>

namespace perfbench {
namespace {

void write_map(std::FILE* out, const char* key,
               const std::map<std::string, double>& m) {
  std::fprintf(out, " \"%s\": {", key);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::fprintf(out, "%s%s: %s", first ? "" : ", ", json_string(k).c_str(),
                 json_number(v).c_str());
    first = false;
  }
  std::fprintf(out, "}");
}

}  // namespace

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Recorder::begin(const char* name, int op) {
  if (!tracing_) return -1;
  SpanRecord s;
  s.name = name;
  s.op = op;
  s.parent = stack_.empty() ? -1 : stack_.back();
  const int idx = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  stack_.push_back(idx);
  spans_.back().start_s = now_s();  // last, so bookkeeping is not timed
  return idx;
}

void Recorder::end(int span) {
  if (span < 0) return;
  const double t = now_s();
  spans_[span].end_s = t;
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Recorder::record_op(OpRecord r) {
  r.traced = tracing_;
  ops_.push_back(std::move(r));
}

void Recorder::write_json(std::FILE* out, const std::string& workload,
                          std::uint64_t seed, bool trace) const {
  std::fprintf(out, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d,\n",
               json_string(workload).c_str(),
               static_cast<unsigned long long>(seed), trace ? 1 : 0);
  std::fprintf(out, " \"setup_s\": [");
  for (std::size_t i = 0; i < setup_s_.size(); ++i) {
    std::fprintf(out, "%s%s", i ? ", " : "", json_number(setup_s_[i]).c_str());
  }
  std::fprintf(out, "],\n \"host_ref_s\": [");
  for (std::size_t i = 0; i < host_ref_.size(); ++i) {
    std::fprintf(out, "%s[%d, %s]", i ? ", " : "", host_ref_[i].first,
                 json_number(host_ref_[i].second).c_str());
  }
  std::fprintf(out, "],\n \"ops\": [");
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const OpRecord& o = ops_[i];
    std::fprintf(out,
                 "%s\n  {\"op\": %d, \"kind\": %s, \"wall_s\": %s, "
                 "\"items\": %s, \"traced\": %s, \"ok\": %s}",
                 i ? "," : "", o.op, json_string(o.kind).c_str(),
                 json_number(o.wall_s).c_str(), json_number(o.items).c_str(),
                 o.traced ? "true" : "false", o.ok ? "true" : "false");
  }
  std::fprintf(out, "],\n \"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out, "%s\n  [%s, %d, %d, %s, %s]", i ? "," : "",
                 json_string(s.name).c_str(), s.op, s.parent,
                 json_number(s.start_s).c_str(), json_number(s.end_s).c_str());
  }
  std::fprintf(out, "],\n \"failures\": [");
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    std::fprintf(out, "%s%s", i ? ", " : "", json_string(failures_[i]).c_str());
  }
  std::fprintf(out, "],\n");
  write_map(out, "counters", counters_);
  std::fprintf(out, ",\n");
  write_map(out, "sim", sim_);
  for (const auto& [k, v] : extra_) {
    std::fprintf(out, ",\n %s: %s", json_string(k).c_str(), v.c_str());
  }
  std::fprintf(out, "}\n");
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double SplitMix::exponential(double rate) {
  return -std::log1p(-uniform()) / rate;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  SplitMix m(seed * 0x100000001b3ULL ^ salt);
  return m.next();
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
