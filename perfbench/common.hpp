// Shared plumbing of the benchmark binary: arguments, a flat JSON line
// writer, peak RSS, quantiles, and the range oracle's per-object verdict.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "geo/circle.hpp"
#include "geo/polygon.hpp"
#include "schedule.hpp"
#include "trace.hpp"

namespace pb {

struct Args {
  std::string mode;
  Workload workload = Workload::kHotLeafUpdate;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint16_t port = 0;
  std::string span_path;
};

/// One flat JSON object on one line.
class Json {
 public:
  template <typename T>
  void num(const std::string& key, T v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", static_cast<double>(v));
    out_ += "\"" + key + "\":" + (std::isfinite(static_cast<double>(v)) ? buf : "null");
  }
  void str(const std::string& key, const std::string& v) {
    sep();
    out_ += "\"" + key + "\":\"" + v + "\"";
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void sep() {
    if (!out_.empty()) out_ += ",";
  }
  std::string out_;
};

/// Peak resident set (VmHWM) of this process in MiB.
inline double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// CPU time (ns) of `clock`: CLOCK_PROCESS_CPUTIME_ID or
/// CLOCK_THREAD_CPUTIME_ID. Neither counts time spent waiting for a CPU,
/// which includes, on a guest with paravirtual steal-time accounting, the
/// time the host gave the vCPU to someone else.
inline std::int64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000LL + ts.tv_nsec;
}

/// Nearest-rank quantile of an ascending vector (0 when empty).
inline double quantile_sorted(const std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// Whether a range answer over `area` must hold an object known to be at
/// `p` with offered accuracy `acc`: 0 no, 1 yes, 2 either way (its overlap
/// is within 1e-9 of kReqOverlap, or `unsure` of its state). `box` is the
/// area's bounding box inflated by kReqAcc, a cheap filter.
inline int range_verdict(const geo::Polygon& area, const geo::Rect& box, geo::Point p,
                         double acc, bool unsure) {
  if (!box.contains(p) || acc > kReqAcc) return 0;
  const double ov = geo::overlap_degree(area, {p, acc});
  if (unsure || std::abs(ov - kReqOverlap) < 1e-9) return 2;
  return ov >= kReqOverlap ? 1 : 0;
}

/// Per-kind span self times plus the decorator's own counts.
inline void add_summary(Json& j, const trace::Summary& s) {
  for (int k = 0; k < trace::kKinds; ++k) {
    const std::string name = trace::kind_name(static_cast<trace::Kind>(k));
    j.num(name + ".count", s.self[k].count());
    j.num(name + ".self_mean_ns", s.self[k].mean());
    j.num(name + ".self_p99_ns", s.self[k].quantile(0.99));
  }
  j.num("spatial_entries", s.spatial_entries);
  j.num("toplevel_ns", s.toplevel_ns);
  j.num("spans_recorded", s.spans_recorded);
  j.num("spans_dropped", s.spans_dropped);
  j.num("traced_bytes_sent", s.bytes_sent);
  j.num("traced_datagrams_sent", s.datagrams_sent);
}

int run_server(const Args& args);
int run_generator(const Args& args);
int run_replay(const Args& args);

}  // namespace pb
