// Server process of the UDP workloads: hosts the Table-2 deployment over
// UdpNetwork on loopback and answers line commands on stdin (one reply
// line each on stdout):
//   build  -> tears down any previous deployment, builds a fresh one and
//             replies "ready <t0_ns>" (t0: steady-clock time the build began)
//   begin  -> starts counting (and, when traced, tracing) on the current
//             deployment; the next build or end stops it
//   cpu    -> replies "cpu <ns>": CPU time this process has used so far
//   mark   -> replies "rss <MiB>": peak RSS so far
//   end    -> replies "stats <json>": counter deltas summed over every
//             begin..build/end window, and the traced per-layer summary
//   quit   -> writes the span dump (traced), tears down, replies "bye"
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/deployment.hpp"
#include "net/udp_network.hpp"
#include "schedule.hpp"
#include "trace.hpp"

namespace pb {

namespace {

/// The counters a run reports, summed over every episode's deployment.
struct Counters {
  std::uint64_t msgs_handled = 0, decode_errors = 0, pending_timeouts = 0;
  std::uint64_t sub_res_pinned = 0, sub_res_copied = 0, sightings_expired = 0;
  std::uint64_t tx_datagrams = 0, tx_syscalls = 0, tx_eagain = 0, tx_dropped = 0;
  std::uint64_t inbox_dropped = 0;

  void add(const Counters& o, int sign) {
    const auto f = [sign](std::uint64_t& a, std::uint64_t b) { a += sign * b; };
    f(msgs_handled, o.msgs_handled);
    f(decode_errors, o.decode_errors);
    f(pending_timeouts, o.pending_timeouts);
    f(sub_res_pinned, o.sub_res_pinned);
    f(sub_res_copied, o.sub_res_copied);
    f(sightings_expired, o.sightings_expired);
    f(tx_datagrams, o.tx_datagrams);
    f(tx_syscalls, o.tx_syscalls);
    f(tx_eagain, o.tx_eagain);
    f(tx_dropped, o.tx_dropped);
    f(inbox_dropped, o.inbox_dropped);
  }
};

class Server {
 public:
  Server(Workload w, bool traced, std::uint16_t base_port)
      : w_(w), traced_(traced), base_port_(base_port), topo_(udp_topology(w)) {}

  ~Server() { teardown(); }

  std::int64_t build() {
    teardown();
    const std::int64_t t0 = trace::now_ns();
    udp_ = std::make_unique<net::UdpNetwork>(base_port_);
    net::Transport* net = udp_.get();
    core::Deployment::Config cfg;
    cfg.lock_handlers = true;
    const UdpSpec spec = udp_spec(w_);
    cfg.shard_threads = spec.hot_shards > 1;
    if (traced_) {
      std::unordered_set<std::uint32_t> dispatch;
      if (spec.hot_shards > 1) dispatch.insert(hot_leaf(topo_).value);
      timing_ = std::make_unique<trace::TimingTransport>(*udp_, std::move(dispatch));
      net = timing_.get();
      cfg.index_factory = trace::timing_index_factory();
    }
    deployment_ = std::make_unique<core::Deployment>(*net, clock_, topo_, cfg);
    return t0;
  }

  /// Starts counting (and, traced, tracing) on the current deployment.
  void begin() {
    before_ = counters();
    begun_ = true;
    if (!traced_) return;
    trace::set_enabled(true);
    if (core::ShardedLocationServer* sh = deployment_->sharded(hot_leaf(topo_))) {
      sampling_.store(true);
      sampler_ = std::thread([this, sh] {
        while (sampling_.load()) {
          for (const auto& load : sh->shard_loads()) {
            depth_samples_.push_back(static_cast<double>(load.inbox_depth));
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      });
    }
  }

  std::string end() {
    pause();
    const Counters& c = total_;
    Json j;
    j.num("msgs_handled", c.msgs_handled);
    j.num("decode_errors", c.decode_errors);
    j.num("pending_timeouts", c.pending_timeouts);
    j.num("sub_res_pinned", c.sub_res_pinned);
    j.num("sub_res_copied", c.sub_res_copied);
    j.num("sightings_expired", c.sightings_expired);
    j.num("tx_datagrams", c.tx_datagrams);
    j.num("tx_syscalls", c.tx_syscalls);
    j.num("tx_eagain", c.tx_eagain);
    j.num("tx_dropped", c.tx_dropped);
    j.num("inbox_dropped", c.inbox_dropped);
    j.num("store_sightings", store_sightings());
    if (traced_) add_trace(j);
    return j.str();
  }

  void quit(const std::string& span_path) {
    if (traced_ && !span_path.empty()) trace::dump_spans(span_path);
    teardown();
  }

 private:
  /// Stops counting and tracing; folds this deployment's deltas into the
  /// run's totals.
  void pause() {
    if (!begun_) return;
    begun_ = false;
    trace::set_enabled(false);
    sampling_.store(false);
    if (sampler_.joinable()) sampler_.join();
    // Let spans opened just before the switch close.
    if (traced_) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    total_.add(counters(), 1);
    total_.add(before_, -1);
  }

  void teardown() {
    pause();
    deployment_.reset();
    if (udp_) udp_->stop();
    timing_.reset();
    udp_.reset();
  }

  Counters counters() const {
    const core::LocationServer::Stats st = deployment_->total_stats();
    Counters c;
    c.msgs_handled = st.msgs_handled;
    c.decode_errors = st.decode_errors;
    c.pending_timeouts = st.pending_timeouts;
    c.sub_res_pinned = st.sub_res_pinned;
    c.sub_res_copied = st.sub_res_copied;
    c.sightings_expired = st.sightings_expired;
    for (const auto& n : topo_.nodes) {
      const net::UdpNetwork::TxStats tx = udp_->tx_stats(n.id);
      c.tx_datagrams += tx.datagrams_sent;
      c.tx_syscalls += tx.batches_flushed;
      c.tx_eagain += tx.eagain_retries;
      c.tx_dropped += tx.dropped;
      if (core::ShardedLocationServer* sh = deployment_->sharded(n.id)) {
        c.inbox_dropped += sh->inbox_dropped();
      }
    }
    return c;
  }

  std::uint64_t store_sightings() const {
    std::uint64_t n = 0;
    for (NodeId leaf : topo_.leaves()) {
      if (core::ShardedLocationServer* sh = deployment_->sharded(leaf)) {
        for (const auto& load : sh->shard_loads()) n += load.sightings;
      } else if (const store::SightingDb* db = deployment_->server(leaf).sightings()) {
        n += db->size();
      }
    }
    return n;
  }

  void add_trace(Json& j) {
    const trace::Summary s = trace::summarize();
    add_summary(j, s);
    j.num("shard_wait_p50_ns", s.shard_wait.quantile(0.5));
    j.num("shard_wait_p99_ns", s.shard_wait.quantile(0.99));
    j.num("shard_wait_samples", s.shard_wait.count());
    std::sort(depth_samples_.begin(), depth_samples_.end());
    j.num("inbox_depth_p99", quantile_sorted(depth_samples_, 0.99));
    const trace::CodecReplay codec = trace::replay_codec(0.3);
    j.num("codec_datagrams", codec.datagrams);
    j.num("codec_failures", codec.failures);
    j.num("decode_ns", codec.decode_ns);
    j.num("encode_ns", codec.encode_ns);
  }

  Workload w_;
  bool traced_;
  std::uint16_t base_port_;
  core::HierarchySpec topo_;
  SystemClock clock_;
  std::unique_ptr<net::UdpNetwork> udp_;
  std::unique_ptr<trace::TimingTransport> timing_;
  std::unique_ptr<core::Deployment> deployment_;
  Counters before_;
  Counters total_;
  bool begun_ = false;
  std::atomic<bool> sampling_{false};
  std::thread sampler_;
  std::vector<double> depth_samples_;
};

}  // namespace

int run_server(const Args& args) {
  const std::uint16_t base = net::UdpNetwork::pick_free_base_port(kPortSpan);
  Server server(args.workload, args.trace, base);
  std::printf("port %u\n", static_cast<unsigned>(base));
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "build") {
      const std::int64_t t0 = server.build();
      std::printf("ready %lld\n", static_cast<long long>(t0));
    } else if (line == "begin") {
      server.begin();
      std::printf("begun\n");
    } else if (line == "cpu") {
      std::printf("cpu %lld\n", static_cast<long long>(cpu_ns(CLOCK_PROCESS_CPUTIME_ID)));
    } else if (line == "mark") {
      std::printf("rss %.17g\n", peak_rss_mb());
    } else if (line == "end") {
      std::printf("stats %s\n", server.end().c_str());
    } else if (line == "quit") {
      server.quit(args.span_path);
      std::printf("bye\n");
      std::fflush(stdout);
      return 0;
    } else {
      std::fprintf(stderr, "server: unknown command '%s'\n", line.c_str());
      return 2;
    }
    std::fflush(stdout);
  }
  return 1;  // stdin closed without quit
}

}  // namespace pb
