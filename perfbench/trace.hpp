// Benchmark-side tracing: spans recorded around calls into the library's
// public seams, never inside it.
//
//  * TimingTransport decorates a net::Transport. It wraps every attach()'d
//    handler (one span per delivered datagram: LocationServer::handle, or
//    ShardedLocationServer::handle's peek/route/inbox push on a dispatch
//    node), send(), flush()/uncork(), and the Senders open_sender() hands
//    out (the shard reactors' transmit path).
//  * timing_index_factory() wraps the default point quadtree, so every
//    spatial call is a span.
//  * capture()/replay_codec() re-run captured datagrams through
//    wire::decode_envelope_into / wire::encode_envelope_into after the run.
//
// Spans nest per thread: a handler span's self time is its duration minus
// the child spans (spatial, send, flush) it covers. Each span carries the
// request id of the datagram that caused it -- (envelope source, req_id)
// for queries, (envelope source, oid) for updates -- and its parent span.
// Spans are kept in memory (capped) and dumped as CSV at the end of a run.
// With tracing disabled every wrapper is a single branch.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "net/transport.hpp"
#include "spatial/spatial_index.hpp"

namespace pb::trace {

using namespace locs;

enum Kind : std::uint8_t {
  kHandleUpdate,
  kHandlePos,
  kHandleRange,
  kHandleNN,
  kHandlePath,
  kHandleOther,
  kDispatch,
  kSend,
  kFlush,
  kSpInsert,
  kSpUpdate,
  kSpRemove,
  kSpRect,
  kSpCircle,
  kSpKnn,
  kKinds
};
const char* kind_name(Kind k);

/// Log-bucketed histogram (5% buckets) of non-negative nanosecond values.
class Hist {
 public:
  void add(double v);
  void merge(const Hist& o);
  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
  double quantile(double q) const;

 private:
  static constexpr int kBuckets = 720;
  std::array<std::uint64_t, kBuckets> b_{};
  std::uint64_t n_ = 0;
  double sum_ = 0;
};

void set_enabled(bool on);
bool enabled();
std::int64_t now_ns();

struct Request {
  std::uint32_t node = 0;
  std::uint64_t key = 0;
};

/// One span. Inactive when tracing is off at construction. A span with an
/// empty request inherits its parent's.
class Scope {
 public:
  explicit Scope(Kind k, Request req = {});
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  bool active_ = false;
};

struct Summary {
  std::array<Hist, kKinds> self;   // self time per span kind (ns)
  Hist shard_wait;                 // inbox push -> shard reply (ns)
  std::uint64_t spatial_entries = 0;  // entries returned by spatial queries
  std::uint64_t toplevel_ns = 0;   // summed duration of root spans
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;  // beyond the in-memory cap
  std::uint64_t bytes_sent = 0;     // through the decorated transport
  std::uint64_t datagrams_sent = 0;
};

/// Merges every thread's records (take it once the traced run is quiet).
Summary summarize();
/// Root-span time recorded by the calling thread so far (ns).
std::uint64_t thread_toplevel_ns();
/// Writes all recorded spans as CSV; returns the number written.
std::size_t dump_spans(const std::string& path);

/// Copies a datagram into the codec-replay capture (capped; traced only).
void capture(const std::uint8_t* data, std::size_t len);

struct CodecReplay {
  std::size_t datagrams = 0;   // distinct captured datagrams
  std::size_t decodes = 0;     // decode calls timed (all passes)
  std::size_t failures = 0;    // decode errors or re-encode mismatches
  double decode_ns = 0;        // mean per datagram
  double encode_ns = 0;
};
/// Replays the capture through decode_envelope_into/encode_envelope_into,
/// repeating whole passes for at least `min_seconds`.
CodecReplay replay_codec(double min_seconds);

/// Timing decorator over a transport (see header comment). Nodes named in
/// `dispatch_nodes` are sharded leaves: their handler spans are
/// core.dispatch, and each UpdateReq's inbox push is matched with the
/// shard Sender's reply for the same object (core.shard_wait).
class TimingTransport : public net::Transport {
 public:
  TimingTransport(net::Transport& inner, std::unordered_set<std::uint32_t> dispatch_nodes);

  using Transport::attach;
  void attach(NodeId node, net::DatagramHandler handler) override;
  void detach(NodeId node) override { inner_.detach(node); }
  using Transport::send;
  void send(NodeId from, NodeId to, net::PooledBuffer bytes) override;
  void cork(NodeId from) override { inner_.cork(from); }
  void uncork(NodeId from) override;
  void flush(NodeId from) override;
  std::shared_ptr<net::Sender> open_sender(NodeId from) override;

 private:
  net::Transport& inner_;
  std::unordered_set<std::uint32_t> dispatch_nodes_;
};

/// Point quadtree wrapped in spatial spans.
spatial::IndexFactory timing_index_factory();

}  // namespace pb::trace
