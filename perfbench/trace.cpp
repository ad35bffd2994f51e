#include "trace.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <type_traits>
#include <variant>

#include "wire/messages.hpp"

namespace pb::trace {

namespace {

constexpr std::size_t kMaxSpansPerThread = 400000;
constexpr std::size_t kMaxCapturePerThread = 8000;
constexpr std::size_t kPushSlots = 1 << 16;
const double kLogStep = std::log(1.05);

std::atomic<bool> g_enabled{false};

struct Frame {
  std::int64_t start;
  std::int64_t child_ns;
  std::int32_t span_idx;
  Request req;
  Kind kind;
};

struct SpanRec {
  std::int64_t start;
  std::int64_t end;
  std::int32_t parent;
  std::uint32_t req_node;
  std::uint64_t req_key;
  Kind kind;
};

struct ThreadState {
  std::uint32_t tid = 0;
  std::vector<Frame> stack;  // owner thread only
  std::mutex mu;             // guards everything below
  std::vector<SpanRec> spans;
  std::array<Hist, kKinds> self;
  Hist shard_wait;
  std::uint64_t spatial_entries = 0;
  std::uint64_t toplevel_ns = 0;
  std::uint64_t dropped = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t datagrams_sent = 0;
  std::vector<std::vector<std::uint8_t>> captured;
};

std::mutex g_threads_mu;
std::vector<std::unique_ptr<ThreadState>> g_threads;

ThreadState& state() {
  thread_local ThreadState* ts = [] {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::make_unique<ThreadState>());
    g_threads.back()->tid = static_cast<std::uint32_t>(g_threads.size() - 1);
    return g_threads.back().get();
  }();
  return *ts;
}

// Inbox-push timestamps of UpdateReqs on dispatch nodes, by object id.
std::array<std::atomic<std::int64_t>, kPushSlots> g_push{};

Kind handle_kind(const std::uint8_t* data, std::size_t len) {
  if (len < 2) return kHandleOther;
  using wire::MsgType;
  switch (static_cast<MsgType>(data[1])) {
    case MsgType::kUpdateReq:
    case MsgType::kUpdateAck:
    case MsgType::kBatchedUpdateReq:
    case MsgType::kBatchedUpdateAck:
    case MsgType::kHandoverReq:
    case MsgType::kHandoverRes:
    case MsgType::kAgentChanged:
      return kHandleUpdate;
    case MsgType::kPosQueryReq:
    case MsgType::kPosQueryFwd:
    case MsgType::kPosQueryRes:
      return kHandlePos;
    case MsgType::kRangeQueryReq:
    case MsgType::kRangeQueryFwd:
    case MsgType::kRangeQuerySubRes:
    case MsgType::kRangeQueryRes:
      return kHandleRange;
    case MsgType::kNNQueryReq:
    case MsgType::kNNProbeFwd:
    case MsgType::kNNProbeSubRes:
    case MsgType::kNNQueryRes:
      return kHandleNN;
    case MsgType::kCreatePath:
    case MsgType::kRemovePath:
    case MsgType::kBatchedPathUpdate:
      return kHandlePath;
    default:
      return kHandleOther;
  }
}

/// (envelope source, req_id or object id) of a datagram.
Request request_of(const std::uint8_t* data, std::size_t len) {
  thread_local wire::Envelope env;
  if (!wire::decode_envelope_into(env, data, len).is_ok()) return {};
  Request req{env.src.value, 0};
  std::visit(
      [&req](const auto& m) {
        if constexpr (requires { m.req_id; }) {
          req.key = m.req_id;
        } else if constexpr (requires { m.oid.value; }) {
          req.key = m.oid.value;
        } else if constexpr (requires { m.s.oid.value; }) {
          req.key = m.s.oid.value;
        }
      },
      env.msg);
  return req;
}

std::uint64_t object_key(const std::uint8_t* data, std::size_t len) {
  const auto oid = wire::peek_object_key(data, len);
  return oid ? oid->value : 0;
}

void count_send(std::size_t bytes) {
  ThreadState& ts = state();
  std::lock_guard<std::mutex> lock(ts.mu);
  ts.bytes_sent += bytes;
  ++ts.datagrams_sent;
}

}  // namespace

const char* kind_name(Kind k) {
  static const char* const kNames[kKinds] = {
      "core.handle.update", "core.handle.pos",   "core.handle.range",
      "core.handle.nn",     "core.handle.path",  "core.handle.other",
      "core.dispatch",      "net.send",          "net.flush",
      "spatial.insert",     "spatial.update",    "spatial.remove",
      "spatial.query_rect", "spatial.query_circle", "spatial.k_nearest"};
  return k < kKinds ? kNames[k] : "?";
}

void Hist::add(double v) {
  int i = 0;
  if (v >= 1.0) i = std::min(kBuckets - 1, 1 + static_cast<int>(std::log(v) / kLogStep));
  ++b_[static_cast<std::size_t>(i)];
  ++n_;
  sum_ += v;
}

void Hist::merge(const Hist& o) {
  for (int i = 0; i < kBuckets; ++i) b_[static_cast<std::size_t>(i)] += o.b_[static_cast<std::size_t>(i)];
  n_ += o.n_;
  sum_ += o.sum_;
}

double Hist::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += b_[static_cast<std::size_t>(i)];
    if (seen >= std::max<std::uint64_t>(rank, 1)) {
      if (i == 0) return 0.5;
      // Geometric midpoint of bucket i: [1.05^(i-1), 1.05^i).
      return std::exp((static_cast<double>(i) - 0.5) * kLogStep);
    }
  }
  return std::exp(kBuckets * kLogStep);
}

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_release); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(Kind k, Request req) {
  if (!enabled()) return;
  active_ = true;
  ThreadState& ts = state();
  const std::int32_t parent = ts.stack.empty() ? -1 : ts.stack.back().span_idx;
  if (req.node == 0 && req.key == 0 && !ts.stack.empty()) req = ts.stack.back().req;
  std::int32_t idx = -1;
  const std::int64_t start = now_ns();
  {
    // The span's slot is reserved at open, so children opened under it
    // record its index as their parent.
    std::lock_guard<std::mutex> lock(ts.mu);
    if (ts.spans.size() < kMaxSpansPerThread) {
      idx = static_cast<std::int32_t>(ts.spans.size());
      ts.spans.push_back(SpanRec{start, start, parent, req.node, req.key, k});
    } else {
      ++ts.dropped;
    }
  }
  ts.stack.push_back(Frame{start, 0, idx, req, k});
}

Scope::~Scope() {
  if (!active_) return;
  const std::int64_t end = now_ns();
  ThreadState& ts = state();
  const Frame f = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t dur = end - f.start;
  if (!ts.stack.empty()) ts.stack.back().child_ns += dur;
  std::lock_guard<std::mutex> lock(ts.mu);
  ts.self[f.kind].add(static_cast<double>(dur - f.child_ns));
  if (ts.stack.empty()) ts.toplevel_ns += static_cast<std::uint64_t>(dur);
  if (f.span_idx >= 0) ts.spans[static_cast<std::size_t>(f.span_idx)].end = end;
}

Summary summarize() {
  Summary s;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& tp : g_threads) {
    ThreadState& ts = *tp;
    std::lock_guard<std::mutex> tl(ts.mu);
    for (int k = 0; k < kKinds; ++k) s.self[k].merge(ts.self[k]);
    s.shard_wait.merge(ts.shard_wait);
    s.spatial_entries += ts.spatial_entries;
    s.toplevel_ns += ts.toplevel_ns;
    s.spans_recorded += ts.spans.size();
    s.spans_dropped += ts.dropped;
    s.bytes_sent += ts.bytes_sent;
    s.datagrams_sent += ts.datagrams_sent;
  }
  return s;
}

std::uint64_t thread_toplevel_ns() {
  ThreadState& ts = state();
  std::lock_guard<std::mutex> lock(ts.mu);
  return ts.toplevel_ns;
}

std::size_t dump_spans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return 0;
  std::fprintf(f, "thread,index,name,start_ns,end_ns,parent,req_node,req_key\n");
  std::size_t n = 0;
  std::lock_guard<std::mutex> lock(g_threads_mu);
  for (const auto& tp : g_threads) {
    ThreadState& ts = *tp;
    std::lock_guard<std::mutex> tl(ts.mu);
    for (std::size_t i = 0; i < ts.spans.size(); ++i) {
      const SpanRec& r = ts.spans[i];
      std::fprintf(f, "%u,%zu,%s,%lld,%lld,%d,%u,%llu\n", ts.tid, i, kind_name(r.kind),
                   static_cast<long long>(r.start), static_cast<long long>(r.end), r.parent,
                   r.req_node, static_cast<unsigned long long>(r.req_key));
      ++n;
    }
  }
  std::fclose(f);
  return n;
}

void capture(const std::uint8_t* data, std::size_t len) {
  ThreadState& ts = state();
  std::lock_guard<std::mutex> lock(ts.mu);
  if (ts.captured.size() < kMaxCapturePerThread) ts.captured.emplace_back(data, data + len);
}

CodecReplay replay_codec(double min_seconds) {
  std::vector<const std::vector<std::uint8_t>*> all;
  {
    std::lock_guard<std::mutex> lock(g_threads_mu);
    for (const auto& tp : g_threads) {
      for (const auto& d : tp->captured) all.push_back(&d);
    }
  }
  CodecReplay r;
  r.datagrams = all.size();
  if (all.empty()) return r;
  wire::Envelope env;
  wire::Buffer out;
  double dec = 0, enc = 0;
  std::size_t encodes = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(min_seconds * 1e9);
  bool first_pass = true;
  do {
    for (const auto* d : all) {
      const std::int64_t t0 = now_ns();
      const bool ok = wire::decode_envelope_into(env, d->data(), d->size()).is_ok();
      const std::int64_t t1 = now_ns();
      dec += static_cast<double>(t1 - t0);
      ++r.decodes;
      if (!ok) {
        if (first_pass) ++r.failures;
        continue;
      }
      const std::int64_t t2 = now_ns();
      wire::encode_envelope_into(out, env.src, env.msg);
      enc += static_cast<double>(now_ns() - t2);
      ++encodes;
      // Re-encoding a decoded envelope must give back the same bytes.
      if (first_pass && (out.size() != d->size() ||
                         !std::equal(out.begin(), out.end(), d->begin()))) {
        ++r.failures;
      }
    }
    first_pass = false;
  } while (now_ns() < deadline);
  r.decode_ns = dec / static_cast<double>(r.decodes);
  r.encode_ns = encodes ? enc / static_cast<double>(encodes) : 0.0;
  return r;
}

// --- TimingTransport -------------------------------------------------------

namespace {

class TimingSender : public net::Sender {
 public:
  TimingSender(std::shared_ptr<net::Sender> inner, bool match_pushes)
      : inner_(std::move(inner)), match_pushes_(match_pushes) {}

  void send(NodeId to, net::PooledBuffer bytes) override {
    if (!enabled()) {
      inner_->send(to, std::move(bytes));
      return;
    }
    const std::uint64_t oid = object_key(bytes.data(), bytes.size());
    if (match_pushes_ && oid != 0) {
      const std::int64_t pushed = g_push[oid % kPushSlots].exchange(0);
      if (pushed != 0) {
        const double wait = static_cast<double>(now_ns() - pushed);
        ThreadState& ts = state();
        std::lock_guard<std::mutex> lock(ts.mu);
        ts.shard_wait.add(wait);
      }
    }
    capture(bytes.data(), bytes.size());
    count_send(bytes.size());
    Scope s(kSend, Request{to.value, oid});
    inner_->send(to, std::move(bytes));
  }
  void flush() override {
    Scope s(kFlush);
    inner_->flush();
  }
  void cork() override { inner_->cork(); }
  void uncork() override {
    Scope s(kFlush);
    inner_->uncork();
  }

 private:
  std::shared_ptr<net::Sender> inner_;
  bool match_pushes_;
};

}  // namespace

TimingTransport::TimingTransport(net::Transport& inner,
                                 std::unordered_set<std::uint32_t> dispatch_nodes)
    : inner_(inner), dispatch_nodes_(std::move(dispatch_nodes)) {}

void TimingTransport::attach(NodeId node, net::DatagramHandler handler) {
  const bool dispatch = dispatch_nodes_.count(node.value) > 0;
  inner_.attach(node, net::DatagramHandler([dispatch, h = std::move(handler)](
                                               const net::Datagram& dg) {
    if (!enabled()) {
      h(dg);
      return;
    }
    const Request req = request_of(dg.data(), dg.size());
    capture(dg.data(), dg.size());
    {
      Scope s(dispatch ? kDispatch : handle_kind(dg.data(), dg.size()), req);
      h(dg);
    }
    if (dispatch && dg.size() > 1 &&
        static_cast<wire::MsgType>(dg.data()[1]) == wire::MsgType::kUpdateReq) {
      const std::uint64_t oid = object_key(dg.data(), dg.size());
      if (oid != 0) g_push[oid % kPushSlots].store(now_ns());
    }
  }));
}

void TimingTransport::send(NodeId from, NodeId to, net::PooledBuffer bytes) {
  if (!enabled()) {
    inner_.send(from, to, std::move(bytes));
    return;
  }
  capture(bytes.data(), bytes.size());
  count_send(bytes.size());
  Scope s(kSend, Request{to.value, object_key(bytes.data(), bytes.size())});
  inner_.send(from, to, std::move(bytes));
}

void TimingTransport::uncork(NodeId from) {
  Scope s(kFlush);
  inner_.uncork(from);
}

void TimingTransport::flush(NodeId from) {
  Scope s(kFlush);
  inner_.flush(from);
}

std::shared_ptr<net::Sender> TimingTransport::open_sender(NodeId from) {
  std::shared_ptr<net::Sender> inner = inner_.open_sender(from);
  if (inner == nullptr) return nullptr;
  return std::make_shared<TimingSender>(std::move(inner),
                                        dispatch_nodes_.count(from.value) > 0);
}

// --- timing spatial index ---------------------------------------------------

namespace {

class TimingIndex : public spatial::SpatialIndex {
 public:
  explicit TimingIndex(std::unique_ptr<spatial::SpatialIndex> inner)
      : inner_(std::move(inner)) {}

  void insert(ObjectId id, geo::Point pos) override {
    Scope s(kSpInsert);
    inner_->insert(id, pos);
  }
  bool remove(ObjectId id) override {
    Scope s(kSpRemove);
    return inner_->remove(id);
  }
  void update(ObjectId id, geo::Point pos) override {
    Scope s(kSpUpdate);
    inner_->update(id, pos);
  }
  void query_rect(const geo::Rect& rect, std::vector<spatial::Entry>& out) const override {
    const std::size_t before = out.size();
    {
      Scope s(kSpRect);
      inner_->query_rect(rect, out);
    }
    count(out.size() - before);
  }
  void query_circle(const geo::Circle& circle,
                    std::vector<spatial::Entry>& out) const override {
    const std::size_t before = out.size();
    {
      Scope s(kSpCircle);
      inner_->query_circle(circle, out);
    }
    count(out.size() - before);
  }
  std::vector<spatial::Entry> k_nearest(geo::Point p, std::size_t k) const override {
    std::vector<spatial::Entry> r;
    {
      Scope s(kSpKnn);
      r = inner_->k_nearest(p, k);
    }
    count(r.size());
    return r;
  }
  std::size_t size() const override { return inner_->size(); }
  void clear() override { inner_->clear(); }
  const char* name() const override { return inner_->name(); }

 private:
  static void count(std::size_t n) {
    if (!enabled()) return;
    ThreadState& ts = state();
    std::lock_guard<std::mutex> lock(ts.mu);
    ts.spatial_entries += n;
  }

  std::unique_ptr<spatial::SpatialIndex> inner_;
};

}  // namespace

spatial::IndexFactory timing_index_factory() {
  return [] { return std::make_unique<TimingIndex>(spatial::make_point_quadtree()); };
}

}  // namespace pb::trace
