#include "util/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

namespace parpde::telemetry {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

thread_local int t_rank = -1;

std::chrono::steady_clock::time_point trace_epoch() noexcept {
  static const auto epoch = std::chrono::steady_clock::now();
  return epoch;
}

// --- trace collector -------------------------------------------------------

struct TraceEvent {
  std::string name;
  const char* category;
  std::int64_t ts_us;
  std::int64_t dur_us;
  int rank;
  int tid;
  char ph;                   // 'X' complete, 's' flow start, 'f' flow finish
  std::uint64_t flow_id;     // nonzero only for flow events
};

// Per-thread event sink. Appends lock the buffer's own mutex (uncontended on
// the fast path); write_chrome_trace locks every buffer, so no event is ever
// read while a live thread appends.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  int tid = 0;
};

// Each thread's events stay capped so a forgotten long trace cannot exhaust
// memory; overflow is counted, not silently dropped.
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct TraceCollector {
  std::mutex mu;  // guards `buffers` registration
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::atomic<std::uint64_t> dropped{0};
  std::atomic<std::uint64_t> reentrant_drops{0};

  static TraceCollector& instance() {
    static TraceCollector* c = new TraceCollector;  // never destroyed: thread
    return *c;                                      // buffers outlive main
  }

  ThreadBuffer& local() {
    thread_local ThreadBuffer* buffer = [this] {
      auto owned = std::make_unique<ThreadBuffer>();
      ThreadBuffer* raw = owned.get();
      std::lock_guard<std::mutex> lock(mu);
      raw->tid = static_cast<int>(buffers.size());
      buffers.push_back(std::move(owned));
      return raw;
    }();
    return *buffer;
  }
};

// Re-entrancy guard: recording an event must never recurse into recording
// another (e.g. the comm validator emitting a span from inside a span flush).
// Reentrant attempts are dropped and counted rather than deadlocking on the
// per-thread buffer mutex.
thread_local bool t_in_record = false;

void record_event(std::string name, const char* category, std::int64_t ts_us,
                  std::int64_t dur_us, char ph = 'X',
                  std::uint64_t flow_id = 0) {
  auto& collector = TraceCollector::instance();
  if (t_in_record) {
    collector.reentrant_drops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  t_in_record = true;
  ThreadBuffer& buffer = collector.local();
  {
    std::lock_guard<std::mutex> lock(buffer.mu);
    if (buffer.events.size() >= kMaxEventsPerThread) {
      collector.dropped.fetch_add(1, std::memory_order_relaxed);
    } else {
      buffer.events.push_back(TraceEvent{std::move(name), category, ts_us,
                                         dur_us, t_rank, buffer.tid, ph,
                                         flow_id});
    }
  }
  t_in_record = false;
}

}  // namespace

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

void set_thread_rank(int rank) noexcept { t_rank = rank; }

std::int64_t now_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

// --- Gauge -----------------------------------------------------------------

void Gauge::add(double delta) noexcept {
  double cur = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

// --- Histogram -------------------------------------------------------------

namespace {

void atomic_accumulate(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void atomic_min(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& target, double v) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      buckets_(new std::atomic<std::uint64_t>[bounds_.size() + 1]),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  std::sort(bounds_.begin(), bounds_.end());
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_accumulate(sum_, v);
  atomic_min(min_, v);
  atomic_max(max_, v);
}

double Histogram::min() const noexcept {
  return min_.load(std::memory_order_relaxed);
}

double Histogram::max() const noexcept {
  return max_.load(std::memory_order_relaxed);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::span<const double> default_seconds_bounds() noexcept {
  static const double bounds[] = {1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3,
                                  3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0,  3.0,
                                  10.0};
  return bounds;
}

// --- Registry --------------------------------------------------------------

Registry& Registry::global() {
  static Registry* registry = new Registry;  // never destroyed: hot paths
  return *registry;                          // cache references
}

namespace {

template <typename T, typename Make>
T& find_or_create(std::vector<std::pair<std::string, std::unique_ptr<T>>>& v,
                  const std::string& name, Make make) {
  for (auto& [n, metric] : v) {
    if (n == name) return *metric;
  }
  v.emplace_back(name, make());
  return *v.back().second;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(counters_, name,
                        [] { return std::make_unique<Counter>(); });
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(gauges_, name, [] { return std::make_unique<Gauge>(); });
}

Histogram& Registry::histogram(const std::string& name,
                               std::span<const double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  return find_or_create(histograms_, name, [&] {
    const auto b = bounds.empty() ? default_seconds_bounds() : bounds;
    return std::make_unique<Histogram>(std::vector<double>(b.begin(), b.end()));
  });
}

std::string Registry::metrics_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonObject obj;
  for (const auto& [name, c] : counters_) obj.field(name, c->value());
  for (const auto& [name, g] : gauges_) obj.field(name, g->value());
  for (const auto& [name, h] : histograms_) {
    JsonObject hist;
    hist.field("count", h->count());
    hist.field("sum", h->sum());
    if (h->count() > 0) {
      hist.field("min", h->min());
      hist.field("max", h->max());
    }
    std::string buckets = "[";
    const auto counts = h->bucket_counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      if (i > 0) buckets += ',';
      buckets += std::to_string(counts[i]);
    }
    buckets += ']';
    hist.raw("buckets", buckets);
    obj.raw(name, hist.str());
  }
  return obj.str();
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

// --- spans / trace ---------------------------------------------------------

void Span::finish() noexcept {
  if (!active_) return;
  active_ = false;
  const std::int64_t end_us = now_us();
  record_event(std::move(name_), category_, start_us_,
               std::max<std::int64_t>(0, end_us - start_us_));
}

void emit_span(const char* name, const char* category, std::int64_t start_us,
               std::int64_t dur_us) {
  if (!enabled()) return;
  record_event(name, category, start_us, std::max<std::int64_t>(0, dur_us));
}

// --- flow events -----------------------------------------------------------

std::uint64_t next_flow_id() noexcept {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void record_flow_start(const char* name, const char* category,
                       std::uint64_t flow_id) {
  if (!enabled() || flow_id == 0) return;
  record_event(name, category, now_us(), 0, 's', flow_id);
}

void record_flow_finish(const char* name, const char* category,
                        std::uint64_t flow_id) {
  if (!enabled() || flow_id == 0) return;
  record_event(name, category, now_us(), 0, 'f', flow_id);
}

void clear_trace() {
  auto& collector = TraceCollector::instance();
  std::lock_guard<std::mutex> registry_lock(collector.mu);
  for (auto& buffer : collector.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
  }
  collector.dropped.store(0, std::memory_order_relaxed);
  collector.reentrant_drops.store(0, std::memory_order_relaxed);
}

std::size_t trace_event_count() {
  auto& collector = TraceCollector::instance();
  std::lock_guard<std::mutex> registry_lock(collector.mu);
  std::size_t n = 0;
  for (auto& buffer : collector.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    n += buffer->events.size();
  }
  return n;
}

std::uint64_t trace_dropped_events() {
  return TraceCollector::instance().dropped.load(std::memory_order_relaxed);
}

std::uint64_t trace_reentrant_drops() {
  return TraceCollector::instance().reentrant_drops.load(
      std::memory_order_relaxed);
}

bool write_chrome_trace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;

  auto& collector = TraceCollector::instance();
  std::lock_guard<std::mutex> registry_lock(collector.mu);

  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  // Process-name metadata: one lane per rank plus a shared lane for helper
  // threads (rank -1).
  std::vector<int> ranks_seen;
  for (auto& buffer : collector.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    for (const auto& e : buffer->events) {
      if (std::find(ranks_seen.begin(), ranks_seen.end(), e.rank) ==
          ranks_seen.end()) {
        ranks_seen.push_back(e.rank);
      }
    }
  }
  std::sort(ranks_seen.begin(), ranks_seen.end());
  for (const int rank : ranks_seen) {
    const std::string label =
        rank < 0 ? "shared threads" : "rank " + std::to_string(rank);
    std::fprintf(f,
                 "%s{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"name\":\"%s\"}}",
                 first ? "" : ",", rank, label.c_str());
    first = false;
  }
  for (auto& buffer : collector.buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    for (const auto& e : buffer->events) {
      if (e.ph == 'X') {
        std::fprintf(f,
                     "%s{\"ph\":\"X\",\"name\":\"%s\",\"cat\":\"%s\","
                     "\"ts\":%lld,\"dur\":%lld,\"pid\":%d,\"tid\":%d}",
                     first ? "" : ",", json_escape(e.name).c_str(), e.category,
                     static_cast<long long>(e.ts_us),
                     static_cast<long long>(e.dur_us), e.rank, e.tid);
      } else {
        // Flow events: "s" opens a flow at the send, "f" with bp:"e" closes
        // it at the receive; Chrome/Perfetto bind the two on id+cat+name.
        std::fprintf(f,
                     "%s{\"ph\":\"%c\",%s\"name\":\"%s\",\"cat\":\"%s\","
                     "\"id\":%llu,\"ts\":%lld,\"pid\":%d,\"tid\":%d}",
                     first ? "" : ",", e.ph,
                     e.ph == 'f' ? "\"bp\":\"e\"," : "",
                     json_escape(e.name).c_str(), e.category,
                     static_cast<unsigned long long>(e.flow_id),
                     static_cast<long long>(e.ts_us), e.rank, e.tid);
      }
      first = false;
    }
  }
  std::fputs("]}\n", f);
  const bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

// --- JSON helpers ----------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonObject::key(const std::string& k) {
  if (!first_) body_ += ',';
  first_ = false;
  body_ += '"';
  body_ += json_escape(k);
  body_ += "\":";
}

JsonObject& JsonObject::field(const std::string& k, const std::string& value) {
  key(k);
  body_ += '"';
  body_ += json_escape(value);
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, const char* value) {
  return field(k, std::string(value));
}

JsonObject& JsonObject::field(const std::string& k, double value) {
  key(k);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, std::int64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::field(const std::string& k, int value) {
  return field(k, static_cast<std::int64_t>(value));
}

JsonObject& JsonObject::field(const std::string& k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

JsonlWriter::JsonlWriter(const std::string& path)
    : file_(std::fopen(path.c_str(), "w")), opened_(file_ != nullptr) {}

JsonlWriter::~JsonlWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

void JsonlWriter::write_line(const std::string& json) {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) return;
  if (std::fputs(json.c_str(), file_) < 0 || std::fputc('\n', file_) == EOF) {
    error_ = true;
  }
}

bool JsonlWriter::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0 || std::ferror(file_) != 0) error_ = true;
    if (std::fclose(file_) != 0) error_ = true;
    file_ = nullptr;
  }
  return opened_ && !error_;
}

}  // namespace parpde::telemetry
