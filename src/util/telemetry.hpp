#pragma once

// Process-wide observability substrate: a thread-safe metrics registry
// (monotonic counters, gauges, fixed-bucket histograms), an RAII scoped-span
// tracer that emits Chrome trace-event JSON (chrome://tracing / Perfetto),
// cross-rank flow events linking each message's send to its receive, and
// small JSON/JSONL writers for the unified run report.
//
// Cost model: everything is off by default. A disabled Span costs one relaxed
// atomic load and a branch; counters are a single relaxed fetch_add and are
// always live (they are the source of the comm/compute accounting even when
// tracing is off). Span streams are tagged pid=rank (set per thread by the
// minimpi Environment via set_thread_rank) and tid=thread, so a multi-rank
// run opens in Perfetto as one process lane per rank.
//
// Clock / epoch semantics: every timestamp is now_us() — microseconds since
// one process-wide steady_clock epoch latched on first use. minimpi ranks are
// threads of this process, so every rank lane is on that one clock and the
// trace is written with the raw timestamps. All timing in src/ outside util/
// must flow through now_us()/WallTimer (lint rule `raw-clock`) so every
// recorded duration is on that epoch.
//
// Metric names are dotted paths ("gemm.flops", "comm.bytes_sent",
// "halo.exchange_seconds"); the full catalogue lives in docs/observability.md.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace parpde::telemetry {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// --- enablement ------------------------------------------------------------

// True while span tracing is active. The single relaxed-atomic branch every
// instrumentation site pays when telemetry is off.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Turns span collection on/off (counters are always live).
void set_enabled(bool on) noexcept;

// Tags the calling thread as minimpi rank `rank` (-1 = not a rank thread;
// such spans land in the shared "pool" process lane). Set by
// mpi::Environment::run for every rank thread.
void set_thread_rank(int rank) noexcept;

// Microseconds since the process-wide trace epoch, a steady clock latched on
// first use (see the epoch notes above).
[[nodiscard]] std::int64_t now_us() noexcept;

// --- metrics ---------------------------------------------------------------

// Monotonic counter (bytes, messages, flops, calls).
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-write-wins instantaneous value (queue depth, worker count).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram: bucket i counts observations <= bounds[i], plus one
// overflow bucket. Observation is lock-free (relaxed atomics + CAS for
// sum/min/max); bounds are immutable after construction.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double min() const noexcept;  // +inf when empty
  [[nodiscard]] double max() const noexcept;  // -inf when empty
  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  // bounds().size() + 1 entries; the last is the overflow bucket.
  [[nodiscard]] std::vector<std::uint64_t> bucket_counts() const;
  void reset() noexcept;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

// Default latency bounds (seconds): 1us .. 10s, decade-and-a-third spaced.
[[nodiscard]] std::span<const double> default_seconds_bounds() noexcept;

// Named-metric registry. Lookup takes a mutex; hot paths cache the returned
// reference in a function-local static (references stay valid for the process
// lifetime; reset() zeroes values but never invalidates them).
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  // `bounds` is used only on first creation; empty = default_seconds_bounds.
  Histogram& histogram(const std::string& name,
                       std::span<const double> bounds = {});

  // One JSON object holding every metric's current value (counters as
  // integers, gauges as doubles, histograms as {count,sum,min,max,buckets}).
  [[nodiscard]] std::string metrics_json() const;

  // Zeroes every metric (benchmark / test isolation). Objects stay valid.
  void reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

// Shorthand for Registry::global().counter(name) etc.
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
inline Histogram& histogram(const std::string& name,
                            std::span<const double> bounds = {}) {
  return Registry::global().histogram(name, bounds);
}

// --- scoped-span tracer ----------------------------------------------------

// RAII span: records a Chrome "complete" event ("ph":"X") covering its
// lifetime. When tracing is disabled construction is a relaxed load + branch
// and nothing is recorded. Spans nest naturally (stack order per thread).
class Span {
 public:
  // `category` must be a string literal (stored by pointer).
  Span(std::string name, const char* category) noexcept
      : active_(enabled()) {
    if (active_) {
      name_ = std::move(name);
      category_ = category;
      start_us_ = now_us();
    }
  }
  Span(const char* name, const char* category) noexcept : active_(enabled()) {
    if (active_) {
      name_ = name;
      category_ = category;
      start_us_ = now_us();
    }
  }
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early (idempotent).
  void finish() noexcept;

 private:
  bool active_ = false;
  std::int64_t start_us_ = 0;
  const char* category_ = nullptr;
  std::string name_;
};

// Records a span retroactively from explicit timestamps (both in now_us()
// units). Used where the span boundaries are only known after the fact, e.g.
// the halo-stall window of a receive that timed out at least once. No-op
// while tracing is disabled.
void emit_span(const char* name, const char* category, std::int64_t start_us,
               std::int64_t dur_us);

// --- cross-rank flow events ------------------------------------------------

// Process-unique, monotonically increasing flow id (>= 1; 0 means "no flow").
// minimpi stamps one on every message envelope while tracing is enabled so
// the trace can bind each send to its receive.
[[nodiscard]] std::uint64_t next_flow_id() noexcept;

// Records a Chrome flow-start ("ph":"s") / flow-finish ("ph":"f","bp":"e")
// event at now_us() on the calling thread. `name`+`category` must match
// between the two ends of a flow (Chrome binds on id+cat+name); minimpi uses
// the tag-registry owner string as the name. No-ops while tracing is off.
void record_flow_start(const char* name, const char* category,
                       std::uint64_t flow_id);
void record_flow_finish(const char* name, const char* category,
                        std::uint64_t flow_id);

// --- trace buffer management -----------------------------------------------

// Discards all collected trace events (keeps thread buffers registered).
void clear_trace();

// Total events currently buffered across all threads.
[[nodiscard]] std::size_t trace_event_count();

// Events discarded because a thread buffer hit its cap.
[[nodiscard]] std::uint64_t trace_dropped_events();

// Events dropped because recording re-entered itself on one thread (e.g. an
// instrumented subsystem called back into telemetry from inside a record).
[[nodiscard]] std::uint64_t trace_reentrant_drops();

// Writes the collected spans as one Chrome trace JSON object
// ({"traceEvents":[...]}) with per-rank process lanes and flow events binding
// sends to receives. Returns false if the file cannot be opened or a write
// fails.
bool write_chrome_trace(const std::string& path);

// --- JSON helpers ----------------------------------------------------------

[[nodiscard]] std::string json_escape(const std::string& s);

// Minimal JSON object builder for report records (no nesting beyond raw()).
class JsonObject {
 public:
  JsonObject& field(const std::string& key, const std::string& value);
  JsonObject& field(const std::string& key, const char* value);
  JsonObject& field(const std::string& key, double value);
  JsonObject& field(const std::string& key, std::int64_t value);
  JsonObject& field(const std::string& key, std::uint64_t value);
  JsonObject& field(const std::string& key, int value);
  JsonObject& field(const std::string& key, bool value);
  // Inserts pre-serialized JSON as the value.
  JsonObject& raw(const std::string& key, const std::string& json);
  [[nodiscard]] std::string str() const { return body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_ = "{";
  bool first_ = true;
};

// Line-oriented JSON (JSONL) writer for per-rank/per-epoch run reports.
// write_line is thread-safe.
class JsonlWriter {
 public:
  explicit JsonlWriter(const std::string& path);
  ~JsonlWriter();

  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  // True while the file opened successfully and no write has failed since.
  [[nodiscard]] bool ok() const noexcept {
    return file_ != nullptr && !error_;
  }
  void write_line(const std::string& json);

  // Flushes and closes the file; returns false if the open, any write, or
  // the final flush failed. Idempotent (repeat calls return the first
  // verdict). The destructor closes without reporting — call close() when
  // the caller must surface write failures (parpde_cli does).
  bool close();

 private:
  std::FILE* file_ = nullptr;
  bool error_ = false;
  bool opened_ = false;
  std::mutex mu_;
};

}  // namespace parpde::telemetry
