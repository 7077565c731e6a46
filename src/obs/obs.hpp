// tcgrid::obs — the unified observability substrate (DESIGN.md §12).
//
// Two halves:
//
//   * a process-wide METRICS REGISTRY of counters, gauges and fixed-bucket
//     log₂-scale histograms. Each registered metric owns its cells — one
//     64-bit atomic for a counter or gauge, kBuckets + 2 for a histogram —
//     and a handle is a pointer to them, so an update is a relaxed
//     fetch_add with no lock and no lookup, and a scrape (snapshot()) reads
//     each metric's cells under the registry mutex. A concurrent scrape may
//     see a slightly stale value but never a torn one, and once writers
//     quiesce the totals equal the updates issued (tests/obs_test.cpp
//     hammers this from many threads).
//
//     Cells are shared by every writing thread, which is cheap only because
//     of one rule the instrument sites keep: a site updates the registry at
//     most once per run, unit, commit or grow-miss. Per-slot and
//     per-decision tallies accumulate in plain locals (sim::RunTelemetry,
//     LocalHistogram) and are merged once per run;
//
//   * a structured SPAN/EVENT TRACER that appends one canonical-JSON line
//     per event (util/json's deterministic dump — the same serializer the
//     serve protocol and the bench artifacts use) to a configured JSONL
//     file. Spans are RAII timers that carry caller-attached fields.
//
// The whole layer sits behind one switch: obs::configure({.enabled = ...}).
// When disabled (the default), every instrument site reduces to one relaxed
// atomic load and an untaken branch — bench_sweep measures the disabled
// path at parity with the pre-obs binary and the enabled path within the
// <2% budget (BENCH_sweep.json "obs" section).
//
// Registration (Registry::counter/gauge/histogram) is idempotent by
// (name, labels) and intended for function-local static handles at the
// instrument site; it takes the registry mutex, the returned handles never
// do. Metrics registered anywhere in the process appear in every scrape —
// which is exactly what the serve daemon's `metrics` verb exposes.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace tcgrid::obs {

// ------------------------------------------------------------- the switch ----

struct Options {
  /// Master enable for metric updates. Registration and scraping work
  /// regardless (a disabled process still exposes its registered series,
  /// with zero values), only the update hot paths are gated.
  bool enabled = false;
  /// When non-empty, (re)open the span/event tracer on this JSONL file
  /// (append). Empty closes it.
  std::string trace_path;
};

/// Install `options` process-wide. Safe to call at any time; enabling or
/// disabling mid-run simply starts/stops counting from that point.
void configure(const Options& options);

/// The master switch, as one relaxed load (the instrument-site fast path).
[[nodiscard]] bool enabled() noexcept;

// ---------------------------------------------------------------- metrics ----

/// Label set of a metric instance, e.g. {{"tenant", "alice"}}. Order is
/// preserved (it is part of the metric identity and the exposition order).
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class Kind { Counter, Gauge, Histogram };

class Registry;
class LocalHistogram;

/// Monotone counter. Copyable value handle holding the address of its
/// entry-owned cell (stable for the process lifetime); inc() is one relaxed
/// fetch_add, and a no-op while obs is disabled.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t n = 1) const noexcept;

 private:
  friend class Registry;
  explicit Counter(std::atomic<std::uint64_t>* cell) : cell_(cell) {}
  std::atomic<std::uint64_t>* cell_ = nullptr;
};

/// Point-in-time value (queue depths, in-flight counts): set() overwrites,
/// add() adjusts. Like a counter, the handle holds the address of its
/// entry-owned atomic.
class Gauge {
 public:
  Gauge() = default;
  void set(long long v) const noexcept;
  void add(long long d) const noexcept;

 private:
  friend class Registry;
  explicit Gauge(std::atomic<long long>* cell) : cell_(cell) {}
  std::atomic<long long>* cell_ = nullptr;
};

/// Fixed-bucket log₂ histogram over non-negative integer observations
/// (microseconds, slots, bytes). Bucket b>0 covers [2^(b-1), 2^b - 1];
/// bucket 0 covers exactly {0}; the last bucket absorbs the tail. Two extra
/// cells track count and sum, so exposition carries mean and Prometheus
/// _sum/_count. observe() is three relaxed fetch_adds (bucket, count, sum)
/// on the entry-owned cells, no lock.
class Histogram {
 public:
  static constexpr int kBuckets = 40;

  Histogram() = default;
  void observe(std::uint64_t value) const noexcept;
  /// Fold a single-thread LocalHistogram tally in (one fetch_add per
  /// non-zero bucket) — the engine accumulates per-run tallies in plain
  /// locals and merges once per run.
  void merge(const LocalHistogram& local) const noexcept;

  [[nodiscard]] static int bucket_of(std::uint64_t v) noexcept {
    return v == 0 ? 0 : std::min(kBuckets - 1, static_cast<int>(std::bit_width(v)));
  }
  /// Inclusive upper bound of bucket b (UINT64_MAX for the tail bucket).
  [[nodiscard]] static std::uint64_t bucket_le(int b) noexcept {
    if (b <= 0) return 0;
    if (b >= kBuckets - 1) return ~0ull;
    return (1ull << b) - 1;
  }

 private:
  friend class Registry;
  explicit Histogram(std::atomic<std::uint64_t>* cells) : cells_(cells) {}
  std::atomic<std::uint64_t>* cells_ = nullptr;  ///< kBuckets buckets, count, sum
};

/// Plain single-thread histogram tally (no atomics, no registry): the
/// shape Histogram::merge consumes. Used by the engine to tally
/// bulk-advance lengths at zero synchronization cost.
class LocalHistogram {
 public:
  void observe(std::uint64_t v) noexcept {
    ++buckets_[static_cast<std::size_t>(Histogram::bucket_of(v))];
    ++count_;
    sum_ += v;
  }
  void reset() noexcept {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] const std::array<std::uint64_t, Histogram::kBuckets>& buckets()
      const noexcept {
    return buckets_;
  }

 private:
  std::array<std::uint64_t, Histogram::kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

/// Monotonic now in microseconds (steady clock) — the duration base every
/// instrument site uses, exposed so call sites stay one-liners.
[[nodiscard]] std::uint64_t steady_now_us() noexcept;

/// RAII latency timer: observes elapsed µs into a histogram on destruction.
/// Decides at construction — when obs is disabled then, the destructor does
/// nothing (no clock reads at all on the disabled path).
class ScopedTimer;

// ------------------------------------------------------------- snapshots ----

/// One metric instance as read at scrape time.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  Kind kind = Kind::Counter;
  std::uint64_t value = 0;   ///< counter total
  long long gauge = 0;       ///< gauge value
  std::uint64_t count = 0;   ///< histogram observation count
  std::uint64_t sum = 0;     ///< histogram observation sum
  std::vector<std::uint64_t> buckets;  ///< per-bucket counts (NOT cumulative)
};

struct Snapshot {
  std::vector<MetricSnapshot> metrics;  ///< registration order

  /// Lookup by (name, labels); nullptr when absent.
  [[nodiscard]] const MetricSnapshot* find(std::string_view name,
                                           const Labels& labels = {}) const;

  /// Machine form: an array of one object per metric, through util/json's
  /// canonical dump. Histogram buckets list only non-empty buckets as
  /// {"le": upper-bound (or "+Inf"), "n": count}.
  [[nodiscard]] util::json::Value to_json() const;

  /// Prometheus text exposition (TYPE comments, cumulative _bucket/_sum/
  /// _count series for histograms, escaped label values).
  [[nodiscard]] std::string to_prometheus() const;
};

// ---------------------------------------------------------------- registry ----

class Registry {
 public:
  /// The process-wide registry (never destroyed: instrument-site static
  /// handles may outlive main()).
  static Registry& instance();

  // Registration: idempotent by (name, labels); a kind mismatch on an
  // existing (name, labels) throws std::invalid_argument. Takes the
  // registry mutex — call once per site (function-local static handle),
  // not per update.
  Counter counter(std::string_view name, Labels labels = {});
  Histogram histogram(std::string_view name, Labels labels = {});
  Gauge gauge(std::string_view name, Labels labels = {});

  /// Read every metric into a point-in-time snapshot. Concurrent updates
  /// are never torn (64-bit atomic cells); totals are exact once writers
  /// quiesce.
  [[nodiscard]] Snapshot snapshot();

  /// Zero every metric's cells (tests and bench arms). The metric
  /// directory is preserved — handles stay valid. Callers are responsible
  /// for quiescing writers if they need the next scrape to be exact.
  void reset_values();

 private:
  struct Entry;

  Registry();
  ~Registry() = delete;  // intentionally immortal

  Entry& entry_for(std::string_view name, Labels&& labels, Kind kind,
                   std::size_t cells_needed);

  struct Impl;
  Impl* impl_;
};

// ----------------------------------------------------------------- tracer ----

/// Append-only structured event log: one canonical-JSON object per line.
/// Thread-safe (one mutex around the write); inactive until configure()
/// supplies a trace_path.
class Tracer {
 public:
  static Tracer& instance();

  [[nodiscard]] bool active() const noexcept {
    return active_.load(std::memory_order_relaxed);
  }

  /// Emit {"ts_us": <wall clock µs>, "ev": event, ...fields}. No-op while
  /// inactive (check active() first to skip building fields).
  void emit(std::string_view event, util::json::Object fields);

  void open(const std::string& path);
  void close();

 private:
  Tracer() = default;
  ~Tracer() = delete;  // immortal, like the registry

  std::atomic<bool> active_{false};
  struct Impl;
  Impl* impl_ = nullptr;
};

/// RAII span: measures wall time from construction, emits one tracer event
/// with "us" (duration) plus attached fields on finish()/destruction.
/// Construction while the tracer is inactive makes every method a no-op.
class Span {
 public:
  explicit Span(std::string_view event);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  [[nodiscard]] bool active() const noexcept { return active_; }
  void field(std::string key, util::json::Value value);
  void finish();  ///< emit now (idempotent)

 private:
  bool active_ = false;
  std::string event_;
  std::uint64_t start_us_ = 0;
  util::json::Object fields_;
};

class ScopedTimer {
 public:
  explicit ScopedTimer(const Histogram& hist)
      : hist_(enabled() ? &hist : nullptr),
        start_us_(hist_ != nullptr ? steady_now_us() : 0) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    if (hist_ != nullptr) hist_->observe(steady_now_us() - start_us_);
  }

 private:
  const Histogram* hist_;
  std::uint64_t start_us_;
};

}  // namespace tcgrid::obs
