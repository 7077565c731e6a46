#include "obs/obs.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace tcgrid::obs {

namespace {

std::atomic<bool> g_enabled{false};

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::Counter: return "counter";
    case Kind::Gauge: return "gauge";
    case Kind::Histogram: return "histogram";
  }
  return "?";
}

/// Prometheus label-value escaping: backslash, double quote, newline.
void append_escaped_label(std::string_view v, std::string& out) {
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

void append_label_block(const Labels& labels, std::string& out) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_escaped_label(v, out);
    out += '"';
  }
  out += '}';
}

/// "le" bound rendered for exposition ("+Inf" for the tail bucket).
std::string le_string(int bucket) {
  if (bucket >= Histogram::kBuckets - 1) return "+Inf";
  return std::to_string(Histogram::bucket_le(bucket));
}

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void configure(const Options& options) {
  g_enabled.store(options.enabled, std::memory_order_relaxed);
  Tracer& tracer = Tracer::instance();
  if (options.trace_path.empty()) tracer.close();
  else tracer.open(options.trace_path);
}

std::uint64_t steady_now_us() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------- registry ----

struct Registry::Entry {
  std::string name;
  Labels labels;
  Kind kind = Kind::Counter;
  /// Counter: cells[0]. Histogram: kBuckets buckets, then count, then sum.
  /// Gauges use `gauge` and leave this empty. Sized once at registration,
  /// so a handle's pointer into it stays valid for the process lifetime.
  std::vector<std::atomic<std::uint64_t>> cells;
  std::atomic<long long> gauge{0};
};

struct Registry::Impl {
  std::mutex mu;
  std::vector<std::unique_ptr<Entry>> entries;  // stable addresses
};

Registry::Registry() : impl_(new Impl()) {}

Registry& Registry::instance() {
  static Registry* reg = new Registry();  // immortal: outlives static handles
  return *reg;
}

Registry::Entry& Registry::entry_for(std::string_view name, Labels&& labels,
                                     Kind kind, std::size_t cells_needed) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& entry : impl_->entries) {
    if (entry->name == name && entry->labels == labels) {
      if (entry->kind != kind) {
        throw std::invalid_argument("obs: metric '" + entry->name +
                                    "' re-registered with a different kind");
      }
      return *entry;
    }
  }
  auto entry = std::make_unique<Entry>();
  entry->name = std::string(name);
  entry->labels = std::move(labels);
  entry->kind = kind;
  entry->cells = std::vector<std::atomic<std::uint64_t>>(cells_needed);
  impl_->entries.push_back(std::move(entry));
  return *impl_->entries.back();
}

Counter Registry::counter(std::string_view name, Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), Kind::Counter, 1);
  return Counter(entry.cells.data());
}

Histogram Registry::histogram(std::string_view name, Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), Kind::Histogram,
                           static_cast<std::size_t>(Histogram::kBuckets) + 2);
  return Histogram(entry.cells.data());
}

Gauge Registry::gauge(std::string_view name, Labels labels) {
  Entry& entry = entry_for(name, std::move(labels), Kind::Gauge, 0);
  return Gauge(&entry.gauge);
}

void Counter::inc(std::uint64_t n) const noexcept {
  if (cell_ == nullptr || !enabled()) return;
  cell_->fetch_add(n, std::memory_order_relaxed);
}

void Gauge::set(long long v) const noexcept {
  if (cell_ == nullptr || !enabled()) return;
  cell_->store(v, std::memory_order_relaxed);
}

void Gauge::add(long long d) const noexcept {
  if (cell_ == nullptr || !enabled()) return;
  cell_->fetch_add(d, std::memory_order_relaxed);
}

void Histogram::observe(std::uint64_t value) const noexcept {
  if (cells_ == nullptr || !enabled()) return;
  cells_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  cells_[kBuckets].fetch_add(1, std::memory_order_relaxed);
  cells_[kBuckets + 1].fetch_add(value, std::memory_order_relaxed);
}

void Histogram::merge(const LocalHistogram& local) const noexcept {
  if (cells_ == nullptr || !enabled() || local.count() == 0) return;
  const auto& buckets = local.buckets();
  for (int b = 0; b < kBuckets; ++b) {
    const std::uint64_t n = buckets[static_cast<std::size_t>(b)];
    if (n != 0) cells_[b].fetch_add(n, std::memory_order_relaxed);
  }
  cells_[kBuckets].fetch_add(local.count(), std::memory_order_relaxed);
  cells_[kBuckets + 1].fetch_add(local.sum(), std::memory_order_relaxed);
}

Snapshot Registry::snapshot() {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mu);
  snap.metrics.reserve(impl_->entries.size());
  for (const auto& entry : impl_->entries) {
    MetricSnapshot m;
    m.name = entry->name;
    m.labels = entry->labels;
    m.kind = entry->kind;
    switch (entry->kind) {
      case Kind::Gauge:
        m.gauge = entry->gauge.load(std::memory_order_relaxed);
        break;
      case Kind::Counter:
        m.value = entry->cells[0].load(std::memory_order_relaxed);
        break;
      case Kind::Histogram: {
        m.buckets.resize(static_cast<std::size_t>(Histogram::kBuckets));
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          m.buckets[static_cast<std::size_t>(b)] =
              entry->cells[b].load(std::memory_order_relaxed);
        }
        m.count = entry->cells[Histogram::kBuckets].load(std::memory_order_relaxed);
        m.sum = entry->cells[Histogram::kBuckets + 1].load(std::memory_order_relaxed);
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void Registry::reset_values() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (const auto& entry : impl_->entries) {
    for (auto& c : entry->cells) c.store(0, std::memory_order_relaxed);
    entry->gauge.store(0, std::memory_order_relaxed);
  }
}

// --------------------------------------------------------------- snapshots ----

const MetricSnapshot* Snapshot::find(std::string_view name,
                                     const Labels& labels) const {
  for (const MetricSnapshot& m : metrics) {
    if (m.name == name && m.labels == labels) return &m;
  }
  return nullptr;
}

util::json::Value Snapshot::to_json() const {
  util::json::Array out;
  out.reserve(metrics.size());
  for (const MetricSnapshot& m : metrics) {
    util::json::Object obj;
    obj.emplace_back("name", m.name);
    util::json::Object labels;
    for (const auto& [k, v] : m.labels) labels.emplace_back(k, v);
    obj.emplace_back("labels", std::move(labels));
    obj.emplace_back("kind", kind_name(m.kind));
    switch (m.kind) {
      case Kind::Counter:
        obj.emplace_back("value", m.value);
        break;
      case Kind::Gauge:
        obj.emplace_back("value", m.gauge);
        break;
      case Kind::Histogram: {
        obj.emplace_back("count", m.count);
        obj.emplace_back("sum", m.sum);
        util::json::Array buckets;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          const std::uint64_t n = m.buckets[static_cast<std::size_t>(b)];
          if (n == 0) continue;
          util::json::Object bucket;
          bucket.emplace_back("le", le_string(b));
          bucket.emplace_back("n", n);
          buckets.push_back(std::move(bucket));
        }
        obj.emplace_back("buckets", std::move(buckets));
        break;
      }
    }
    out.push_back(std::move(obj));
  }
  return out;
}

std::string Snapshot::to_prometheus() const {
  std::string out;
  std::vector<std::string_view> typed;  // names whose # TYPE line is out
  for (const MetricSnapshot& m : metrics) {
    bool seen = false;
    for (const std::string_view t : typed) seen = seen || t == m.name;
    if (!seen) {
      out += "# TYPE ";
      out += m.name;
      out += ' ';
      out += kind_name(m.kind);
      out += '\n';
      typed.push_back(m.name);
    }
    switch (m.kind) {
      case Kind::Counter:
      case Kind::Gauge: {
        out += m.name;
        append_label_block(m.labels, out);
        out += ' ';
        out += m.kind == Kind::Counter ? std::to_string(m.value)
                                       : std::to_string(m.gauge);
        out += '\n';
        break;
      }
      case Kind::Histogram: {
        std::uint64_t cumulative = 0;
        for (int b = 0; b < Histogram::kBuckets; ++b) {
          cumulative += m.buckets[static_cast<std::size_t>(b)];
          // Every non-empty bucket plus the +Inf terminal; empty interior
          // buckets are elided (cumulative form loses nothing).
          if (m.buckets[static_cast<std::size_t>(b)] == 0 &&
              b != Histogram::kBuckets - 1) {
            continue;
          }
          Labels with_le = m.labels;
          with_le.emplace_back("le", le_string(b));
          out += m.name;
          out += "_bucket";
          append_label_block(with_le, out);
          out += ' ';
          out += std::to_string(cumulative);
          out += '\n';
        }
        out += m.name;
        out += "_sum";
        append_label_block(m.labels, out);
        out += ' ';
        out += std::to_string(m.sum);
        out += '\n';
        out += m.name;
        out += "_count";
        append_label_block(m.labels, out);
        out += ' ';
        out += std::to_string(m.count);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

// ------------------------------------------------------------------ tracer ----

struct Tracer::Impl {
  std::mutex mu;
  std::ofstream out;
};

Tracer& Tracer::instance() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();
    t->impl_ = new Impl();
    return t;
  }();
  return *tracer;
}

void Tracer::open(const std::string& path) {
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (impl_->out.is_open()) impl_->out.close();
  impl_->out.open(path, std::ios::app);
  if (!impl_->out.is_open()) {
    active_.store(false, std::memory_order_relaxed);
    throw std::runtime_error("obs: cannot open trace file " + path);
  }
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::close() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  active_.store(false, std::memory_order_relaxed);
  if (impl_->out.is_open()) impl_->out.close();
}

void Tracer::emit(std::string_view event, util::json::Object fields) {
  if (!active()) return;
  util::json::Object record;
  record.reserve(fields.size() + 2);
  record.emplace_back(
      "ts_us",
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count()));
  record.emplace_back("ev", std::string(event));
  for (auto& member : fields) record.push_back(std::move(member));
  std::string line = util::json::dump(util::json::Value(std::move(record)));
  line += '\n';
  std::lock_guard<std::mutex> lock(impl_->mu);
  if (!impl_->out.is_open()) return;  // closed between the check and here
  impl_->out << line;
  impl_->out.flush();
}

// -------------------------------------------------------------------- span ----

Span::Span(std::string_view event)
    : active_(Tracer::instance().active()), event_(event) {
  if (active_) start_us_ = steady_now_us();
}

void Span::field(std::string key, util::json::Value value) {
  if (!active_) return;
  fields_.emplace_back(std::move(key), std::move(value));
}

void Span::finish() {
  if (!active_) return;
  active_ = false;
  const std::uint64_t dur_us = steady_now_us() - start_us_;
  fields_.emplace_back("us", dur_us);
  Tracer::instance().emit(event_, std::move(fields_));
}

}  // namespace tcgrid::obs
