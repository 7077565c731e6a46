#include "markov/chain_stats.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"

namespace tcgrid::markov {

namespace {

struct StoreMetrics {
  obs::Histogram intern_us;   ///< intern() latency (hits and misses)
  obs::Histogram grow_us;     ///< survival-table extension latency (misses only)
  obs::Counter retirements;   ///< survival arrays retired by grow-copy
};

StoreMetrics& store_metrics() {
  static StoreMetrics m = [] {
    obs::Registry& reg = obs::Registry::instance();
    return StoreMetrics{reg.histogram("tcgrid_chainstats_intern_us"),
                        reg.histogram("tcgrid_chainstats_survival_grow_us"),
                        reg.counter("tcgrid_chainstats_retired_arrays_total")};
  }();
  return m;
}

}  // namespace

// ----------------------------------------------------------- ChainSurvival ----

void ChainSurvival::reserve_for(long n) {
  // `n` is the next entry index AND the count of entries written so far in
  // this append burst (published <= n; the tail is not yet visible to
  // readers but must survive the copy).
  if (n < capacity_) return;
  const long grown = std::max<long>(4096, capacity_ * 2);
  const long cap = std::max(grown, n + 1);
  auto next = std::make_unique<double[]>(static_cast<std::size_t>(cap));
  // Entries are immutable once written: copy them, secure ownership, and
  // only then publish the new array — and publish it BEFORE the new length
  // ever is (a reader that acquires a published length therefore always
  // finds an array holding at least that many entries). Ownership first: if
  // arrays_.push_back threw after the store, unwinding would free an array
  // lock-free readers can already be dereferencing. The old array is
  // retired, not freed — readers (and pointers cached after an earlier
  // acquire) may still hold it.
  if (write_ != nullptr) {
    std::copy(write_, write_ + n, next.get());
    store_metrics().retirements.inc();
  }
  arrays_.push_back(std::move(next));
  write_ = arrays_.back().get();
  capacity_ = cap;
  flat_.store(write_, std::memory_order_release);
  if (bytes_ != nullptr) {
    bytes_->fetch_add(static_cast<std::size_t>(cap) * sizeof(double),
                      std::memory_order_relaxed);
  }
}

double ChainSurvival::grow_to(long t) {
  if (t <= 0) return 1.0;
  const std::lock_guard<std::mutex> lock(mu_);
  long n = published_.load(std::memory_order_relaxed);
  if (t < n) return write_[t];
  // Underflow cap: the survival probability is a sum of non-negative
  // doubles, so once an entry is exactly 0.0 every later entry is the
  // identical 0.0 — stop tabulating and answer 0.0 directly. Without this,
  // near-hopeless communication phases (e_comm grows exponentially in the
  // remaining slots) extend the table to millions of explicit zeros and
  // dominate whole sweeps.
  if (n > 0 && write_[n - 1] == 0.0) return 0.0;
  // Past the published/zero-cap fast paths: everything below is real append
  // work, the latency this histogram is for.
  const obs::ScopedTimer timer(store_metrics().grow_us);
  if (n == 0) {
    reserve_for(0);
    write_[0] = 1.0;  // t = 0; row_ is e_U already
    n = 1;
  }
  // Extend the table: entry k = P(not DOWN within k slots). row_ stands at
  // the last tabulated k and just keeps advancing — the same advance
  // sequence the per-estimator tables (and a from-scratch replay) would
  // run, so every stored double is bit-identical to them. Exact growth:
  // with the row cached, resuming costs nothing, so there is no reason to
  // overshoot the request.
  while (n <= t) {
    row_.advance(*chain_);
    double s = row_.survival();
    // Subnormal cut: below DBL_MIN the sequence has left meaningful
    // territory (these probabilities multiply into estimates that are
    // already ~0) and subnormal multiplies are 10-100x slower on common
    // cores — snap to the terminal 0.0 a few thousand slots early instead
    // of crawling through the denormal tail entry by entry.
    if (s < std::numeric_limits<double>::min()) s = 0.0;
    reserve_for(n);
    write_[n] = s;
    ++n;
    if (s == 0.0) break;  // all later entries are equal zeros
  }
  published_.store(n, std::memory_order_release);
  return t < n ? write_[t] : 0.0;
}

// --------------------------------------------------------- ChainStatsStore ----

ChainStatsStore::ChainStatsStore(double eps) : eps_(eps) {
  if (eps_ <= 0.0) {
    throw std::invalid_argument("ChainStatsStore: eps must be positive");
  }
}

std::array<std::uint64_t, 4> ChainStatsStore::content_key(
    const UrMatrix& m) noexcept {
  return {std::bit_cast<std::uint64_t>(m.uu), std::bit_cast<std::uint64_t>(m.ur),
          std::bit_cast<std::uint64_t>(m.ru), std::bit_cast<std::uint64_t>(m.rr)};
}

ChainId ChainStatsStore::intern(const UrMatrix& m) {
  const obs::ScopedTimer timer(store_metrics().intern_us);
  const auto key = content_key(m);
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = by_content_.find(key); it != by_content_.end()) {
    intern_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Construct the entry BEFORE the key becomes visible: if any allocation
  // here throws, the store is unchanged — a map node pointing at a chain id
  // that was never created would alias a later, different chain.
  auto entry = std::make_unique<ChainEntry>();
  entry->matrix = m;
  entry->survival.chain_ = &entry->matrix;  // stable: entry lives behind unique_ptr
  entry->survival.bytes_ = &bytes_;
  const auto id = static_cast<ChainId>(chains_.size());
  chains_.push_back(std::move(entry));
  try {
    by_content_.emplace(key, id);
  } catch (...) {
    chains_.pop_back();  // noexcept: the rollback cannot itself fail
    throw;
  }
  bytes_.fetch_add(sizeof(ChainEntry) + sizeof(key) + sizeof(ChainId),
                   std::memory_order_relaxed);
  return id;
}

CoupledStats ChainStatsStore::chain_stats(ChainId id) const {
  ChainEntry* entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entry = chains_.at(id).get();
  }
  // Compute outside the store mutex: a slow renewal recursion for one chain
  // must not block lookups of other chains. call_once publishes the quad.
  std::call_once(entry->stats_once, [&] {
    const UrMatrix procs[] = {entry->matrix};
    entry->stats = coupled_stats(procs, eps_);
  });
  return entry->stats;
}

CoupledStats ChainStatsStore::set_stats(std::span<const ChainId> ids) const {
  assert(std::is_sorted(ids.begin(), ids.end()) &&
         "ChainStatsStore::set_stats: ids must be the sorted multiset spelling");
  SetEntry* entry;
  {
    std::vector<ChainId> key(ids.begin(), ids.end());
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = sets_.find(key); it != sets_.end()) {
      set_hits_.fetch_add(1, std::memory_order_relaxed);
      entry = it->second.get();
    } else {
      // Construct the entry BEFORE the key becomes visible: a failed
      // allocation must not leave a {key, nullptr} node that a later call
      // would dereference as a hit (same discipline as intern()).
      auto node = std::make_unique<SetEntry>();
      entry = node.get();
      sets_.emplace(std::move(key), std::move(node));
      bytes_.fetch_add(sizeof(SetEntry) + ids.size() * sizeof(ChainId) + 64,
                       std::memory_order_relaxed);
      set_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::call_once(entry->once, [&] {
    // Gather the multiset's matrices (brief re-lock: the chain directory may
    // grow concurrently) and evaluate the series in CONTENT order: sorted by
    // the matrices' bit patterns, a total order independent of intern order,
    // call order, thread timing and store population. This makes the stored
    // quad a pure function of the multiset — the bit-identity argument of
    // DESIGN.md §10 rests on it.
    std::vector<UrMatrix> procs;
    procs.reserve(ids.size());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (ChainId id : ids) procs.push_back(chains_.at(id)->matrix);
    }
    std::sort(procs.begin(), procs.end(), [](const UrMatrix& a, const UrMatrix& b) {
      return content_key(a) < content_key(b);
    });
    entry->stats = coupled_stats(procs, eps_);
  });
  return entry->stats;
}

ChainSurvival& ChainStatsStore::survival(ChainId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return chains_.at(id)->survival;
}

ChainStatsStore::Counters ChainStatsStore::counters() const {
  Counters out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.chains = chains_.size();
    out.set_entries = sets_.size();
    for (const auto& entry : chains_) {
      out.survival_entries +=
          static_cast<std::size_t>(entry->survival.published());
    }
  }
  out.intern_hits = intern_hits_.load(std::memory_order_relaxed);
  out.set_hits = set_hits_.load(std::memory_order_relaxed);
  out.set_misses = set_misses_.load(std::memory_order_relaxed);
  out.bytes = bytes();
  return out;
}

}  // namespace tcgrid::markov
