#include "sched/estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tcgrid::sched {

namespace {
// Bound the front cache / build memo; reached only by pathological runs.
// Eviction retires value chunks for one epoch instead of freeing them, so a
// reference held across the cap stays valid (see evict()).
constexpr std::size_t kMaxCachedSets = std::size_t{1} << 22;
constexpr std::size_t kMaxMemoizedBuilds = std::size_t{1} << 20;

/// Extend a cached scan of value(0), value(1), ... to `upto`: true when every
/// consecutive pair up to there satisfies `ordered(prev, next)`. A NaN fails
/// either order, so it ends the provable prefix. `settled(v)` marks a value
/// every later one is known to equal, which proves the rest at once.
template <class Value, class Ordered, class Settled>
bool monotone_prefix(detail::MonotonePrefix& c, long upto, Value value,
                     Ordered ordered, Settled settled) {
  if (upto <= c.checked) return true;
  if (c.broken) return false;
  double prev = value(c.checked);
  for (long i = c.checked + 1; i <= upto; ++i) {
    const double next = value(i);
    if (!ordered(prev, next)) {
      c.broken = true;
      return false;
    }
    if (settled(next)) {
      c.checked = std::numeric_limits<long>::max();
      return true;
    }
    prev = next;
    c.checked = i;
  }
  return true;
}
}  // namespace

template <class Value, std::size_t Chunk, std::size_t LoadNum, std::size_t LoadDen>
Value& detail::ProbeTable<Value, Chunk, LoadNum, LoadDen>::insert(std::uint64_t key) {
  if (table_.empty() || size_ * LoadDen >= table_.size() * LoadNum) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
  while (table_[i].slot >= 0) {
    assert(table_[i].key != key && "ProbeTable::insert: key already present");
    i = (i + 1) & mask;
  }
  if (size_ % Chunk == 0) chunks_.push_back(std::make_unique<Value[]>(Chunk));
  auto& e = table_[i];
  e.key = key;
  e.slot = static_cast<std::int32_t>(size_++);
  const auto slot = static_cast<std::size_t>(e.slot);
  return chunks_[slot / Chunk][slot % Chunk];
}

template <class Value, std::size_t Chunk, std::size_t LoadNum, std::size_t LoadDen>
void detail::ProbeTable<Value, Chunk, LoadNum, LoadDen>::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 1024 : old.size() * 2, Entry{});
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.slot < 0) continue;
    std::size_t i = static_cast<std::size_t>(mix64(e.key)) & mask;
    while (table_[i].slot >= 0) i = (i + 1) & mask;
    table_[i] = e;
  }
}

template <class Value, std::size_t Chunk, std::size_t LoadNum, std::size_t LoadDen>
void detail::ProbeTable<Value, Chunk, LoadNum, LoadDen>::evict() {
  // Epoch retirement: drop the index, but keep the current value chunks
  // alive for one more epoch (and only now free the PREVIOUS epoch's). A
  // reference returned before this call therefore dereferences unchanged
  // storage until the NEXT cap-triggered eviction — a full cap's worth of
  // insertions away — instead of dangling immediately, which was the
  // historical clear()-on-next-call hazard.
  assert(size_ > 0 && "ProbeTable::evict: eviction with nothing inserted");
  table_.clear();
  retired_.clear();
  retired_.swap(chunks_);
  size_ = 0;
}

template class detail::ProbeTable<markov::CoupledStats, 256, 1, 2>;
template class detail::ProbeTable<MemoizedBuild, 64, 3, 4>;

Estimator::Estimator(const platform::Platform& platform, const model::Application& app,
                     double eps, std::shared_ptr<markov::ChainStatsStore> store)
    : platform_(platform),
      app_(app),
      eps_(eps),
      store_(std::move(store)),
      set_cap_(kMaxCachedSets),
      build_cap_(kMaxMemoizedBuilds) {
  if (eps_ <= 0.0) throw std::invalid_argument("Estimator: eps must be positive");
  if (platform_.size() > 64) {
    throw std::invalid_argument("Estimator: more than 64 processors unsupported");
  }
  if (store_ == nullptr) {
    // No store given: own one. Same code path, same values — the store's
    // results are pure functions of chain content, not of its history
    // (DESIGN.md §10).
    store_ = std::make_shared<markov::ChainStatsStore>(eps_);
  } else if (store_->eps() != eps_) {
    throw std::invalid_argument(
        "Estimator: eps differs from the shared chain-stats store's");
  }
  const auto p = static_cast<std::size_t>(platform_.size());
  comm_mono_.resize(p);
  surv_mono_.resize(p);
  chain_of_.reserve(p);
  surv_of_.reserve(p);
  per_proc_.reserve(p);
  for (int q = 0; q < platform_.size(); ++q) {
    // Intern first, compute once per DISTINCT chain: the store's per-chain
    // quad and shared survival table are built on first sight of the chain
    // CONTENT — on a homogeneous platform the old constructor ran
    // coupled_stats p times for p identical chains; now p-1 of these calls
    // are dedup hits that only copy the 4-scalar quad.
    const markov::ChainId id =
        store_->intern(markov::ur_submatrix(platform_.proc(q).availability));
    chain_of_.push_back(id);
    per_proc_.push_back(store_->chain_stats(id));
    surv_of_.push_back(&store_->survival(id));
  }
}

const markov::CoupledStats& Estimator::set_stats(std::span<const int> set) const {
  std::uint64_t key = 0;
  for (int q : set) key |= std::uint64_t{1} << q;
  return set_stats_masked(key, set);
}

const markov::CoupledStats& Estimator::set_stats_masked(
    std::uint64_t key, std::span<const int> set) const {
  if (const markov::CoupledStats* hit = set_cache_.find(key)) return *hit;
  if (set_cache_.size() >= set_cap_) set_cache_.evict();
  // Resolve through the store by the sorted multiset of chain ids: on a
  // homogeneous platform every k-subset of workers lands on the same store
  // entry, and cells sharing chain content share the series math.
  auto& ids = scratch_ids_;
  ids.clear();
  for (int q : set) ids.push_back(chain_of_[static_cast<std::size_t>(q)]);
  std::sort(ids.begin(), ids.end());
  markov::CoupledStats stats = store_->set_stats(ids);
  return set_cache_.insert(key) = std::move(stats);
}

double Estimator::expected_comm_time(std::span<const CommNeed> needs) const {
  double e_comm = 0.0;
  long total = 0;
  for (const auto& n : needs) {
    total += n.slots;
    if (n.slots <= 0) continue;
    const auto& st = proc_stats(n.proc);
    e_comm = std::max(e_comm, st.expected_time(n.slots));
  }
  if (static_cast<int>(needs.size()) > platform_.ncom() && total > 0) {
    e_comm = std::max(e_comm, static_cast<double>(total) /
                                  static_cast<double>(platform_.ncom()));
  }
  return e_comm;
}

bool Estimator::comm_time_nondecreasing(int q, long n_max) const {
  const markov::CoupledStats& st = proc_stats(q);
  return monotone_prefix(
      comm_mono_[static_cast<std::size_t>(q)], n_max,
      [&st](long n) { return st.expected_time(n); },  // 0.0 at n = 0
      [](double prev, double next) { return next >= prev; },
      [](double) { return false; });
}

bool Estimator::survival_nonincreasing(int q, long t_max) const {
  return monotone_prefix(
      surv_mono_[static_cast<std::size_t>(q)], t_max,
      [this, q](long t) { return p_no_down(q, t); },
      [](double prev, double next) { return next <= prev; },
      // Survival tables end in an exact 0.0 that every later entry repeats
      // (ChainSurvival::grow_to's underflow cap).
      [](double v) { return v == 0.0; });
}

IterationEstimate Estimator::evaluate(std::span<const CommNeed> needs,
                                      std::span<const int> set, long w) const {
  IterationEstimate out;

  const double e_comm = expected_comm_time(needs);
  double p_comm = 1.0;
  if (e_comm > 0.0) {
    const long t = static_cast<long>(std::ceil(e_comm));
    // Every enrolled worker must avoid DOWN through the whole phase, whether
    // or not it is receiving (paper §V-B).
    for (int q : set) p_comm *= p_no_down(q, t);
  }

  const auto& st = set_stats(set);
  out.p_success = p_comm * st.success_prob(w);
  out.e_time = e_comm + st.expected_time(w);
  return out;
}

}  // namespace tcgrid::sched
