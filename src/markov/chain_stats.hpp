// ChainStatsStore: the canonical, shareable home of every §V series result.
//
// The estimator quantities — survival series e_U^T M^k, per-chain and
// set-level CoupledStats — are pure functions of the availability chains'
// UR sub-matrices. Before this store existed, every sched::Estimator
// recomputed and re-tabulated them per scenario cell, and within a cell kept
// one survival table PER PROCESSOR even when several processors share one
// chain (clustered platforms; any homogeneous world). The store interns UR
// sub-matrices by content — the canonical ChainId — and computes each
// derived quantity exactly once per distinct chain (or multiset of chains)
// for everyone: every processor, heuristic, trial, scenario cell and worker
// thread of a session (DESIGN.md §10).
//
// Keying discipline:
//   * chains are interned by BIT content of (uu, ur, ru, rr): two matrices
//     are the same chain iff their doubles are bit-identical;
//   * set-level stats are keyed by the sorted MULTISET of chain ids, not by
//     a processor bitmask — on a homogeneous platform the p-choose-k
//     distinct worker sets of size k collapse to ONE entry per k, and the
//     entry is shared by every estimator view over the store;
//   * the series product for a multiset is evaluated in CONTENT order (sorted
//     by the matrices' bit patterns), never in call or intern order, so the
//     stored doubles are a pure function of the multiset — independent of
//     which caller, thread, or store population got there first. This is the
//     load-bearing half of the guarantee that a store's outputs do not
//     depend on its history (DESIGN.md §10).
//
// Concurrency model (the first cross-thread cache in the codebase):
//   * intern / entry lookup take one store mutex, briefly (no series math
//     under it);
//   * per-chain and per-set CoupledStats are computed under a per-entry
//     std::call_once, so an expensive renewal recursion never blocks other
//     keys;
//   * survival tables are append-only: published-prefix reads are lock-free
//     (atomic published length + an atomically published flat array whose
//     predecessors are retired, never freed, on growth), appends serialize
//     on a per-chain mutex. Stored doubles are produced by
//     the exact UrRow advance sequence the per-estimator tables used, so
//     they are bit-identical to the tables they replace;
//   * CoupledStats values are returned BY VALUE (a 4-scalar quad): callers
//     own their copy — and its lazily grown, non-thread-safe w-memo —
//     privately. The store's own instances never grow a w-memo.
//
// Observability: hit/miss counters and byte accounting (in the spirit of
// Options::realization_budget) via counters().
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "markov/series.hpp"
#include "markov/spectral.hpp"

namespace tcgrid::markov {

/// Canonical identity of an interned UR sub-matrix within one store.
/// Ids are dense (0..chain_count-1) and stable for the store's lifetime.
using ChainId = std::uint32_t;

/// One chain's shared survival table: entry t is P(not DOWN within t slots),
/// the exact double the per-estimator tables tabulated (same UrRow advance
/// sequence, same subnormal cut, same exact-zero cap).
///
/// Storage is one flat array read lock-free at vector depth (pointer +
/// index); appends serialize on the per-chain mutex and publish the new
/// length with release/acquire. When the array fills, growth allocates a
/// larger one, copies the (immutable) published prefix, publishes the new
/// pointer — and RETIRES the old array instead of freeing it, so a
/// concurrent lock-free reader (or a pointer another thread cached after an
/// earlier published() acquire) keeps dereferencing valid memory for the
/// store's lifetime. Retired capacity is a geometric series below one final
/// capacity per chain; counters().bytes accounts for all of it. Entries,
/// once published, never change; the table never shrinks.
class ChainSurvival {
 public:
  ChainSurvival() = default;
  ChainSurvival(const ChainSurvival&) = delete;
  ChainSurvival& operator=(const ChainSurvival&) = delete;

  /// Number of tabulated entries visible to this thread (acquire).
  [[nodiscard]] long published() const noexcept {
    return published_.load(std::memory_order_acquire);
  }

  /// The table array. Read it only after published(); entries t < that
  /// published() are valid in whatever array this returns (arrays only
  /// ever grow-copy). The acquire is load-bearing: this load may observe an
  /// array NEWER than the one published() synchronized with, and it is the
  /// pairing with reserve_for()'s release store that orders that array's
  /// grow-copy before our reads of it.
  [[nodiscard]] const double* flat() const noexcept {
    return flat_.load(std::memory_order_acquire);
  }

  /// Entry t; only valid for t < published().
  [[nodiscard]] double at(long t) const noexcept { return flat()[t]; }

  /// P(not DOWN within t slots) for t at or past the published frontier:
  /// extends the table under the per-chain mutex (or answers 0.0 directly
  /// once the table has reached its terminal exact zero).
  double grow_to(long t);

 private:
  friend class ChainStatsStore;

  /// Make room for entry `n` (under mu_): grow-copy when full.
  void reserve_for(long n);

  std::atomic<const double*> flat_{nullptr};
  std::atomic<long> published_{0};
  std::mutex mu_;   ///< serializes appends only
  long capacity_ = 0;
  double* write_ = nullptr;  ///< the current array, mutably (== flat_)
  /// Every array ever allocated, newest last — retired ones stay alive for
  /// lock-free readers (see class comment).
  std::vector<std::unique_ptr<double[]>> arrays_;
  UrRow row_;                         ///< stands at entry published-1 once written
  const UrMatrix* chain_ = nullptr;   ///< set by the owning store
  std::atomic<std::size_t>* bytes_ = nullptr;  ///< store-level byte accounting
};

/// The session-scoped concurrent store. Thread-safe throughout; one instance
/// is shared by every estimator view of an api::Session run (or owned by a
/// standalone estimator — same values either way).
class ChainStatsStore {
 public:
  /// eps: truncation precision of the Theorem 5.1 series; fixed per store
  /// (every derived quantity depends on it, so stores cannot be shared
  /// across precisions — sched::Estimator enforces the match).
  explicit ChainStatsStore(double eps);

  ChainStatsStore(const ChainStatsStore&) = delete;
  ChainStatsStore& operator=(const ChainStatsStore&) = delete;

  /// Intern a UR sub-matrix by bit content; returns its canonical id.
  ChainId intern(const UrMatrix& m);

  /// coupled_stats({chain}, eps): computed once per chain, ever. Returned by
  /// value — the caller's copy owns a private (empty) w-memo.
  [[nodiscard]] CoupledStats chain_stats(ChainId id) const;

  /// Set-level coupled statistics for a MULTISET of chains. `ids` must be
  /// sorted ascending (the canonical multiset spelling). Computed once per
  /// multiset, in content order (see file header), and returned by value.
  [[nodiscard]] CoupledStats set_stats(std::span<const ChainId> ids) const;

  /// The chain's shared survival table. The reference is stable for the
  /// store's lifetime; estimators cache it per processor for the
  /// p_no_down fast path.
  [[nodiscard]] ChainSurvival& survival(ChainId id) const;

  [[nodiscard]] double eps() const noexcept { return eps_; }

  /// Aggregate observability (all monotone over a store's lifetime).
  struct Counters {
    std::size_t chains = 0;        ///< distinct interned chains
    std::size_t intern_hits = 0;   ///< intern() calls answered by dedup
    std::size_t set_entries = 0;   ///< distinct multiset entries
    std::size_t set_hits = 0;      ///< set_stats() calls answered by an entry
    std::size_t set_misses = 0;    ///< set_stats() calls that created one
    std::size_t survival_entries = 0;  ///< published survival doubles, all chains
    std::size_t bytes = 0;  ///< resident bytes (entries + all survival arrays)
  };
  [[nodiscard]] Counters counters() const;

  /// counters().bytes alone: one relaxed load, no walk of the chain
  /// directory and no store mutex — cheap enough for a per-unit quota check.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct ChainEntry {
    UrMatrix matrix;
    mutable std::once_flag stats_once;
    CoupledStats stats;            ///< quad only; w-memo never grown here
    ChainSurvival survival;
  };
  struct SetEntry {
    mutable std::once_flag once;
    CoupledStats stats;            ///< quad only; w-memo never grown here
  };

  /// Bit pattern of a matrix: the interning key and the content-order key.
  [[nodiscard]] static std::array<std::uint64_t, 4> content_key(
      const UrMatrix& m) noexcept;

  double eps_;

  mutable std::mutex mu_;  ///< guards the maps and chain directory only
  std::vector<std::unique_ptr<ChainEntry>> chains_;
  std::map<std::array<std::uint64_t, 4>, ChainId> by_content_;
  mutable std::map<std::vector<ChainId>, std::unique_ptr<SetEntry>> sets_;

  mutable std::atomic<std::size_t> intern_hits_{0};
  mutable std::atomic<std::size_t> set_hits_{0};
  mutable std::atomic<std::size_t> set_misses_{0};
  mutable std::atomic<std::size_t> bytes_{0};
};

}  // namespace tcgrid::markov
