#include "sched/incremental.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace tcgrid::sched {

namespace {

/// Remaining transfer slots worker q would need to run x tasks, given what
/// it already holds. Candidates are scored as if placed fresh: in-flight
/// partial transfers are not credited (they are lost on reconfiguration).
long fresh_need(const sim::SchedulerView& view, int q, int x) {
  const auto& h = view.holdings[static_cast<std::size_t>(q)];
  const auto& app = *view.app;
  long need = 0;
  if (!h.has_program && app.t_prog > 0) need += app.t_prog;
  need += static_cast<long>(std::max(0, x - h.data_messages)) * app.t_data;
  return need;
}

}  // namespace

std::uint64_t view_signature(const sim::SchedulerView& view) {
  // Two independent FNV-1a lanes over alternating workers, combined at the
  // end: the one-lane chain serializes a multiply per worker (this hash
  // runs once per proactive consult), while two lanes halve that latency.
  // Any deterministic 64-bit hash is sound here — the signature is only a
  // memo key, and collision odds are unchanged.
  std::uint64_t h0 = 1469598103934665603ULL;
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  const auto pack = [&view](std::size_t q) {
    std::uint64_t v = static_cast<std::uint64_t>(q) << 32;
    if (view.states[q] != markov::State::Up) return v;  // holdings unread
    v |= 1;
    v |= static_cast<std::uint64_t>(view.holdings[q].has_program ? 1 : 0) << 1;
    v |= static_cast<std::uint64_t>(std::min(view.holdings[q].data_messages, 0xffff))
         << 2;
    return v;
  };
  const std::size_t n = view.states.size();
  std::size_t q = 0;
  for (; q + 1 < n; q += 2) {
    h0 = (h0 ^ pack(q)) * 1099511628211ULL;
    h1 = (h1 ^ pack(q + 1)) * 1099511628211ULL;
  }
  if (q < n) h0 = (h0 ^ pack(q)) * 1099511628211ULL;
  return h0 ^ (h1 * 0x2545f4914f6cdd1dULL);
}

const BuiltConfiguration& IncrementalBuilder::build_memoized(
    const sim::SchedulerView& view) const {
  if (!memo_ || rule_ == Rule::IY) {  // last_valid_ stays false
    ++counts_.fresh_builds;
    build_fresh(view, last_);
    return last_;
  }
  if (last_valid_ && reuse_holds(view)) {
    ++counts_.reuses;
    remember(view);
    return last_;
  }
  // Fold the rule into the key: rules share one estimator (and memo) within
  // a sweep scenario.
  std::uint64_t key = view_signature(view);
  key ^= static_cast<std::uint64_t>(rule_) + 0x9e3779b97f4a7c15ULL;
  key *= 1099511628211ULL;
  auto& memo = estimator_->build_memo();
  last_valid_ = false;  // until last_ holds this view's build
  if (const MemoizedBuild* hit = memo.find(key)) {
    ++counts_.memo_hits;
    last_ = *hit;
  } else {
    ++counts_.fresh_builds;
    // Build BEFORE the key becomes visible: an exception out of build_fresh
    // must not leave an empty configuration memoized as a valid hit.
    build_fresh(view, last_);
    memo.insert(key) = last_;
  }
  remember(view);
  return last_;
}

void IncrementalBuilder::remember(const sim::SchedulerView& view) const {
  const std::size_t p = view.states.size();
  last_up_.resize(p);
  last_holdings_.resize(p);
  for (std::size_t q = 0; q < p; ++q) {
    last_up_[q] = view.states[q] == markov::State::Up ? 1 : 0;
    last_holdings_[q] = view.holdings[q];
  }
  last_mask_ = 0;
  for (const auto& a : last_.config.assignments()) last_mask_ |= std::uint64_t{1} << a.proc;
  // An infeasible build has no round winners to check joiners against.
  last_valid_ = !last_.config.empty();
}

// Reuse check. A build is m argmax rounds; each round's base (the partial
// configuration so far) depends only on the earlier winners and on the
// winners' own UP bits and holdings. So when every winner kept both, each
// round's base is unchanged, and so is the score of every worker whose own
// inputs are unchanged. Such a worker did not beat the round's winner
// before and cannot now. A worker that left the UP set and was no winner
// only removes a loser. That leaves the workers that joined UP or changed
// holdings: each is scored against the recorded winner of every round, in
// O(1) per round. The argmax keeps the lowest index among equal scores, so
// q beats winner w iff its score is higher, or equal with q < w. (A later
// clone skipped by the CandClass dedup ties an earlier, evaluated worker
// and so cannot win either — scoring it anyway gives the same verdict.)
bool IncrementalBuilder::reuse_holds(const sim::SchedulerView& view) const {
  const std::size_t p = view.states.size();
  if (last_up_.size() != p) return false;
  changed_.clear();
  for (std::size_t q = 0; q < p; ++q) {
    const bool winner = (last_mask_ >> q) & 1;
    if (view.states[q] != markov::State::Up) {
      if (winner) return false;  // a winner left: its rounds change
      continue;
    }
    const model::Holdings& now = view.holdings[q];
    const model::Holdings& then = last_holdings_[q];
    if (last_up_[q] && now.has_program == then.has_program &&
        now.data_messages == then.data_messages) {
      continue;  // unchanged inputs (partial progress is never read)
    }
    if (winner) return false;  // a winner's own score moved
    changed_.push_back(static_cast<int>(q));
  }
  if (changed_.empty()) return true;

  begin_rounds(static_cast<int>(p));
  for (const RoundWinner& win : last_.rounds) {
    begin_round(view);
    for (int q : changed_) {
      if (view.platform->proc(q).max_tasks < 1) continue;  // never eligible
      IterationEstimate est;
      const double score = candidate_score(view, q, est);
      if (score > win.score || (score == win.score && q < win.proc)) return false;
    }
    enroll(view, win.proc);
  }
  return true;
}

void IncrementalBuilder::begin_rounds(int p) const {
  loads_.assign(static_cast<std::size_t>(p), 0);  // per-proc task counts
  order_.clear();  // enrollment order of workers with >= 1 task
  pos_.assign(static_cast<std::size_t>(p), -1);
  w_current_ = 0;
  base_mask_ = 0;
}

// Base arrays over the enrolled order: per-member fresh needs and comm times
// at the current loads, their prefix/suffix maxes, and the slot total.
// Members with zero need contribute 0.0 to the maxes, which the reference
// max — started at 0.0 — also ignores.
void IncrementalBuilder::begin_round(const sim::SchedulerView& view) const {
  const std::size_t k = order_.size();
  base_slots_.resize(k);
  base_e_.resize(k);
  pre_max_.resize(k + 1);
  suf_max_.resize(k + 1);
  total_base_ = 0;
  pre_max_[0] = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const int r = order_[i];
    const long slots = fresh_need(view, r, loads_[static_cast<std::size_t>(r)]);
    base_slots_[i] = slots;
    total_base_ += slots;
    base_e_[i] = slots > 0 ? estimator_->proc_stats(r).expected_time(slots) : 0.0;
    pre_max_[i + 1] = std::max(pre_max_[i], base_e_[i]);
  }
  suf_max_[k] = 0.0;
  for (std::size_t i = k; i-- > 0;) {
    suf_max_[i] = std::max(suf_max_[i + 1], base_e_[i]);
  }
  ts_.clear();        // distinct comm horizons of this round...
  base_prod_.clear(); // ...and the base survival product at each
}

// Round-incremental candidate evaluation. The reference semantics — for each
// of the m placement rounds, score every eligible worker q by
// Estimator::evaluate over the partial configuration plus one task on q —
// rebuilt the O(k) needs/set vectors and re-ran the O(k) comm-time max,
// survival product and set-key fold PER CANDIDATE, making each round O(p*k)
// even though every candidate shares the same k-member base. begin_round
// precomputes the shared parts once and this derives each candidate in
// O(1), bit-identically to the reference evaluate() calls:
//   * e_comm: max() over doubles is order-free and exact, so prefix/suffix
//     maxes over the enrolled order answer "max excluding position i" for
//     enrolled candidates and the full prefix max answers un-enrolled ones;
//     the integer slot total is exact in any order.
//   * p_comm: the survival product IS order-sensitive FP, so the shared base
//     product over the enrolled order is accumulated in enrollment order —
//     exactly evaluate()'s in-set factor order — lazily once per distinct
//     comm horizon t seen in the round, and an un-enrolled candidate appends
//     its own factor LAST, matching its position in the reference set. An
//     enrolled candidate's own factor is p_no_down(q, t), independent of its
//     load, so its product is the base product unchanged.
//   * set_stats: the candidate key is base_mask | 1 << q (O(1) instead of
//     re-folding the set), answered by the inline front-cache probe; misses
//     resolve through the store exactly as before.
double IncrementalBuilder::candidate_score(const sim::SchedulerView& view, int q,
                                           IterationEstimate& est) const {
  const auto& plat = *view.platform;
  const auto qi = static_cast<std::size_t>(q);
  const std::size_t k = order_.size();
  const bool in_order = loads_[qi] > 0;

  // Candidate: one more task on q.
  const int xq = loads_[qi] + 1;
  const long wq = plat.proc(q).speed;
  const long w_cand = std::max(w_current_, static_cast<long>(xq) * wq);
  const long slots_q = fresh_need(view, q, xq);
  const double e_q = slots_q > 0 ? estimator_->proc_stats(q).expected_time(slots_q) : 0.0;

  double e_comm;
  long total = total_base_ + slots_q;
  std::size_t nneeds = k;
  if (in_order) {
    const auto i = static_cast<std::size_t>(pos_[qi]);
    e_comm = std::max(std::max(pre_max_[i], suf_max_[i + 1]), e_q);
    total -= base_slots_[i];
  } else {
    e_comm = std::max(pre_max_[k], e_q);
    nneeds = k + 1;
  }
  if (static_cast<int>(nneeds) > plat.ncom() && total > 0) {
    e_comm = std::max(e_comm, static_cast<double>(total) / static_cast<double>(plat.ncom()));
  }

  double p_comm = 1.0;
  if (e_comm > 0.0) {
    const long t = static_cast<long>(std::ceil(e_comm));
    if (k > 0) {
      std::size_t j = 0;
      while (j < ts_.size() && ts_[j] != t) ++j;
      if (j == ts_.size()) {
        double base = 1.0;
        for (int r : order_) base *= estimator_->p_no_down(r, t);
        ts_.push_back(t);
        base_prod_.push_back(base);
      }
      p_comm = base_prod_[j];
    }
    if (!in_order) p_comm *= estimator_->p_no_down(q, t);
  }

  const std::uint64_t key = base_mask_ | (std::uint64_t{1} << q);
  const markov::CoupledStats* st = estimator_->set_stats_cached(key);
  if (st == nullptr) {
    // Front miss (rare after warm-up): resolve through the store.
    cand_set_.clear();
    for (int r : order_) cand_set_.push_back(r);
    if (!in_order) cand_set_.push_back(q);
    st = &estimator_->set_stats_masked(key, cand_set_);
  }

  est.p_success = p_comm * st->success_prob(w_cand);
  est.e_time = e_comm + st->expected_time(w_cand);
  return rule_score(rule_, est, view.iteration_elapsed);
}

void IncrementalBuilder::enroll(const sim::SchedulerView& view, int q) const {
  const auto qi = static_cast<std::size_t>(q);
  if (loads_[qi] == 0) {
    pos_[qi] = static_cast<int>(order_.size());
    order_.push_back(q);
    base_mask_ |= std::uint64_t{1} << q;
  }
  ++loads_[qi];
  w_current_ = std::max(w_current_,
                        static_cast<long>(loads_[qi]) * view.platform->proc(q).speed);
}

// Un-enrolled workers with identical (chain, speed, holdings) produce
// bitwise-identical estimates and scores; the argmax keeps the first on ties
// (strictly-greater test), so later clones are skipped outright.
void IncrementalBuilder::build_fresh(const sim::SchedulerView& view,
                                     BuiltConfiguration& out) const {
  const auto& plat = *view.platform;
  const int p = plat.size();
  const int m = view.app->num_tasks;

  out.rounds.clear();
  begin_rounds(p);
  IterationEstimate chosen_est{};
  for (int task = 0; task < m; ++task) {
    begin_round(view);
    classes_.clear();

    int best = -1;
    double best_score = -std::numeric_limits<double>::infinity();
    IterationEstimate best_est{};

    for (int q = 0; q < p; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (view.states[qi] != markov::State::Up) continue;
      if (loads_[qi] >= plat.proc(q).max_tasks) continue;

      if (loads_[qi] == 0) {
        const CandClass cls{estimator_->chain_id(q), plat.proc(q).speed,
                            view.holdings[qi].has_program,
                            view.holdings[qi].data_messages};
        bool dup = false;
        for (const CandClass& seen : classes_) {
          if (seen == cls) {
            dup = true;
            break;
          }
        }
        if (dup) continue;  // bitwise tie with an earlier candidate: cannot win
        classes_.push_back(cls);
      }

      IterationEstimate est;
      const double score = candidate_score(view, q, est);
      if (score > best_score) {
        best_score = score;
        best = q;
        best_est = est;
      }
    }

    if (best < 0) {  // not enough UP capacity for all m tasks
      out.config = model::Configuration{};
      out.estimate = IterationEstimate{};
      out.rounds.clear();
      return;
    }
    out.rounds.push_back({best_score, best});
    enroll(view, best);
    chosen_est = best_est;
  }

  std::vector<model::Assignment> assignments;
  assignments.reserve(order_.size());
  for (int q : order_) assignments.push_back({q, loads_[static_cast<std::size_t>(q)]});
  out.config = model::Configuration(std::move(assignments));
  out.estimate = chosen_est;
}

IterationEstimate IncrementalBuilder::estimate_fresh(
    const sim::SchedulerView& view, const model::Configuration& cfg) const {
  std::vector<int> set;
  std::vector<Estimator::CommNeed> needs;
  set.reserve(cfg.size());
  needs.reserve(cfg.size());
  for (const auto& a : cfg.assignments()) {
    set.push_back(a.proc);
    needs.push_back({a.proc, fresh_need(view, a.proc, a.tasks)});
  }
  return estimator_->evaluate(needs, set, cfg.compute_slots(view.platform->speeds()));
}

}  // namespace tcgrid::sched
