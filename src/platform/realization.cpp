#include "platform/realization.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>

namespace tcgrid::platform {

namespace {

/// Slots materialized per source pull. Large enough to amortize the virtual
/// fill_block dispatch and the run-diff pass, small enough that lazy growth
/// does not overshoot a few-hundred-slot makespan by much.
constexpr long kChunk = 512;

}  // namespace

Realization::Realization(std::unique_ptr<AvailabilitySource> source,
                         std::size_t budget_bytes)
    : source_(std::move(source)), budget_(budget_bytes) {
  if (source_ == nullptr) {
    throw std::invalid_argument("Realization: null source");
  }
  p_ = source_->size();
  if (p_ < 1) throw std::invalid_argument("Realization: empty source");
  if (source_->position() != 0) {
    throw std::invalid_argument("Realization: source already advanced");
  }
  const auto p = static_cast<std::size_t>(p_);
  runs_.resize(p);
  cursor_.assign(p, 0);
  last_row_.resize(p);
  scratch_.resize(p * static_cast<std::size_t>(kChunk));
}

void Realization::materialize_chunk(long slots) {
  const auto p = static_cast<std::size_t>(p_);
  source_->fill_block(scratch_.data(), slots);

  std::size_t new_runs = 0;
  for (long r = 0; r < slots; ++r) {
    const markov::State* row = scratch_.data() + static_cast<std::size_t>(r) * p;
    const long slot = frontier_ + r;
    if (slot == 0) {
      for (std::size_t q = 0; q < p; ++q) runs_[q].push_back(Run{slot, row[q]});
      new_runs += p;
      continue;
    }
    const markov::State* prev = r > 0 ? row - p : last_row_.data();
    // Word-wise diff: states are bytes, so XOR of 8-byte chunks yields a
    // nonzero byte exactly at changed workers; only those are processed.
    // Rows hold every state 30-60% of the time in the paper's world, and
    // changed rows touch 1-3 workers — this pass is what keeps
    // materialization within a few percent of bare generation. The
    // bit-index -> byte-index mapping below is little-endian; big-endian
    // hosts take the byte-wise tail loop for the whole row.
    std::size_t q = 0;
    if constexpr (std::endian::native == std::endian::little) {
      for (; q + 8 <= p; q += 8) {
        std::uint64_t a;
        std::uint64_t b;
        std::memcpy(&a, prev + q, 8);
        std::memcpy(&b, row + q, 8);
        std::uint64_t diff = a ^ b;
        while (diff != 0) {
          const auto at = q + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
          runs_[at].push_back(Run{slot, row[at]});
          ++new_runs;
          diff &= ~(0xffULL << (static_cast<std::size_t>(at - q) * 8));
        }
      }
    }
    for (; q < p; ++q) {
      if (row[q] != prev[q]) {
        runs_[q].push_back(Run{slot, row[q]});
        ++new_runs;
      }
    }
  }
  std::copy_n(scratch_.data() + static_cast<std::size_t>(slots - 1) * p, p,
              last_row_.data());
  frontier_ += slots;
  total_runs_ += new_runs;
  bytes_ = total_runs_ * sizeof(Run);
}

void Realization::ensure(long slots) {
  assert(!frozen_ || slots <= frontier_);
  while (frontier_ < slots) {
    materialize_chunk(kChunk);
    if (budget_ != 0 && bytes_ > budget_) {
      throw RealizationBudgetExceeded(bytes_, budget_);
    }
  }
}

std::size_t Realization::locate(std::size_t q, long slot) const {
  const auto& runs = runs_[q];
  const auto holds = [&](std::size_t i) {
    return runs[i].begin <= slot && (i + 1 == runs.size() || runs[i + 1].begin > slot);
  };
  // Hints first: the run the last expansion ended in, the next one (reads
  // are sequential, and a block may start on a run boundary), and the first
  // one (every view starts at slot 0). Binary search only otherwise.
  const std::size_t hint = cursor_[q];
  if (hint < runs.size() && holds(hint)) return hint;
  if (hint + 1 < runs.size() && holds(hint + 1)) return hint + 1;
  if (holds(0)) return 0;
  const auto it = std::upper_bound(runs.begin(), runs.end(), slot,
                                   [](long s, const Run& run) { return s < run.begin; });
  assert(it != runs.begin());
  return static_cast<std::size_t>(it - runs.begin()) - 1;
}

void Realization::expand_rows(long begin, long end, markov::State* buf) const {
  assert(begin >= 0 && begin <= end && end <= frontier_);
  if (begin == end) return;
  // Row-major: row `begin` comes from each worker's run, and every later
  // row is its predecessor with the runs that begin on it applied. A state
  // changes only where a run begins (a few workers per changed row in the
  // paper's world), so a slot costs one short row copy instead of p strided
  // stores. Each row's run starts are threaded through row_head_.
  const auto p = static_cast<std::size_t>(p_);
  const auto rows = static_cast<std::size_t>(end - begin);
  row_head_.assign(rows, -1);
  starts_.clear();
  for (std::size_t q = 0; q < p; ++q) {
    const auto& runs = runs_[q];
    std::size_t i = locate(q, begin);
    buf[q] = runs[i].state;
    for (++i; i < runs.size() && runs[i].begin < end; ++i) {
      const auto r = static_cast<std::size_t>(runs[i].begin - begin);
      starts_.push_back(RunStart{row_head_[r], q, runs[i].state});
      row_head_[r] = static_cast<long>(starts_.size()) - 1;
    }
    cursor_[q] = i - 1;
  }
  for (std::size_t r = 1; r < rows; ++r) {
    markov::State* row = buf + r * p;
    std::copy_n(row - p, p, row);
    for (long k = row_head_[r]; k >= 0; k = starts_[static_cast<std::size_t>(k)].next) {
      const RunStart& start = starts_[static_cast<std::size_t>(k)];
      row[start.q] = start.state;
    }
  }
}

RealizationView::RealizationView(Realization& realization)
    : realization_(&realization) {
  row_.resize(static_cast<std::size_t>(realization_->size()));
}

bool RealizationView::in_live_tail() const {
  return realization_->frozen() && pos_ >= realization_->frontier();
}

AvailabilitySource& RealizationView::tail_source() const {
  AvailabilitySource& source = realization_->source();
  if (source.position() != pos_) {
    throw std::logic_error("RealizationView: another reader consumed the frozen tail");
  }
  return source;
}

markov::State RealizationView::state(int q) const {
  if (in_live_tail()) return tail_source().state(q);
  if (row_slot_ != pos_) {
    realization_->ensure(pos_ + 1);
    realization_->expand_rows(pos_, pos_ + 1, row_.data());
    row_slot_ = pos_;
  }
  return row_[static_cast<std::size_t>(q)];
}

void RealizationView::advance() {
  if (in_live_tail()) tail_source().advance();
  ++pos_;
}

void RealizationView::fill_block(markov::State* buf, long slots) {
  // Rows [pos_, pos_ + prefix) come from the RLE; on a frozen realization
  // the rest continue on the embedded source, which stands at the frontier.
  long prefix = slots;
  if (realization_->frozen()) {
    prefix = std::clamp(realization_->frontier() - pos_, 0L, slots);
  } else {
    realization_->ensure(pos_ + slots);
  }
  realization_->expand_rows(pos_, pos_ + prefix, buf);
  pos_ += prefix;
  if (prefix < slots) {
    const auto p = static_cast<std::size_t>(realization_->size());
    tail_source().fill_block(buf + static_cast<std::size_t>(prefix) * p, slots - prefix);
    pos_ += slots - prefix;
  }
}

}  // namespace tcgrid::platform
