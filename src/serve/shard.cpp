#include "serve/shard.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/json.hpp"

namespace tcgrid::serve {

namespace json = util::json;

namespace {

/// Wait for one response line with a deadline. Coarse by design: the peer
/// writes whole lines per request on these connections, so poll-then-read
/// only blocks past the deadline if a line is torn mid-write — and then the
/// monitor's next probe catches it.
bool read_line_deadline(util::LineChannel& ch, int fd, std::string& line, long timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int rc = ::poll(&pfd, 1, static_cast<int>(timeout_ms));
  if (rc <= 0) return false;
  return ch.read_line(line);
}

}  // namespace

/// Per-shard state. Address, health and threads are owned here; the fd set
/// lets the monitor shut down slot connections from outside their threads
/// (the only way to unstick a slot blocked on a HUNG shard's socket).
struct ShardFleet::Shard {
  std::string address;
  std::atomic<bool> live{false};
  std::atomic<bool> incompatible_logged{false};
  bool slots_spawned = false;          ///< under fleet mu_
  std::vector<std::thread> threads;    ///< monitor + slots; under fleet mu_
  std::set<int> fds;                   ///< live connections; under fleet mu_
  std::size_t inflight = 0;            ///< unresolved leases; under fleet mu_
  obs::Histogram service_us;           ///< lease dispatch -> unit rows merged
};

ShardFleet::ShardFleet(Server& server, const ShardOptions& options)
    : server_(server),
      initial_shards_(options.shards),
      heartbeat_interval_ms_(std::max(50L, options.heartbeat_interval_ms)),
      heartbeat_timeout_ms_(std::max(100L, options.heartbeat_timeout_ms)) {
  obs::Registry& reg = obs::Registry::instance();
  live_shards_gauge_ = reg.gauge("tcgrid_coord_live_shards");
  leased_total_ = reg.counter("tcgrid_coord_leased_units_total");
  redispatched_total_ = reg.counter("tcgrid_coord_redispatched_units_total");
  duplicate_total_ = reg.counter("tcgrid_coord_duplicate_commits_total");
}

ShardFleet::~ShardFleet() { stop(); }

void ShardFleet::start() {
  for (const std::string& address : initial_shards_) add_shard(address);
}

void ShardFleet::add_shard(const std::string& address) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load() || address.empty()) return;
  for (const auto& shard : shards_) {
    if (shard->address == address) return;  // idempotent re-registration
  }
  auto shard = std::make_unique<Shard>();
  shard->address = address;
  shard->service_us = obs::Registry::instance().histogram("tcgrid_coord_shard_service_us",
                                                          {{"shard", address}});
  Shard& ref = *shards_.emplace_back(std::move(shard));
  ref.threads.emplace_back([this, &ref] { monitor_loop(ref); });
}

void ShardFleet::stop() {
  stopping_.store(true);
  stop_cv_.notify_all();
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& shard : shards_) {
      for (int fd : shard->fds) ::shutdown(fd, SHUT_RDWR);
      for (std::thread& t : shard->threads) threads.push_back(std::move(t));
      shard->threads.clear();
    }
  }
  // Joined outside mu_: exiting threads take it for fd/live bookkeeping.
  // Server::hard_stop() has already set ITS stopping flag and notified
  // work_cv_ before calling here, so slots parked in claim_for_dispatch
  // are on their way out.
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

ShardFleet::Counters ShardFleet::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  Counters c;
  c.shards = shards_.size();
  for (const auto& shard : shards_) {
    if (shard->live.load()) c.live_shards += 1;
    c.inflight_leases[shard->address] = shard->inflight;
  }
  c.leased_units = leased_;
  c.redispatched_units = redispatched_;
  c.duplicate_commits = duplicates_;
  return c;
}

bool ShardFleet::sleep_ms(long ms) {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait_for(lock, std::chrono::milliseconds(ms),
                    [&] { return stopping_.load(); });
  return !stopping_.load();
}

void ShardFleet::track_fd(Shard& shard, int fd, bool add) {
  std::lock_guard<std::mutex> lock(mu_);
  if (add) {
    shard.fds.insert(fd);
    // Closes the register/stop race: stop()'s shutdown pass may have run
    // between our connect and this insert; stopping_ is set before that
    // pass, so re-checking here guarantees the shutdown reaches every fd.
    if (stopping_.load()) ::shutdown(fd, SHUT_RDWR);
  } else {
    shard.fds.erase(fd);
  }
}

void ShardFleet::set_live(Shard& shard, bool live) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shard.live.exchange(live) == live) return;
  std::size_t n = 0;
  for (const auto& s : shards_) {
    if (s->live.load()) n += 1;
  }
  live_shards_gauge_.set(static_cast<long long>(n));
}

void ShardFleet::spawn_slots(Shard& shard, std::size_t advertised_threads) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_.load() || shard.slots_spawned) return;
  const std::size_t n = std::clamp<std::size_t>(advertised_threads, 1, 64);
  shard.slots_spawned = true;
  for (std::size_t i = 0; i < n; ++i) {
    shard.threads.emplace_back([this, &shard] { slot_loop(shard); });
  }
}

void ShardFleet::monitor_loop(Shard& shard) {
  while (!stopping_.load()) {
    util::Fd fd;
    try {
      fd = util::connect_address(shard.address);
    } catch (const std::exception&) {
      set_live(shard, false);
      if (!sleep_ms(heartbeat_interval_ms_)) return;
      continue;
    }
    track_fd(shard, fd.get(), true);
    util::LineChannel ch(fd.get());
    std::string line;
    bool registered = false;
    do {
      if (!ch.write_line(register_request())) break;
      if (!read_line_deadline(ch, fd.get(), line, heartbeat_timeout_ms_)) break;
      json::Value reply;
      try {
        reply = json::parse(line);
      } catch (const std::invalid_argument&) {
        break;
      }
      const json::Value* ok = reply.is_object() ? reply.find("ok") : nullptr;
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) break;
      // eps gate: a shard estimating with a different eps would stream rows
      // that diverge bit-wise from the coordinator's contract. The shard
      // also re-validates per lease spec; this just refuses to spawn slots
      // at all. json doubles round-trip exactly ('%.17g'), so == is sound.
      if (const json::Value* eps = reply.find("eps");
          eps != nullptr && eps->is_number() &&
          eps->as_double() != server_.options().eps) {
        if (!shard.incompatible_logged.exchange(true)) {
          std::fprintf(stderr,
                       "tcgrid_serve: shard %s rejected: eps %.17g != coordinator "
                       "eps %.17g\n",
                       shard.address.c_str(), eps->as_double(), server_.options().eps);
        }
        break;
      }
      std::size_t threads = 0;
      if (const json::Value* t = reply.find("threads"); t != nullptr) {
        if (!t->is_unsigned()) break;  // malformed reply
        threads = static_cast<std::size_t>(t->as_uint());
      }
      spawn_slots(shard, threads);
      registered = true;
    } while (false);

    if (registered) {
      set_live(shard, true);
      // Probe until the shard misses a deadline (or we stop). kill -9
      // surfaces here AND as instant EOF on the slot connections; the
      // monitor matters for the hung-not-dead case.
      while (!stopping_.load()) {
        if (!sleep_ms(heartbeat_interval_ms_)) break;
        if (!ch.write_line(heartbeat_request()) ||
            !read_line_deadline(ch, fd.get(), line, heartbeat_timeout_ms_)) {
          break;
        }
      }
      // Dead, hung or stopping: force every lease this shard holds to
      // expire by killing its connections; the slots re-queue their units
      // through Server::return_lease when the I/O fails.
      set_live(shard, false);
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (int f : shard.fds) {
          if (f != fd.get()) ::shutdown(f, SHUT_RDWR);
        }
      }
    } else {
      set_live(shard, false);
    }
    track_fd(shard, fd.get(), false);
    fd.reset();
    if (!registered && !sleep_ms(heartbeat_interval_ms_)) return;
  }
  set_live(shard, false);
}

void ShardFleet::slot_loop(Shard& shard) {
  while (!stopping_.load()) {
    if (!shard.live.load()) {
      if (!sleep_ms(50)) return;
      continue;
    }
    util::Fd fd;
    try {
      fd = util::connect_address(shard.address);
    } catch (const std::exception&) {
      if (!sleep_ms(heartbeat_interval_ms_)) return;
      continue;
    }
    track_fd(shard, fd.get(), true);
    {
      util::LineChannel ch(fd.get());
      while (!stopping_.load() && shard.live.load()) {
        if (!lease_round(shard, ch)) break;
      }
    }
    track_fd(shard, fd.get(), false);
  }
}

bool ShardFleet::lease_round(Shard& shard, util::LineChannel& ch) {
  // Pull: claim the next unit the moment this slot idles. Blocking on the
  // claim IS the scheduler — a fast shard returns here more often and
  // naturally takes more of the queue.
  std::optional<Server::Lease> first = server_.claim_for_dispatch();
  if (!first.has_value()) return false;  // server stopping
  std::vector<Server::Lease> batch;
  batch.push_back(std::move(*first));
  // Scenario-affine extension: pull the remaining trials of the claimed
  // scenario onto THIS shard. Siblings share the shard's per-scenario
  // estimator cache — the dominant unit cost — so splitting a scenario
  // across shards would re-pay that build per shard and erase the scaling
  // win.
  constexpr std::size_t kBatchCap = 64;  // bound on one lease request
  while (batch.size() < kBatchCap) {
    std::optional<Server::Lease> more = server_.try_claim_sibling(batch.back());
    if (!more.has_value()) break;
    batch.push_back(std::move(*more));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    leased_ += batch.size();
    shard.inflight += batch.size();
  }
  leased_total_.inc(batch.size());

  std::vector<bool> resolved(batch.size(), false);
  // Each lease leaves the shard's in-flight count once: at its commit or
  // failure, or at its expiry.
  auto resolve = [&](std::size_t i) {
    resolved[i] = true;
    std::lock_guard<std::mutex> lock(mu_);
    shard.inflight -= 1;
  };
  // On transport death every unresolved lease expires and re-queues. The
  // counters move first, so they already hold the expiry when another shard
  // can claim a re-queued unit.
  auto expire_unresolved = [&] {
    const auto expired =
        static_cast<std::size_t>(std::count(resolved.begin(), resolved.end(), false));
    if (expired == 0) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      redispatched_ += expired;
      shard.inflight -= expired;
    }
    redispatched_total_.inc(expired);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (resolved[i]) continue;
      server_.return_lease(batch[i]);
      resolved[i] = true;
    }
  };

  // One lease request covers the batch: a claim plus its siblings, all of
  // one job. It carries the job's spec, so the shard keeps no state between
  // requests.
  const Server::Lease& head = batch.front();
  std::vector<std::size_t> units;
  units.reserve(batch.size());
  for (const Server::Lease& lease : batch) units.push_back(lease.unit);

  const std::uint64_t claimed_us = obs::enabled() ? obs::steady_now_us() : 0;
  if (!ch.write_line(lease_request(head.tenant, units, *head.spec_json))) {
    expire_unresolved();
    return false;
  }
  // Index of the unresolved lease on `unit`, or batch.size() when none.
  auto held = [&](std::size_t unit) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!resolved[i] && batch[i].unit == unit) return i;
    }
    return batch.size();
  };
  std::string line;
  while (true) {
    if (!ch.read_line(line)) {
      expire_unresolved();
      return false;
    }
    json::Value msg;
    try {
      msg = json::parse(line);
      if (!msg.is_object()) throw std::invalid_argument("not an object");
    } catch (const std::invalid_argument&) {
      expire_unresolved();
      return false;  // framing broken; reconnect
    }
    const json::Value* type = msg.find("type");
    const std::string kind = type != nullptr && type->is_string() ? type->as_string() : "";
    if (kind == "lease_done") break;
    if (kind == "unit") {
      const json::Value* unit_v = msg.find("unit");
      const json::Value* rows_v = msg.find("rows");
      // Every unit of the batch yields head.rows rows; any other header is
      // malformed, and is treated like broken framing.
      if (unit_v == nullptr || !unit_v->is_unsigned() || rows_v == nullptr ||
          !rows_v->is_unsigned() || rows_v->as_uint() != head.rows) {
        expire_unresolved();
        return false;
      }
      const std::size_t unit = static_cast<std::size_t>(unit_v->as_uint());
      std::vector<std::string> rows;
      rows.reserve(head.rows);
      for (std::size_t r = 0; r < head.rows; ++r) {
        std::string row;
        if (!ch.read_line(row)) {
          expire_unresolved();
          return false;
        }
        rows.push_back(std::move(row));
      }
      const std::size_t idx = held(unit);
      if (idx == batch.size()) continue;  // unit we no longer hold; drop
      const Server::Commit rc = server_.commit_unit(batch[idx], std::move(rows), claimed_us);
      resolve(idx);
      if (rc == Server::Commit::Duplicate) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          duplicates_ += 1;
        }
        duplicate_total_.inc();
      }
      if (rc == Server::Commit::Stopped) {
        expire_unresolved();
        return false;
      }
      if (claimed_us != 0) shard.service_us.observe(obs::steady_now_us() - claimed_us);
      continue;
    }
    // A failed unit, or a rejected lease ({"ok":false,...}: a contract
    // violation such as an eps mismatch, which would loop if re-run
    // elsewhere), fails the job loudly. The shard aborts the lease there;
    // the rest of the batch re-queues (the job is failed, so those units
    // just sit pending).
    const json::Value* err_v = msg.find("error");
    std::string error = err_v != nullptr && err_v->is_string() ? err_v->as_string() : "";
    std::size_t failed = batch.size();
    if (kind == "unit_failed") {
      const json::Value* unit_v = msg.find("unit");
      if (unit_v != nullptr && unit_v->is_unsigned()) {
        failed = held(static_cast<std::size_t>(unit_v->as_uint()));
      }
      if (error.empty()) error = "unit failed on shard " + shard.address;
    } else if (error.empty()) {
      error = "lease rejected by shard " + shard.address;
    }
    if (failed == batch.size()) failed = 0;  // charge the head lease
    server_.fail_lease(batch[failed], error);
    if (!resolved[failed]) resolve(failed);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (resolved[i]) continue;
      server_.return_lease(batch[i]);
      resolve(i);
    }
    break;
  }
  // Anything still unresolved (shouldn't happen on clean lease_done paths)
  // goes back to the queue rather than leaking an in-flight unit.
  expire_unresolved();
  return true;
}

}  // namespace tcgrid::serve
