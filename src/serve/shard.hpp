// Shard coordinator transport (DESIGN.md §15).
//
// A ShardFleet is the dispatch engine of a coordinator-mode Server: for
// every registered shard daemon it runs one SLOT thread per worker thread
// the shard advertises — each owning one connection to the shard — plus one
// MONITOR thread probing liveness over a separate connection. A slot is a
// lease holder just like a plain daemon's local worker; it only runs the
// unit remotely. Its loop is pull-based dispatch:
//
//   claim a unit from the coordinator's queue (blocking; round-robin fair
//   across jobs, exactly the local workers' policy) -> lease it to the
//   shard, spec attached -> stream the unit's result rows back ->
//   Server::commit_unit.
//
// Nothing is partitioned up front: a fast shard simply claims more often,
// so slot-cap-bound straggler units never serialize the tail. An in-flight
// unit has exactly one live lease; there is no duplicate dispatch.
//
// Failure model: a dead connection (shard crash, kill -9, network cut) or
// a missed heartbeat deadline expires every lease the slot held —
// Server::return_lease re-queues the units and another shard re-runs them,
// idempotently by row purity (rows are pure functions of (spec, unit)). A
// commit from an expired lease is refused (Server::Commit::Duplicate), so
// a nonzero duplicate_commits count flags a protocol fault, not routine
// work. The monitor exists for HUNG shards: a
// SIGSTOP'd or wedged daemon keeps its sockets open, so the monitor's
// missed pong shuts the slot connections down from our side to force the
// expiry. Shards can join at runtime (the `register` verb with a "shard"
// address); a shard whose eps differs from the coordinator's is rejected —
// its rows would diverge bit-wise — and never receives a lease.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"
#include "util/socket.hpp"

namespace tcgrid::serve {

class Server;
struct ShardOptions;

class ShardFleet {
 public:
  /// Does not start any threads; `server` must outlive the fleet. Options
  /// are copied from the server's ShardOptions at construction.
  ShardFleet(Server& server, const ShardOptions& options);
  ~ShardFleet();  ///< stop()s

  ShardFleet(const ShardFleet&) = delete;
  ShardFleet& operator=(const ShardFleet&) = delete;

  /// Spawn the monitor (which spawns the slots once the shard registers)
  /// for every configured shard.
  void start();
  /// Stop every thread: shuts down all shard connections, wakes sleepers
  /// and joins. Idempotent; called by Server::hard_stop().
  void stop();
  /// Runtime registration (the `register` verb with a "shard" address).
  /// No-op after stop().
  void add_shard(const std::string& address);

  struct Counters {
    std::size_t shards = 0;        ///< registered (configured + runtime)
    std::size_t live_shards = 0;   ///< currently registered and heartbeating
    std::size_t leased_units = 0;  ///< claims dispatched (incl. re-dispatch)
    std::size_t redispatched_units = 0;  ///< lease expiries re-queued
    std::size_t duplicate_commits = 0;   ///< stale-lease completions dropped
    /// Per shard address: leases dispatched to it and not yet committed,
    /// failed or expired.
    std::map<std::string, std::size_t> inflight_leases;
  };
  [[nodiscard]] Counters counters() const;

 private:
  struct Shard;

  void monitor_loop(Shard& shard);
  void slot_loop(Shard& shard);
  /// One lease round on an established connection: claim (blocking), send,
  /// stream rows, commit. False = transport trouble, reconnect.
  bool lease_round(Shard& shard, util::LineChannel& ch);
  void set_live(Shard& shard, bool live);
  /// Create the slot threads once the shard's first registration succeeds:
  /// one per advertised worker thread, clamped to [1, 64].
  void spawn_slots(Shard& shard, std::size_t advertised_threads);
  /// Interruptible sleep; false when the fleet is stopping.
  bool sleep_ms(long ms);
  void track_fd(Shard& shard, int fd, bool add);

  Server& server_;
  // ShardOptions lives in server.hpp (which includes this header), so the
  // fields are copied rather than the struct embedded.
  std::vector<std::string> initial_shards_;
  long heartbeat_interval_ms_;
  long heartbeat_timeout_ms_;

  mutable std::mutex mu_;  ///< shards_ vector, per-shard fd sets, counters
  std::condition_variable stop_cv_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Shard>> shards_;

  std::size_t leased_ = 0;
  std::size_t redispatched_ = 0;
  std::size_t duplicates_ = 0;

  // Coordinator-wide obs series (DESIGN.md §12); per-shard service-time
  // histograms live on the Shard.
  obs::Gauge live_shards_gauge_;
  obs::Counter leased_total_;
  obs::Counter redispatched_total_;
  obs::Counter duplicate_total_;
};

}  // namespace tcgrid::serve
