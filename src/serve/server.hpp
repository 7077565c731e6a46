// tcgrid::serve — persistent multi-tenant sweep-as-a-service (DESIGN.md §11).
//
// A Server is the long-lived core of the tcgrid_serve daemon: it accepts
// experiment specs over the newline-delimited-JSON protocol
// (serve/protocol.hpp), schedules (scenario, trial) units from many
// concurrent jobs fairly (round-robin across jobs), streams completed result
// rows back incrementally, enforces per-tenant quotas, and checkpoints every
// completed unit so a killed daemon resumes where it stopped
// (serve/checkpoint.hpp).
//
// One unit state machine. Every unit lives the same life: a lease holder
// claims it (claim_for_dispatch), runs it, and commits its rows durably
// exactly once (commit_unit) or fails it (fail_lease). The local worker
// threads are in-process lease holders that run each unit themselves
// (execute_unit); on a coordinator the holders are shard slots that run it
// on a remote daemon (serve/shard.hpp). Both commit through the same call.
//
// Tenancy. Each tenant owns one persistent api::Session — the process-level
// retention that makes repeated submissions cheap (warm per-thread
// estimator caches, one chain-statistics store whose interned chains recur
// across requests; see DESIGN.md §10 on why that win is structurally
// cross-request). Two quotas apply per tenant:
//
//   * realization_budget — a hard cap clamping every submitted spec's
//     Options::realization_budget (the per-unit run-length bytes of the
//     materialized availability);
//   * chain_store_bytes  — a retention bound on the tenant session's
//     chain-statistics store. When a completed unit pushes the store past
//     the bound the tenant enters DRAINING: no new units of its jobs are
//     dispatched until its in-flight units finish, then the session's
//     caches are evicted (Session::clear_caches — safe exactly because
//     nothing of that tenant is running) and dispatch resumes. Jobs always
//     run to completion; the quota trades warmth, not correctness.
//
// Concurrency. One mutex guards all queue/job/tenant state; lease holders
// take it only to claim and publish units, never while simulating.
// Checkpoint appends are serialized per job by a separate per-job mutex.
// Connection handlers (one thread per accepted socket) touch state under the
// same mutex and block streaming `results` readers on a condition variable
// fed by row publication.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "obs/obs.hpp"
#include "serve/checkpoint.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace tcgrid::serve {

struct TenantQuota {
  /// Hard cap on a submitted spec's Options::realization_budget (run-length
  /// bytes of materialized availability per (scenario, trial) unit). 0
  /// forces live generation for every unit of the tenant.
  std::size_t realization_budget = 64ull << 20;
  /// Retention bound on the tenant session's chain-statistics store; see
  /// the DRAINING protocol above.
  std::size_t chain_store_bytes = 512ull << 20;
};

/// Knobs of the coordinator's shard fleet (DESIGN.md §15). Only read when
/// ServerOptions::coordinator is true. Each shard gets one lease slot per
/// worker thread it advertises at registration; a slot holds leases exactly
/// as a local worker thread does, except that it ships each claimed unit to
/// its shard instead of running it. A slot's batch is one fresh unit plus
/// the remaining pending trials of its scenario (Server::try_claim_sibling),
/// and an idle slot steals an in-flight unit when nothing is pending.
struct ShardOptions {
  /// Shard daemon addresses: a unix socket path, "unix:PATH" or
  /// "tcp:HOST:PORT". More shards can join at runtime via the `register`
  /// verb with a "shard" field.
  std::vector<std::string> shards;
  long heartbeat_interval_ms = 1000;  ///< monitor probe period
  long heartbeat_timeout_ms = 5000;   ///< missed-pong deadline -> leases expire
};

struct ServerOptions {
  std::string root;            ///< checkpoint root directory (required)
  std::size_t threads = 0;     ///< worker fleet size (0 = hardware)
  /// Coordinator role (DESIGN.md §15): no local worker fleet — every unit
  /// of every job is dispatched as a lease to the shard daemons in `shard`,
  /// their streamed rows merged into this server's own checkpoint. The
  /// client-facing verbs are unchanged; `threads` is ignored.
  bool coordinator = false;
  ShardOptions shard;
  TenantQuota default_quota;   ///< applied to tenants without an override
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Estimator truncation precision of every tenant session. Session-level
  /// by construction (the chain store is built once per session with it),
  /// so submitted specs must carry the same value — see DESIGN.md §11.
  double eps = 1e-6;
};

struct JobStatus {
  std::string job;
  std::string tenant;
  std::string state;  ///< queued | running | done | cancelled | failed
  std::string error;  ///< non-empty when state == failed
  std::size_t units_total = 0;
  std::size_t units_done = 0;
  std::size_t rows = 0;
  std::size_t rows_expected = 0;
};

class ShardFleet;

class Server {
  struct Job;  // declared up front so the public Lease handle can name it
  struct Tenant;

 public:
  /// Loads every checkpointed job under options.root (re-queueing the
  /// incomplete ones) and starts the worker fleet — or, with
  /// options.coordinator, the shard fleet.
  explicit Server(ServerOptions options);
  /// hard_stop()s.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Handle one client connection until the peer closes (or the server
  /// stops). Any stream socket works: the daemon passes accepted
  /// unix-socket fds, the protocol tests one end of a socketpair. Does not
  /// own `fd`.
  void serve_connection(int fd);

  /// Accept loop on a listening socket: one detached-lifetime handler
  /// thread per connection, until stop. Blocks; returns after hard_stop().
  void serve(int listen_fd);

  /// Stop dispatching, abandon everything not yet durably committed (the
  /// in-process equivalent of kill -9 at a unit boundary — the resume
  /// tests drive it), unblock every reader and join all threads.
  /// Idempotent.
  void hard_stop();

  // ------------------------------------------------- unit dispatch surface ----
  // Used by the local worker threads, by ShardFleet's slot threads, and
  // driven directly by the shard tests. A Lease is one claimed unit: the
  // claim ticket whose completion — rows from ANY holder of a lease on the
  // unit — commits through commit_unit. Job is opaque outside this class;
  // the handle only keeps the job alive and identifies it on re-entry.

  struct Lease {
    std::shared_ptr<Job> job;  ///< opaque; pass back unchanged
    std::string job_id;
    std::string tenant;
    /// Canonical spec JSON (api::spec_to_json dump) that a shard slot
    /// attaches to the first lease of this job on a shard connection.
    std::shared_ptr<const std::string> spec_json;
    std::size_t unit = 0;
    bool stolen = false;  ///< duplicate-dispatch of an in-flight unit
  };

  /// Block until a unit is dispatchable (round-robin fair across jobs) or
  /// the server stops (nullopt). When nothing is pending and `allow_steal`,
  /// duplicate-claims an in-flight unit with a single live lease instead of
  /// waiting — tail stealing. Local workers never steal.
  [[nodiscard]] std::optional<Lease> claim_for_dispatch(bool allow_steal);
  /// Non-blocking claim of a pending unit from the SAME job and scenario as
  /// a lease this caller already holds (never steals). Scenario-affine
  /// dispatch: a scenario's estimator is cached per serving thread and is
  /// the dominant cost of a unit (api::Session), so splitting one
  /// scenario's trials across shards re-pays that build on every shard.
  /// ShardFleet extends each lease batch with siblings so whole scenarios
  /// travel together.
  [[nodiscard]] std::optional<Lease> try_claim_sibling(const Lease& held);

  enum class Commit {
    Committed,  ///< rows durably committed and published
    Duplicate,  ///< another lease of the unit won; rows dropped (byte-equal
                ///< by purity, so nothing is lost)
    Stopped,    ///< server stopping; nothing written (kill -9 contract)
    Failed,     ///< checkpoint write failed; job failed
  };
  /// Durably commit one completed lease: append `rows` to the job's
  /// checkpoint and publish them to `results` readers, exactly once per
  /// unit no matter how many leases of it complete. `claimed_us` (steady
  /// clock at claim, 0 = no obs) feeds the tenant unit-service histogram.
  Commit commit_unit(const Lease& lease, std::vector<std::string> rows,
                     std::uint64_t claimed_us);
  /// Lease expiry (shard death, transport error): re-queue the unit unless
  /// another live lease still covers it or it already committed.
  void return_lease(const Lease& lease);
  /// Unit execution failure (a local run's exception, a shard's
  /// unit_failed, a rejected lease): drop the lease and fail the job.
  void fail_lease(const Lease& lease, const std::string& error);

  /// The shard fleet when running as a coordinator, else nullptr (counter
  /// introspection; runtime registration goes through the `register` verb).
  [[nodiscard]] ShardFleet* shard_fleet() noexcept { return shard_fleet_.get(); }

  [[nodiscard]] const ServerOptions& options() const noexcept { return options_; }

  // ------------------------------------------------ introspection (tests) ----
  [[nodiscard]] std::optional<JobStatus> job_status(const std::string& job);
  /// Block until the job is terminal (done/cancelled/failed); returns its
  /// final status (nullopt for unknown jobs, or when the server stops
  /// first).
  std::optional<JobStatus> wait_job(const std::string& job);
  /// Block until >= `at_least` units of the job committed (or terminal /
  /// server stop). The resume tests use it to kill mid-sweep.
  void wait_units(const std::string& job, std::size_t at_least);
  [[nodiscard]] std::size_t tenant_evictions(const std::string& tenant);

 private:
  /// A spec resolved for execution: everything running any unit of it
  /// needs. Jobs extend it; the lease path caches it per connection.
  struct UnitPlan;

  void load_existing_jobs();
  void worker_loop();
  /// Resolve `spec` for `tenant_name` into `plan`, clamping its realization
  /// budget to the tenant's quota. Returns the tenant (created on demand).
  Tenant& resolve_plan(UnitPlan& plan, const std::string& tenant_name,
                       api::ExperimentSpec spec);
  /// Run one unit on the tenant's session: its result rows, in heuristic
  /// order. Throws what the run throws.
  static std::vector<std::string> execute_unit(Tenant& tenant, const UnitPlan& plan,
                                               std::size_t unit);
  /// Caller holds mu_. Account one completed unit of `rows` rows to the
  /// tenant (which had counted it in flight) and apply the chain-store
  /// quota check at this, the only safe boundary.
  void unit_done_locked(Tenant& tenant, std::size_t rows);
  /// Caller holds mu_. Claim the next pending unit, round-robin fair across
  /// jobs; nullopt when no unit is currently dispatchable.
  std::optional<Lease> claim_unit();
  /// Caller holds mu_. The claim transition of a pending unit: in flight
  /// under one fresh lease.
  Lease claim_locked(const std::shared_ptr<Job>& job, Tenant& tenant, std::size_t unit);
  /// Caller holds mu_. Drop one lease of an in-flight unit; the last one
  /// re-queues it. No-op on a committed unit.
  void drop_lease_locked(Job& job, std::size_t unit);
  /// Caller holds mu_. Perform the DRAINING eviction if the tenant is
  /// draining and idle; returns true when dispatch of this tenant's units
  /// may proceed (i.e. the tenant is no longer draining).
  bool evict_if_drained(Tenant& tenant);
  /// Steal candidate under mu_: an in-flight unit with exactly one live
  /// lease, round-robin fair across jobs. nullopt when nothing qualifies.
  std::optional<Lease> steal_locked();
  Lease make_lease(const std::shared_ptr<Job>& job, std::size_t unit, bool stolen);
  void finalize_if_drained(Job& job);

  // Request handlers (see protocol.hpp). Each returns the response line;
  // handle_results and handle_lease stream directly on the channel.
  std::string handle_submit(const util::json::Value& req);
  std::string handle_status(const util::json::Value& req);
  std::string handle_cancel(const util::json::Value& req);
  std::string handle_counters();
  std::string handle_metrics(const util::json::Value& req);
  std::string handle_register(const util::json::Value& req);
  void handle_results(const util::json::Value& req, util::LineChannel& ch);

  /// Per-connection lease state: resolved specs keyed by the peer's job
  /// ref, so one spec transfer covers every later lease of the job on this
  /// connection.
  using LeaseCache = std::map<std::string, std::shared_ptr<const UnitPlan>>;
  void handle_lease(const util::json::Value& req, util::LineChannel& ch,
                    LeaseCache& cache);

  /// Empty when `spec` passes the session-level gates (eps, record_trace);
  /// otherwise the error message.
  /// Shared by the submit and lease paths.
  [[nodiscard]] std::string spec_gate_error(const api::ExperimentSpec& spec) const;

  std::string register_job(const std::string& job_id, const std::string& tenant_name,
                           api::ExperimentSpec spec, std::unique_ptr<JobCheckpoint> ckpt,
                           bool fresh);
  Tenant& tenant_for(const std::string& name);  ///< caller holds mu_
  std::string status_line(const Job& job) const;

  /// Live fleet/scheduling state, computed under mu_ (caller holds it):
  /// the counters `fleet` block and the obs gauges read the same numbers.
  struct FleetState {
    std::size_t queue_depth = 0;     ///< pending units of dispatchable jobs
    std::size_t inflight_units = 0;  ///< claimed, not yet committed
    /// Local workers between claim and resolution (0 on a coordinator).
    std::size_t busy_workers = 0;
  };
  [[nodiscard]] FleetState fleet_state() const;
  /// Push fleet_state() into the obs gauges (caller holds mu_). Called at
  /// every dispatch/publish transition, so a scrape between transitions
  /// reads current depths without taking mu_.
  void update_fleet_gauges();

  ServerOptions options_;

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: new dispatchable units
  std::condition_variable rows_cv_;  ///< readers: rows published / terminal
  bool stopping_ = false;

  std::map<std::string, std::shared_ptr<Job>> jobs_;
  std::vector<std::string> job_order_;  ///< submission order (fair cursor)
  std::set<std::string> reserved_ids_;  ///< submit in progress, not yet in jobs_
  std::size_t rr_cursor_ = 0;
  std::size_t next_job_number_ = 1;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  // Fleet-level gauges (registered once in the constructor; set under mu_).
  obs::Gauge queue_depth_gauge_;
  obs::Gauge inflight_gauge_;
  obs::Gauge busy_workers_gauge_;

  std::vector<std::thread> workers_;
  /// Present exactly when options_.coordinator (constructed after the jobs
  /// load, torn down first in hard_stop()).
  std::unique_ptr<ShardFleet> shard_fleet_;
  /// Connection handlers run detached; hard_stop() shuts their sockets down
  /// and waits for active_conns_ to drain (each handler's last touch of the
  /// server is the counter decrement + notify, under conn_mu_). The drain
  /// also waits for every serve() accept loop to exit: an acceptor may hold
  /// a connection it has not yet registered, so active_conns_ == 0 alone is
  /// not a safe teardown barrier while an acceptor is live.
  std::mutex conn_mu_;
  std::condition_variable conn_cv_;
  std::size_t active_conns_ = 0;
  std::size_t active_acceptors_ = 0;  ///< serve() loops currently running
  std::set<int> conn_fds_;  ///< shut down to unblock handlers at stop
};

}  // namespace tcgrid::serve
