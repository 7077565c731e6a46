#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "api/spec_json.hpp"
#include "obs/obs.hpp"
#include "scen/registry.hpp"
#include "serve/protocol.hpp"
#include "serve/shard.hpp"

namespace tcgrid::serve {

namespace json = util::json;

namespace {

constexpr std::size_t kResultsBatch = 512;  ///< rows written per lock hold

json::Value error_value(std::string_view message) {
  return json::Object{{"ok", false}, {"error", message}};
}

std::string error_line(std::string_view message) {
  return json::dump(error_value(message));
}

}  // namespace

// ------------------------------------------------------------- state types ----

struct Server::UnitPlan {
  std::string tenant;
  api::ExperimentSpec spec;
  api::Options options;  ///< spec.options with the tenant's quota clamp
  std::vector<platform::ScenarioParams> scenarios;
  std::vector<std::string> heuristics;
  std::shared_ptr<const scen::AvailabilityFamily> avail_family;
  std::shared_ptr<const scen::PlatformFamily> plat_family;
  std::size_t trials = 0;
  std::size_t units_total = 0;
};

struct Server::Job : UnitPlan {
  std::string id;

  enum class State { Queued, Running, Done, Cancelled, Failed };
  State state = State::Queued;
  bool cancel_requested = false;
  std::string error;

  enum : std::uint8_t { kPending = 0, kInFlight = 1, kDone = 2 };
  std::vector<std::uint8_t> unit_state;
  std::size_t units_done = 0;
  std::size_t inflight = 0;
  std::size_t next_scan = 0;  ///< first possibly-pending unit (scan hint)

  /// Canonical spec JSON, attached to every lease of this job sent to a
  /// shard (see protocol.hpp lease op; null on a plain daemon, whose leases
  /// never leave the process).
  std::shared_ptr<const std::string> spec_json;

  std::vector<std::string> rows;  ///< committed rows, completion order
  /// Publication stamp (steady µs) of rows[i] — what the per-tenant
  /// results-stream-latency histogram measures against when a `results`
  /// reader finally pops the row. Loaded rows are stamped at load time.
  std::vector<std::uint64_t> row_publish_us;
  obs::Histogram stream_latency_us;  ///< the owning tenant's, copied at registration

  std::unique_ptr<JobCheckpoint> ckpt;
  std::mutex io_mutex;  ///< serializes checkpoint commits for this job

  [[nodiscard]] bool terminal() const {
    return state == State::Done || state == State::Cancelled || state == State::Failed;
  }
  [[nodiscard]] const char* state_name() const {
    switch (state) {
      case State::Queued: return "queued";
      case State::Running: return "running";
      case State::Done: return "done";
      case State::Cancelled: return "cancelled";
      case State::Failed: return "failed";
    }
    return "?";
  }
};

struct Server::Tenant {
  std::string name;
  TenantQuota quota;
  std::unique_ptr<api::Session> session;
  std::size_t inflight = 0;
  bool draining = false;   ///< over chain-store quota; evict once drained
  std::size_t evictions = 0;
  std::size_t jobs = 0;
  std::size_t units_done = 0;
  std::size_t rows = 0;

  // Per-tenant obs series ({"tenant", name}-labelled; DESIGN.md §12).
  obs::Histogram unit_service_us;    ///< claim -> durable publish, per unit
  obs::Histogram stream_latency_us;  ///< row publish -> results-reader pop
  obs::Counter evictions_total;      ///< DRAINING cache evictions
};

// ------------------------------------------------------------ construction ----

Server::Server(ServerOptions options) : options_(std::move(options)) {
  if (options_.root.empty()) {
    throw std::invalid_argument("serve::Server: options.root (checkpoint directory) is required");
  }
  {
    obs::Registry& reg = obs::Registry::instance();
    queue_depth_gauge_ = reg.gauge("tcgrid_serve_queue_depth");
    inflight_gauge_ = reg.gauge("tcgrid_serve_inflight_units");
    busy_workers_gauge_ = reg.gauge("tcgrid_serve_busy_workers");
  }
  load_existing_jobs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    update_fleet_gauges();
  }
  if (options_.coordinator) {
    // Coordinator role: no local fleet — a ShardFleet pulls units from the
    // same queue the workers would have and leases them to shard daemons.
    shard_fleet_ = std::make_unique<ShardFleet>(*this, options_.shard);
    shard_fleet_->start();
    return;
  }
  std::size_t n = options_.threads;
  if (n == 0) n = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

Server::~Server() { hard_stop(); }

Server::Tenant& Server::tenant_for(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    const auto q = options_.tenant_quotas.find(name);
    tenant->quota = q != options_.tenant_quotas.end() ? q->second : options_.default_quota;
    api::Options session_options;
    session_options.eps = options_.eps;
    tenant->session = std::make_unique<api::Session>(session_options);
    obs::Registry& reg = obs::Registry::instance();
    tenant->unit_service_us =
        reg.histogram("tcgrid_serve_unit_service_us", {{"tenant", name}});
    tenant->stream_latency_us =
        reg.histogram("tcgrid_serve_results_stream_latency_us", {{"tenant", name}});
    tenant->evictions_total =
        reg.counter("tcgrid_serve_evictions_total", {{"tenant", name}});
    it = tenants_.emplace(name, std::move(tenant)).first;
  }
  return *it->second;
}

void Server::load_existing_jobs() {
  for (const std::string& job_id : JobCheckpoint::list_jobs(options_.root)) {
    // Keep the id counter ahead of every recovered "job-N" name.
    if (job_id.rfind("job-", 0) == 0) {
      const unsigned long n = std::strtoul(job_id.c_str() + 4, nullptr, 10);
      next_job_number_ = std::max(next_job_number_, static_cast<std::size_t>(n) + 1);
    }
    try {
      auto ckpt = std::make_unique<JobCheckpoint>(options_.root, job_id);
      const json::Value manifest = json::parse(ckpt->read_manifest());
      const json::Value* tenant = manifest.find("tenant");
      const json::Value* spec_value = manifest.find("spec");
      if (tenant == nullptr || !tenant->is_string() || spec_value == nullptr) {
        throw std::invalid_argument("manifest missing tenant/spec");
      }
      api::ExperimentSpec spec = api::spec_from_json(*spec_value);
      register_job(job_id, tenant->as_string(), std::move(spec), std::move(ckpt),
                   /*fresh=*/false);
    } catch (const std::exception& e) {
      // A corrupt manifest must not take the daemon down — leave the
      // directory untouched for inspection and keep serving everyone else.
      std::fprintf(stderr, "tcgrid_serve: skipping unloadable job '%s': %s\n",
                   job_id.c_str(), e.what());
    }
  }
}

Server::Tenant& Server::resolve_plan(UnitPlan& plan, const std::string& tenant_name,
                                     api::ExperimentSpec spec) {
  plan.tenant = tenant_name;
  plan.scenarios = spec.scenarios();
  plan.heuristics = spec.resolved_heuristics();
  plan.avail_family = scen::availability_family(spec.scenario_space.availability);
  plan.plat_family = scen::platform_family(spec.scenario_space.platform);
  plan.trials = static_cast<std::size_t>(spec.trials);
  plan.units_total = plan.scenarios.size() * plan.trials;
  plan.options = spec.options;
  plan.spec = std::move(spec);
  std::lock_guard<std::mutex> lock(mu_);
  Tenant& tenant = tenant_for(tenant_name);
  // Quota clamp: the spec's realization budget never exceeds the tenant's.
  plan.options.realization_budget =
      std::min(plan.options.realization_budget, tenant.quota.realization_budget);
  return tenant;
}

std::string Server::register_job(const std::string& job_id, const std::string& tenant_name,
                                 api::ExperimentSpec spec,
                                 std::unique_ptr<JobCheckpoint> ckpt, bool fresh) {
  auto job = std::make_shared<Job>();
  job->id = job_id;
  Tenant& tenant = resolve_plan(*job, tenant_name, std::move(spec));
  job->unit_state.assign(job->units_total, Job::kPending);
  job->ckpt = std::move(ckpt);
  if (options_.coordinator) {
    job->spec_json =
        std::make_shared<const std::string>(json::dump(api::spec_to_json(job->spec)));
  }

  const bool cancelled = !fresh && job->ckpt->is_cancelled();
  if (!fresh) {
    const JobCheckpoint::LoadedRows loaded = job->ckpt->load_rows(job->trials);
    for (std::size_t unit : loaded.completed_units) {
      if (unit < job->units_total && job->unit_state[unit] != Job::kDone) {
        job->unit_state[unit] = Job::kDone;
        ++job->units_done;
      }
    }
    job->rows = loaded.rows;
  }
  // Recovered rows were published "now" as far as this process can tell —
  // the stamp vector must index 1:1 with rows for the stream-latency math.
  job->row_publish_us.assign(job->rows.size(), obs::steady_now_us());

  std::lock_guard<std::mutex> lock(mu_);
  job->stream_latency_us = tenant.stream_latency_us;
  tenant.jobs += 1;
  tenant.units_done += job->units_done;
  tenant.rows += job->rows.size();
  if (job->units_done == job->units_total) job->state = Job::State::Done;
  else if (cancelled) job->state = Job::State::Cancelled;
  else job->state = job->units_done > 0 ? Job::State::Running : Job::State::Queued;
  reserved_ids_.erase(job->id);
  jobs_.emplace(job->id, job);
  job_order_.push_back(job->id);
  update_fleet_gauges();
  work_cv_.notify_all();
  rows_cv_.notify_all();
  return job->id;
}

// ----------------------------------------------------------- fleet gauges ----

Server::FleetState Server::fleet_state() const {
  // Every in-flight unit of a plain daemon is held by exactly one local
  // worker (one lease per unit, and nothing else claims), so the units in
  // flight across ALL jobs — a failed job's stragglers too — count the busy
  // workers. A coordinator's leases are held by shard slots instead.
  FleetState fs;
  for (const auto& [id, job] : jobs_) {
    if (!options_.coordinator) fs.busy_workers += job->inflight;
    if (job->terminal()) continue;
    fs.inflight_units += job->inflight;
    if (!job->cancel_requested) {
      fs.queue_depth += job->units_total - job->units_done - job->inflight;
    }
  }
  return fs;
}

void Server::update_fleet_gauges() {
  if (!obs::enabled()) return;
  const FleetState fs = fleet_state();
  queue_depth_gauge_.set(static_cast<long long>(fs.queue_depth));
  inflight_gauge_.set(static_cast<long long>(fs.inflight_units));
  busy_workers_gauge_.set(static_cast<long long>(fs.busy_workers));
}

// ------------------------------------------------------------ worker fleet ----

std::optional<Server::Lease> Server::claim_unit() {
  // Round-robin over jobs in submission order: each call resumes after the
  // job served last, so many concurrent jobs (and tenants) interleave
  // fairly instead of the first job monopolizing the fleet.
  const std::size_t n = job_order_.size();
  for (std::size_t step = 0; step < n; ++step) {
    const std::size_t idx = (rr_cursor_ + step) % n;
    const std::shared_ptr<Job>& job = jobs_[job_order_[idx]];
    if (job->terminal() || job->cancel_requested) continue;
    Tenant& tenant = *tenants_[job->tenant];
    if (!evict_if_drained(tenant)) continue;
    while (job->next_scan < job->units_total &&
           job->unit_state[job->next_scan] != Job::kPending) {
      ++job->next_scan;
    }
    if (job->next_scan >= job->units_total) continue;
    rr_cursor_ = (idx + 1) % n;
    return claim_locked(job, tenant, job->next_scan);
  }
  return std::nullopt;
}

Server::Lease Server::claim_locked(const std::shared_ptr<Job>& job, Tenant& tenant,
                                   std::size_t unit) {
  job->unit_state[unit] = Job::kInFlight;
  job->inflight += 1;
  tenant.inflight += 1;
  if (job->state == Job::State::Queued) job->state = Job::State::Running;
  Lease lease;
  lease.job = job;
  lease.tenant = job->tenant;
  lease.spec_json = job->spec_json;
  lease.unit = unit;
  lease.rows = job->heuristics.size();
  return lease;
}

void Server::drop_lease_locked(Job& job, std::size_t unit) {
  if (job.unit_state[unit] != Job::kInFlight) return;  // committed or returned
  job.unit_state[unit] = Job::kPending;  // dropped, not committed
  job.next_scan = std::min(job.next_scan, unit);
  job.inflight -= 1;
  tenants_[job.tenant]->inflight -= 1;
}

bool Server::evict_if_drained(Tenant& tenant) {
  // Over chain-store quota: evict as soon as the last in-flight unit of
  // this tenant drains, then resume dispatch. clear_caches() is safe here
  // precisely because nothing of this tenant is running — tenant.inflight
  // counts local worker units AND lease units (handle_lease).
  if (!tenant.draining) return true;
  if (tenant.inflight > 0) return false;
  tenant.session->clear_caches();
  tenant.draining = false;
  tenant.evictions += 1;
  tenant.evictions_total.inc();
  if (obs::Tracer::instance().active()) {
    obs::Tracer::instance().emit(
        "serve_evict", {{"tenant", tenant.name},
                        {"eviction", static_cast<unsigned long long>(tenant.evictions)}});
  }
  return true;
}

// -------------------------------------------------- unit dispatch surface ----

std::optional<Server::Lease> Server::claim_for_dispatch() {
  std::unique_lock<std::mutex> lock(mu_);
  std::optional<Lease> lease;
  work_cv_.wait(lock, [&] {
    if (stopping_) return true;
    lease = claim_unit();
    return lease.has_value();
  });
  if (!lease.has_value()) return std::nullopt;  // woken by stop
  update_fleet_gauges();
  return lease;
}

std::optional<Server::Lease> Server::try_claim_sibling(const Lease& held) {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return std::nullopt;
  const std::shared_ptr<Job>& job = held.job;
  if (job->terminal() || job->cancel_requested || job->trials == 0) return std::nullopt;
  Tenant& tenant = *tenants_[job->tenant];
  if (tenant.draining) return std::nullopt;  // don't extend into an eviction
  const std::size_t scenario = held.unit / job->trials;
  const std::size_t lo = scenario * job->trials;
  const std::size_t hi = std::min(lo + job->trials, job->units_total);
  for (std::size_t u = lo; u < hi; ++u) {
    if (job->unit_state[u] != Job::kPending) continue;
    Lease lease = claim_locked(job, tenant, u);
    update_fleet_gauges();
    return lease;
  }
  return std::nullopt;
}

std::vector<std::string> Server::execute_unit(Tenant& tenant, const UnitPlan& plan,
                                              std::size_t unit) {
  const std::size_t sc = api::unit_scenario(unit, plan.trials);
  const int trial = static_cast<int>(api::unit_trial(unit, plan.trials));
  const std::vector<sim::SimulationResult> results = tenant.session->run_unit(
      plan.options, *plan.avail_family, plan.plat_family, plan.scenarios[sc],
      plan.heuristics, trial);
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (std::size_t h = 0; h < results.size(); ++h) {
    rows.push_back(row_line(sc, trial, h, plan.heuristics[h],
                            plan.spec.scenario_space.availability, plan.scenarios[sc],
                            results[h]));
  }
  return rows;
}

void Server::unit_done_locked(Tenant& tenant, std::size_t rows) {
  tenant.inflight -= 1;
  tenant.units_done += 1;
  tenant.rows += rows;
  // The store can overshoot by at most the in-flight units' growth. A
  // coordinator's tenant sessions run nothing, so their stores stay empty
  // and never drain — DRAINING happens on the shards.
  if (tenant.draining) return;
  const std::size_t store_bytes = tenant.session->chain_store_bytes();
  if (store_bytes <= tenant.quota.chain_store_bytes) return;
  tenant.draining = true;
  if (obs::Tracer::instance().active()) {
    obs::Tracer::instance().emit(
        "serve_drain_start",
        {{"tenant", tenant.name},
         {"chain_store_bytes", static_cast<unsigned long long>(store_bytes)}});
  }
}

Server::Commit Server::commit_unit(const Lease& lease, std::vector<std::string> rows,
                                   std::uint64_t claimed_us) {
  const std::shared_ptr<Job>& job = lease.job;
  std::uint64_t service_us = 0;
  {
    std::lock_guard<std::mutex> io_lock(job->io_mutex);
    {
      std::lock_guard<std::mutex> lock(mu_);
      // Abandon instead of committing once stopping: hard_stop() promises
      // kill -9 semantics (nothing new becomes durable after it returns —
      // every lease holder is joined before hard_stop returns).
      if (stopping_) return Commit::Stopped;
      if (job->unit_state[lease.unit] != Job::kInFlight) {
        // A stale lease: its unit was returned to pending, or a re-claim
        // already committed it (kDone is set before io_mutex is released).
        // The in-flight counts moved on without this lease, so it writes
        // nothing; by purity its rows equal the ones the unit commits.
        return Commit::Duplicate;
      }
    }
    try {
      job->ckpt->commit_unit(lease.unit, rows);
    } catch (const std::exception& e) {
      fail_lease(lease, std::string("checkpoint write failed: ") + e.what());
      return Commit::Failed;
    }
    // Unit service time: claim to durable commit (the fsync is in; the rows
    // become visible to readers a few instructions later).
    if (claimed_us != 0) service_us = obs::steady_now_us() - claimed_us;
    // Publish while still holding io_mutex so the in-memory row order
    // matches rows.jsonl's commit order exactly — `results --from=N`
    // offsets must index the same sequence before and after a restart
    // (which rebuilds job->rows in file order; DESIGN.md §11, §15).
    std::lock_guard<std::mutex> lock(mu_);
    Tenant* tenant = tenants_[job->tenant].get();
    job->inflight -= 1;
    job->unit_state[lease.unit] = Job::kDone;
    job->units_done += 1;
    unit_done_locked(*tenant, rows.size());
    const std::uint64_t now_us = obs::steady_now_us();
    for (std::string& row : rows) {
      job->rows.push_back(std::move(row));
      job->row_publish_us.push_back(now_us);
    }
    if (claimed_us != 0) tenant->unit_service_us.observe(service_us);
    if (job->units_done == job->units_total && !job->terminal()) {
      job->state = Job::State::Done;
    }
    finalize_if_drained(*job);
    update_fleet_gauges();
    rows_cv_.notify_all();
    work_cv_.notify_all();
  }
  if (obs::Tracer::instance().active()) {
    // Outside every lock: the tracer's file write must not stall the fleet.
    obs::Tracer::instance().emit(
        "serve_unit", {{"job", job->id},
                       {"tenant", job->tenant},
                       {"unit", static_cast<unsigned long long>(lease.unit)},
                       {"us", static_cast<unsigned long long>(service_us)}});
  }
  return Commit::Committed;
}

void Server::return_lease(const Lease& lease) {
  std::lock_guard<std::mutex> lock(mu_);
  Job& job = *lease.job;
  drop_lease_locked(job, lease.unit);
  finalize_if_drained(job);
  update_fleet_gauges();
  work_cv_.notify_all();
  rows_cv_.notify_all();
}

void Server::fail_lease(const Lease& lease, const std::string& error) {
  std::lock_guard<std::mutex> lock(mu_);
  Job& job = *lease.job;
  drop_lease_locked(job, lease.unit);
  if (!job.terminal()) {
    job.state = Job::State::Failed;
    job.error = error;
  }
  finalize_if_drained(job);
  update_fleet_gauges();
  rows_cv_.notify_all();
  work_cv_.notify_all();
}

void Server::finalize_if_drained(Job& job) {
  // Caller holds mu_. Cancellation completes only once in-flight units
  // finished (their rows still commit — a cancelled job's checkpoint stays
  // consistent).
  if (job.cancel_requested && job.inflight == 0 && !job.terminal()) {
    job.state = Job::State::Cancelled;
    rows_cv_.notify_all();
  }
}

void Server::worker_loop() {
  // A local worker is an in-process lease holder: it claims a unit, runs it
  // itself and commits through the same call a shard slot uses.
  while (std::optional<Lease> lease = claim_for_dispatch()) {
    const std::uint64_t claimed_us = obs::enabled() ? obs::steady_now_us() : 0;
    Tenant& tenant = [&]() -> Tenant& {
      std::lock_guard<std::mutex> lock(mu_);
      return *tenants_[lease->tenant];
    }();
    std::vector<std::string> rows;
    try {
      rows = execute_unit(tenant, *lease->job, lease->unit);
    } catch (const std::exception& e) {
      fail_lease(*lease, e.what());
      continue;
    }
    if (commit_unit(*lease, std::move(rows), claimed_us) == Commit::Stopped) return;
  }
}

// ---------------------------------------------------------------- requests ----

std::string Server::spec_gate_error(const api::ExperimentSpec& spec) const {
  // Session-level knobs a per-job spec cannot change (DESIGN.md §11):
  // reject loudly rather than silently diverge from what would run. Shared
  // by submit and lease — a shard enforces the same gates a front door
  // would, so a coordinator/shard eps mismatch fails fast instead of
  // merging bit-divergent rows.
  if (spec.options.eps != options_.eps) {
    return "spec.options.eps: must equal the daemon's session eps (" +
           std::to_string(options_.eps) + ")";
  }
  if (spec.options.record_trace) {
    return "spec.options.record_trace: activity traces are not streamable over the "
           "serve protocol";
  }
  return {};
}

std::string Server::handle_submit(const json::Value& req) {
  const json::Value* tenant_v = req.find("tenant");
  if (tenant_v == nullptr || !tenant_v->is_string() ||
      !valid_identifier(tenant_v->as_string())) {
    return error_line("tenant: required, [A-Za-z0-9._-]{1,64}, no leading dot");
  }
  const std::string tenant_name = tenant_v->as_string();

  const json::Value* spec_v = req.find("spec");
  if (spec_v == nullptr) return error_line("spec: required");
  api::ExperimentSpec spec;
  try {
    spec = api::spec_from_json(*spec_v);
    spec.validate();
  } catch (const std::invalid_argument& e) {
    return error_line(e.what());
  }
  if (std::string gate = spec_gate_error(spec); !gate.empty()) return error_line(gate);

  std::string job_id;
  if (const json::Value* job_v = req.find("job"); job_v != nullptr) {
    if (!job_v->is_string() || !valid_identifier(job_v->as_string())) {
      return error_line("job: [A-Za-z0-9._-]{1,64}, no leading dot");
    }
    job_id = job_v->as_string();
  }
  {
    // Reserve the id before dropping mu_ so two racing submits with the same
    // explicit name can't both pass the existence check. The on-disk check
    // covers directories that exist but never loaded (corrupt manifest, or
    // orphaned units/rows files): reusing one would merge its stale
    // committed units into the new job at the next restart.
    std::lock_guard<std::mutex> lock(mu_);
    if (job_id.empty()) {
      do {
        job_id = "job-" + std::to_string(next_job_number_++);
      } while (jobs_.count(job_id) != 0 || reserved_ids_.count(job_id) != 0 ||
               JobCheckpoint::has_state(options_.root, job_id));
    } else if (jobs_.count(job_id) != 0 || reserved_ids_.count(job_id) != 0) {
      return error_line("job: '" + job_id + "' already exists");
    } else if (JobCheckpoint::has_state(options_.root, job_id)) {
      return error_line("job: '" + job_id + "' already exists on disk (unloaded " +
                        "checkpoint directory); remove it to reuse the id");
    }
    reserved_ids_.insert(job_id);
  }

  std::unique_ptr<JobCheckpoint> ckpt;
  try {
    ckpt = std::make_unique<JobCheckpoint>(options_.root, job_id);
    const json::Value manifest = json::Object{
        {"job", job_id}, {"tenant", tenant_name}, {"spec", api::spec_to_json(spec)}};
    ckpt->write_manifest(json::dump(manifest));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    reserved_ids_.erase(job_id);
    return error_line(std::string("checkpoint: ") + e.what());
  }

  register_job(job_id, tenant_name, std::move(spec), std::move(ckpt), /*fresh=*/true);

  std::lock_guard<std::mutex> lock(mu_);
  const Job& job = *jobs_[job_id];
  return json::dump(json::Object{
      {"ok", true},
      {"type", "submitted"},
      {"job", job.id},
      {"tenant", job.tenant},
      {"units", static_cast<unsigned long long>(job.units_total)},
      {"rows_expected",
       static_cast<unsigned long long>(job.units_total * job.heuristics.size())},
  });
}

std::string Server::status_line(const Job& job) const {
  return json::dump(json::Object{
      {"ok", true},
      {"type", "status"},
      {"job", job.id},
      {"tenant", job.tenant},
      {"state", job.state_name()},
      {"units_total", static_cast<unsigned long long>(job.units_total)},
      {"units_done", static_cast<unsigned long long>(job.units_done)},
      {"rows", static_cast<unsigned long long>(job.rows.size())},
      {"rows_expected",
       static_cast<unsigned long long>(job.units_total * job.heuristics.size())},
      {"error", job.error},
  });
}

std::string Server::handle_status(const json::Value& req) {
  const json::Value* job_v = req.find("job");
  if (job_v == nullptr || !job_v->is_string()) return error_line("job: required");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_v->as_string());
  if (it == jobs_.end()) return error_line("job: unknown job '" + job_v->as_string() + "'");
  return status_line(*it->second);
}

std::string Server::handle_cancel(const json::Value& req) {
  const json::Value* job_v = req.find("job");
  if (job_v == nullptr || !job_v->is_string()) return error_line("job: required");
  std::shared_ptr<Job> job;
  bool applied = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(job_v->as_string());
    if (it == jobs_.end()) {
      return error_line("job: unknown job '" + job_v->as_string() + "'");
    }
    job = it->second;
    if (!job->terminal() && !job->cancel_requested) {
      job->cancel_requested = true;
      applied = true;
      finalize_if_drained(*job);
      update_fleet_gauges();  // the job's pending units left the queue
      work_cv_.notify_all();
    }
  }
  // Persist the cancellation outside mu_ (filesystem touch). Only when the
  // cancel actually applied: marking an already-done job would flip its
  // post-restart state.
  if (applied) {
    std::lock_guard<std::mutex> io_lock(job->io_mutex);
    try {
      job->ckpt->mark_cancelled();
    } catch (const std::exception&) {
      // Worst case an un-persisted cancel re-queues after a restart;
      // in-memory state is already cancelled.
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  return status_line(*job);
}

std::string Server::handle_counters() {
  std::lock_guard<std::mutex> lock(mu_);
  json::Object tenants;
  for (const auto& [name, tenant] : tenants_) {
    const auto store = tenant->session->chain_store_counters();
    tenants.emplace_back(
        name,
        json::Object{
            {"jobs", static_cast<unsigned long long>(tenant->jobs)},
            {"units_done", static_cast<unsigned long long>(tenant->units_done)},
            {"rows", static_cast<unsigned long long>(tenant->rows)},
            {"inflight", static_cast<unsigned long long>(tenant->inflight)},
            {"draining", tenant->draining},
            {"evictions", static_cast<unsigned long long>(tenant->evictions)},
            {"quota",
             json::Object{
                 {"realization_budget",
                  static_cast<unsigned long long>(tenant->quota.realization_budget)},
                 {"chain_store_bytes",
                  static_cast<unsigned long long>(tenant->quota.chain_store_bytes)},
             }},
            {"chain_store",
             json::Object{
                 {"chains", static_cast<unsigned long long>(store.chains)},
                 {"intern_hits", static_cast<unsigned long long>(store.intern_hits)},
                 {"set_entries", static_cast<unsigned long long>(store.set_entries)},
                 {"set_hits", static_cast<unsigned long long>(store.set_hits)},
                 {"set_misses", static_cast<unsigned long long>(store.set_misses)},
                 {"survival_entries",
                  static_cast<unsigned long long>(store.survival_entries)},
                 {"bytes", static_cast<unsigned long long>(store.bytes)},
             }},
        });
  }
  const FleetState fs = fleet_state();
  json::Object response{
      {"ok", true},
      {"type", "counters"},
      {"threads", static_cast<unsigned long long>(workers_.size())},
      {"jobs", static_cast<unsigned long long>(jobs_.size())},
      {"fleet",
       json::Object{
           {"queue_depth", static_cast<unsigned long long>(fs.queue_depth)},
           {"inflight_units", static_cast<unsigned long long>(fs.inflight_units)},
           {"busy_workers", static_cast<unsigned long long>(fs.busy_workers)},
       }},
      {"tenants", std::move(tenants)},
  };
  if (shard_fleet_ != nullptr) {
    // Lock order: ShardFleet never calls back into the server while holding
    // its own mutex, so mu_ -> fleet mu_ here cannot invert anywhere.
    const ShardFleet::Counters c = shard_fleet_->counters();
    json::Object inflight_leases;
    for (const auto& [address, n] : c.inflight_leases) {
      inflight_leases.emplace_back(address, static_cast<unsigned long long>(n));
    }
    response.emplace_back(
        "coordinator",
        json::Object{
            {"shards", static_cast<unsigned long long>(c.shards)},
            {"live_shards", static_cast<unsigned long long>(c.live_shards)},
            {"leased_units", static_cast<unsigned long long>(c.leased_units)},
            {"redispatched_units",
             static_cast<unsigned long long>(c.redispatched_units)},
            {"duplicate_commits",
             static_cast<unsigned long long>(c.duplicate_commits)},
            {"inflight_leases", std::move(inflight_leases)},
        });
  }
  return json::dump(std::move(response));
}

std::string Server::handle_metrics(const json::Value& req) {
  std::string format = "json";
  if (const json::Value* format_v = req.find("format"); format_v != nullptr) {
    if (!format_v->is_string()) {
      return error_line("format: expected \"json\" or \"prometheus\"");
    }
    format = format_v->as_string();
  }
  if (format != "json" && format != "prometheus") {
    return error_line("format: expected \"json\" or \"prometheus\"");
  }
  {
    // Gauges are refreshed at dispatch/publish transitions; refresh once
    // more here so an idle daemon's scrape still reads current depths.
    std::lock_guard<std::mutex> lock(mu_);
    update_fleet_gauges();
  }
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  json::Object response{
      {"ok", true}, {"type", "metrics"}, {"enabled", obs::enabled()}, {"format", format}};
  if (format == "prometheus") {
    response.emplace_back("prometheus", snap.to_prometheus());
  } else {
    response.emplace_back("metrics", snap.to_json());
  }
  return json::dump(std::move(response));
}

void Server::handle_results(const json::Value& req, util::LineChannel& ch) {
  const json::Value* job_v = req.find("job");
  if (job_v == nullptr || !job_v->is_string()) {
    ch.write_line(error_line("job: required"));
    return;
  }
  std::size_t from = 0;
  if (const json::Value* from_v = req.find("from"); from_v != nullptr) {
    if (!from_v->is_unsigned()) {
      ch.write_line(error_line("from: expected a non-negative integer"));
      return;
    }
    from = static_cast<std::size_t>(from_v->as_uint());
  }
  bool wait = false;
  if (const json::Value* wait_v = req.find("wait"); wait_v != nullptr) {
    if (!wait_v->is_bool()) {
      ch.write_line(error_line("wait: expected a boolean"));
      return;
    }
    wait = wait_v->as_bool();
  }

  std::shared_ptr<Job> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = jobs_.find(job_v->as_string());
    if (it == jobs_.end()) {
      ch.write_line(error_line("job: unknown job '" + job_v->as_string() + "'"));
      return;
    }
    job = it->second;
  }

  std::vector<std::string> batch;
  while (true) {
    batch.clear();
    std::string end;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (wait) {
        rows_cv_.wait(lock, [&] {
          return stopping_ || from < job->rows.size() || job->terminal();
        });
      }
      if (obs::enabled() && from < job->rows.size()) {
        // Stream latency: row publication to this reader popping it. One
        // clock read per batch; stamps and rows index 1:1 by construction.
        const std::uint64_t now_us = obs::steady_now_us();
        const std::size_t upto =
            std::min(job->rows.size(), from + (kResultsBatch - batch.size()));
        for (std::size_t i = from; i < upto && i < job->row_publish_us.size(); ++i) {
          job->stream_latency_us.observe(now_us - job->row_publish_us[i]);
        }
      }
      while (from < job->rows.size() && batch.size() < kResultsBatch) {
        batch.push_back(job->rows[from++]);
      }
      if (batch.empty() && (!wait || job->terminal() || stopping_)) {
        end = json::dump(json::Object{
            {"ok", true},
            {"type", "end"},
            {"job", job->id},
            {"state", job->state_name()},
            {"rows", static_cast<unsigned long long>(job->rows.size())},
        });
      }
    }
    // Socket writes stay outside the lock: a slow reader must not stall
    // the fleet or other connections.
    for (const std::string& row : batch) {
      if (!ch.write_line(row)) return;
    }
    if (!end.empty()) {
      ch.write_line(end);
      return;
    }
  }
}

// -------------------------------------------------------------- shard verbs ----

std::string Server::handle_register(const json::Value& req) {
  if (const json::Value* shard_v = req.find("shard"); shard_v != nullptr) {
    // Runtime shard registration — only a coordinator has a fleet to grow.
    if (!shard_v->is_string() || shard_v->as_string().empty()) {
      return error_line("shard: expected a non-empty address string");
    }
    if (shard_fleet_ == nullptr) {
      return error_line(
          "shard: this daemon is not a coordinator (start it with --coordinator)");
    }
    shard_fleet_->add_shard(shard_v->as_string());
    return json::dump(json::Object{
        {"ok", true}, {"type", "shard_registered"}, {"shard", shard_v->as_string()}});
  }
  // Plain handshake: what a coordinator needs to size and gate a shard.
  return json::dump(json::Object{
      {"ok", true},
      {"type", "registered"},
      {"threads", static_cast<unsigned long long>(workers_.size())},
      {"eps", options_.eps},
      {"coordinator", options_.coordinator},
  });
}

void Server::handle_lease(const json::Value& req, util::LineChannel& ch) {
  const json::Value* tenant_v = req.find("tenant");
  if (tenant_v == nullptr || !tenant_v->is_string() ||
      !valid_identifier(tenant_v->as_string())) {
    ch.write_line(error_line("tenant: required, [A-Za-z0-9._-]{1,64}, no leading dot"));
    return;
  }
  const json::Value* units_v = req.find("units");
  if (units_v == nullptr || !units_v->is_array()) {
    ch.write_line(error_line("units: required array of unit ids"));
    return;
  }

  // Every lease carries its spec: resolving it costs microseconds against
  // units that run for tens of milliseconds, and a self-contained request
  // leaves the connection stateless. Lease units are NOT checkpointed here:
  // durability lives in the coordinator's merge log, so the plan carries no
  // Job bookkeeping.
  const json::Value* spec_v = req.find("spec");
  if (spec_v == nullptr) {
    ch.write_line(error_line("spec: required"));
    return;
  }
  api::ExperimentSpec spec;
  try {
    spec = api::spec_from_json(*spec_v);
    spec.validate();
  } catch (const std::invalid_argument& e) {
    ch.write_line(error_line(e.what()));
    return;
  }
  if (std::string gate = spec_gate_error(spec); !gate.empty()) {
    ch.write_line(error_line(gate));
    return;
  }
  UnitPlan plan;
  Tenant& tenant = resolve_plan(plan, tenant_v->as_string(), std::move(spec));

  std::vector<std::size_t> units;
  units.reserve(units_v->as_array().size());
  for (const json::Value& u : units_v->as_array()) {
    if (!u.is_unsigned() || u.as_uint() >= plan.units_total) {
      ch.write_line(error_line("units: unit id out of range for the lease spec"));
      return;
    }
    units.push_back(static_cast<std::size_t>(u.as_uint()));
  }

  // Execute on THIS handler thread: the coordinator opens one connection
  // per lease slot, so a shard's parallelism equals the slot count and the
  // per-thread estimator caches stay warm per slot (DESIGN.md §15).
  for (std::size_t unit : units) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Quota DRAINING gate, same boundary as claim_unit: clear_caches is
      // safe only with nothing of this tenant running, and tenant.inflight
      // counts lease units too.
      work_cv_.wait(lock, [&] { return stopping_ || evict_if_drained(tenant); });
      if (stopping_) return;
      tenant.inflight += 1;
    }
    std::vector<std::string> rows;
    bool failed = false;
    std::string error;
    try {
      rows = execute_unit(tenant, plan, unit);
    } catch (const std::exception& e) {
      failed = true;
      error = e.what();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (failed) tenant.inflight -= 1;
      else unit_done_locked(tenant, rows.size());
      work_cv_.notify_all();
    }
    if (failed) {
      ch.write_line(json::dump(json::Object{{"ok", false},
                                            {"type", "unit_failed"},
                                            {"unit", static_cast<unsigned long long>(unit)},
                                            {"error", error}}));
      return;
    }
    // Unit header + raw row lines (row_line bytes, never JSON-escaped).
    std::string header = "{\"ok\":true,\"type\":\"unit\",\"unit\":";
    header += std::to_string(unit);
    header += ",\"rows\":";
    header += std::to_string(rows.size());
    header += '}';
    if (!ch.write_line(header)) return;  // coordinator gone; rows re-run elsewhere
    for (const std::string& row : rows) {
      if (!ch.write_line(row)) return;
    }
  }
  ch.write_line(json::dump(json::Object{
      {"ok", true},
      {"type", "lease_done"},
      {"units", static_cast<unsigned long long>(units.size())}}));
}

void Server::serve_connection(int fd) {
  util::LineChannel ch(fd);
  std::string line;
  while (ch.read_line(line)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) return;
    }
    json::Value req;
    try {
      req = json::parse(line);
      if (!req.is_object()) throw std::invalid_argument("request must be a JSON object");
    } catch (const std::invalid_argument& e) {
      if (!ch.write_line(error_line(e.what()))) return;
      continue;
    }
    const json::Value* op = req.find("op");
    if (op == nullptr || !op->is_string()) {
      if (!ch.write_line(error_line("op: required"))) return;
      continue;
    }
    const std::string& name = op->as_string();
    if (name == "results") {
      handle_results(req, ch);
      continue;
    }
    if (name == "lease") {
      handle_lease(req, ch);
      continue;
    }
    std::string response;
    if (name == "submit") response = handle_submit(req);
    else if (name == "status") response = handle_status(req);
    else if (name == "cancel") response = handle_cancel(req);
    else if (name == "counters") response = handle_counters();
    else if (name == "metrics") response = handle_metrics(req);
    else if (name == "register") response = handle_register(req);
    else if (name == "heartbeat")
      response = json::dump(json::Object{{"ok", true}, {"type", "pong"}});
    else response = error_line("op: unknown op '" + name + "'");
    if (!ch.write_line(response)) return;
  }
}

void Server::serve(int listen_fd) {
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    ++active_acceptors_;
  }
  while (true) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) break;
    }
    pollfd pfd{listen_fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc <= 0) continue;  // timeout (re-check stop) or EINTR
    util::Fd conn = util::accept_connection(listen_fd);
    if (!conn.valid()) continue;
    const int raw = conn.release();
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.insert(raw);
      ++active_conns_;
    }
    {
      // Close the accept/stop race: a connection registered after
      // hard_stop()'s shutdown pass over conn_fds_ would otherwise park its
      // handler in recv forever, and the stop's drain-wait with it.
      // stopping_ is set before that pass, so re-checking here after the
      // insert guarantees one of the two shutdowns reaches every fd.
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) ::shutdown(raw, SHUT_RDWR);
    }
    // Detached: finished handlers reap themselves (an ever-growing join
    // list would leak thread handles over a daemon's life). The final
    // decrement + notify under conn_mu_ is the handler's last touch of the
    // server, so hard_stop()'s drain-wait is a safe teardown barrier.
    std::thread([this, raw] {
      serve_connection(raw);
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn_fds_.erase(raw);
      ::close(raw);
      --active_conns_;
      conn_cv_.notify_all();
    }).detach();
  }
  // A just-accepted connection is registered in active_conns_ before this
  // decrement, so once the acceptor count drains there are no connections
  // hard_stop()'s wait cannot see.
  std::lock_guard<std::mutex> lock(conn_mu_);
  --active_acceptors_;
  conn_cv_.notify_all();
}

void Server::hard_stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      // Already stopped by an explicit call; the destructor re-enters here.
      return;
    }
    stopping_ = true;
  }
  work_cv_.notify_all();
  rows_cv_.notify_all();
  // Fleet first: slot threads blocked on work_cv_ wake on stopping_; the
  // ones blocked in shard I/O are unblocked by the fleet's fd shutdowns.
  if (shard_fleet_) shard_fleet_->stop();
  {
    // Unblock connection handlers parked in read_line / streaming writes.
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (std::thread& t : workers_) t.join();
  // Acceptors too: one may hold an accepted-but-unregistered connection
  // active_conns_ does not count yet. They exit within one poll timeout of
  // stopping_ (and register any such connection first), after which the
  // handler drain below is airtight.
  std::unique_lock<std::mutex> lock(conn_mu_);
  conn_cv_.wait(lock, [&] { return active_conns_ == 0 && active_acceptors_ == 0; });
}

// ----------------------------------------------------------- introspection ----

std::optional<JobStatus> Server::job_status(const std::string& job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  JobStatus s;
  s.job = job.id;
  s.tenant = job.tenant;
  s.state = job.state_name();
  s.error = job.error;
  s.units_total = job.units_total;
  s.units_done = job.units_done;
  s.rows = job.rows.size();
  s.rows_expected = job.units_total * job.heuristics.size();
  return s;
}

std::optional<JobStatus> Server::wait_job(const std::string& job_id) {
  std::shared_ptr<Job> job;
  {
    std::unique_lock<std::mutex> lock(mu_);
    const auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return std::nullopt;
    job = it->second;
    rows_cv_.wait(lock, [&] { return stopping_ || job->terminal(); });
    if (!job->terminal()) return std::nullopt;
  }
  return job_status(job_id);
}

void Server::wait_units(const std::string& job_id, std::size_t at_least) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) return;
  const std::shared_ptr<Job> job = it->second;
  rows_cv_.wait(lock, [&] {
    return stopping_ || job->terminal() || job->units_done >= at_least;
  });
}

std::size_t Server::tenant_evictions(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second->evictions;
}

}  // namespace tcgrid::serve
