// The serve workloads: tcgrid_serve daemons in their own processes, driven
// over the wire protocol by three tenant connections in a closed loop.
//
//   serve_local    one daemon with nproc - 1 workers.
//   serve_sharded  a coordinator leasing units to nproc - 1 single-worker
//                  shard daemons.
//
// Traffic comes in rounds. A round starts a fresh fleet; then 3 tenants,
// each under its own seed, submit one-cell jobs of the reduced m = 5 grid (9
// heuristics, cap 50k), streaming each job to its end record before
// submitting the next. Together a round's tenants cover the grid's 30 cells.
// Rounds repeat under fresh seeds until --seconds have elapsed. Afterwards
// jobs' rows are compared, as sorted row bytes, with the rows a plain
// in-process Session computes for the same spec.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "api/spec_json.hpp"
#include "bench.hpp"
#include "scen/registry.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/socket.hpp"

extern char** environ;

namespace tcgbench {

namespace {

using namespace tcgrid;
namespace fs = std::filesystem;
namespace json = util::json;

constexpr int kTenants = 3;
constexpr int kJobsPerTenant = 10;

/// prefix + n + suffix. (Appending, rather than "literal" + to_string(n),
/// sidesteps a GCC 12 -Wrestrict false positive.)
std::string numbered(const char* prefix, std::size_t n, const char* suffix = "") {
  std::string out = prefix;
  out += std::to_string(n);
  out += suffix;
  return out;
}

std::size_t fleet_workers() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency() - 1);
}

/// A daemon process; stopped (SIGTERM, then SIGKILL) and reaped on
/// destruction.
class Daemon {
 public:
  Daemon(const std::string& bin, const std::vector<std::string>& args, const std::string& log) {
    std::vector<std::string> argv_s{bin};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& s : argv_s) argv.push_back(s.data());
    argv.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                     0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const int rc = posix_spawn(&pid_, bin.c_str(), &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + bin + ": " + std::strerror(rc));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// True once the process has exited (it stays unreaped until stop()).
  [[nodiscard]] bool exited() const {
    siginfo_t info{};
    return ::waitid(P_PID, static_cast<id_t>(pid_), &info, WEXITED | WNOHANG | WNOWAIT) == 0 &&
           info.si_pid == pid_;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

void wait_accepting(const std::string& socket, const Daemon& daemon) {
  const double deadline = now_s() + 30.0;
  for (;;) {
    try {
      util::Fd probe = util::connect_unix(socket);
      return;
    } catch (const std::exception&) {
    }
    if (daemon.exited()) throw std::runtime_error("daemon for " + socket + " exited");
    if (now_s() > deadline) throw std::runtime_error("daemon " + socket + " never accepted");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

std::string roundtrip(const std::string& socket, const std::string& request) {
  util::Fd fd = util::connect_unix(socket);
  util::LineChannel ch(fd.get());
  std::string response;
  if (!ch.write_line(request) || !ch.read_line(response)) {
    throw std::runtime_error("daemon closed the connection");
  }
  return response;
}

std::size_t coordinator_counter(const json::Value& counters, const char* key) {
  const json::Value* c = counters.find("coordinator");
  if (c == nullptr) return 0;
  const json::Value* v = c->find(key);
  return v == nullptr ? 0 : static_cast<std::size_t>(v->as_uint());
}

/// The daemons of one workload, started and ready for work.
struct Fleet {
  std::vector<std::unique_ptr<Daemon>> daemons;  ///< the client-facing one last
  std::string socket;  ///< where tenants connect
  std::string root;    ///< its checkpoint root

  void stop() {
    // The client-facing daemon (coordinator) first, then its shards.
    for (auto it = daemons.rbegin(); it != daemons.rend(); ++it) (*it)->stop();
  }
};

Fleet start_fleet(const Args& args, bool sharded, int index) {
  const fs::path dir =
      fs::path(args.work_dir) / numbered("fleet", static_cast<std::size_t>(index));
  fs::create_directories(dir);
  const std::string log = (dir / "daemon.log").string();
  const std::string workers = std::to_string(fleet_workers());
  Fleet fleet;
  fleet.root = (dir / "root").string();
  if (!sharded) {
    fleet.socket = (dir / "d.sock").string();
    fleet.daemons.push_back(std::make_unique<Daemon>(
        args.serve_bin,
        std::vector<std::string>{"--socket", fleet.socket, "--root", fleet.root, "--threads",
                                 workers},
        log));
    wait_accepting(fleet.socket, *fleet.daemons.back());
    return fleet;
  }
  std::vector<std::string> coord_args{"--coordinator"};
  std::vector<std::string> shard_sockets;
  for (std::size_t s = 0; s < fleet_workers(); ++s) {
    const std::string sock = (dir / numbered("s", s, ".sock")).string();
    fleet.daemons.push_back(std::make_unique<Daemon>(
        args.serve_bin,
        std::vector<std::string>{"--socket", sock, "--root",
                                 (dir / numbered("shard", s)).string(), "--threads", "1"},
        log));
    shard_sockets.push_back(sock);
    coord_args.insert(coord_args.end(), {"--shard", sock});
  }
  for (std::size_t s = 0; s < shard_sockets.size(); ++s) {
    wait_accepting(shard_sockets[s], *fleet.daemons[s]);
  }
  fleet.socket = (dir / "c.sock").string();
  coord_args.insert(coord_args.end(), {"--socket", fleet.socket, "--root", fleet.root});
  fleet.daemons.push_back(std::make_unique<Daemon>(args.serve_bin, coord_args, log));
  wait_accepting(fleet.socket, *fleet.daemons.back());
  // Ready once every shard has registered with the coordinator.
  const double deadline = now_s() + 30.0;
  while (coordinator_counter(json::parse(roundtrip(fleet.socket, serve::counters_request())),
                             "live_shards") < shard_sockets.size()) {
    if (now_s() > deadline) throw std::runtime_error("shards never registered");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return fleet;
}

/// Job k of tenant t in round r: one cell of the reduced m = 5 grid. In a
/// round the tenants take the three ncom values, so together they cover
/// the grid's 30 cells, and each walks wmin 1..10 from its own offset, so
/// heavy (large wmin) and light jobs overlap. Each job's seed derives from
/// the tenant's: one seed for all of a tenant's one-cell jobs would give
/// every cell the same platforms and availability, and a run too few
/// distinct inputs to average over.
api::ExperimentSpec job_spec(std::uint64_t seed, int tenant, int round, int k) {
  api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, 50'000);
  spec.heuristics = {"IP", "IE", "IAY", "P-IE", "E-IE", "E-IAY", "Y-IE", "IY", "RANDOM"};
  spec.grid.ncoms = {spec.grid.ncoms[static_cast<std::size_t>((tenant + round) % 3)]};
  spec.grid.wmins = {spec.grid.wmins[static_cast<std::size_t>((k + 3 * tenant) % 10)]};
  spec.options.seed = util::derive_seed2(seed, static_cast<std::uint64_t>(tenant),
                                         static_cast<std::uint64_t>(round * kJobsPerTenant + k));
  return spec;
}

struct Job {
  std::string id;
  api::ExperimentSpec spec;
  double submit_s = 0;     ///< submit request written
  double submitted_s = 0;  ///< submit acknowledged
  double first_row_s = 0;
  double end_s = 0;        ///< end record read
  std::vector<std::string> rows;
  bool ok = false;
};

bool is_row(const std::string& line) { return line.rfind("{\"scenario\":", 0) == 0; }

/// One tenant's round: its jobs, each streamed to its end record before
/// the next is submitted. Never throws: a transport failure leaves the
/// remaining jobs unsubmitted (counted as failed).
void tenant_round(const std::string& socket, int tenant, std::span<Job> jobs,
                  std::mutex& current_mu, std::string& current) {
  try {
    util::Fd fd = util::connect_unix(socket);
    util::LineChannel ch(fd.get());
    const std::string name = numbered("tenant", static_cast<std::size_t>(tenant));
    for (Job& job : jobs) {
      std::string line;
      job.submit_s = now_s();
      if (!ch.write_line(serve::submit_request(name, api::spec_to_json(job.spec), job.id)) ||
          !ch.read_line(line)) {
        return;
      }
      job.submitted_s = job.end_s = now_s();
      if (line.find("\"ok\":true") == std::string::npos) continue;
      {
        const std::lock_guard<std::mutex> lock(current_mu);
        current = job.id;
      }
      if (!ch.write_line(serve::results_request(job.id, 0, /*wait=*/true))) return;
      while (ch.read_line(line)) {
        if (!is_row(line)) break;
        if (job.rows.empty()) job.first_row_s = now_s();
        job.rows.push_back(line);
      }
      job.end_s = now_s();
      job.ok = line.find("\"type\":\"end\"") != std::string::npos &&
               line.find("\"state\":\"done\"") != std::string::npos;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tenant %d: %s\n", tenant, e.what());
  }
}

double dir_mb(const std::string& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += e.file_size(ec);
  }
  return static_cast<double>(bytes) / (1 << 20);
}

struct CheckResult {
  std::vector<char> job_ok;  ///< char, not bool: threads write distinct entries
  double unit_busy_s = 0;    ///< run_unit time, summed over units
  std::uint64_t union_digest = 0;
  markov::ChainStatsStore::Counters store{};
  LayerTimes layers;
  bool traced_agrees = true;
};

/// One checking thread's state: a plain Session, warm across jobs like a
/// tenant's session in the daemon.
struct Checker {
  api::Session session;
  LayerTimes layers;
  double busy_s = 0;
  std::uint64_t digest = 0;
  bool agrees = true;

  /// True when the job finished and its rows match, as sorted bytes.
  bool check(const Job& job, bool traced) {
    const api::ExperimentSpec& spec = job.spec;
    const auto scenarios = spec.scenarios();
    const auto& heuristics = spec.resolved_heuristics();
    const auto avail = scen::availability_family(spec.scenario_space.availability);
    const auto plat = scen::platform_family(spec.scenario_space.platform);
    // A mirror per job keeps the traced run's memory to one job; jobs
    // share no scenarios, so little warmth is lost.
    std::optional<TracedUnits> mirror;
    if (traced) mirror.emplace(spec.options, layers);
    std::vector<std::string> rows;
    for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
      for (int trial = 0; trial < spec.trials; ++trial) {
        double t0 = now_s();
        const auto results =
            session.run_unit(spec.options, *avail, plat, scenarios[sc], heuristics, trial);
        busy_s += now_s() - t0;
        for (std::size_t h = 0; h < results.size(); ++h) {
          rows.push_back(serve::row_line(sc, trial, h, heuristics[h],
                                         spec.scenario_space.availability, scenarios[sc],
                                         results[h]));
        }
        if (!mirror.has_value()) continue;
        t0 = now_s();
        const auto again = mirror->run_unit(spec, scenarios[sc], trial);
        layers.wall_s += now_s() - t0;
        for (std::size_t h = 0; h < results.size(); ++h) {
          agrees = agrees && row_hash(h, sc, trial, again[h]) ==
                                 row_hash(h, sc, trial, results[h]);
        }
      }
    }
    for (const std::string& r : rows) digest ^= fnv1a(r);
    std::vector<std::string> got = job.rows;
    std::sort(rows.begin(), rows.end());
    std::sort(got.begin(), got.end());
    return job.ok && got == rows;
  }
};

/// Recomputes the jobs' rows in-process through Session::run_unit — the
/// per-unit body of a plain Session run — on every core; when `traced`,
/// also through the traced mirror, which must agree. A job whose check
/// could not run stays not ok.
CheckResult check_jobs(const std::vector<const Job*>& jobs, bool traced) {
  CheckResult out;
  out.job_ok.assign(jobs.size(), 0);
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  auto worker = [&] {
    Checker checker;
    try {
      for (std::size_t j = next++; j < jobs.size(); j = next++) {
        out.job_ok[j] = checker.check(*jobs[j], traced) ? 1 : 0;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "check: %s\n", e.what());
    }
    const auto store = checker.session.chain_store_counters();
    const std::lock_guard<std::mutex> lock(mu);
    out.unit_busy_s += checker.busy_s;
    out.union_digest ^= checker.digest;
    out.traced_agrees = out.traced_agrees && checker.agrees;
    out.store.bytes += store.bytes;
    out.store.survival_entries += store.survival_entries;
    out.store.set_hits += store.set_hits;
    out.store.set_misses += store.set_misses;
    out.layers += checker.layers;
  };
  std::vector<std::thread> pool;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency()); ++i) {
    pool.emplace_back(worker);
  }
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace

int run_serve(const Args& args) {
  const bool sharded = args.workload == "serve_sharded";
  Report report;
  fs::remove_all(args.work_dir);

  // Rounds until --seconds have elapsed. Each round starts a fresh fleet
  // (timed: set-up), runs every tenant through its jobs, and stops the
  // fleet, so rounds are alike and each fleet's peak memory is one round's.
  // Short rounds keep the whole-round granularity of a run small.
  std::vector<std::vector<Job>> rounds;
  std::vector<double> setup_s, round_rate, rss_mb, status_us;
  ServeLayer layer;
  double wall = 0;
  const double start = now_s();
  for (int round = 0; round == 0 || now_s() - start < args.seconds; ++round) {
    double t0 = now_s();
    Fleet fleet = start_fleet(args, sharded, round);
    setup_s.push_back(now_s() - t0);

    std::vector<Job>& jobs = rounds.emplace_back(kTenants * kJobsPerTenant);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const int tenant = static_cast<int>(j) / kJobsPerTenant;
      jobs[j].id = numbered("job", j);
      jobs[j].spec = job_spec(args.seed, tenant, round, static_cast<int>(j) % kJobsPerTenant);
    }
    std::vector<std::string> current(kTenants);
    std::vector<std::mutex> current_mu(kTenants);
    std::atomic<bool> running{true};
    t0 = now_s();
    std::vector<std::thread> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
      tenants.emplace_back([&, t] {
        tenant_round(fleet.socket, static_cast<int>(t),
                     std::span<Job>(jobs).subspan(t * kJobsPerTenant, kJobsPerTenant),
                     current_mu[t], current[t]);
      });
    }
    // Traced run only: status round trips while the fleet is under load.
    std::thread prober;
    if (args.trace) {
      prober = std::thread([&] {
        try {
          util::Fd fd = util::connect_unix(fleet.socket);
          util::LineChannel ch(fd.get());
          for (std::size_t i = 0; running.load(); ++i) {
            std::string job;
            {
              const std::lock_guard<std::mutex> lock(current_mu[i % kTenants]);
              job = current[i % kTenants];
            }
            if (!job.empty()) {
              std::string line;
              const double s0 = now_s();
              if (!ch.write_line(serve::status_request(job)) || !ch.read_line(line)) return;
              status_us.push_back((now_s() - s0) * 1e6);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "status prober: %s\n", e.what());
        }
      });
    }
    for (std::thread& t : tenants) t.join();
    running = false;
    if (prober.joinable()) prober.join();
    double end = t0;
    std::size_t rows = 0;
    for (const Job& job : jobs) {
      end = std::max(end, job.end_s);
      rows += job.rows.size();
    }
    wall += end - t0;
    round_rate.push_back(static_cast<double>(rows) / (end - t0));

    double rss = 0;
    for (const auto& d : fleet.daemons) rss += peak_rss_mb(d->pid());
    rss_mb.push_back(rss);
    if (args.trace) {
      const json::Value counters =
          json::parse(roundtrip(fleet.socket, serve::counters_request()));
      layer.duplicate_commits +=
          static_cast<double>(coordinator_counter(counters, "duplicate_commits"));
      layer.redispatched +=
          static_cast<double>(coordinator_counter(counters, "redispatched_units"));
    }
    fleet.stop();
    layer.checkpoint_mb = std::max(layer.checkpoint_mb, dir_mb(fleet.root));
  }

  // A traced run checks every job's rows; an end-to-end run checks a
  // seed-chosen third, so the check does not outlast the measurement. An
  // unchecked job still fails when the daemon did not finish it.
  std::vector<const Job*> checked;
  std::vector<double> job_s, submit_ms, first_row_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  util::Rng pick(util::derive_seed(args.seed, 91));
  for (const std::vector<Job>& jobs : rounds) {
    for (const Job& job : jobs) {
      ++attempted;
      job_s.push_back(job.end_s - job.submit_s);
      submit_ms.push_back((job.submitted_s - job.submit_s) * 1e3);
      if (!job.rows.empty()) first_row_ms.push_back((job.first_row_s - job.submit_s) * 1e3);
      if (args.trace || pick.index(3) == 0) {
        checked.push_back(&job);
      } else if (!job.ok) {
        ++failed;
      }
    }
  }
  const CheckResult check = check_jobs(checked, args.trace);
  for (const char ok : check.job_ok) failed += ok != 0 ? 0 : 1;
  std::string rates = "rows/s per round:";
  for (const double r : round_rate) {
    rates += ' ';
    rates += std::to_string(r);
  }
  report.note(rates);
  char buf[200];
  std::snprintf(buf, sizeof buf, "rounds=%zu jobs=%zu checked=%zu union_digest=%016llx",
                rounds.size(), attempted, checked.size(),
                static_cast<unsigned long long>(check.union_digest));
  report.note(buf);
  if (failed > 0) report.note(std::to_string(failed) + " job(s) failed or differ");

  if (!args.trace) {
    report.add("rows_per_s", median(round_rate), "rows/s");
    add_op_latency(report, job_s);
    report.add("setup_s", median(setup_s), "s");
    report.add("peak_rss_mb", median(rss_mb), "MB");
    return report.finish(failed == 0, attempted, failed);
  }

  if (!check.traced_agrees) {
    report.note("traced rows differ from run_unit's");
    failed = attempted;
  }
  layer.submit_ms_p50 = median(submit_ms);
  layer.first_row_ms_p50 = median(first_row_ms);
  layer.status_rtt_us_p50 = median(status_us);
  layer.busy_frac = check.unit_busy_s / (static_cast<double>(fleet_workers()) * wall);
  add_layer_metrics(report, check.layers, check.unit_busy_s);
  add_store_metrics(report, check.store);
  add_serve_metrics(report, layer);
  return report.finish(failed == 0, attempted, failed);
}

}  // namespace tcgbench
