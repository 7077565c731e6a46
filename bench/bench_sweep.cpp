// Trial-major sweep bench: shared materialized realizations vs per-heuristic
// live generation (DESIGN.md §9).
//
// Runs the reduced sweep over a representative heuristic set THREE ways
// with the same seeds — realization sharing on (the default budget),
// sharing disabled (realization_budget = 0, i.e. every heuristic run
// regenerates its availability stream) and sharing on with the obs metrics
// layer enabled — plus a warm-session second pass, and verifies all outcomes are bit-identical via an order-independent digest
// over every per-trial counter, and writes wall times, rows/sec, the
// sharing speedup and the obs overhead ratio to BENCH_sweep.json. The CI
// Release job runs this and uploads the artifact; the committed
// BENCH_sweep.json at the repo root is the tracked baseline.
// The "obs" section is the enabled-path overhead measurement DESIGN.md §12
// cites (budget: < 2% on rows/sec); the other arms run with obs
// disabled, i.e. they also measure the disabled path at parity.
//
// All ratio-of-wall-time figures sit on top of machine noise: the artifact
// therefore records a `noise_floor` — the worst relative best-to-worst rep
// spread seen by any arm — and headline overheads are clamped at 0 (a
// negative overhead is indistinguishable from noise, not a real win). Raw
// unclamped ratios are kept alongside for honesty.
//
// --shards N (default 0 = off) adds a MULTI-PROCESS arm (DESIGN.md §15): a
// coordinator-mode server leasing units to N forked shard daemon processes
// over real unix sockets, timed submit -> final row. Its digest is an
// order-independent fold over the serve-protocol ROW BYTES, compared
// against the same fold computed by a RowDigestSink during a plain shared
// Session run — the sorted-union byte-identity gate, inside the same exit-2
// contract as the in-process digests. The artifact records rows/sec, the
// speedup over the single-process shared arm, the per-shard scaling
// efficiency and the host core count: the arm is CPU-bound, so wall-clock
// speedup needs >= shards+1 hardware threads — on fewer cores the shard
// processes timeshare and the honest expectation is ~1.0x, not >N x.
// Exit codes: 0 ok, 2 on any digest divergence (CI fails on it).
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "bench_common.hpp"
#include "markov/chain_stats.hpp"
#include "obs/obs.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/simd.hpp"
#include "util/socket.hpp"

namespace {

using namespace tcgrid;
using bench::DigestSink;

struct SweepTiming {
  double seconds = 0.0;      ///< best (min) over repetitions
  double worst_seconds = 0.0;  ///< worst (max) over repetitions
  std::size_t rows = 0;
  long slots = 0;
  std::uint64_t digest = 0;
  markov::ChainStatsStore::Counters store{};  ///< chain-stats store stats
};

/// Best-to-worst rep spread of one arm, relative to its best time. The max
/// over arms is the run's noise floor: any ratio between two arms that is
/// smaller than this cannot be distinguished from scheduler jitter.
double rep_spread(const SweepTiming& t) {
  return t.seconds > 0.0 ? t.worst_seconds / t.seconds - 1.0 : 0.0;
}

/// Satellite of DESIGN.md §10: the warm-session pass. One Session runs the
/// SAME sweep twice; the second pass constructs fresh per-cell estimators
/// against the retained chain-stats store, so every chain interns into a
/// hit and every set quad is already memoized. Timings for both passes plus
/// the counter DELTAS of the second one (its hits alone, not the sweep
/// pair's) quantify the cross-request warmth the serve daemon banks on.
struct WarmPassTiming {
  double first_seconds = 0.0;
  double warm_seconds = 0.0;
  double worst_warm_seconds = 0.0;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
  bool passes_identical = false;  ///< second-pass digest == first-pass digest
  markov::ChainStatsStore::Counters after_first{};
  markov::ChainStatsStore::Counters after_second{};
};

WarmPassTiming run_warm_pass(const api::ExperimentSpec& spec) {
  api::Session session(spec.options);
  WarmPassTiming out;
  DigestSink first;
  auto t0 = std::chrono::steady_clock::now();
  session.run(spec, {&first});
  out.first_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.after_first = session.chain_store_counters();
  // The resubmit shape: estimators are rebuilt, the chain store is retained.
  // Without this drop the second pass reuses the per-thread ScenarioEntry
  // caches and never consults the store at all (deltas of 0 — true, but
  // measuring cache retention, not store warmth).
  session.drop_estimator_caches();
  DigestSink warm;
  t0 = std::chrono::steady_clock::now();
  session.run(spec, {&warm});
  out.warm_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.worst_warm_seconds = out.warm_seconds;
  out.after_second = session.chain_store_counters();
  out.rows = warm.rows();
  out.digest = warm.digest();
  out.passes_identical = warm.digest() == first.digest() && warm.rows() == first.rows();
  return out;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Order-independent digest over serve-protocol ROW BYTES. DigestSink folds
/// per-iteration stats that row lines do not carry, so it cannot gate the
/// sharded arm; this sink hashes exactly the bytes a daemon streams —
/// serve::row_line is the single serializer on both sides, which is what
/// makes the comparison a byte-identity claim and not a value claim.
class RowDigestSink final : public api::ResultSink {
 public:
  void consume(const api::ResultRow& row) override {
    digest_ ^= fnv1a(serve::row_line(row.scenario, row.trial, row.heuristic,
                                     *row.name, *row.family, *row.params,
                                     *row.result));
    ++rows_;
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
  std::uint64_t digest_ = 0;
  std::size_t rows_ = 0;
};

struct ShardedTiming {
  double seconds = 0.0;
  double worst_seconds = 0.0;
  std::size_t rows = 0;
  std::uint64_t digest = 0;
};

/// A stock shard daemon in its own forked process behind a unix listen
/// socket — the multi-process in the multi-process arm: real address-space
/// isolation, scheduled by the kernel like any external tcgrid_serve. The
/// child serves until the parent SIGKILLs it; that teardown is the
/// documented shard contract (shards hold nothing the merge needs — the
/// coordinator owns the durable checkpoint).
struct ShardProcess {
  ShardProcess(const serve::ServerOptions& opts, const std::string& socket_path) {
    pid = ::fork();
    if (pid == 0) {
      try {
        tcgrid::util::Fd listen_fd = tcgrid::util::listen_unix(socket_path);
        serve::Server server(opts);
        server.serve(listen_fd.get());
      } catch (...) {
      }
      ::_exit(0);
    }
    // The coordinator's monitor dials the address as soon as the fleet
    // starts: block until the child's socket actually accepts so daemon
    // startup cannot leak into the timed region as connect-retry latency.
    for (int i = 0; i < 200; ++i) {
      try {
        tcgrid::util::Fd probe = tcgrid::util::connect_unix(socket_path);
        return;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    std::fprintf(stderr, "bench_sweep: shard %s never came up\n", socket_path.c_str());
  }
  ~ShardProcess() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  pid_t pid = -1;
};

/// One sharded rep: fresh coordinator + `shards` single-threaded shard
/// daemon processes (cold tenant sessions, like every other arm's fresh
/// Session), timed from submit to the results stream's end record. Process
/// spawn and teardown stay outside the timed region.
ShardedTiming run_sharded(const api::ExperimentSpec& spec, long shards,
                          const std::filesystem::path& tmp, long rep) {
  namespace fs = std::filesystem;
  namespace serve = tcgrid::serve;
  const fs::path root = tmp / ("rep" + std::to_string(rep));
  fs::create_directories(root);
  ShardedTiming out;
  {
    std::vector<std::unique_ptr<ShardProcess>> fleet;
    serve::ServerOptions copts;
    copts.root = (root / "coord").string();
    copts.coordinator = true;
    for (long s = 0; s < shards; ++s) {
      serve::ServerOptions sopts;
      sopts.root = (root / ("shard" + std::to_string(s))).string();
      sopts.threads = 1;  // parallelism is the shard count, nothing hidden
      const std::string sock = (root / ("s" + std::to_string(s) + ".sock")).string();
      fleet.push_back(std::make_unique<ShardProcess>(sopts, sock));
      copts.shard.shards.push_back(sock);
    }
    serve::Server coord(copts);
    auto [client_end, server_end] = util::stream_socketpair();
    const int sfd = server_end.release();
    std::thread handler([&coord, sfd] {
      coord.serve_connection(sfd);
      ::close(sfd);
    });
    util::LineChannel ch(client_end.get());

    const auto t0 = std::chrono::steady_clock::now();
    bool ok = ch.write_line(
        serve::submit_request("bench", api::spec_to_json(spec), "bench"));
    std::string line;
    ok = ok && ch.read_line(line);
    if (!ok || line.find("\"ok\":true") == std::string::npos) {
      std::fprintf(stderr, "bench_sweep: sharded submit failed: %s\n", line.c_str());
    } else if (ch.write_line(serve::results_request("bench", 0, /*wait=*/true))) {
      while (ch.read_line(line)) {
        if (line.compare(0, 12, "{\"scenario\":") == 0) {
          out.digest ^= fnv1a(line);
          ++out.rows;
          continue;
        }
        break;  // the end record (or an error line, caught by the row gate)
      }
      out.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      out.worst_seconds = out.seconds;
    }
    client_end.reset();
    handler.join();
  }
  std::error_code ec;
  std::filesystem::remove_all(root, ec);
  return out;
}

SweepTiming time_sweep(const api::ExperimentSpec& spec) {
  api::Session session(spec.options);
  DigestSink digest;
  const auto t0 = std::chrono::steady_clock::now();
  session.run(spec, {&digest});
  SweepTiming out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.worst_seconds = out.seconds;
  out.rows = digest.rows();
  out.slots = digest.slots();
  out.digest = digest.digest();
  out.store = session.chain_store_counters();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const std::string path = [&] {
    auto v = cli.value("emit_json");
    return (v && !v->empty()) ? *v : std::string("BENCH_sweep.json");
  }();

  // Default cap 50k, not bench_engine's 200k: this bench measures the
  // sharing lever, and a unit's materialization cost is set by its LONGEST
  // run. At 200k+ the sweep's wall time is mostly RANDOM simulating
  // cap-length failures — a single consumer of each realization's tail,
  // which no scheme can share — while 50k keeps failed runs bounded near
  // the longest successful makespans (tens of thousands of slots), so the
  // measurement reflects the mixed workload sweeps actually run.
  api::ExperimentSpec spec =
      api::ExperimentSpec::reduced(static_cast<int>(cli.get_long("m", 5)),
                                   cli.get_long("cap", 50'000));
  spec.grid.scenarios_per_cell =
      static_cast<int>(cli.get_long("scenarios", spec.grid.scenarios_per_cell));
  spec.trials = static_cast<int>(cli.get_long("trials", spec.trials));
  spec.options.threads = 1;  // timings must not depend on core count

  // The trial-major sharing lever scales with how many heuristics consume
  // one realization: use the same representative set bench_engine times
  // (all quiescence classes represented).
  spec.heuristics = {
      "IP", "IE", "IAY",                // passive
      "P-IE", "E-IE", "E-IAY", "Y-IE",  // memoized proactive
      "IY", "RANDOM",                   // per-slot by contract (no skipping)
  };

  api::ExperimentSpec live = spec;
  live.options.realization_budget = 0;  // per-heuristic live generation

  // Interleaved repetitions, best-of per mode: wall times on shared CI
  // runners jitter by tens of percent, and min-of-N against min-of-N is the
  // standard way to compare two deterministic computations under that noise.
  // The max is kept too: the per-arm best-to-worst spread is the run's
  // measured noise floor, reported next to every ratio built from these
  // times.
  const long reps = std::max(1L, cli.get_long("reps", 5));
  const long shards = std::max(0L, cli.get_long("shards", 0));

  // Sharded-arm byte reference: the row-byte fold of one plain shared run.
  // Computed before the timed loop (the extra pass must not perturb it).
  std::uint64_t row_reference_digest = 0;
  std::size_t row_reference_rows = 0;
  std::filesystem::path shard_tmp;
  if (shards > 0) {
    api::Session session(spec.options);
    RowDigestSink row_digest;
    session.run(spec, {&row_digest});
    row_reference_digest = row_digest.digest();
    row_reference_rows = row_digest.rows();
    shard_tmp = std::filesystem::temp_directory_path() /
                ("tcgrid_bench_sweep_" + std::to_string(::getpid()));
    std::filesystem::remove_all(shard_tmp);
  }

  SweepTiming live_t;
  SweepTiming shared_t;
  SweepTiming obs_t;
  WarmPassTiming warm_t;
  ShardedTiming sharded_t;
  for (long r = 0; r < reps; ++r) {
    const SweepTiming l = time_sweep(live);
    const SweepTiming s = time_sweep(spec);
    const WarmPassTiming w = run_warm_pass(spec);
    if (shards > 0) {
      const ShardedTiming sh = run_sharded(spec, shards, shard_tmp, r);
      if (sh.rows != row_reference_rows || sh.digest != row_reference_digest) {
        std::fprintf(stderr,
                     "bench_sweep: sharded arm diverged from the single-process "
                     "row bytes (%zu rows vs %zu)\n",
                     sh.rows, row_reference_rows);
        return 2;
      }
      if (r == 0) {
        sharded_t = sh;
      } else {
        sharded_t.seconds = std::min(sharded_t.seconds, sh.seconds);
        sharded_t.worst_seconds = std::max(sharded_t.worst_seconds, sh.seconds);
      }
    }
    // The shared sweep with obs metric updates enabled — the
    // instrumented-path overhead measurement. Interleaved with the other
    // arms so all of them see the same machine noise.
    obs::configure({.enabled = true});
    const SweepTiming o = time_sweep(spec);
    obs::configure({});
    if (r == 0) {
      live_t = l;
      shared_t = s;
      obs_t = o;
      warm_t = w;
    } else {
      if (l.digest != live_t.digest || s.digest != shared_t.digest ||
          o.digest != obs_t.digest || w.digest != warm_t.digest) {
        std::fprintf(stderr, "bench_sweep: nondeterministic repetition digest\n");
        return 2;
      }
      live_t.seconds = std::min(live_t.seconds, l.seconds);
      shared_t.seconds = std::min(shared_t.seconds, s.seconds);
      obs_t.seconds = std::min(obs_t.seconds, o.seconds);
      live_t.worst_seconds = std::max(live_t.worst_seconds, l.seconds);
      shared_t.worst_seconds = std::max(shared_t.worst_seconds, s.seconds);
      obs_t.worst_seconds = std::max(obs_t.worst_seconds, o.seconds);
      warm_t.first_seconds = std::min(warm_t.first_seconds, w.first_seconds);
      warm_t.warm_seconds = std::min(warm_t.warm_seconds, w.warm_seconds);
      warm_t.worst_warm_seconds =
          std::max(warm_t.worst_warm_seconds, w.warm_seconds);
      warm_t.passes_identical = warm_t.passes_identical && w.passes_identical;
    }
  }

  const bool identical =
      shared_t.digest == live_t.digest && shared_t.rows == live_t.rows &&
      obs_t.digest == shared_t.digest && obs_t.rows == shared_t.rows &&
      warm_t.digest == shared_t.digest && warm_t.rows == shared_t.rows &&
      warm_t.passes_identical;
  const double shared_rate = static_cast<double>(shared_t.rows) / shared_t.seconds;
  const double live_rate = static_cast<double>(live_t.rows) / live_t.seconds;
  const double speedup = live_t.seconds / shared_t.seconds;

  // Chain-stats store statistics of the shared arm (both arms share the
  // store — realization sharing is the axis under test here), so the wall
  // times are attributable: how much series math the store deduplicated.
  const auto& cs = shared_t.store;
  const double set_hit_rate =
      cs.set_hits + cs.set_misses == 0
          ? 0.0
          : static_cast<double>(cs.set_hits) /
                static_cast<double>(cs.set_hits + cs.set_misses);

  const double obs_rate = static_cast<double>(obs_t.rows) / obs_t.seconds;
  // Raw ratio can land below zero when the instrumented run happens to draw
  // the quieter reps; the headline overhead is clamped at 0 so the artifact
  // never advertises instrumentation as a speedup. The noise floor says how
  // much of any small ratio is attributable to jitter.
  const double obs_overhead_raw = obs_t.seconds / shared_t.seconds - 1.0;
  const double obs_overhead = std::max(0.0, obs_overhead_raw);
  const double noise_floor =
      std::max({rep_spread(shared_t), rep_spread(live_t), rep_spread(obs_t)});

  // Sharded arm: speedup over the SAME single-threaded shared arm, and
  // efficiency per shard (1.0 = perfect linear scaling).
  const double sharded_rate =
      sharded_t.seconds > 0.0 ? static_cast<double>(sharded_t.rows) / sharded_t.seconds
                              : 0.0;
  const double sharded_speedup =
      sharded_t.seconds > 0.0 ? shared_t.seconds / sharded_t.seconds : 0.0;
  const double scaling_efficiency =
      shards > 0 ? sharded_speedup / static_cast<double>(shards) : 0.0;

  // Warm-pass deltas: the second pass's own hits, with the first pass (the
  // population run) subtracted out.
  const auto& w1 = warm_t.after_first;
  const auto& w2 = warm_t.after_second;
  const std::size_t warm_intern_hits = w2.intern_hits - w1.intern_hits;
  const std::size_t warm_set_hits = w2.set_hits - w1.set_hits;
  const std::size_t warm_set_misses = w2.set_misses - w1.set_misses;
  const std::size_t warm_new_chains = w2.chains - w1.chains;
  const double warm_set_hit_rate =
      warm_set_hits + warm_set_misses == 0
          ? 0.0
          : static_cast<double>(warm_set_hits) /
                static_cast<double>(warm_set_hits + warm_set_misses);
  const double warm_rate = static_cast<double>(warm_t.rows) / warm_t.warm_seconds;
  const double warm_speedup = warm_t.first_seconds / warm_t.warm_seconds;

  namespace json = util::json;
  json::Object artifact_obj{
      {"bench", "sweep_shared_realizations"},
      {"sweep", json::Object{{"m", spec.grid.ms[0]},
                             {"scenarios_per_cell", spec.grid.scenarios_per_cell},
                             {"trials", spec.trials},
                             {"slot_cap", spec.options.slot_cap},
                             {"heuristics", spec.heuristics.size()}}},
      {"rows", shared_t.rows},
      {"slots", shared_t.slots},
      {"shared", json::Object{{"seconds", shared_t.seconds},
                              {"rows_per_sec", shared_rate}}},
      {"live",
       json::Object{{"seconds", live_t.seconds}, {"rows_per_sec", live_rate}}},
      {"speedup", speedup},
      {"obs", json::Object{{"seconds", obs_t.seconds},
                           {"rows_per_sec", obs_rate},
                           {"overhead", obs_overhead},
                           {"overhead_raw", obs_overhead_raw}}},
      {"warm_pass",
       json::Object{{"first_seconds", warm_t.first_seconds},
                    {"warm_seconds", warm_t.warm_seconds},
                    {"rows_per_sec", warm_rate},
                    {"speedup_vs_first", warm_speedup},
                    {"warm_intern_hits", warm_intern_hits},
                    {"warm_set_hits", warm_set_hits},
                    {"warm_set_misses", warm_set_misses},
                    {"warm_set_hit_rate", warm_set_hit_rate},
                    {"new_chains_second_pass", warm_new_chains}}},
      {"noise_floor", noise_floor},
      {"avail_kernel", std::string(util::to_string(util::simd_kernel()))},
      {"chain_store", json::Object{{"chains", cs.chains},
                                   {"intern_hits", cs.intern_hits},
                                   {"set_entries", cs.set_entries},
                                   {"set_hits", cs.set_hits},
                                   {"set_misses", cs.set_misses},
                                   {"set_hit_rate", set_hit_rate},
                                   {"survival_entries", cs.survival_entries},
                                   {"bytes", cs.bytes}}},
      {"identical", identical},
  };
  // Host hardware threads: the denominator the sharded speedup must be
  // read against — shard processes are CPU-bound, so on a host with fewer
  // than shards+1 cores they timeshare and ~1.0x is the expected (honest)
  // ceiling, while >= shards+1 cores is where speedup_vs_shared approaches
  // the shard count.
  const std::size_t cores = std::max(1u, std::thread::hardware_concurrency());
  if (shards > 0) {
    artifact_obj.emplace_back(
        "sharded", json::Object{{"shards", shards},
                                {"cores", cores},
                                {"seconds", sharded_t.seconds},
                                {"rows_per_sec", sharded_rate},
                                {"speedup_vs_shared", sharded_speedup},
                                {"scaling_efficiency", scaling_efficiency},
                                {"rows", sharded_t.rows},
                                {"digest_match", true}});
  }
  const json::Value artifact(std::move(artifact_obj));
  if (const int rc = bench::write_json_artifact("bench_sweep", path, artifact);
      rc != 0) {
    return rc;
  }
  std::fprintf(stderr,
               "bench_sweep: %zu rows  shared %.3fs (%.0f rows/s)  live %.3fs "
               "(%.0f rows/s)  speedup x%.2f  %s\n",
               shared_t.rows, shared_t.seconds, shared_rate, live_t.seconds,
               live_rate, speedup, identical ? "identical" : "MISMATCH");
  std::fprintf(stderr,
               "bench_sweep: obs enabled %.3fs (%.0f rows/s)  overhead %.2f%% "
               "(raw %+.2f%%, noise floor %.2f%%)\n",
               obs_t.seconds, obs_rate, 100.0 * obs_overhead,
               100.0 * obs_overhead_raw, 100.0 * noise_floor);
  std::fprintf(stderr,
               "bench_sweep: warm pass  first %.3fs  warm %.3fs (x%.2f, %.0f "
               "rows/s)  %zu intern hits  set hit rate %.1f%%  %zu new chains\n",
               warm_t.first_seconds, warm_t.warm_seconds, warm_speedup, warm_rate,
               warm_intern_hits, 100.0 * warm_set_hit_rate, warm_new_chains);
  std::fprintf(stderr,
               "bench_sweep: chain store  %zu chains (+%zu dedup hits)  %zu set "
               "entries (%.1f%% hit rate)  %zu survival entries  %zu bytes\n",
               cs.chains, cs.intern_hits, cs.set_entries, 100.0 * set_hit_rate,
               cs.survival_entries, cs.bytes);
  if (shards > 0) {
    std::fprintf(stderr,
                 "bench_sweep: sharded (%ld shards, %zu cores) %.3fs (%.0f "
                 "rows/s)  x%.2f vs shared  efficiency %.0f%%  row bytes "
                 "identical\n",
                 shards, cores, sharded_t.seconds, sharded_rate, sharded_speedup,
                 100.0 * scaling_efficiency);
    std::error_code ec;
    std::filesystem::remove_all(shard_tmp, ec);
  }
  return identical ? 0 : 2;  // CI fails on any digest divergence
}
