// tcgbench: the tcgrid benchmark driver. One process runs one workload
// (so peak memory and set-up time belong to that workload alone) and
// prints its metrics as a JSON object on the last line of stdout.
//
//   tcgbench --workload NAME --seed N --seconds S --trace 0|1
//            --work-dir DIR --serve-bin PATH
//
// See README.md for the workloads, the metrics and the tail rule.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "util/json.hpp"

namespace tcgbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    t.percentile = 100.0;
  } else {
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  }
  return t;
}

double peak_rss_mb(long pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

std::string host_line() {
  std::string flags;
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string w;
    while (words >> w) {
      if (w == "avx2" || w == "avx512f" || w == "fma" || w == "bmi2") {
        flags += (flags.empty() ? "" : ",") + w;
      }
    }
    break;
  }
  return "host: nproc=" + std::to_string(std::thread::hardware_concurrency()) +
         " cpu_flags=" + (flags.empty() ? "none" : flags) +
         " build=" + TCGBENCH_BUILD_TYPE;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t row_hash(std::size_t heuristic, std::size_t scenario, int trial,
                       const tcgrid::sim::SimulationResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(heuristic));
  mix(static_cast<std::uint64_t>(scenario));
  mix(static_cast<std::uint64_t>(trial));
  mix(static_cast<std::uint64_t>(r.makespan));
  mix(static_cast<std::uint64_t>(r.success ? 1 : 0));
  mix(static_cast<std::uint64_t>(r.total_restarts));
  mix(static_cast<std::uint64_t>(r.total_reconfigurations));
  mix(static_cast<std::uint64_t>(r.idle_slots));
  for (const auto& it : r.iterations) {
    mix(static_cast<std::uint64_t>(it.start_slot));
    mix(static_cast<std::uint64_t>(it.end_slot));
    mix(static_cast<std::uint64_t>(it.comm_slots));
    mix(static_cast<std::uint64_t>(it.stalled_slots));
    mix(static_cast<std::uint64_t>(it.compute_slots));
    mix(static_cast<std::uint64_t>(it.suspended_slots));
  }
  return h;
}

void Report::add(const std::string& name, double value, const std::string& unit) {
  metrics_.push_back({name, {std::isfinite(value) ? value : 0.0, unit}});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

int Report::finish(bool correct, std::size_t attempted, std::size_t failed) const {
  namespace json = tcgrid::util::json;
  for (const std::string& n : notes_) std::printf("%s\n", n.c_str());
  json::Object metrics;
  for (const auto& [name, vu] : metrics_) {
    metrics.emplace_back(name, json::Object{{"value", vu.first}, {"unit", vu.second}});
  }
  const json::Value out = json::Object{
      {"correct", correct},
      {"attempted", static_cast<unsigned long long>(std::max<std::size_t>(attempted, 1))},
      {"failed", static_cast<unsigned long long>(failed)},
      {"metrics", std::move(metrics)},
  };
  std::printf("%s\n", json::dump(out).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

void add_op_latency(Report& report, const std::vector<double>& seconds) {
  std::vector<double> ms(seconds);
  for (double& s : ms) s *= 1e3;
  const Tail t = tail(ms);
  report.add("op_p50_ms", median(ms), "ms");
  report.add("op_tail_ms", t.value, "ms");
  char buf[160];
  std::snprintf(buf, sizeof buf, "op_tail_ms = p%.1f of %zu samples", t.percentile, t.samples);
  report.note(buf);
}

LayerTimes& LayerTimes::operator+=(const LayerTimes& o) {
  platform_setup_s += o.platform_setup_s;
  fill_s += o.fill_s;
  decide_s += o.decide_s;
  estimator_build_s += o.estimator_build_s;
  sched_setup_s += o.sched_setup_s;
  engine_s += o.engine_s;
  engine_fill_s += o.engine_fill_s;
  engine_decide_s += o.engine_decide_s;
  gen_slots += o.gen_slots;
  gen_proc_slots += o.gen_proc_slots;
  decides += o.decides;
  sim_slots += o.sim_slots;
  replay_jumps += o.replay_jumps;
  per_slot_steps += o.per_slot_steps;
  budget_fallbacks += o.budget_fallbacks;
  realization_bytes_peak = std::max(realization_bytes_peak, o.realization_bytes_peak);
  wall_s += o.wall_s;
  return *this;
}

void add_layer_metrics(Report& report, const LayerTimes& t, double untraced_s) {
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double wall = t.wall_s;
  report.add("platform.fill_s", t.fill_s, "s");
  report.add("platform.fill_share", ratio(t.fill_s, wall), "ratio");
  report.add("platform.gen_slots", static_cast<double>(t.gen_slots), "count");
  report.add("platform.ns_per_proc_slot",
             ratio(t.fill_s * 1e9, static_cast<double>(t.gen_proc_slots)), "ns");
  report.add("platform.reuse",
             ratio(static_cast<double>(t.sim_slots), static_cast<double>(t.gen_slots)),
             "ratio");
  report.add("platform.realization_mb_peak",
             static_cast<double>(t.realization_bytes_peak) / (1 << 20), "MB");
  report.add("platform.budget_fallbacks", static_cast<double>(t.budget_fallbacks), "count");
  report.add("sched.decide_s", t.decide_s, "s");
  report.add("sched.decide_share", ratio(t.decide_s, wall), "ratio");
  report.add("sched.decides", static_cast<double>(t.decides), "count");
  report.add("sched.decide_us", ratio(t.decide_s * 1e6, static_cast<double>(t.decides)),
             "us");
  report.add("sched.decides_per_kslot",
             ratio(1000.0 * static_cast<double>(t.decides), static_cast<double>(t.sim_slots)),
             "count");
  report.add("sched.estimator_build_s", t.estimator_build_s, "s");
  report.add("sim.engine_self_s", t.engine_self_s(), "s");
  report.add("sim.engine_share", ratio(t.engine_self_s(), wall), "ratio");
  report.add("sim.slots", static_cast<double>(t.sim_slots), "count");
  report.add("sim.ns_per_slot",
             ratio(t.engine_self_s() * 1e9, static_cast<double>(t.sim_slots)), "ns");
  report.add("sim.replay_jumps", static_cast<double>(t.replay_jumps), "count");
  report.add("sim.per_slot_steps", static_cast<double>(t.per_slot_steps), "count");
  report.add("trace.overhead_frac", ratio(wall, untraced_s) - 1.0, "ratio");
  report.add("trace.unaccounted_frac",
             1.0 - ratio(t.platform_s() + t.sched_s() + t.engine_self_s(), wall), "ratio");
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "layers: platform %.1f%%  sched %.1f%%  sim %.1f%%  (traced %.3f s, "
                "untraced %.3f s)",
                100 * ratio(t.platform_s(), wall), 100 * ratio(t.sched_s(), wall),
                100 * ratio(t.engine_self_s(), wall), wall, untraced_s);
  report.note(buf);
}

void add_store_metrics(Report& report, const tcgrid::markov::ChainStatsStore::Counters& c) {
  report.add("markov.store_mb", static_cast<double>(c.bytes) / (1 << 20), "MB");
  report.add("markov.survival_entries", static_cast<double>(c.survival_entries), "count");
  const double probes = static_cast<double>(c.set_hits + c.set_misses);
  report.add("markov.set_hit_rate", probes > 0 ? static_cast<double>(c.set_hits) / probes : 0.0,
             "ratio");
}

void add_serve_metrics(Report& report, const ServeLayer& s) {
  report.add("serve.submit_ms_p50", s.submit_ms_p50, "ms");
  report.add("serve.first_row_ms_p50", s.first_row_ms_p50, "ms");
  report.add("serve.status_rtt_us_p50", s.status_rtt_us_p50, "us");
  report.add("serve.busy_frac", s.busy_frac, "ratio");
  report.add("serve.checkpoint_mb", s.checkpoint_mb, "MB");
  report.add("serve.duplicate_commits", s.duplicate_commits, "count");
  report.add("serve.redispatched", s.redispatched, "count");
}

}  // namespace tcgbench

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: tcgbench --workload sweep_mixed|sweep_live|serve_local|serve_sharded\n"
               "                --seed N --seconds S --trace 0|1 --work-dir DIR"
               " --serve-bin PATH\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  tcgbench::Args args;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) usage();
      const std::string v = argv[++i];
      if (arg == "--workload") args.workload = v;
      else if (arg == "--seed") args.seed = std::stoull(v);
      else if (arg == "--seconds") args.seconds = std::stod(v);
      else if (arg == "--trace") args.trace = std::stoi(v) != 0;
      else if (arg == "--work-dir") args.work_dir = v;
      else if (arg == "--serve-bin") args.serve_bin = v;
      else usage();
    }
  } catch (const std::exception&) {
    usage();
  }
  if (args.seconds <= 0 || args.work_dir.empty()) usage();
  std::printf("%s\n", tcgbench::host_line().c_str());
  std::printf("workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  try {
    if (args.workload == "sweep_mixed" || args.workload == "sweep_live") {
      return tcgbench::run_sweep(args);
    }
    if (args.workload == "serve_local" || args.workload == "serve_sharded") {
      if (args.serve_bin.empty()) usage();
      return tcgbench::run_serve(args);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tcgbench: %s\n", e.what());
    return 1;
  }
  usage();
}
